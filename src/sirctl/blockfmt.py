"""Format full blocks of CSV rows with numpy array operations.

``format_block`` writes, byte for byte, what one ``%`` call per cell
gives: ``%.12g`` for a float cell and ``%d`` for an integer one. Each cell
becomes a fixed-width template, NUL where it has no character, and the
block is joined with its NULs dropped.

A number of magnitude in ``[1e-10, 1e11)`` is rounded to 12 significant
digits exactly: Dekker's two-product gives ``|v| * 10**k`` as an exact sum
of two doubles, so its rounding to an integer, ties to even, is the
correctly rounded decimal that CPython's ``%.12g`` prints (Gay's
conversion). Its digits come from a table of digit pairs, and the notation
follows ``%g``: fixed for exponents -4 to 11 (a value just under 1e11 may
round up to 100000000000), else ``d.ddde-XX``, with trailing zeros and a
bare point dropped. Zeros, ``-0`` among them, are written by the same pass;
other numbers (nan, inf and magnitudes outside the range) take one ``%``
call each. An integer cell below 1e11 takes the float path: such an
integer is an exact double, which ``%.12g`` prints as ``%d`` does.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

_FORMATS = {"g": "%.12g", "d": "%d"}

# A number cell's template, NUL where the cell has no character, as five
# 8-byte words: the sign and a "0." lead with up to three zeros; 12 digits,
# each followed by a slot for the decimal point; "e-XX" and, in the last
# byte, the separator
_CELL = 40


def _table(cells: list[bytes], dtype: type) -> np.ndarray:
    return np.frombuffer(b"".join(cells), dtype)


# by x + 10 + 22 * (v < 0), for the exponent x in [-10, 11]
_LEAD = _table([(sign + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")).ljust(8, b"\0")
                for sign in (b"\0", b"-") for x in range(-10, 12)], np.uint64)
_EXPONENT = _table([b"e-%02d" % -x if x < -4 else b"\0" * 4 for x in range(-10, 12)],
                   np.uint32)  # by x + 10
_PAIRS = _table([bytes([48 + k // 10, 46, 48 + k % 10, 46]) for k in range(100)], np.uint32)
# by (pair h, the pair): 1 + the place of the pair's last nonzero digit, 0 if none
_LAST = np.array([[0] + [2 * h + 1 + (k % 10 != 0) for k in range(1, 100)]
                  for h in range(6)], np.int8)
# by x + 10: the place of the digit the point may follow, -1 where the
# lead holds the point
_PLACE = np.array([0] * 6 + [-1] * 4 + list(range(12)))
# by word and 13 * (the last digit kept) + (1 + the digit the point follows,
# 0 if none): the digit words' mask
_KEEP = _table([bytes(255 * (j % 2 == 0 and j // 2 <= k or j == 2 * p - 1) for j in range(24))
                for k in range(12) for p in range(13)], np.uint64).reshape(-1, 3).T.copy()
_ZERO = _table([(sign + b"\0" * 7 + b"0").ljust(_CELL, b"\0") for sign in (b"\0", b"-")],
               np.uint64).reshape(2, 5)  # "0" and "-0"
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _scaled(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a * 10**(11 - x)`` rounded to an integer, ties to even, exactly.

    ``hi + lo`` is the exact product (Dekker's two-product; ``10**k`` is
    exact for k <= 22), so the sign of ``(hi - floor(hi) - 0.5) + lo``
    decides the rounding: that sum is exact when its first term is 0 and
    has the first term's sign otherwise.
    """
    k = 11 - x
    hi = a * _POW10[k]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    floor = np.floor(hi)
    r = (hi - floor - 0.5) + lo
    n = floor.astype(np.int64)
    return n + ((r > 0) | ((r == 0) & (n & 1 == 1)))


def _round12(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive ``a`` rounded to 12 significant digits: the integer N in
    ``[10**11, 10**12)`` and the exponent x with ``a ~ N * 10**(x - 11)``.
    Where ``log10`` missed x by one, or N rounded up to ``10**12``, N falls
    outside its range and is redone one place over."""
    x = np.floor(np.log10(a)).astype(np.int64)
    n = _scaled(a, x)
    step = (n >= 10**12).astype(np.int64) - (n < 10**11)
    redo = np.flatnonzero(step)
    x[redo] += step[redo]
    n[redo] = _scaled(a[redo], x[redo])
    return n, x


def _numbers(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``%.12g`` text of each of ``v`` as ``_CELL``-byte templates, and
    the indices of the templates left blank: the numbers outside
    ``[1e-10, 1e11)`` in magnitude other than zeros (nan and inf among them).

    x in [-4, 11] is fixed notation, else N's first digit, a fraction and
    the exponent. N's digits are kept up to its last nonzero one or to the
    one at place 10**0, whichever is later; the point follows that one if
    a digit is kept after it.
    """
    m = len(v)
    a = np.abs(v)
    ok = (a >= 1e-10) & (a < 1e11)
    n, x = _round12(np.where(ok, a, 1.0))
    cells = np.empty((m, _CELL), np.uint8)
    words, halves = cells.view(np.uint64), cells.view(np.uint32)
    words[:, 0] = _LEAD[x + 10 + 22 * (v < 0)]
    last = np.zeros(m, np.int8)  # 1 + the place of N's last nonzero digit
    low = n // 10**4
    high = low // 10**4
    for h, quad in enumerate((high, low - high * 10**4, n - low * 10**4)):
        pair = quad // 100
        for p, g in ((2 * h, pair), (2 * h + 1, quad - pair * 100)):
            halves[:, 2 + p] = _PAIRS[g]
            np.maximum(last, _LAST[p][g], out=last)
    place = _PLACE[x + 10]
    keep = 13 * np.maximum(last - 1, place) + np.where(place < last - 1, place + 1, 0)
    for w in range(3):
        words[:, 1 + w] &= _KEEP[w][keep]
    halves[:, 8] = _EXPONENT[x + 10]
    halves[:, 9] = 0
    special = np.flatnonzero(~ok)
    zero = v[special] == 0
    words[special[zero]] = _ZERO[np.signbit(v[special[zero]]).view(np.int8)]
    blank = special[~zero]
    cells[blank] = 0
    return cells, blank


def format_block(columns: Sequence[Sequence], kinds: str) -> bytes:
    """The rows of equal-length number column slices, one kind letter of
    ``_FORMATS`` per column: one template per cell, and the NULs dropped.
    A cell left blank by ``_numbers`` takes its ``%`` text, at most 20
    bytes (``%.12g`` writes at most 19, ``%d`` of an int64 20)."""
    m, width = len(columns[0]), len(kinds)
    values = np.empty((m, width))
    for j, col in enumerate(columns):
        values[:, j] = col
    cells, blank = _numbers(values.reshape(-1))
    for f in blank.tolist():
        r, j = divmod(f, width)
        b = (_FORMATS[kinds[j]] % columns[j][r]).encode()
        cells[f, :len(b)] = np.frombuffer(b, np.uint8)
    big = cells.reshape(m, width, _CELL)
    big[:, :, -1] = ord(",")
    big[:, -1, -1] = ord("\n")
    return big.tobytes().translate(None, b"\0")
