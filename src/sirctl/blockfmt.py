"""Format blocks of CSV rows of number columns with numpy array operations.

``format_block`` writes, byte for byte, what one ``%`` call per cell
gives: ``%.12g`` for a float cell and ``%d`` for an integer one. Each cell
becomes a fixed-width template, NUL where it has no character, and the
block is joined with its NULs dropped.

A number of magnitude in ``[1e-10, 1e11)`` is rounded to 12 significant
digits by one product ``hi = |v| * 10**k``, which decides the correctly
rounded decimal that CPython's ``%.12g`` prints (Gay's conversion) for
every cell whose ``hi`` is not a half-integer, since rounding to nearest
cannot carry a product across a half-integer that is itself a double
(``_round12``). The 12 digits come four at a time from a table of
"d.d.d.d." words, and the notation follows ``%g``: fixed for exponents -4
to 11 (a value just under 1e11 may round up to 100000000000), else
``d.ddde-XX``, with trailing zeros and a bare point dropped. Zeros, ``-0``
among them, are written by the same pass. Every other cell takes one ``%``
call: nan, inf, magnitudes outside the range, and the cells the product
leaves undecided (an exact or near tie, or an exponent that ``log10``
missed), fewer than 1 in 10,000 of a preset trajectory's cells. An
integer cell below 1e11 takes the float path: such an integer is an exact
double, which ``%.12g`` prints as ``%d`` does.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

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
_ZERO = _table([(sign + b"\0" * 7 + b"0").ljust(_CELL, b"\0") for sign in (b"\0", b"-")],
               np.uint64).reshape(2, 5)  # "0" and "-0"


def _groups() -> tuple[np.ndarray, np.ndarray]:
    """By a group g of four digits: its word "d.d.d.d.", and, by (the
    group's place h in N, g), where ``_KEEP``'s row for the place in N of
    the group's last nonzero digit starts, 0 if it has none (N's first
    group has one)."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # g's, first to last
    text = np.full((10**4, 8), ord("."), np.uint8)
    text[:, ::2] = digits + ord("0")
    last = np.max((digits != 0) * np.arange(1, 5, dtype=np.int16), axis=1)  # 0 if none
    place = np.where(last > 0, last - 1 + 4 * np.arange(3, dtype=np.int16)[:, None], 0)
    return text.view(np.uint64)[:, 0], 22 * place


def _keep() -> np.ndarray:
    """By word and 22 * (the place of N's last nonzero digit) + x + 10: the
    digit words' mask. N's digits are kept up to its last nonzero one or
    to the one at place 10**0, whichever is later; the point follows that
    one if a digit is kept after it."""
    x = np.arange(-10, 12)
    # the place of the digit the point may follow; -1 where the lead holds it
    place = np.where(x < -4, 0, np.where(x < 0, -1, x))
    last = np.arange(12)[:, None]
    kept = np.maximum(last, place)
    point = np.where(place < last, 2 * place + 1, -1)  # the byte of the point
    j = np.arange(24)
    mask = (j % 2 == 0) & (j // 2 <= kept[..., None]) | (j == point[..., None])
    return (mask * np.uint8(255)).view(np.uint64).reshape(-1, 3).T.copy()


_QUADS, _LAST_ROW = _groups()
_KEEP = _keep()
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles


def _round12(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive ``a`` rounded to 12 significant digits: the integer N in
    ``[10**11, 10**12)``, the exponent x with ``a ~ N * 10**(x - 11)``, and
    where one product cannot decide N.

    The exact product p = ``a * 10**(11 - x)`` and its rounding ``hi`` are
    below 10**13 < 2**44 (x is at most one off the exponent of a), so every
    half-integer m + 0.5 up to them is a double. Rounding to nearest is
    monotonic and leaves a double where it is, so it cannot carry p across
    one: ``hi`` is above m + 0.5 only where p is, and below it only where p
    is. With m = ``floor(hi)``, p therefore rounds to m + 1 where
    ``hi - m - 0.5 > 0`` and to m where it is below 0 (both subtractions
    are exact). Where it is exactly 0, an exact or near tie, N is left
    undecided, as it is where N falls outside its range: ``log10`` missed
    x by one, or N rounded up to ``10**12``. (An x one too high gives an
    N in range only as ``10**11``, for an a within a few ulps below
    ``10**x``, whose 12 digits round up to ``10**x`` too.) An undecided N
    is clipped into range, so it still indexes the digit tables.
    """
    x = np.floor(np.log10(a)).astype(np.int64)
    hi = a * _POW10[11 - x]
    floor = np.floor(hi)
    r = hi - floor - 0.5
    n = floor.astype(np.int64) + (r > 0)
    hard = (r == 0) | (n < 10**11) | (n >= 10**12)
    return np.minimum(n, 10**12 - 1), x, hard


def _numbers(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``%.12g`` text of each of ``v`` as ``_CELL``-byte templates, and
    the indices of the templates left blank: the numbers outside
    ``[1e-10, 1e11)`` in magnitude other than zeros (nan and inf among
    them), and those inside whose rounding ``_round12`` leaves undecided.

    x in [-4, 11] is fixed notation, else N's first digit, a fraction and
    the exponent; ``_KEEP`` masks the digits and the point dropped.
    """
    m = len(v)
    a = np.abs(v)
    ok = (a >= 1e-10) & (a < 1e11)
    n, x, hard = _round12(np.where(ok, a, 1.0))
    x += 10
    cells = np.empty((m, _CELL), np.uint8)
    words, halves = cells.view(np.uint64), cells.view(np.uint32)
    words[:, 0] = _LEAD[x + 22 * (v < 0)]
    low = n // 10**4
    high = low // 10**4
    keep = np.zeros(m, np.int16)  # where _KEEP's row of N's last nonzero digit starts
    for h, g in enumerate((high, low - high * 10**4, n - low * 10**4)):
        words[:, 1 + h] = _QUADS[g]
        np.maximum(keep, _LAST_ROW[h][g], out=keep)
    keep = keep + x
    for w in range(3):
        words[:, 1 + w] &= _KEEP[w][keep]
    halves[:, 8] = _EXPONENT[x]
    halves[:, 9] = 0
    zero = np.flatnonzero(v == 0)
    words[zero] = _ZERO[np.signbit(v[zero]).view(np.int8)]
    blank = np.flatnonzero(np.where(ok, hard, v != 0))
    cells[blank] = 0
    return cells, blank


def format_block(columns: Sequence[Sequence], formats: Sequence[str]) -> bytes:
    """The rows of equal-length number column slices, one ``%`` format per
    column (``%.12g`` or ``%d``): one template per cell, and the NULs
    dropped. A cell left blank by ``_numbers`` takes its ``%`` text, at most
    20 bytes (``%.12g`` writes at most 19, ``%d`` of an int64 20)."""
    m, width = len(columns[0]), len(formats)
    values = np.empty((m, width))
    for j, col in enumerate(columns):
        values[:, j] = col
    cells, blank = _numbers(values.reshape(-1))
    for f in blank.tolist():
        r, j = divmod(f, width)
        b = (formats[j] % columns[j][r]).encode()
        cells[f, :len(b)] = np.frombuffer(b, np.uint8)
    big = cells.reshape(m, width, _CELL)
    big[:, :, -1] = ord(",")
    big[:, -1, -1] = ord("\n")
    return big.tobytes().translate(None, b"\0")
