"""CSV emission and parsing for scenario artifacts. ``emit_csv`` is the one
writer of a scenario's files, staged so that a scenario that fails writes none.

Schemas:

* trajectory: ``t,S_true,I_true,R_true,S_meas,I_meas,u_applied,stage``, one
  row per grid node, plus ``s_seen,i_seen`` for a policy that read noise
* estimates:  ``alpha,h,beta_hat,gamma_hat,err_norm,bound_b,contained``
* costs:      ``policy,total_cost,gap_direct,gap_lemma4,gap_thm4,gap_upper,t_b,t_h,feasible``
* policy trace: ``t,u,stage,s_seen,i_seen``, the run's switch rows only. The
  full trace is the trajectory's node rows (``t``, ``u_applied``, ``stage``
  and the seen signals, ``S_true``/``I_true`` where the file has none) with
  each switch row inserted, in file order, at
  ``np.searchsorted(node_t, t, side="left")``.

Cells are floats as ``f"{v:.12g}"`` (``nan``, ``inf`` and ``-0`` as such;
12 digits keep the cross-formula checks meaningful after a round trip),
integers, ``true``/``false`` flags and unquoted text.

Rows are written in blocks of ``_CHUNK_ROWS``. A block of number columns
is formatted with numpy array operations (``blockfmt``), a block with a
flag or text column by one ``%`` call; both give, byte for byte,
``f"{v:.12g}"`` per float cell, so a fixed seed yields byte-identical files.
"""
from __future__ import annotations

import csv
import os
import shutil
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .control import ClosedLoopResult
from .noise import MeasurementNoise
from .scenarios import CostRow, EstimateRow

TRAJECTORY_HEADER = ["t", "S_true", "I_true", "R_true", "S_meas", "I_meas",
                     "u_applied", "stage"]
ESTIMATES_HEADER = ["alpha", "h", "beta_hat", "gamma_hat", "err_norm",
                    "bound_b", "contained"]
COSTS_HEADER = ["policy", "total_cost", "gap_direct", "gap_lemma4", "gap_thm4",
                "gap_upper", "t_b", "t_h", "feasible"]
TRACE_HEADER = ["t", "u", "stage", "s_seen", "i_seen"]
SEEN_HEADER = TRAJECTORY_HEADER + TRACE_HEADER[-2:]  # a run that read noise

# Rows per block. It bounds the arrays alive at once: a trajectory block of
# 1024 rows formats into ~0.4 MB of cell templates.
_CHUNK_ROWS = 1024
_ESTIMATES_KINDS = "dgggggb"  # one _KINDS key per column
_COSTS_KINDS = "sgggggggb"


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"not a boolean field: {text!r}")


# column kind -> (cell format, parser): float, integer, text, flag
_KINDS = {"g": ("%.12g", float), "d": ("%d", int), "s": ("%s", str),
          "b": ("%s", _parse_bool)}


def _format_block(columns: Sequence[Sequence], kinds: str) -> bytes:
    """The rows of a block of equal-length column slices (arrays or lists).

    A block whose columns are all numbers (kinds "g" and "d": trajectory
    and trace files) goes through ``blockfmt``. A block with a flag or text
    column (estimates and costs) is one ``%`` call applying the row format,
    repeated per row, to the column slices as lists, so a process that
    writes only those tables never loads ``blockfmt``: its code, tables and
    the numpy kernels it runs would add ~1.6 MB of resident memory (1.1 MB
    of it numpy's shared-library pages) for a few hundred rows.
    """
    m, width = len(columns[0]), len(kinds)
    if set(kinds) <= {"g", "d"}:
        from .blockfmt import format_block  # only a process that writes number tables loads it
        return format_block(columns, [_KINDS[k][0] for k in kinds])
    flat: list = [None] * (m * width)
    for j, (col, kind) in enumerate(zip(columns, kinds)):
        col = col.tolist() if isinstance(col, np.ndarray) else col
        flat[j::width] = ["true" if v else "false" for v in col] if kind == "b" else col
    row = ",".join(_KINDS[k][0] for k in kinds) + "\n"
    return (row * m % tuple(flat)).encode()


def _slices(columns: Sequence[Sequence]) -> Iterator[list]:
    """Blocks of ``_CHUNK_ROWS`` rows of equal-length columns (arrays or lists)."""
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("columns differ in length")
    return ([col[lo:lo + _CHUNK_ROWS] for col in columns] for lo in range(0, n, _CHUNK_ROWS))


def _write(path: Path, header: list[str], kinds: str, blocks: Iterable[Sequence]) -> None:
    """Write ``header`` and the rows of each block of column slices;
    ``kinds`` holds one ``_KINDS`` key per column."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for columns in blocks:
            fh.write(_format_block(columns, kinds))


def write_trajectory_csv(path: Path, run: ClosedLoopResult, noise: MeasurementNoise) -> None:
    """The node rows; the seen signals only for a run that read noise
    (those of a run that read none are its ``S``/``I``). ``S_meas``/``I_meas``
    are built per block by one ``measure`` call, which works element by
    element, so they are the bits of one whole-run call: of ``noise``, or
    for a run that read noise of the source it read (the scenario's one
    source), whose call gives its seen signals too (``PolicyTrace.read``)."""
    traj, tr = run.trajectory, run.trace
    n = len(traj)

    def blocks() -> Iterator[list]:
        for lo in range(0, n, _CHUNK_ROWS):
            k = slice(lo, min(lo + _CHUNK_ROWS, n))
            s, i = traj.s[k], traj.i[k]
            # S_meas and I_meas, then the seen signals of a run that read noise
            reads = noise.measure(k, s, i, std=True)[:2] if tr.noise is None else tr.read(k)
            yield [traj.t[k], s, i, traj.r[k], *reads[:2], traj.u[k], tr.node_stage[k],
                   *reads[2:]]

    if tr.noise is None:
        _write(path, TRAJECTORY_HEADER, "gggggggd", blocks())
    else:
        _write(path, SEEN_HEADER, "gggggggdgg", blocks())


def write_trace_csv(path: Path, run: ClosedLoopResult) -> None:
    """The switch rows; the node rows are in the trajectory file."""
    rows = run.trace.switch_rows
    _write(path, TRACE_HEADER, "ggdgg", _slices([[row[k] for row in rows] for k in range(1, 6)]))


def _row_columns(rows: Iterable, header: list[str]) -> list[list]:
    """Columns of named-field rows (``EstimateRow``, ``CostRow``), in header order."""
    rows = list(rows)
    return [[getattr(r, name) for r in rows] for name in header]


def write_estimates_csv(path: Path, rows: Iterable[EstimateRow]) -> None:
    _write(path, ESTIMATES_HEADER, _ESTIMATES_KINDS,
           _slices(_row_columns(rows, ESTIMATES_HEADER)))


def write_costs_csv(path: Path, rows: Iterable[CostRow]) -> None:
    _write(path, COSTS_HEADER, _COSTS_KINDS, _slices(_row_columns(rows, COSTS_HEADER)))


def emit_csv(runs: Iterable[tuple[str, ClosedLoopResult, CostRow, MeasurementNoise]],
             out_dir: Union[str, Path]) -> list[Path]:
    """Write each run's trajectory then policy-trace file, in the order of
    ``runs``, then costs.csv of their rows, in ``out_dir``; returns the paths.

    ``runs`` yields ``(name, run, cost row, noise)``, as ``policy_runs`` and
    a ``RunArtifacts`` do; each run is written and let go before the next is
    asked for. The files are staged in a fresh ``.sirctl-*`` directory in
    ``out_dir`` or its nearest existing parent and moved in only once
    ``runs`` ends, so if it raises no CSV is written or overwritten.
    """
    out = Path(out_dir)
    base = next(p for p in (out, *out.parents) if p.exists())
    staging = Path(tempfile.mkdtemp(prefix=".sirctl-", dir=base))
    try:
        names, rows = [], []
        for name, run, row, noise in runs:
            names += [f"trajectory_{name}.csv", f"policy_trace_{name}.csv"]
            write_trajectory_csv(staging / names[-2], run, noise)
            write_trace_csv(staging / names[-1], run)
            rows.append(row)
            del run  # else the loop variable holds this run while the next is made
        names.append("costs.csv")
        write_costs_csv(staging / names[-1], rows)
        out.mkdir(parents=True, exist_ok=True)
        for name in names:
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return [out / name for name in names]


def _read(path: Path, *headers: list[str], kinds: str = "") -> tuple[list[str], list[list]]:
    """The header, one of ``headers``, and the rows of a CSV file, each cell
    parsed by the ``_KINDS`` parser of its column (``kinds``, floats if
    empty). A file without a header line, a row with other than the
    header's field count, or a cell that its parser rejects, is a ValueError
    naming the path (and the row's line)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: no header line")
        if header not in headers:
            raise ValueError(f"{path}: unexpected header {header}")
        parsers = [_KINDS[k][1] for k in kinds or "g" * len(header)]
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: {len(row)} fields "
                                 f"under a header of {len(header)}")
            try:
                rows.append([parse(v) for parse, v in zip(parsers, row)])
            except ValueError as err:
                raise ValueError(f"{path}, line {reader.line_num}: {err}") from err
        return header, rows


def read_trajectory_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns by name: the base schema, plus ``s_seen``/``i_seen`` if written."""
    header, rows = _read(Path(path), TRAJECTORY_HEADER, SEEN_HEADER)
    cols = np.array(rows).reshape(len(rows), len(header))
    out = {name: cols[:, k] for k, name in enumerate(header)}
    out["stage"] = out["stage"].astype(np.int64)
    return out


def _read_rows(path: Path, header: list[str], kinds: str, row_type: type) -> list:
    return [row_type(**dict(zip(header, row)))
            for row in _read(Path(path), header, kinds=kinds)[1]]


def read_estimates_csv(path: Path) -> list[EstimateRow]:
    return _read_rows(path, ESTIMATES_HEADER, _ESTIMATES_KINDS, EstimateRow)


def read_costs_csv(path: Path) -> list[CostRow]:
    return _read_rows(path, COSTS_HEADER, _COSTS_KINDS, CostRow)
