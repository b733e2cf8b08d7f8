"""CSV emission and parsing for scenario artifacts.

Schemas:

* trajectory: ``t,S_true,I_true,R_true,S_meas,I_meas,u_applied,stage``, one
  row per grid node, plus ``s_seen,i_seen`` for a policy whose consumed
  signals are not its true ``S``/``I`` (one that read noise)
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

Rows are written in blocks of ``_CHUNK_ROWS``. A full block of number
columns is formatted with numpy array operations (``blockfmt``), any other
block by one ``%`` call; both give, byte for byte, ``f"{v:.12g}"`` per
float cell, so a fixed seed yields byte-identical files.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .scenarios import CostRow, EstimateRow, PolicyRun, RunArtifacts

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

    A full block of ``_CHUNK_ROWS`` rows whose columns are all numbers
    (kinds "g" and "d") goes through ``blockfmt``. Any other block, a short
    table, the tail of a long one or a block with a flag or text column, is
    one ``%`` call applying the row format, repeated per row, to the column
    slices as lists: on a few hundred rows the array path saves nothing, and
    its code and the numpy kernels it runs would add ~0.8 MB of resident
    memory to a process that writes only short tables.
    """
    m, width = len(columns[0]), len(kinds)
    if m == _CHUNK_ROWS and set(kinds) <= {"g", "d"}:
        from .blockfmt import format_block  # only a process that writes a full block loads it
        return format_block(columns, kinds)
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
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for columns in blocks:
            fh.write(_format_block(columns, kinds))


def write_trajectory_csv(path: Path, run: PolicyRun) -> None:
    """The node rows; the seen signals only where they are the run's own
    arrays (the trace holds ``S``/``I`` themselves for a run that read none).
    ``S_meas``/``I_meas`` are built per block by ``measure``, which works
    element by element, so they are the bits of one whole-run call."""
    traj, tr = run.result.trajectory, run.result.trace
    blind = tr.node_s_seen is traj.s and tr.node_i_seen is traj.i
    n = len(traj)

    def blocks() -> Iterator[list]:
        for lo in range(0, n, _CHUNK_ROWS):
            k = slice(lo, min(lo + _CHUNK_ROWS, n))
            s, i = traj.s[k], traj.i[k]
            s_hat, i_hat = run.noise.measure(k, s, i, std=True)[:2]
            columns = [traj.t[k], s, i, traj.r[k], s_hat, i_hat, traj.u[k],
                       run.result.node_stage[k]]
            yield columns if blind else columns + [tr.node_s_seen[k], tr.node_i_seen[k]]

    if blind:
        _write(path, TRAJECTORY_HEADER, "gggggggd", blocks())
    else:
        _write(path, SEEN_HEADER, "gggggggdgg", blocks())


def write_trace_csv(path: Path, run: PolicyRun) -> None:
    """The switch rows; the node rows are in the trajectory file."""
    rows = run.result.trace.switch_rows
    _write(path, TRACE_HEADER, "ggdgg", _slices([[row[k] for row in rows] for k in range(1, 6)]))


def _row_columns(rows: Iterable, header: list[str]) -> list[list]:
    """Columns of dataclass rows whose fields are named as the header."""
    rows = list(rows)
    return [[getattr(r, name) for r in rows] for name in header]


def write_estimates_csv(path: Path, rows: Iterable[EstimateRow]) -> None:
    _write(path, ESTIMATES_HEADER, _ESTIMATES_KINDS,
           _slices(_row_columns(rows, ESTIMATES_HEADER)))


def write_costs_csv(path: Path, rows: Iterable[CostRow]) -> None:
    _write(path, COSTS_HEADER, _COSTS_KINDS, _slices(_row_columns(rows, COSTS_HEADER)))


def emit_csv(artifacts: RunArtifacts, out_dir: Union[str, Path]) -> list[Path]:
    """Write all artifacts of one scenario run; overwrites idempotently."""
    out = Path(out_dir)
    written: list[Path] = []
    for name, run in artifacts.runs.items():
        p = out / f"trajectory_{name}.csv"
        write_trajectory_csv(p, run)
        written.append(p)
        p = out / f"policy_trace_{name}.csv"
        write_trace_csv(p, run)
        written.append(p)
    if artifacts.cost_rows:
        p = out / "costs.csv"
        write_costs_csv(p, artifacts.cost_rows)
        written.append(p)
    return written


def _read(path: Path, *headers: list[str]) -> tuple[list[str], list[list[str]]]:
    """The header, one of ``headers``, and the rows of a CSV file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header not in headers:
            raise ValueError(f"{path}: unexpected header {header}")
        return header, [row for row in reader]


def read_trajectory_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns by name: the base schema, plus ``s_seen``/``i_seen`` if written."""
    header, rows = _read(Path(path), TRAJECTORY_HEADER, SEEN_HEADER)
    cols = np.array([[float(v) for v in row] for row in rows]).reshape(
        len(rows), len(header))
    out = {name: cols[:, k] for k, name in enumerate(header)}
    out["stage"] = out["stage"].astype(np.int64)
    return out


def _read_rows(path: Path, header: list[str], kinds: str, row_type: type) -> list:
    return [row_type(**{name: _KINDS[k][1](v) for name, k, v in zip(header, kinds, row)})
            for row in _read(Path(path), header)[1]]


def read_estimates_csv(path: Path) -> list[EstimateRow]:
    return _read_rows(path, ESTIMATES_HEADER, _ESTIMATES_KINDS, EstimateRow)


def read_costs_csv(path: Path) -> list[CostRow]:
    return _read_rows(path, COSTS_HEADER, _COSTS_KINDS, CostRow)
