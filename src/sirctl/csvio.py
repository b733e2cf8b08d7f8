"""CSV emission and parsing for scenario artifacts.

Schemas:

* trajectory: ``t,S_true,I_true,R_true,S_meas,I_meas,u_applied,stage``
* estimates:  ``alpha,h,beta_hat,gamma_hat,err_norm,bound_b,contained``
* costs:      ``policy,total_cost,gap_direct,gap_lemma4,gap_thm4,gap_upper,t_b,t_h,feasible``
* policy trace: ``t,u,stage,s_seen,i_seen``

Cells are floats as ``f"{v:.12g}"`` (``nan``, ``inf`` and ``-0`` as such;
12 digits keep the cross-formula checks meaningful after a round trip),
integers, ``true``/``false`` flags and unquoted text. Rows are written
column-wise: each block of ``_CHUNK_ROWS`` rows is one ``%`` call applying
the row format (``%.12g`` per float cell) repeated per row to the block's
column slices as lists. A policy trace is written from its node columns,
with its few switch rows formatted one by one where they belong. ``%.12g``
is the CPython formatting of ``f"{v:.12g}"``, so a fixed seed yields
byte-identical files.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .scenarios import CostRow, EstimateRow, PolicyRun, RunArtifacts

TRAJECTORY_HEADER = ["t", "S_true", "I_true", "R_true", "S_meas", "I_meas",
                     "u_applied", "stage"]
ESTIMATES_HEADER = ["alpha", "h", "beta_hat", "gamma_hat", "err_norm",
                    "bound_b", "contained"]
COSTS_HEADER = ["policy", "total_cost", "gap_direct", "gap_lemma4", "gap_thm4",
                "gap_upper", "t_b", "t_h", "feasible"]
TRACE_HEADER = ["t", "u", "stage", "s_seen", "i_seen"]

# Rows per format call. It bounds the objects alive at once: a trajectory
# block takes ~0.5 MB at 1024 rows and ~1.9 MB at 4096, at the same speed.
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


def _write(path: Path, header: list[str], columns: Sequence[Sequence],
           kinds: str, inserts: Sequence[tuple] = ()) -> None:
    """Write equal-length columns (arrays or lists) under ``header``; ``kinds``
    holds one ``_KINDS`` key per column. ``inserts`` are extra rows
    ``(position, *cells)`` in row order, each written right before column
    row ``position`` (after the last one at ``len``); a policy trace's
    switch rows are spliced in this way, with no full-length copy."""
    n, width = len(columns[0]), len(columns)
    if any(len(col) != n for col in columns):
        raise ValueError(f"{path}: columns differ in length")
    row = ",".join(_KINDS[k][0] for k in kinds) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        done = 0
        for at, *cells in (*inserts, (n,)):
            for lo in range(done, at, _CHUNK_ROWS):
                m = min(_CHUNK_ROWS, at - lo)
                flat: list = [None] * (m * width)
                for j, (col, kind) in enumerate(zip(columns, kinds)):
                    chunk = col[lo:lo + m]
                    chunk = chunk.tolist() if isinstance(chunk, np.ndarray) else chunk
                    flat[j::width] = (["true" if v else "false" for v in chunk]
                                      if kind == "b" else chunk)
                fh.write(row * m % tuple(flat))
            if cells:
                fh.write(row % tuple(cells))
            done = at


def write_trajectory_csv(path: Path, run: PolicyRun) -> None:
    traj = run.result.trajectory
    meas = run.measured
    _write(path, TRAJECTORY_HEADER,
           (traj.t, traj.s, traj.i, traj.r, meas.s_hat, meas.i_hat, traj.u,
            run.result.node_stage), "gggggggd")


def write_trace_csv(path: Path, run: PolicyRun) -> None:
    tr = run.result.trace
    _write(path, TRACE_HEADER,
           (tr.node_t, tr.node_u, tr.node_stage, tr.node_s_seen, tr.node_i_seen), "ggdgg",
           tr.switch_rows)


def _row_columns(rows: Iterable, header: list[str]) -> list[list]:
    """Columns of dataclass rows whose fields are named as the header."""
    rows = list(rows)
    return [[getattr(r, name) for r in rows] for name in header]


def write_estimates_csv(path: Path, rows: Iterable[EstimateRow]) -> None:
    _write(path, ESTIMATES_HEADER, _row_columns(rows, ESTIMATES_HEADER),
           _ESTIMATES_KINDS)


def write_costs_csv(path: Path, rows: Iterable[CostRow]) -> None:
    _write(path, COSTS_HEADER, _row_columns(rows, COSTS_HEADER), _COSTS_KINDS)


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


def _read(path: Path, expected_header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != expected_header:
            raise ValueError(f"{path}: unexpected header {header}")
        return [row for row in reader]


def read_trajectory_csv(path: Path) -> dict[str, np.ndarray]:
    rows = _read(Path(path), TRAJECTORY_HEADER)
    cols = np.array([[float(v) for v in row] for row in rows]).reshape(
        len(rows), len(TRAJECTORY_HEADER))
    out = {name: cols[:, k] for k, name in enumerate(TRAJECTORY_HEADER)}
    out["stage"] = out["stage"].astype(np.int64)
    return out


def _read_rows(path: Path, header: list[str], kinds: str, row_type: type) -> list:
    return [row_type(**{name: _KINDS[k][1](v) for name, k, v in zip(header, kinds, row)})
            for row in _read(Path(path), header)]


def read_estimates_csv(path: Path) -> list[EstimateRow]:
    return _read_rows(path, ESTIMATES_HEADER, _ESTIMATES_KINDS, EstimateRow)


def read_costs_csv(path: Path) -> list[CostRow]:
    return _read_rows(path, COSTS_HEADER, _COSTS_KINDS, CostRow)
