"""The benchmark's workloads: the CLI calls of one pass, and their output checks.

A pass is one fresh process that makes every CLI call of its workload, in
order, each writing to its own directory. Checks read only the files the
calls wrote.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from oracle import CappedSir, optimal_cost, relative_error

# tolerances of the output checks
CONSERVATION_TOL = 1e-9  # |S+I+R-1| per trajectory row (12 significant digits)
GAP_REL_TOL = 1e-3  # gap_lemma4 and gap_thm4 against gap_direct, relative
GAP_UPPER_SLACK = 1e-9  # gap_direct <= gap_upper, absolute

_INIT_I = 1e-5
POLICY_COMPARE = CappedSir(beta=0.16, gamma=1.0 / 30.0, s0=1.0 - _INIT_I, i0=_INIT_I,
                           i_bar=0.01, u_max=0.15)
FIG1 = CappedSir(beta=0.16, gamma=0.063, s0=1.0 - _INIT_I, i0=_INIT_I, i_bar=0.1, u_max=0.2)
BOUND_SWEEP_TRUTH = (0.16, 1.0 / 30.0)  # (beta, gamma) of the bound-sweep preset

# robust inflation pairs of gap-grid; the herd event of the last never fires
GAP_PAIRS = "1.01:0.99,1.015:0.985,1.02:0.98,1.03:0.97,1.04:0.96,1.05:0.95,1.1:0.9"
SWEEP_SEEDS = 20  # bound-sweep calls per estimate-sweep pass


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_preset(config, model: CappedSir) -> None:
    """The benchmark's copy of a preset must match the program's, or the oracle is wrong."""
    got = (config.params.beta, config.params.gamma, config.init.s, config.init.i,
           config.i_bar, config.u_max)
    want = (model.beta, model.gamma, model.s0, model.i0, model.i_bar, model.u_max)
    if got != want:
        raise ValueError(f"preset {config.name} changed: {got} != {want}")


def _check_costs(path: Path, expected_rows: int) -> list[str]:
    rows = _read_rows(path)
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {expected_rows}")
    optimal = [r for r in rows if r["policy"] == "optimal"]
    if len(optimal) != 1 or optimal[0]["feasible"] != "true":
        problems.append(f"{path.name}: the optimal run is missing or infeasible")
    for row in rows:
        if not row["policy"].startswith("robust"):
            continue
        direct, lemma4, thm4, upper = (float(row[k]) for k in
                                       ("gap_direct", "gap_lemma4", "gap_thm4", "gap_upper"))
        if not any(math.isnan(v) for v in (direct, lemma4, thm4)):
            tol = GAP_REL_TOL * max(1.0, abs(direct))
            if abs(lemma4 - direct) > tol or abs(thm4 - direct) > tol:
                problems.append(f"{path.name} {row['policy']}: gaps disagree "
                                f"({direct}, {lemma4}, {thm4})")
        if not (math.isnan(direct) or math.isnan(upper)) and direct > upper + GAP_UPPER_SLACK:
            problems.append(f"{path.name} {row['policy']}: gap_direct {direct} > gap_upper {upper}")
    return problems


def _optimal_cost_error(path: Path, model: CappedSir) -> float:
    row = next(r for r in _read_rows(path) if r["policy"] == "optimal")
    return relative_error(float(row["total_cost"]), optimal_cost(model))


class PolicyCompare:
    name = "policy-compare"
    why = ("reproduce policy-compare: 3 closed loops of 120k steps and 53 MB of CSV; "
           "stresses csvio and the per-step control loop")

    def resolve(self, sirctl, seed: int) -> None:
        _check_preset(sirctl.scenarios.preset(self.name, seed), POLICY_COMPARE)

    def calls(self, seed: int, out: Path) -> list[list[str]]:
        return [["reproduce", self.name, "--seed", str(seed), "--out", str(out / "op0")]]

    def check(self, op_dir: Path) -> list[str]:
        run_dir = op_dir / self.name
        problems = _check_costs(run_dir / "costs.csv", expected_rows=3)
        for policy in ("optimal", "robust", "misestimated"):
            path = run_dir / f"trajectory_{policy}.csv"
            sir = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3))
            worst = float(np.max(np.abs(sir.sum(axis=1) - 1.0)))
            if not worst <= CONSERVATION_TOL:
                problems.append(f"{path.name}: max |S+I+R-1| = {worst:.3e}")
        return problems

    def accuracy(self, op_dir: Path) -> float:
        return _optimal_cost_error(op_dir / self.name / "costs.csv", POLICY_COMPARE)


class GapGrid:
    name = "gap-grid"
    why = ("gap --preset fig1 over 7 inflation pairs: 14 short closed loops plus all gap "
           "formulas; stresses analysis and the re-simulated optimal run")

    def resolve(self, sirctl, seed: int) -> None:
        _check_preset(sirctl.scenarios.preset("fig1", seed), FIG1)

    def calls(self, seed: int, out: Path) -> list[list[str]]:
        return [["gap", "--preset", "fig1", "--inflations", GAP_PAIRS, "--seed", str(seed),
                 "--out", str(out / "op0")]]

    def check(self, op_dir: Path) -> list[str]:
        return _check_costs(op_dir / "costs.csv",
                            expected_rows=GAP_PAIRS.count(",") + 2)

    def accuracy(self, op_dir: Path) -> float:
        return _optimal_cost_error(op_dir / "costs.csv", FIG1)


class EstimateSweep:
    name = "estimate-sweep"
    why = ("reproduce bound-sweep over 20 consecutive seeds: open-loop integrate and "
           "estimation only; no change expected from control or csvio work")

    def resolve(self, sirctl, seed: int) -> None:
        params = sirctl.scenarios.preset("bound-sweep", seed).params
        if (params.beta, params.gamma) != BOUND_SWEEP_TRUTH:
            raise ValueError(f"preset bound-sweep changed: {params}")

    def calls(self, seed: int, out: Path) -> list[list[str]]:
        return [["reproduce", "bound-sweep", "--seed", str(seed + k),
                 "--out", str(out / f"op{k}")] for k in range(SWEEP_SEEDS)]

    def check(self, op_dir: Path) -> list[str]:
        run_dir = op_dir / "bound-sweep"
        problems = []
        for name in ("estimates.csv", "estimates_snr100.csv"):
            if len(_read_rows(run_dir / name)) != 200:
                problems.append(f"{name}: expected 200 rows")
        # noise-free estimates must stay inside their error bound
        outside = [r["alpha"] for r in _read_rows(run_dir / "estimates.csv")
                   if r["contained"] != "true"]
        if outside:
            problems.append(f"estimates.csv: not contained at alpha {','.join(outside)}")
        return problems

    def accuracy(self, op_dir: Path) -> float:
        """Relative error of the noise-free alpha=1 estimate against the true (beta, gamma)."""
        row = next(r for r in _read_rows(op_dir / "bound-sweep" / "estimates.csv")
                   if r["alpha"] == "1")
        error = math.hypot(float(row["beta_hat"]) - BOUND_SWEEP_TRUTH[0],
                           float(row["gamma_hat"]) - BOUND_SWEEP_TRUTH[1])
        return error / math.hypot(*BOUND_SWEEP_TRUTH)


WORKLOADS = {w.name: w for w in (PolicyCompare(), GapGrid(), EstimateSweep())}
