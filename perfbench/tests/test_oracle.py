"""The closed-form optimal cost, pinned for the two closed-loop workloads.

    python3 -m pytest perfbench/tests
"""
import math
from dataclasses import replace

import pytest

from oracle import optimal_cost, relative_error, stage_one_exit
from workloads import FIG1, POLICY_COMPARE


def test_policy_compare_optimum():
    assert optimal_cost(POLICY_COMPARE) == pytest.approx(45.48738, abs=1e-5)


def test_fig1_optimum():
    assert optimal_cost(FIG1) == pytest.approx(1.392635, abs=1e-6)


@pytest.mark.parametrize("model", [POLICY_COMPARE, FIG1])
def test_stage_one_exit_lies_on_the_invariant(model):
    rho = model.gamma / model.beta
    s_b = stage_one_exit(model)
    start = model.s0 + model.i0 - rho * math.log(model.s0)
    assert rho < s_b < model.s0
    assert s_b + model.i_bar - rho * math.log(s_b) == pytest.approx(start, abs=1e-14)


def test_cap_above_the_uncontrolled_peak_is_refused():
    with pytest.raises(ValueError, match="never reaches"):
        stage_one_exit(replace(POLICY_COMPARE, i_bar=0.9))


def test_rate_over_budget_is_refused():
    with pytest.raises(ValueError, match="u_max"):
        optimal_cost(replace(POLICY_COMPARE, u_max=0.01))


def test_seed_commit_errors():
    # total_cost of the optimal rows written by the program at its first benchmarked commit
    assert relative_error(45.4989879776, optimal_cost(POLICY_COMPARE)) == pytest.approx(
        2.55e-4, abs=1e-6)
    assert relative_error(1.39281407933, optimal_cost(FIG1)) == pytest.approx(
        1.28e-4, abs=1e-6)
