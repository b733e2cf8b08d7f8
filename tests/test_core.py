"""Dynamics, integration, the peak formula, and event location."""
from __future__ import annotations

import math
import random
import re
import warnings

import numpy as np
import pytest

from sirctl import core
from sirctl.control import PolicyKind, SwitchingTimes, simulate_closed_loop
from sirctl.core import (
    EVENT_TOL,
    ControlBounds,
    EpidemicParams,
    IntegratorConfig,
    NonFiniteDynamicsError,
    SirState,
    Trajectory,
    euler_step,
    integrate,
    peak_infection,
    rhs,
    _rhs,
    _rk4_fill,
    _rk4_step,
    require_finite,
)
from sirctl.noise import MeasurementNoise, NoiseConfig

from helpers import max_conservation_error, node_state

PARAMS_52 = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)
PARAMS_F1 = EpidemicParams(beta=0.16, gamma=0.063)


class TestRhs:
    def test_disease_free_state_is_equilibrium(self):
        state = SirState(t=0.0, s=0.5, i=0.0, r=0.5)
        assert rhs(state, PARAMS_52, 0.0) == (0.0, 0.0, 0.0)

    def test_hand_evaluated_derivatives(self):
        state = SirState(t=0.0, s=0.5, i=0.1, r=0.4)
        ds, di, dr = rhs(state, PARAMS_52, 0.0)
        assert ds == pytest.approx(-0.008, abs=1e-12)
        assert di == pytest.approx(0.0046667, abs=1e-7)
        assert dr == pytest.approx(0.0033333, abs=1e-7)

    def test_herd_immunity_boundary_zeroes_di(self):
        s = PARAMS_F1.gamma / PARAMS_F1.beta
        state = SirState(t=0.0, s=s, i=0.01, r=1.0 - s - 0.01)
        _, di, _ = rhs(state, PARAMS_F1, 0.0)
        assert di == pytest.approx(0.0, abs=1e-15)

    def test_rates_sum_to_zero(self):
        state = SirState(t=0.0, s=0.3, i=0.25, r=0.45)
        ds, di, dr = rhs(state, PARAMS_52, 0.07)
        assert ds + di + dr == pytest.approx(0.0, abs=1e-18)


class TestRk4Step:
    @staticmethod
    def _four_rhs_calls(s, i, r, beta, gamma, u, h):
        """RK4 as four derivative evaluations: the reference for the flat step."""
        k1 = _rhs(s, i, beta, gamma, u)
        k2 = _rhs(s + 0.5 * h * k1[0], i + 0.5 * h * k1[1], beta, gamma, u)
        k3 = _rhs(s + 0.5 * h * k2[0], i + 0.5 * h * k2[1], beta, gamma, u)
        k4 = _rhs(s + h * k3[0], i + h * k3[1], beta, gamma, u)
        return tuple(x + (h / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
                     for j, x in enumerate((s, i, r)))

    def test_flat_stages_equal_four_rhs_calls(self):
        rng = random.Random(5)
        cases = []
        for _ in range(2000):
            s = rng.random()
            i = rng.choice([0.0, rng.random() * (1.0 - s)])
            cases.append((s, i, 1.0 - s - i, rng.uniform(0.01, 2.0),
                          rng.uniform(0.001, 1.0), rng.choice([0.0, rng.random()]),
                          rng.choice([0.01, 0.1, 5.0, rng.random()])))
        expected = [self._four_rhs_calls(*c) for c in cases]
        assert [_rk4_step(*c) for c in cases] == expected
        # elementwise over arrays, as Trajectory-wide sub-steps use it
        stepped = _rk4_step(*(np.array(col) for col in zip(*cases)))
        for got, want in zip(stepped, zip(*expected)):
            assert np.array_equal(got, np.array(want))

    def test_bitwise_equal_to_four_rhs_calls(self):
        # every output bit, signed zeros included, for scalars and arrays
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        zeros = st.sampled_from([0.0, -0.0])
        states = st.one_of(zeros, st.floats(-1.0, 1.0))
        steps = st.tuples(states, states, states, st.floats(1e-3, 5.0), st.floats(1e-3, 2.0),
                          st.one_of(zeros, st.floats(0.0, 1.0)),
                          st.one_of(zeros, st.floats(-1.0, 10.0)))

        def bits(values) -> bytes:
            return np.array(values, dtype=float).tobytes()

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(cases=st.lists(steps, min_size=1, max_size=8))
        def check(cases):
            expected = [self._four_rhs_calls(*c) for c in cases]
            assert bits([_rk4_step(*c) for c in cases]) == bits(expected)
            stepped = _rk4_step(*(np.array(col) for col in zip(*cases)))
            assert bits(stepped) == bits(list(zip(*expected)))

        check()

    def test_fill_bitwise_equal_to_repeated_steps(self):
        # the inlined node loop is _rk4_step repeated, in every output bit,
        # on nodes k0..end-1 only; a fill steps on through an overflow, and
        # require_finite names the first non-finite node's time
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        zeros = st.sampled_from([0.0, -0.0])
        states = st.one_of(zeros, st.floats(-1.0, 1.0))

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(state=st.tuples(states, states, states), beta=st.floats(1e-3, 5.0),
                          gamma=st.floats(1e-3, 2.0), u=st.one_of(zeros, st.floats(0.0, 1.0)),
                          h=st.floats(1e-3, 5.0), k0=st.integers(0, 4),
                          steps=st.integers(0, 12), tail=st.integers(0, 3))
        def check(state, beta, gamma, u, h, k0, steps, tail):
            end = k0 + steps + 1
            ss, ii, rr = (np.full(end + tail, np.nan) for _ in range(3))
            ts = np.arange(end + tail) * h
            ss[k0], ii[k0], rr[k0] = state
            expected = [state]
            for _ in range(steps):
                expected.append(_rk4_step(*expected[-1], beta, gamma, u, h))
            _rk4_fill(ss, ii, rr, k0, end, beta, gamma, u, h)
            # the nodes outside k0..end-1 are left as they were
            assert np.isnan(np.r_[ss[:k0], ii[:k0], rr[:k0], ss[end:], ii[end:], rr[end:]]).all()
            finite = [all(map(math.isfinite, x)) for x in expected]
            if not all(finite):
                first = ts[k0 + finite.index(False)]
                with pytest.raises(NonFiniteDynamicsError, match=re.escape(f"at t={first}")):
                    require_finite(ts, ss, ii, rr, k0, end)
                return
            require_finite(ts, ss, ii, rr, k0, end)
            got = np.stack([ss[k0:end], ii[k0:end], rr[k0:end]], axis=1)
            assert got.tobytes() == np.array(expected).tobytes()

        check()

    def test_removals_bitwise_equal_to_repeated_steps(self, monkeypatch):
        # the R pass under one rate per node is the R of _rk4_step repeated,
        # in every output bit, on nodes k0..end-1 only; a path that overflows
        # carries inf and NaN on without a warning; the states are the fill
        # test's
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        zeros = st.sampled_from([0.0, -0.0])
        states = st.one_of(zeros, st.floats(-1.0, 1.0))
        paths = {True: 0, False: 0}

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(state=st.tuples(states, states, states), beta=st.floats(1e-3, 5.0),
                          gamma=st.floats(1e-3, 2.0),
                          rates=st.lists(st.one_of(zeros, st.floats(0.0, 1.0)), max_size=12),
                          h=st.floats(1e-3, 5.0), k0=st.integers(0, 4), tail=st.integers(0, 3))
        @hypothesis.example(state=(1.0, 1.0, 0.0), beta=5.0, gamma=1e-3, rates=[0.0, -0.0] * 6,
                            h=5.0, k0=1, tail=1)  # overflows in its third step
        # a negative subnormal I under R = -0.0: an increment summed from
        # R = 0.0 would turn the node's -0.0 into 0.0
        @hypothesis.example(state=(0.5, -5e-324, -0.0), beta=1.0, gamma=0.1, rates=[0.0],
                            h=0.1, k0=0, tail=0)
        def check(state, beta, gamma, rates, h, k0, tail):
            end = k0 + len(rates) + 1
            ss, ii, rr, uu = (np.full(end + tail, np.nan) for _ in range(4))
            expected = [state]
            for u in rates:
                expected.append(_rk4_step(*expected[-1], beta, gamma, u, h))
            ss[k0:end], ii[k0:end], want = (np.array(col) for col in zip(*expected))
            rr[k0] = state[2]
            uu[k0:end - 1] = rates
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                core._rk4_removals(ss, ii, rr, k0, end, beta, gamma, uu, h)
            # the nodes outside k0..end-1 are left as they were
            assert np.isnan(np.r_[rr[:k0], rr[end:]]).all()
            finite = bool(np.isfinite([expected]).all())
            paths[finite] += 1
            if finite:
                assert rr[k0:end].tobytes() == want.tobytes()
            else:
                assert np.array_equal(rr[k0:end], want, equal_nan=True)

        check()
        # blocks of 3 steps, so the paths cross blocks and carry R from one to the next
        monkeypatch.setattr(core, "_R_BLOCK", 3)
        check()
        assert min(paths.values()) >= 1


class TestEulerStep:
    def test_no_infection_leaves_state_unchanged(self):
        state = SirState(t=2.0, s=0.7, i=0.0, r=0.3)
        out = euler_step(state, PARAMS_52, 0.1, 0.5)
        assert (out.s, out.i, out.r) == (0.7, 0.0, 0.3)
        assert out.t == 2.5

    def test_hand_evaluated_step(self):
        state = SirState(t=0.0, s=0.5, i=0.1, r=0.4)
        out = euler_step(state, PARAMS_52, 0.0, 0.01)
        assert out.s == pytest.approx(0.49992, abs=1e-12)
        assert out.i == pytest.approx(0.10004667, abs=1e-8)
        assert out.r == pytest.approx(0.40003333, abs=1e-8)

    def test_sum_preserved_exactly(self):
        state = SirState(t=0.0, s=0.61, i=0.17, r=0.22)
        out = euler_step(state, PARAMS_F1, 0.12, 0.3)
        assert out.s + out.i + out.r == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nonpositive_step(self):
        state = SirState(t=0.0, s=0.5, i=0.1, r=0.4)
        with pytest.raises(ValueError):
            euler_step(state, PARAMS_52, 0.0, 0.0)


class TestIntegrate:
    def test_no_infection_freezes_dynamics(self):
        init = SirState(t=0.0, s=0.8, i=0.0, r=0.2)
        traj = integrate(PARAMS_52, 0.0, init, IntegratorConfig(step=0.1, horizon=5.0))
        assert np.all(traj.s == 0.8)
        assert np.all(traj.i == 0.0)

    def test_conservation_along_wave(self, wave_traj):
        assert max_conservation_error(wave_traj) <= 1e-9

    def test_susceptibles_monotone(self, wave_traj):
        assert np.all(np.diff(wave_traj.s) <= 0.0)

    def test_step_refinement_changes_final_state_below_tol(self):
        init = SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=0.0)
        coarse = integrate(PARAMS_52, 0.0, init, IntegratorConfig(step=0.02, horizon=60.0))
        fine = integrate(PARAMS_52, 0.0, init, IntegratorConfig(step=0.01, horizon=60.0))
        diff = max(abs(coarse.s[-1] - fine.s[-1]), abs(coarse.i[-1] - fine.i[-1]))
        assert diff <= 1e-6

    def test_rk4_order_of_accuracy(self):
        init = SirState(t=0.0, s=0.9, i=0.1, r=0.0)
        params = EpidemicParams(beta=0.5, gamma=0.15)
        ref = integrate(params, 0.0, init, IntegratorConfig(step=0.01, horizon=20.0))

        def final_error(h):
            traj = integrate(params, 0.0, init, IntegratorConfig(step=h, horizon=20.0))
            return abs(traj.i[-1] - ref.i[-1]) + abs(traj.s[-1] - ref.s[-1])

        assert final_error(0.8) / final_error(0.4) >= 8.0

    def test_nonfinite_policy_reported(self):
        init = SirState(t=0.0, s=0.9, i=0.1, r=0.0)
        with pytest.raises(NonFiniteDynamicsError):
            integrate(PARAMS_52, float("nan"), init, IntegratorConfig(step=0.1, horizon=1.0))

    def test_first_nonfinite_node_reported(self):
        # the state overflows within a few steps; the error names the time
        # of the first node that holds inf or NaN
        params = EpidemicParams(beta=1e300, gamma=0.1)
        s, i, r, k = 0.5, 0.5, 0.0, 0
        while all(map(math.isfinite, (s, i, r))):
            s, i, r = _rk4_step(s, i, r, params.beta, params.gamma, 0.0, 0.1)
            k += 1
        assert 0 < k < 10
        with pytest.raises(NonFiniteDynamicsError, match=rf"at t={0.1 * k}$"):
            integrate(params, 0.0, SirState(t=0.0, s=0.5, i=0.5, r=0.0),
                      IntegratorConfig(step=0.1, horizon=1.0))

    def test_out_of_range_policy_rejected(self):
        init = SirState(t=0.0, s=0.9, i=0.1, r=0.0)
        with pytest.raises(ValueError):
            integrate(PARAMS_52, 1.5, init, IntegratorConfig(step=0.1, horizon=1.0))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("run", [
        lambda init: integrate(PARAMS_52, 0.0, init, IntegratorConfig(step=0.1, horizon=1.0)),
        lambda init: _loop(init=init, horizon=1.0),
    ], ids=["integrate", "closed-loop"])
    def test_nonfinite_initial_time_rejected(self, run, t):
        # a NaN start gave an all-NaN time grid, an infinite one a numpy
        # warning, and the closed loop called the finite state non-finite
        with pytest.raises(ValueError, match="t must be finite"):
            run(SirState(t=t, s=0.9, i=0.1, r=0.0))
        assert core._memo == {}


def _bits(traj: Trajectory) -> tuple:
    """Every value a Trajectory holds, as bytes: -0.0 and 0.0 differ here."""
    return (tuple(getattr(traj, name).tobytes() for name in "tsiru"),
            (type(traj.step), float(traj.step).hex()), traj.params)


class TestIntegrateMemo:
    """The memo keeps the last inputs' epidemic under their exact bits, and
    integrate wraps it in one Trajectory."""

    INIT = SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=0.0)
    GRID = IntegratorConfig(step=0.01, horizon=20.0)
    CALL = (PARAMS_52, 0.0, INIT, GRID)

    @pytest.fixture
    def fills(self, monkeypatch):
        """The node ranges of every ``_rk4_fill`` call that the memo makes."""
        calls = []
        monkeypatch.setattr(core, "_rk4_fill", lambda ss, ii, rr, k0, end, *a: (
            calls.append((k0, end)) or _rk4_fill(ss, ii, rr, k0, end, *a)))
        return calls

    @staticmethod
    def _fresh(*call) -> Trajectory:
        core._memo.clear()
        return integrate(*call)

    def test_hit_is_bitwise_a_fresh_integration(self):
        first = integrate(*self.CALL)
        hit = integrate(*self.CALL)
        assert hit is first
        fresh = self._fresh(*self.CALL)
        assert fresh is not first and _bits(fresh) == _bits(hit)

    def test_repeat_call_does_not_step(self, fills):
        integrate(*self.CALL)
        integrate(*self.CALL)
        assert fills == [(0, self.GRID.n_steps + 1)]

    @pytest.mark.parametrize("call", [
        (EpidemicParams(beta=math.nextafter(PARAMS_52.beta, 1.0), gamma=PARAMS_52.gamma),
         0.0, INIT, GRID),
        (PARAMS_52, 0.0, SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=-0.0), GRID),
        (PARAMS_52, -0.0, INIT, GRID),
        (PARAMS_52, 0.0, INIT, IntegratorConfig(step=0.02, horizon=20.0)),
        (PARAMS_52, 0.0, INIT, IntegratorConfig(step=0.01, horizon=30.0)),
    ], ids=["beta-one-ulp", "r-minus-zero", "u-minus-zero", "step", "horizon"])
    def test_changed_input_misses(self, fills, call):
        # 0.0 == -0.0, so a memo keyed on the inputs' == would return the
        # first call's +0 in node 0 of r, or in the whole u column
        first = integrate(*self.CALL)
        other = integrate(*call)
        assert len(fills) == 2 and other is not first
        assert _bits(other) == _bits(self._fresh(*call)) != _bits(first)

    def test_number_types_are_part_of_the_key(self):
        # an int start time and step give an int time grid, float ones a float grid
        ints = integrate(PARAMS_52, 0.0, SirState(t=0, s=0.9, i=0.1, r=0.0),
                         IntegratorConfig(step=1, horizon=10))
        floats = (PARAMS_52, 0.0, SirState(t=0.0, s=0.9, i=0.1, r=0.0),
                  IntegratorConfig(step=1.0, horizon=10.0))
        assert np.issubdtype(ints.t.dtype, np.integer)
        assert integrate(*floats).t.dtype == np.float64
        assert _bits(integrate(*floats)) == _bits(self._fresh(*floats))

    def test_alternating_calls_recompute(self, fills):
        other = (PARAMS_F1,) + self.CALL[1:]
        a = integrate(*self.CALL)
        integrate(*other)
        again = integrate(*self.CALL)
        assert len(fills) == 3 and again is not a and _bits(again) == _bits(a)
        assert [epi.traj for epi in core._memo.values()] == [again]

    def test_split_fill_is_bitwise_one_fill(self, fills):
        # the closed loop fills the memo's epidemic in blocks as far as it
        # tests it; integrate fills the rest from its last node
        epi = core._epidemic(*self.CALL)
        for end in (7, 7, 3, 1000):
            epi.fill(end)
        traj = integrate(*self.CALL)
        n = self.GRID.n_steps
        assert fills == [(0, 8), (7, 1001), (1000, n + 1)]
        assert epi.last == n and epi.traj is traj and traj.s is epi.ss
        assert _bits(traj) == _bits(self._fresh(*self.CALL))

    @pytest.mark.parametrize("call, error", [
        ((PARAMS_52, float("nan"), INIT, GRID), NonFiniteDynamicsError),
        ((PARAMS_52, 1.5, INIT, GRID), ValueError),
        ((EpidemicParams(beta=1e300, gamma=0.1), 0.0, SirState(t=0.0, s=0.5, i=0.5, r=0.0),
          GRID), NonFiniteDynamicsError),
    ], ids=["nan-rate", "rate-above-one", "overflow"])
    def test_failed_call_raises_every_time_and_stores_nothing(self, call, error):
        for _ in range(2):
            with pytest.raises(error):
                integrate(*call)
            assert core._memo == {}
        kept = integrate(*self.CALL)
        with pytest.raises(error):
            integrate(*call)
        assert [epi.traj for epi in core._memo.values()] == [kept]
        assert integrate(*self.CALL) is kept

    def test_failed_call_keeps_a_partly_filled_entry(self):
        # a closed loop may have filled the failing inputs' epidemic in part:
        # integrate fills it on into the overflow, raises, and keeps it
        call = (EpidemicParams(beta=1e300, gamma=0.1), 0.0,
                SirState(t=0.0, s=0.5, i=0.5, r=0.0), self.GRID)
        epi = core._epidemic(*call)
        epi.fill(1)
        for _ in range(2):
            with pytest.raises(NonFiniteDynamicsError):
                integrate(*call)
            assert list(core._memo.values()) == [epi] and epi.traj is None

    def test_shared_result_is_read_only(self):
        integrate(*self.CALL)
        hit = integrate(*self.CALL)
        assert hit.params == PARAMS_52
        for name in "tsiru":
            with pytest.raises(ValueError, match="read-only"):
                getattr(hit, name)[0] = 0.5


class TestPeakInfection:
    def test_start_at_peak_returns_start_infection(self):
        rho = (PARAMS_F1.gamma + 0.0) / PARAMS_F1.beta
        state = SirState(t=0.0, s=rho, i=0.05, r=1.0 - rho - 0.05)
        assert peak_infection(PARAMS_F1, state, 0.0) == pytest.approx(0.05, abs=1e-12)

    def test_below_peak_condition_returns_start_infection(self):
        state = SirState(t=0.0, s=0.2, i=0.05, r=0.75)
        assert peak_infection(PARAMS_F1, state, 0.0) == 0.05

    def test_hand_evaluated_peak(self):
        state = SirState(t=0.0, s=0.99999, i=1e-5, r=0.0)
        assert peak_infection(PARAMS_F1, state, 0.0) == pytest.approx(0.239264, abs=1e-5)

    def test_matches_fine_simulation(self):
        state = SirState(t=0.0, s=0.99999, i=1e-5, r=0.0)
        predicted = peak_infection(PARAMS_F1, state, 0.0)
        traj = integrate(PARAMS_F1, 0.0, state, IntegratorConfig(step=0.01, horizon=250.0))
        simulated = float(np.max(traj.i))
        assert abs(predicted - simulated) <= 1e-4

    def test_monotone_decreasing_in_isolation_rate(self):
        state = SirState(t=0.0, s=0.99, i=0.001, r=0.009)
        peaks = [peak_infection(PARAMS_F1, state, u) for u in (0.0, 0.02, 0.05)]
        assert peaks[0] > peaks[1] > peaks[2]

    def test_monotone_in_parameters(self):
        state = SirState(t=0.0, s=0.99, i=0.001, r=0.009)
        base = peak_infection(EpidemicParams(0.2, 0.05), state, 0.0)
        hi_beta = peak_infection(EpidemicParams(0.25, 0.05), state, 0.0)
        hi_gamma = peak_infection(EpidemicParams(0.2, 0.07), state, 0.0)
        assert hi_beta > base > hi_gamma

    def test_rejects_nonpositive_susceptibles(self):
        with pytest.raises(ValueError):
            peak_infection(PARAMS_F1, SirState(t=0.0, s=0.0, i=0.5, r=0.5), 0.0)

    @pytest.mark.parametrize("u_fix", [math.nan, math.inf], ids=str)
    def test_nonfinite_rate_raises(self, u_fix):
        # a NaN rate fails every comparison, and the peak came out NaN
        state = SirState(t=0.0, s=0.99999, i=1e-5, r=0.0)
        with pytest.raises(NonFiniteDynamicsError, match="not finite"):
            peak_infection(EpidemicParams(0.16, 0.063), state, u_fix)


class TestIntegratorConfig:
    @pytest.mark.parametrize("kwargs", [
        {"horizon": math.inf}, {"horizon": math.nan}, {"step": math.inf},
        {"step": math.nan}, {"horizon": 300.005}, {"step": 0.03, "horizon": 1.0},
        {"step": 0.1, "horizon": 0.04},
    ])
    def test_rejects_non_finite_or_partial_step_counts(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_accepts_whole_step_counts_up_to_rounding(self):
        assert 0.3 / 0.1 != 3.0
        assert IntegratorConfig(step=0.1, horizon=0.3).n_steps == 3


INIT_F1 = SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=0.0)


def _loop(kind=PolicyKind.OPTIMAL, assumed=None, noise=None, *, init=INIT_F1, i_bar=0.1,
          horizon=200.0):
    """A closed loop on the fig1 epidemic at h = 0.01 (t_b = 98.36, t*_h = 144.49)."""
    return simulate_closed_loop(kind, PARAMS_F1, assumed, init, noise,
                                IntegratorConfig(step=0.01, horizon=horizon), i_bar,
                                ControlBounds(u_max=0.2))


def _snr_noise(db, reference):
    return MeasurementNoise.build(NoiseConfig(kind="snr_db", snr_db=db), len(reference), 1,
                                  reference)


class TestThresholdCrossing:
    """The closed loop's threshold event (``locate_event`` in stage 1, the
    u = 0 epidemic) against DOP853's crossing."""

    def test_never_reached_returns_none(self):
        res = _loop(i_bar=0.9)
        assert res.trace.switching == SwitchingTimes()
        assert np.all(res.trace.node_stage == 1) and not np.any(res.trajectory.u)

    def test_crossing_refined_to_tolerance(self, dop853):
        for i_bar in (0.01, 0.1, 0.2):
            t_ref, bound = dop853.threshold_time(PARAMS_F1, INIT_F1, i_bar, 200.0)
            assert abs(_loop(i_bar=i_bar).trace.switching.t_b - t_ref) <= bound

    def test_inflated_series_crosses_earlier(self):
        # the robust signal I + error + delta lies above I, so it reaches i_bar first
        optimal = _loop()
        robust = _loop(PolicyKind.ROBUST, PARAMS_F1, _snr_noise(30.0, optimal.trajectory))
        assert robust.trace.switching.t_b < optimal.trace.switching.t_b

    def test_already_above_at_start(self):
        res = _loop(init=SirState(t=0.0, s=0.8, i=0.15, r=0.05), horizon=2.0)
        assert res.trace.switching.t_b == 0.0

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="i_bar"):
            _loop(i_bar=1.5)


class TestHerdImmunity:
    """The closed loop's herd event against the stage-2 closed form: the
    optimal rate beta*S - gamma holds I at i_bar, so S(t) = S_b*exp(-beta*
    i_bar*(t - t_b)) and beta*S reaches gamma at t*_h = t_b + ln(beta*S_b/
    gamma)/(beta*i_bar) (Miclo, Spiro & Weibull 2020)."""

    def test_crossing_refined_to_tolerance(self):
        res = _loop()
        traj, (t_b, t_h) = res.trajectory, (res.trace.switching.t_b,
                                            res.trace.switching.t_h)
        beta, gamma = PARAMS_F1.beta, PARAMS_F1.gamma
        t_star = t_b + math.log(beta * traj.state_at(t_b)[0] / gamma) / (beta * 0.1)
        # the rate held over each step lags the closed form by less than a
        # step (0.89 h at h = 0.005, 0.01 and 0.02); the locator stops once
        # the planned gap is within EVENT_TOL
        assert 0.0 < t_h - t_star <= traj.step
        assert abs(beta * traj.state_at(t_h)[0] - gamma) <= EVENT_TOL

    def test_start_below_level_returns_start_time(self):
        # I(0) is above i_bar and beta*S(0) below gamma: both events at node 0
        res = _loop(init=SirState(t=0.0, s=0.1, i=0.15, r=0.75), horizon=2.0)
        assert res.trace.switching == SwitchingTimes(t_b=0.0, t_h=0.0)

    def test_overestimated_rates_cross_later(self):
        beta, gamma = PARAMS_F1.beta, PARAMS_F1.gamma
        optimal = _loop()
        robust = _loop(PolicyKind.ROBUST, EpidemicParams(1.05 * beta, 0.95 * gamma))
        t_hat = robust.trace.switching.t_h
        assert t_hat > optimal.trace.switching.t_h
        # it fires where the planned condition does: S = gamma_hat/beta_hat
        assert abs(1.05 * beta * robust.trajectory.state_at(t_hat)[0]
                   - 0.95 * gamma) <= EVENT_TOL

    def test_inflated_envelope_crosses_later(self):
        # the robust signal S + error + delta lies above S, so beta*S_seen
        # reaches gamma later
        optimal = _loop()
        robust = _loop(PolicyKind.ROBUST, PARAMS_F1, _snr_noise(40.0, optimal.trajectory))
        assert robust.trace.switching.t_h > optimal.trace.switching.t_h

    def test_not_reached_leaves_t_h_unset(self):
        res = _loop(horizon=120.0)
        assert res.trace.switching.t_b == pytest.approx(98.36, abs=0.01)
        assert res.trace.switching.t_h is None and res.trace.node_stage[-1] == 2


def _random_scenario(seed: int):
    rng = random.Random(seed)
    while True:
        beta = rng.uniform(0.08, 0.5)
        gamma = rng.uniform(0.01, 0.15)
        u_fix = rng.uniform(0.0, 0.1)
        i0 = rng.uniform(1e-4, 0.2)
        s0 = rng.uniform(0.5, 1.0 - i0)
        if beta * s0 > gamma + u_fix + 0.03:
            return (EpidemicParams(beta=beta, gamma=gamma),
                    SirState(t=0.0, s=s0, i=i0, r=1.0 - s0 - i0), u_fix)


def simulated_peak(params: EpidemicParams, init: SirState, u_fix: float,
                   step: float = 0.01) -> float:
    """Independent oracle: chunked fine-step simulation until the peak passes."""
    state = init
    best = init.i
    for _ in range(30):
        traj = integrate(params, u_fix, state, IntegratorConfig(step=step, horizon=100.0))
        best = max(best, float(np.max(traj.i)))
        if int(np.argmax(traj.i)) < len(traj) - 1:
            return best
        state = node_state(traj, len(traj) - 1)
    raise AssertionError("peak not reached within the search window")


@pytest.mark.parametrize("seed", range(12))
def test_peak_formula_matches_simulation_on_random_scenarios(seed):
    params, init, u_fix = _random_scenario(seed)
    predicted = peak_infection(params, init, u_fix)
    assert abs(predicted - simulated_peak(params, init, u_fix)) <= 1e-4


@pytest.mark.parametrize("seed", range(8))
def test_trajectory_invariants_on_random_scenarios(seed):
    params, init, u_fix = _random_scenario(100 + seed)
    traj = integrate(params, u_fix, init, IntegratorConfig(step=0.05, horizon=80.0))
    assert max_conservation_error(traj) <= 1e-9
    assert np.all(np.diff(traj.s) <= 1e-15)
    assert np.all(traj.i >= -1e-15)


@pytest.mark.filterwarnings("error")
def test_trajectory_requires_increasing_times():
    # finite times first: the difference inf - inf would warn, not raise
    for t in ([0.0, 0.0], [math.nan, math.nan], [math.nan, 1.0], [0.0, math.inf],
              [-math.inf, 0.0], [math.inf, math.inf]):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(t=np.array(t), s=np.array([0.5, 0.5]),
                       i=np.array([0.1, 0.1]), r=np.array([0.4, 0.4]),
                       u=np.array([0.0, 0.0]), step=0.1, params=PARAMS_52)
