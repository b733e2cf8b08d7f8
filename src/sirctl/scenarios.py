"""Scenario configuration and experiment orchestration.

A scenario bundles the true epidemic, the infection cap and rate budget, the
measurement-noise model, and how the policies' assumed parameter bounds are
obtained (fixed inflation multipliers or an estimation run). ``policy_runs``
drives the optimal, robust, and optionally misestimated policies on the same
true dynamics and the same noise draws, yielding each run with its cost row
as its loop ends; ``run_scenario`` holds them all as one set of artifacts.
``sweep_h`` reproduces the sample-step study: one estimate plus error bound
per step multiple alpha.

Determinism: every scenario derives its RNG stream from (seed, scenario
name), so fixed configs give byte-identical CSV artifacts.
"""
from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from typing import Iterator, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .analysis import build_cost_report, total_cost
from .control import (
    ClosedLoopResult,
    ControlBounds,
    PolicyKind,
    simulate_closed_loop,
)
from .core import (
    EpidemicParams,
    IntegratorConfig,
    NonFiniteDynamicsError,
    SirState,
    Trajectory,
    _rhs,
    integrate,
)
from .estimation import (
    MeasuredSample,
    ParamEstimate,
    SingularRegressorsError,
    build_regressor_batch,
    composite_constant,
    estimation_error_bound,
    estimate_params,
    param_intervals,
)
from .noise import (
    MeasuredSeries,
    MeasurementNoise,
    NoiseConfig,
    derive_seed,
    inject_noise,
)

DEFAULT_SEED = 20260810


class ConfigError(ValueError):
    """A scenario configuration is inconsistent or malformed."""


@dataclass(frozen=True)
class EstimationWindow:
    """Two-sample estimation settings: base times, multiples alpha of integrator.step."""

    i: float = 80.0
    j: float = 90.0
    alphas: tuple[int, ...] = tuple(range(1, 201))
    zeta: float = 0.055  # working Lipschitz constant for the error bound
    r: float = 0.1

    def __post_init__(self) -> None:
        for name in ("i", "j", "zeta", "r"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"estimation.{name} must be finite, got {value}")
            if name in ("zeta", "r") and value < 0.0:
                raise ConfigError(f"estimation.{name} must be >= 0, got {value}")
        if self.i == self.j:
            raise ConfigError("estimation base times must differ")
        if not self.alphas:
            raise ConfigError("estimation needs alphas")
        if min(self.alphas) < 1:
            raise ConfigError(f"estimation.alphas must be >= 1, got {min(self.alphas)}")


@dataclass(frozen=True)
class InflationConfig:
    """How a policy's assumed (beta, gamma) depart from the truth.

    mode "multipliers" scales the true parameters directly; mode "estimated"
    runs the two-sample estimator on noisy early samples and uses the
    resulting interval endpoints (beta_hat + b, gamma_hat - b).
    """

    mode: str = "multipliers"
    beta_mult: float = 1.05
    gamma_mult: float = 0.95

    def __post_init__(self) -> None:
        if self.mode not in ("multipliers", "estimated"):
            raise ConfigError(f"unknown inflation mode {self.mode!r}")
        for name in ("beta_mult", "gamma_mult"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    params: EpidemicParams
    init: SirState
    i_bar: float
    u_max: float
    noise: NoiseConfig = NoiseConfig()
    inflation: InflationConfig = InflationConfig()
    misestimation: InflationConfig = InflationConfig(beta_mult=0.95, gamma_mult=1.05)
    integrator: IntegratorConfig = IntegratorConfig()
    seed: int = DEFAULT_SEED
    policies: tuple[str, ...] = ("optimal", "robust", "misestimated")
    estimation: Optional[EstimationWindow] = None

    def __post_init__(self) -> None:
        # grid times t0 + k*step are strictly increasing when the step exceeds
        # the rounding of k*step plus that of the sum: twice the spacing of
        # doubles at the largest magnitude on the grid
        spacing = 2.0 * np.spacing(abs(self.init.t) + self.integrator.horizon)
        if not self.integrator.step > spacing:
            raise ConfigError(f"integrator.step {self.integrator.step} is too small for the "
                              f"time grid from init.t={self.init.t}: must exceed {spacing}")
        if not (0.0 < self.i_bar < 1.0):
            raise ConfigError("i_bar must lie in (0, 1)")
        if not (0.0 < self.u_max <= 1.0):
            raise ConfigError("u_max must lie in (0, 1]")
        bad = [p for p in self.policies if p not in PolicyKind._value2member_map_]
        if bad:
            raise ConfigError(f"unknown policies {bad}")
        if not self.policies or len(set(self.policies)) < len(self.policies):
            raise ConfigError(f"policies must name each policy once, got {list(self.policies)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """The config a JSON object describes, as ``to_dict`` writes it.

        The field annotations are the schema. Each value must have the JSON
        type of its field, as in the example config: a number for a float
        field, an integer for ``seed`` and the alphas, a string, a list or
        an object; a bool is not a number. Lists become tuples, and a
        missing field takes its default (``init.t`` is 0). An unknown key or
        a missing required one, at any depth, is a ``ConfigError``, and every
        error names the field's dotted path. Range and cross-field checks are
        those of each class.
        """
        return _build(cls, raw, "")

    def to_dict(self) -> dict:
        """The config as a JSON object: tuples as lists, ``None`` fields left out."""
        return _to_json(self)


_JSON_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
               str: (str, "a string")}


@functools.cache
def _schema(cls) -> dict:
    """Each field of a config dataclass: its resolved annotation and whether it is required."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING) for f in fields(cls)}


def _build(cls, raw, path: str):
    """The ``cls`` a JSON object describes; ``path`` is its dotted place in the config."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {raw!r}")
    schema, prefix = _schema(cls), f"{path}." if path else ""
    unknown = [f"{prefix}{k}" for k in raw if k not in schema]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [prefix + k for k, (_, required) in schema.items() if required and k not in raw]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    values = {k: _parse(schema[k][0], v, prefix + k) for k, v in raw.items()}
    try:
        return cls(**values)
    except (ValueError, ArithmeticError, NonFiniteDynamicsError) as exc:
        # the class's own checks; name the block unless the message already does
        msg = str(exc)
        raise ConfigError(msg if msg.startswith(path) else f"{path}: {msg}") from exc


def _parse(annotation, value, path: str):
    """A JSON value as the field type ``annotation``; errors name ``path``."""
    if get_origin(annotation) is Union:  # Optional[X]
        return None if value is None else _parse(get_args(annotation)[0], value, path)
    if get_origin(annotation) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        item = get_args(annotation)[0]
        return tuple(_parse(item, v, f"{path}[{n}]") for n, v in enumerate(value))
    if is_dataclass(annotation):
        return _build(annotation, value, path)
    accepted, noun = _JSON_TYPES[annotation]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path}: expected {noun}, got {value!r}")
    return value


def _to_json(value):
    """A config value as JSON data: an object per dataclass, a list per tuple."""
    if is_dataclass(value):
        return {f.name: _to_json(v) for f in fields(value)
                if (v := getattr(value, f.name)) is not None}
    return [_to_json(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class CostRow:
    """One costs.csv row."""

    policy: str
    total_cost: float
    gap_direct: float
    gap_lemma4: float
    gap_thm4: float
    gap_upper: float
    t_b: float
    t_h: float
    feasible: bool


class EstimateRow(NamedTuple):
    """One estimates.csv row of the sample-step sweep. A tuple, not a frozen
    dataclass like ``CostRow``: a sweep builds one per alpha, and a tuple
    builds in a third of the time."""

    alpha: int
    h: float
    beta_hat: float
    gamma_hat: float
    err_norm: float
    bound_b: float
    contained: bool


@dataclass(frozen=True)
class RunArtifacts:
    """Each policy's closed loop, by name, and the scenario's one noise source.

    Each full-length array is held once, read-only: a run's trace shares
    its node columns (``PolicyTrace``). Neither the measured series nor a
    policy's seen signals are held: the trajectory writer forms both from
    ``noise`` per block of rows, and the closed-form gap the robust
    envelope over its window. This holds every run at once; the CLI reads
    ``policy_runs`` instead and holds the optimal run and at most one
    policy run.
    """

    config: ScenarioConfig
    runs: dict[str, ClosedLoopResult]
    noise: MeasurementNoise
    cost_rows: tuple[CostRow, ...]

    def __iter__(self) -> Iterator[tuple[str, ClosedLoopResult, CostRow, MeasurementNoise]]:
        """Each run as ``policy_runs`` yields it: (name, run, cost row, noise)."""
        for (name, run), row in zip(self.runs.items(), self.cost_rows, strict=True):
            yield name, run, row, self.noise


def _assumed_rates(config: ScenarioConfig, inflation: InflationConfig,
                   reference: Trajectory) -> EpidemicParams:
    """The (beta, gamma) a robust or misestimated policy plans with: the
    true rates times ``inflation``'s multipliers, or the estimated interval's
    endpoints (beta_hi, gamma_lo). A pair that is not positive and finite
    (an overflow, an underflow, singular regressors' NaN) is a ConfigError."""
    if inflation.mode == "multipliers":
        beta = config.params.beta * inflation.beta_mult
        gamma = config.params.gamma * inflation.gamma_mult
        source = (f"inflation multipliers beta_mult={inflation.beta_mult:.6g}, "
                  f"gamma_mult={inflation.gamma_mult:.6g} give")
    elif config.estimation is None:
        raise ConfigError("inflation mode 'estimated' needs an estimation block")
    else:
        row, = _sweep_rows(config, reference, alphas=(config.estimation.alphas[0],))
        iv = param_intervals(ParamEstimate(row.beta_hat, row.gamma_hat), row.bound_b)
        beta, gamma, source = iv.beta_hi, iv.gamma_lo, "estimation gives"
    try:
        return EpidemicParams(beta, gamma)
    except ValueError as exc:
        raise ConfigError(f"{source} beta_max={beta:.6g}, gamma_min={gamma:.6g}; a "
                          "policy plans with both positive and finite") from exc


def policy_runs(config: ScenarioConfig) -> Iterator[
        tuple[str, ClosedLoopResult, CostRow, MeasurementNoise]]:
    """Each configured policy's run and cost row, one loop at a time.

    Yields (name, run, cost row, the scenario's noise source) for the
    optimal, robust and misestimated policies, in that order, each that
    ``config.policies`` names. The optimal loop runs first and resolves the
    noise; every plan is resolved before the first policy loop runs, so a
    plan that is a ConfigError runs no policy loop. All policies share the
    same per-epoch noise draws, making the comparison matched and the
    artifacts deterministic under a fixed seed.

    A run is not held once it is yielded: the generator lets it go before
    the next loop starts, and the optimal run once the robust row, the last
    to read it, is formed. A consumer that also lets each run go holds at
    most two at once.
    """
    optimal, noise = _optimal_run(config)
    plans = [(kind, _assumed_rates(config, inflation, optimal.trajectory))
             for kind, inflation in ((PolicyKind.ROBUST, config.inflation),
                                     (PolicyKind.MISESTIMATED, config.misestimation))
             if kind.value in config.policies]
    opt_cost = math.nan
    if "optimal" in config.policies:
        opt_cost = total_cost(optimal.trace)
        yield "optimal", optimal, _cost_row("optimal", optimal, optimal, opt_cost), noise
    # after its own row, only the robust row (the first plan) reads the optimal run
    paired = optimal if "optimal" in config.policies and "robust" in config.policies else None
    del optimal
    for kind, plan in plans:
        run = _policy_run(config, kind, plan, noise)
        row = _cost_row(kind.value, run, paired, opt_cost)
        paired = None
        yield kind.value, run, row, noise
        del run


def run_scenario(config: ScenarioConfig) -> RunArtifacts:
    """Run the configured policies on one true epidemic and assemble artifacts:
    every run and row of ``policy_runs``, held together."""
    runs: dict[str, ClosedLoopResult] = {}
    rows: list[CostRow] = []
    for name, run, row, noise in policy_runs(config):
        runs[name] = run
        rows.append(row)
    return RunArtifacts(config=config, runs=runs, noise=noise, cost_rows=tuple(rows))


def _optimal_run(config: ScenarioConfig) -> tuple[ClosedLoopResult, MeasurementNoise]:
    """The optimal closed loop of a scenario and the noise source it resolves.

    The optimal policy ignores measurements, so its run doubles as the
    noise-free reference from which SNR-mode noise power is resolved. Neither
    depends on the policies' assumed rates.
    """
    optimal = simulate_closed_loop(
        PolicyKind.OPTIMAL, config.params, None, config.init, None,
        config.integrator, config.i_bar, ControlBounds(config.u_max))
    noise = MeasurementNoise.build(config.noise, config.integrator.n_steps + 1,
                                   derive_seed(config.seed, config.name),
                                   reference=optimal.trajectory)
    return optimal, noise


def _policy_run(config: ScenarioConfig, kind: PolicyKind, plan: EpidemicParams,
                noise: MeasurementNoise) -> ClosedLoopResult:
    """The robust or misestimated closed loop that plans with ``plan``
    (``_assumed_rates``), on the scenario's truth and noise."""
    return simulate_closed_loop(kind, config.params, plan, config.init, noise,
                                config.integrator, config.i_bar, ControlBounds(config.u_max))


def _cost_row(name: str, run: ClosedLoopResult, optimal: Optional[ClosedLoopResult],
              opt_cost: float) -> CostRow:
    """A run's costs.csv row; the one place that integrates costs and forms ``gap_direct``.

    ``opt_cost`` is the ``total_cost`` of ``optimal``, NaN without an
    optimal run; the row of ``optimal`` itself takes it, so each trace is
    integrated once. ``gap_direct`` is the run's cost minus ``opt_cost``.
    Every run is on the config's own parameters, initial state and grid
    (``_policy_run``), so the difference needs no grid check. A robust run with an
    ``optimal`` run gets the formula gaps of ``build_cost_report``; any
    other row has them NaN.
    """
    nan = math.nan
    cost = opt_cost if run is optimal else total_cost(run.trace)
    l4 = c = c_bar = nan
    if run.trace.kind is PolicyKind.ROBUST and optimal is not None:
        l4, c, c_bar = build_cost_report(run, optimal)
    sw = run.trace.switching
    return CostRow(policy=name, total_cost=cost, gap_direct=cost - opt_cost,
                   gap_lemma4=l4, gap_thm4=c, gap_upper=c_bar,
                   t_b=nan if sw.t_b is None else sw.t_b,
                   t_h=nan if sw.t_h is None else sw.t_h,
                   feasible=run.report.feasible)


def _fnorm(traj: Trajectory, k: int) -> float:
    # from the node's floats: a computed node need not pass SirState's checks
    d = _rhs(float(traj.s[k]), float(traj.i[k]), traj.params.beta, traj.params.gamma,
             float(traj.u[k]))
    return math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)


def _grid_index(traj: Trajectory, time: float, name: str) -> int:
    """The grid node at the estimation base time ``estimation.<name>``."""
    try:
        k = traj.index_at(time)
    except ValueError as exc:
        raise ConfigError(f"estimation.{name}: {exc}") from exc
    if abs(float(traj.t[k]) - time) > 1e-9 * max(1.0, abs(time)):
        raise ConfigError(f"estimation.{name}: time {time} is not on the trajectory grid")
    return k


def _sample(meas: MeasuredSeries, k) -> MeasuredSample:
    """The measurement at grid index k; an index array gives a stack of them."""
    try:
        return MeasuredSample(meas.t[k], meas.s_hat[k], meas.i_hat[k], meas.u[k])
    except ValueError as exc:  # the sweep's rate is 0: only noise moves a sample out
        raise ConfigError(f"noise too large to estimate (noise.snr_db, noise.divisor): {exc}"
                          ) from exc


def _sweep_rows(config: ScenarioConfig, traj: Trajectory,
                alphas: Optional[tuple[int, ...]] = None):
    est = config.estimation
    alphas = est.alphas if alphas is None else alphas
    zeta_h = est.zeta * traj.step * max(alphas)  # at the largest step this call samples
    if zeta_h >= 1.0:
        raise ConfigError(f"estimation.zeta times the largest step h must be < 1, got {zeta_h}")
    needed = max(est.i, est.j) + max(alphas) * traj.step
    if float(traj.t[-1]) + 1e-9 < needed:
        raise ConfigError(
            f"horizon {traj.t[-1]} too short for the sweep (needs {needed})")

    meas = inject_noise(traj, config.noise,
                        derive_seed(config.seed, config.name + ":sweep"))
    v_max = meas.v_max_bound
    ki, kj = _grid_index(traj, est.i, "i"), _grid_index(traj, est.j, "j")
    theta = np.array([config.params.beta, config.params.gamma])
    f_max = max(_fnorm(traj, ki), _fnorm(traj, kj))
    u_loc = max(abs(float(traj.u[ki])), abs(float(traj.u[kj])))

    # every alpha at once: the ahead samples are stacked, the base samples
    # (and so Z Z') are shared
    steps = np.asarray(alphas)
    h = steps * traj.step
    batch = build_regressor_batch(_sample(meas, ki), _sample(meas, ki + steps),
                                  _sample(meas, kj), _sample(meas, kj + steps), h)
    try:
        point = estimate_params(batch)
    except SingularRegressorsError:
        nan = math.nan
        return [EstimateRow(a, h_a, nan, nan, nan, nan, False)
                for a, h_a in zip(alphas, h.tolist())]
    c = composite_constant(config.params, float(meas.s_hat[ki]),
                           float(meas.s_hat[kj]), float(meas.i_hat[ki]),
                           float(meas.i_hat[kj]), v_max, u_loc)
    bound = estimation_error_bound(h=h, zeta=est.zeta, f_max=f_max, v_max=v_max, c=c,
                                   lambda_min=batch.lambda_min())
    diff = point.as_row() - theta
    # vecdot is the dot product np.linalg.norm takes per row, so the bits match
    err = np.sqrt(np.vecdot(diff, diff))
    return [EstimateRow(*row) for row in zip(alphas, *(col.tolist() for col in (
        h, point.beta_hat, point.gamma_hat, err, bound.value, err <= bound.value)))]


def sweep_h(config: ScenarioConfig) -> list[EstimateRow]:
    """Estimate (beta, gamma) and the error bound for every step multiple.

    Samples the uncontrolled epidemic on the config's integrator grid, so
    alpha's step is alpha times ``integrator.step``, under the configured
    noise. Configs that differ only in noise or seed share one integration
    through ``integrate``'s memo. All alphas are estimated in one array
    pass: Z Z' depends only on the base times i and j, so its eigenvalues,
    the singular test and the bound's lambda_min are computed once. A
    singular window makes every row NaN, flagged as not contained.
    """
    if config.estimation is None:
        raise ConfigError("sweep_h needs an estimation block in the config")
    return _sweep_rows(config, integrate(config.params, 0.0, config.init, config.integrator))


def gap_table(config: ScenarioConfig,
              inflations: list[tuple[float, float]]) -> list[CostRow]:
    """Cost-gap rows for a grid of (beta, gamma) inflation multipliers.

    Every row comes from the one optimal closed loop and noise draws of the
    config, as ``run_scenario`` would give for each pair with the same seed
    and name; only the robust loop runs per pair. The rows are the optimal
    row, then one ``robust_bx<beta_mult>_gx<gamma_mult>`` row per pair, in
    order. Two pairs with the same row name (``%g`` keeps 6 digits) are a
    ConfigError, and so is a bad pair, before any robust loop runs.
    """
    names = [f"robust_bx{bm:g}_gx{gm:g}" for bm, gm in inflations]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ConfigError(f"inflation pairs repeat the row name {name}")
    optimal, noise = _optimal_run(config)
    plans = [_assumed_rates(config, InflationConfig(beta_mult=bm, gamma_mult=gm),
                            optimal.trajectory) for bm, gm in inflations]
    opt_cost = total_cost(optimal.trace)
    rows = [_cost_row("optimal", optimal, optimal, opt_cost)]
    for plan, name in zip(plans, names):
        # no name holds a pair's run, so it is freed before the next pair's loop runs
        rows.append(_cost_row(name, _policy_run(config, PolicyKind.ROBUST, plan, noise),
                              optimal, opt_cost))
    return rows


# ---------------------------------------------------------------------------
# Presets reproducing the simulation studies at desk scale.

def preset(name: str, seed: Optional[int] = None) -> ScenarioConfig:
    """Named scenario presets; see PRESETS for the list."""
    try:
        cfg = PRESETS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _wave_config() -> ScenarioConfig:
    # i_bar above the uncontrolled peak (~0.465), so the optimal policy stays
    # at zero and the run is the plain epidemic wave
    return ScenarioConfig(
        name="sir-wave",
        params=EpidemicParams(beta=0.16, gamma=1.0 / 30.0),
        init=SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=0.0),
        i_bar=0.99, u_max=0.15, noise=NoiseConfig(kind="none"),
        integrator=IntegratorConfig(step=0.01, horizon=110.0),
        policies=("optimal",),
        estimation=EstimationWindow(),
    )


def _param_est_config() -> ScenarioConfig:
    return replace(_wave_config(), name="param-est")


def _bound_sweep_config() -> ScenarioConfig:
    return replace(_wave_config(), name="bound-sweep")


def bound_sweep_noisy_config() -> ScenarioConfig:
    return replace(_wave_config(), name="bound-sweep-100db",
                   noise=NoiseConfig(kind="snr_db", snr_db=100.0))


def _policy_compare_config() -> ScenarioConfig:
    return ScenarioConfig(
        name="policy-compare",
        params=EpidemicParams(beta=0.16, gamma=1.0 / 30.0),
        init=SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=0.0),
        i_bar=0.01, u_max=0.15,
        noise=NoiseConfig(kind="snr_db", snr_db=55.0),
        inflation=InflationConfig(beta_mult=1.05, gamma_mult=0.95),
        misestimation=InflationConfig(beta_mult=0.95, gamma_mult=1.05),
        integrator=IntegratorConfig(step=0.01, horizon=1200.0),
    )


def _fig1_config() -> ScenarioConfig:
    return ScenarioConfig(
        name="fig1",
        params=EpidemicParams(beta=0.16, gamma=0.063),
        init=SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=0.0),
        i_bar=0.1, u_max=0.2,
        noise=NoiseConfig(kind="scaled_variance", divisor=1e4),
        inflation=InflationConfig(beta_mult=1.05, gamma_mult=0.95),
        integrator=IntegratorConfig(step=0.01, horizon=300.0),
        policies=("optimal", "robust"),
    )


PRESETS = {
    "sir-wave": _wave_config,
    "param-est": _param_est_config,
    "bound-sweep": _bound_sweep_config,  # the 100 dB half is derived from it
    "policy-compare": _policy_compare_config,
    "fig1": _fig1_config,
}
