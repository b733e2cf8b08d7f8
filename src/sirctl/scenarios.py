"""Scenario configuration and experiment orchestration.

A scenario bundles the true epidemic, the infection cap and rate budget, the
measurement-noise model, and how the policies' assumed parameter bounds are
obtained (fixed inflation multipliers or an estimation run). ``run_scenario``
drives the optimal, robust, and optionally misestimated policies on the same
true dynamics and the same noise draws, then assembles feasibility and cost
artifacts. ``sweep_h`` reproduces the sample-step study: one estimate plus
error bound per step multiple alpha.

Determinism: every scenario derives its RNG stream from (seed, scenario
name), so fixed configs give byte-identical CSV artifacts.
"""
from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .analysis import (
    CostReport,
    CumulativeCheck,
    build_cost_report,
    cumulative_infected_check,
    total_cost,
)
from .control import (
    AssumedRates,
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
    integrate,
    rhs,
)
from .estimation import (
    BoundInputs,
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
    """Two-sample estimation settings: base times, unit step, step multiples."""

    i: float = 80.0
    j: float = 90.0
    h_unit: float = 0.01
    alphas: tuple[int, ...] = tuple(range(1, 201))
    zeta: float = 0.055  # working Lipschitz constant for the error bound
    r: float = 0.1

    def __post_init__(self) -> None:
        for name in ("i", "j", "h_unit", "zeta", "r"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"estimation.{name} must be finite, got {value}")
            if name in ("zeta", "r") and value < 0.0:
                raise ConfigError(f"estimation.{name} must be >= 0, got {value}")
        if self.i == self.j:
            raise ConfigError("estimation base times must differ")
        if self.h_unit <= 0.0 or not self.alphas:
            raise ConfigError("estimation needs a positive h_unit and alphas")
        if min(self.alphas) < 1:
            raise ConfigError(f"estimation.alphas must be >= 1, got {min(self.alphas)}")
        if self.zeta * self.h_unit * max(self.alphas) >= 1.0:
            raise ConfigError("estimation.zeta times the largest step h must be < 1, "
                              f"got {self.zeta * self.h_unit * max(self.alphas)}")


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
        if not math.isfinite(self.init.t):
            raise ConfigError(f"init.t must be finite, got {self.init.t}")
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
class PolicyRun:
    """One policy's closed loop and the scenario's noise source.

    Each full-length array is held once, read-only: the trace shares the
    node columns (``PolicyTrace``). The measured series is not held; its
    writer builds it from ``noise`` (``measured_series_for``).
    """

    kind: PolicyKind
    result: ClosedLoopResult
    noise: MeasurementNoise
    assumed: Optional[AssumedRates]


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


@dataclass(frozen=True)
class EstimateRow:
    """One estimates.csv row of the sample-step sweep."""

    alpha: int
    h: float
    beta_hat: float
    gamma_hat: float
    err_norm: float
    bound_b: float
    contained: bool


@dataclass(frozen=True)
class RunArtifacts:
    config: ScenarioConfig
    runs: dict[str, PolicyRun]
    cost_report: Optional[CostReport]
    cumulative: Optional[CumulativeCheck]
    cost_rows: tuple[CostRow, ...]

    @property
    def robust_feasible(self) -> Optional[bool]:
        run = self.runs.get("robust")
        return None if run is None else run.result.report.feasible


def _assumed_rates(config: ScenarioConfig, inflation: InflationConfig,
                   reference: Trajectory) -> AssumedRates:
    if inflation.mode == "multipliers":
        return AssumedRates.from_multipliers(config.params, inflation.beta_mult,
                                             inflation.gamma_mult)
    if config.estimation is None:
        raise ConfigError("inflation mode 'estimated' needs an estimation block")
    row, = _sweep_rows(config, reference, alphas=(config.estimation.alphas[0],))
    rates = AssumedRates.from_intervals(
        param_intervals(ParamEstimate(row.beta_hat, row.gamma_hat), row.bound_b))
    if not (rates.beta > 0.0 and rates.gamma > 0.0):  # NaN: singular regressors
        raise ConfigError(f"estimation gives beta_max={rates.beta:.6g}, gamma_min="
                          f"{rates.gamma:.6g}; the robust policy needs both positive")
    return rates


def run_scenario(config: ScenarioConfig) -> RunArtifacts:
    """Run the configured policies on one true epidemic and assemble artifacts.

    All policies share the same per-epoch noise draws, making the comparison
    matched and the artifacts deterministic under a fixed seed.
    """
    return _run_policies(config, *_optimal_run(config))


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


def _run_policies(config: ScenarioConfig, optimal: ClosedLoopResult,
                  noise: MeasurementNoise) -> RunArtifacts:
    """``run_scenario`` given the scenario's ``_optimal_run``."""
    runs: dict[str, PolicyRun] = {}
    if "optimal" in config.policies:
        runs["optimal"] = PolicyRun(PolicyKind.OPTIMAL, optimal, noise, assumed=None)
    for kind, inflation in ((PolicyKind.ROBUST, config.inflation),
                            (PolicyKind.MISESTIMATED, config.misestimation)):
        if kind.value not in config.policies:
            continue
        assumed = _assumed_rates(config, inflation, optimal.trajectory)
        res = simulate_closed_loop(
            kind, config.params, assumed, config.init, noise, config.integrator,
            config.i_bar, ControlBounds(config.u_max), prefix=optimal)
        runs[kind.value] = PolicyRun(kind, res, noise, assumed)

    report, cumulative = None, None
    if "robust" in runs and "optimal" in runs:
        rob, opt = runs["robust"], runs["optimal"]
        report = build_cost_report(
            rob.result.trace, rob.result.trajectory, opt.result.trace,
            opt.result.trajectory, config.params, rob.assumed.beta, rob.assumed.gamma)
        if opt.result.trace.switching.t_h is not None:
            cumulative = cumulative_infected_check(
                rob.result.trajectory, opt.result.trajectory,
                opt.result.trace.switching.t_h)
    return RunArtifacts(config=config, runs=runs, cost_report=report,
                        cumulative=cumulative, cost_rows=tuple(_cost_rows(runs, report)))


def _cost_rows(runs: dict[str, PolicyRun], report: Optional[CostReport]) -> list[CostRow]:
    """One row per run.

    Each trace is integrated once by ``total_cost``; a run's ``gap_direct``
    is its cost minus the optimal run's, NaN without an optimal run. The
    robust row takes the three formula gaps from the report.
    """
    nan = math.nan
    costs = {name: total_cost(run.result.trace) for name, run in runs.items()}
    opt_cost = costs.get("optimal", nan)
    rows = []
    for name, run in runs.items():
        l4 = c = c_bar = nan
        if name == "robust" and report is not None:
            l4, c, c_bar = report.gap_from_states, report.gap_closed_form, report.gap_upper
        sw = run.result.trace.switching
        rows.append(CostRow(
            policy=name, total_cost=costs[name], gap_direct=costs[name] - opt_cost,
            gap_lemma4=l4, gap_thm4=c, gap_upper=c_bar,
            t_b=nan if sw.t_b is None else sw.t_b,
            t_h=nan if sw.t_h is None else sw.t_h,
            feasible=run.result.report.feasible))
    return rows


def _fnorm(traj: Trajectory, k: int) -> float:
    d = rhs(traj.sample(k), traj.params, float(traj.u[k]))
    return math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)


def _xnorm(traj: Trajectory, k: int) -> float:
    return math.sqrt(float(traj.s[k]) ** 2 + float(traj.i[k]) ** 2
                     + float(traj.r[k]) ** 2)


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
    if est is None:
        raise ConfigError("sweep_h needs an estimation block in the config")
    alphas = est.alphas if alphas is None else alphas
    if abs(traj.step - est.h_unit) > 1e-12:
        raise ConfigError("trajectory step must equal the estimation h_unit")
    needed = max(est.i, est.j) + max(alphas) * est.h_unit
    if float(traj.t[-1]) + 1e-9 < needed:
        raise ConfigError(
            f"horizon {traj.t[-1]} too short for the sweep (needs {needed})")

    meas = inject_noise(traj, config.noise,
                        derive_seed(config.seed, config.name + ":sweep"))
    v_max = meas.v_max_bound
    ki, kj = _grid_index(traj, est.i, "i"), _grid_index(traj, est.j, "j")
    theta = np.array([config.params.beta, config.params.gamma])
    f_max = max(_fnorm(traj, ki), _fnorm(traj, kj))
    x_max = max(_xnorm(traj, ki), _xnorm(traj, kj))
    u_loc = max(abs(float(traj.u[ki])), abs(float(traj.u[kj])))

    # every alpha at once: the ahead samples are stacked, the base samples
    # (and so Z Z') are shared
    steps = np.asarray(alphas)
    h = steps * est.h_unit
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
    bound = estimation_error_bound(BoundInputs(
        h=h, zeta=est.zeta, f_max=f_max, v_max=v_max, u_max_local=u_loc,
        x_max=x_max, r=est.r, c=c, lambda_min=batch.lambda_min()))
    diff = point.as_row() - theta
    # vecdot is the dot product np.linalg.norm takes per row, so the bits match
    err = np.sqrt(np.vecdot(diff, diff))
    return [EstimateRow(*row) for row in zip(alphas, *(col.tolist() for col in (
        h, point.beta_hat, point.gamma_hat, err, bound.value, err <= bound.value)))]


def sweep_trajectory(config: ScenarioConfig) -> Trajectory:
    """The uncontrolled epidemic at the estimation unit step, which ``sweep_h`` samples."""
    if config.estimation is None:
        raise ConfigError("sweep_h needs an estimation block in the config")
    try:
        integrator = replace(config.integrator, step=config.estimation.h_unit)
    except ValueError as exc:
        raise ConfigError(f"estimation h_unit does not fit the horizon: {exc}") from exc
    return integrate(config.params, 0.0, config.init, integrator)


def sweep_h(config: ScenarioConfig,
            trajectory: Optional[Trajectory] = None) -> list[EstimateRow]:
    """Estimate (beta, gamma) and the error bound for every step multiple.

    Samples ``trajectory``, the uncontrolled epidemic at the unit step
    (integrated from the config by ``sweep_trajectory`` when omitted, and
    passed in to share one integration between configs that differ only in
    noise), under the configured noise. Then all alphas are estimated in one
    array pass: Z Z' depends only on the base times i and j, so its
    eigenvalues, the singular test and the bound's lambda_min are computed
    once. A singular window makes every row NaN, flagged as not contained.
    """
    return _sweep_rows(config, sweep_trajectory(config) if trajectory is None else trajectory)


def gap_table(config: ScenarioConfig,
              inflations: list[tuple[float, float]]) -> list[CostRow]:
    """Cost-gap rows for a grid of (beta, gamma) inflation multipliers.

    The optimal closed loop and its noise draws are computed once and shared:
    every pair keeps the config's seed and name, so its draws would be the
    same. Only the robust loop runs per pair. The rows are the optimal row,
    then one ``robust_bx<beta_mult>_gx<gamma_mult>`` row per pair, in order.
    Two pairs with the same row name (``%g`` keeps 6 digits) are a
    ConfigError.
    """
    names = [f"robust_bx{bm:g}_gx{gm:g}" for bm, gm in inflations]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ConfigError(f"inflation pairs repeat the row name {name}")
    base = replace(config, policies=("optimal", "robust"))
    optimal, noise = _optimal_run(base)
    rows: list[CostRow] = []
    for (bm, gm), name in zip(inflations, names):
        cfg = replace(base, inflation=InflationConfig(beta_mult=bm, gamma_mult=gm))
        optimal_row, robust_row = _run_policies(cfg, optimal, noise).cost_rows
        rows.append(replace(robust_row, policy=name))
    return [optimal_row, *rows] if rows else []


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
