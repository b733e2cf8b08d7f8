"""SIR epidemic isolation control under parameter and measurement uncertainty."""

from .analysis import (
    CumulativeCheck,
    build_cost_report,
    cumulative_infected_check,
    gap_from_states,
    gap_closed_form,
    total_cost,
)
from .control import (
    ClosedLoopResult,
    FeasibilityReport,
    PolicyKind,
    PolicyTrace,
    SwitchingTimes,
    simulate_closed_loop,
)
from .core import (
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
)
from .estimation import (
    ErrorBound,
    MeasuredSample,
    ParamEstimate,
    ParamIntervals,
    RegressionBatch,
    SingularRegressorsError,
    build_regressor_batch,
    composite_constant,
    discretization_error_bound,
    estimation_error_bound,
    estimate_params,
    lipschitz_constant,
    param_intervals,
)
from .noise import MeasuredSeries, MeasurementNoise, NoiseConfig, inject_noise
from .scenarios import (
    ConfigError,
    EstimateRow,
    EstimationWindow,
    InflationConfig,
    RunArtifacts,
    ScenarioConfig,
    gap_table,
    preset,
    run_scenario,
    sweep_h,
)

__version__ = "0.1.0"
