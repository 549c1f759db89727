"""Penalty-based bilevel optimization toolkit.

Fully first-order methods for  min_x phi(x),  phi(x) = min over the
lower-level solution set of f, where the lower level is PL: a deterministic
and a stochastic penalty method with analysis-driven schedules, an analytic
benchmark suite, independent verification oracles, and a zero-respecting
certification harness for the worst-case chain instance.
"""

from .core import (
    BilevelProblem,
    PenaltyObjective,
    PenaltyValue,
    ProblemConstants,
    ProblemMeta,
    StochasticOracle,
    hypergradient_estimate,
    penalized_hyperobjective_value,
)
from .diagnostics import (
    GaletResiduals,
    check_gradients,
    check_smoothness_constants,
    exact_hypergradient_pinv,
    fd_hypergradient,
    galet_residuals,
    grid_hyper_objective,
    hausdorff_distance,
    hypergradient_routes,
    pl_ratio_certificate,
    set_lipschitz_check,
    smoothness_probe,
)
from .drivers import (
    RunTrace,
    SchedulePlan,
    TraceRow,
    build_schedule,
    fit_complexity_slope,
    run_f2ba,
    run_f2bsa,
    stochastic_inner_count,
)
from .errors import (
    CapabilityError,
    ConfigError,
    ConvergenceError,
    DivergenceError,
    InputError,
    InstrumentationError,
    NumericError,
    ToolkitError,
)
from .inner import InnerConfig, InnerResult, descend_single, inner_descend, \
    probe_penalty_divergence
from .problems import (
    HardInstanceSpec,
    SuiteProblem,
    get_problem,
    list_problems,
    make_hard_instance,
)
from .zerochain import (
    CertificationReport,
    CoordinateProbeAdapter,
    F2BAAdapter,
    SupportTracker,
    run_zero_respecting,
    tracked_instance,
)
from .cli import read_trace_header, render_trace_csv, write_trace_csv

__version__ = "0.1.0"

__all__ = [
    "BilevelProblem", "PenaltyObjective", "PenaltyValue", "ProblemConstants",
    "ProblemMeta", "StochasticOracle", "hypergradient_estimate",
    "penalized_hyperobjective_value",
    "GaletResiduals", "check_gradients",
    "check_smoothness_constants", "exact_hypergradient_pinv",
    "fd_hypergradient", "galet_residuals", "grid_hyper_objective",
    "hausdorff_distance", "hypergradient_routes", "pl_ratio_certificate",
    "set_lipschitz_check", "smoothness_probe",
    "RunTrace", "SchedulePlan", "TraceRow", "build_schedule",
    "fit_complexity_slope", "run_f2ba", "run_f2bsa", "stochastic_inner_count",
    "CapabilityError", "ConfigError", "ConvergenceError", "DivergenceError",
    "InputError", "InstrumentationError", "NumericError", "ToolkitError",
    "InnerConfig", "InnerResult", "descend_single", "inner_descend",
    "probe_penalty_divergence",
    "HardInstanceSpec", "SuiteProblem", "get_problem", "list_problems",
    "make_hard_instance",
    "CertificationReport", "CoordinateProbeAdapter", "F2BAAdapter",
    "SupportTracker", "run_zero_respecting", "tracked_instance",
    "read_trace_header", "render_trace_csv", "write_trace_csv",
    "__version__",
]
