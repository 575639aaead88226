"""Ground states of the Gross-Pitaevskii equation by projected Sobolev
gradient flows, with a verification suite for the solver's invariants."""

__version__ = "0.1.0"

from .grid import (
    A0,
    Grid,
    GridFunction,
    GridMismatchError,
    H1,
    L2,
    Metric,
    MetricKind,
    build_grid,
    inner,
    inner_l2,
    norm,
    norm_l2,
)
from .problem import Problem, harmonic_potential, well_potential, zero_potential
from .greens import LinearOperator, solve_green
from .energy import (
    energy,
    energy_decrease,
    metric_gradient,
    project_tangent,
    retract,
    scheme_state,
)
from .flows import (
    ConvergenceReport,
    FlowBreakdownError,
    IterationRecord,
    RunConfig,
    StepPolicy,
    initial_guess,
    run,
    sign_normalize,
)
from .spectral import (
    EigengapDegenerateError,
    RateFit,
    SpectralReport,
    estimate_poincare,
    fit_rate,
    linearized_operator,
    lowest_two_eigen,
)
from .verify import CheckResult, check_suite, cross_scheme_agreement, failures

__all__ = [
    "A0",
    "CheckResult",
    "ConvergenceReport",
    "EigengapDegenerateError",
    "FlowBreakdownError",
    "Grid",
    "GridFunction",
    "GridMismatchError",
    "H1",
    "IterationRecord",
    "L2",
    "LinearOperator",
    "Metric",
    "MetricKind",
    "Problem",
    "RateFit",
    "RunConfig",
    "SpectralReport",
    "StepPolicy",
    "build_grid",
    "check_suite",
    "cross_scheme_agreement",
    "energy",
    "energy_decrease",
    "estimate_poincare",
    "failures",
    "fit_rate",
    "harmonic_potential",
    "initial_guess",
    "inner",
    "inner_l2",
    "linearized_operator",
    "lowest_two_eigen",
    "metric_gradient",
    "norm",
    "norm_l2",
    "project_tangent",
    "retract",
    "run",
    "scheme_state",
    "sign_normalize",
    "solve_green",
    "well_potential",
    "zero_potential",
]
