"""Ground states of the Gross-Pitaevskii equation by projected Sobolev
gradient flows, with a verification suite for the solver's invariants.

The names imported below are the package's public API."""

__version__ = "0.1.0"

from .grid import (
    A0,
    Grid,
    GridFunction,
    GridMismatchError,
    H1,
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
    initial_guess,
    run,
    sign_normalize,
)
from .spectral import (
    EigenSolveError,
    EigengapDegenerateError,
    RateFit,
    SpectralReport,
    estimate_poincare,
    fit_rate,
    linearized_operator,
    lowest_two_eigen,
)
from .verify import CheckResult, check_suite, cross_scheme_agreement, failures
