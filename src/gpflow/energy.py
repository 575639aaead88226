"""Energy, metric gradients, tangent projections, retraction and multiplier.

The three schemes share one structure: metric gradient, projection onto the
tangent space of the unit L2 sphere, and normalization back onto it.  The
scalar coefficient of the Green-solve direction (the multiplier gamma) is the
running eigenvalue estimate; at a critical point it equals the eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    GridFunction,
    GridMismatchError,
    Metric,
    MetricKind,
    edge_difference_sum,
    inner_l2,
    norm,
    norm_l2,
)
from . import greens
from .greens import LinearOperator, solve_green
from .problem import Problem

SchemeKind = MetricKind  # schemes are named after their metrics; L2 is not a scheme

UNIT_NORM_TOL = 1e-10


def metric_for(kind: SchemeKind, u: GridFunction | None = None) -> Metric:
    """The metric a scheme measures itself in; AU is based at the iterate."""
    if kind is MetricKind.AU:
        if u is None:
            raise ValueError("AU metric requires the current iterate as base")
        return Metric(MetricKind.AU, base=u)
    if kind is MetricKind.L2:
        raise ValueError("L2 is not a scheme metric")
    return Metric(kind)


def _require_unit(u: GridFunction) -> None:
    if abs(norm_l2(u) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("function is not unit L2-norm within 1e-10")


def _energy_terms(problem: Problem, f: GridFunction) -> tuple[float, float, float]:
    """Kinetic, potential and quartic parts of the energy of f."""
    w = problem.grid.cell_volume
    kinetic = 0.5 * edge_difference_sum(f, f)
    potential = 0.5 * w * float(np.sum(problem.V.values * f.values**2))
    quartic = 0.25 * problem.beta * w * float(np.sum(f.values**4))
    return kinetic, potential, quartic


def _energy_difference(
    problem: Problem, u: GridFunction, v: GridFunction, diff: np.ndarray
) -> float:
    """E(u) - E(v) from the exact difference ``diff`` = u - v, term by term.

    Every term factors through diff, so nothing cancels between two O(1)
    energies.
    """
    grid = problem.grid
    w = grid.cell_volume
    d = GridFunction(grid, diff)
    summ = GridFunction(grid, u.values + v.values)
    kinetic = 0.5 * edge_difference_sum(d, summ)
    potential = 0.5 * w * float(np.sum(problem.V.values * d.values * summ.values))
    sq_diff = d.values * summ.values  # u^2 - v^2
    sq_sum = u.values**2 + v.values**2
    quartic = 0.25 * problem.beta * w * float(np.sum(sq_diff * sq_sum))
    return kinetic + potential + quartic


def energy(problem: Problem, u: GridFunction) -> float:
    """Discrete Gross-Pitaevskii energy.

    Kinetic term via the Dirichlet edge form, potential and quartic terms via
    the same pointwise quadrature as every other integral, so all discrete
    identities hold exactly.
    """
    if u.grid != problem.grid:
        raise GridMismatchError("function does not live on the problem grid")
    kinetic, potential, quartic = _energy_terms(problem, u)
    return kinetic + potential + quartic


def energy_decrease(problem: Problem, u: GridFunction, v: GridFunction) -> float:
    """E(u) - E(v) in a cancellation-free difference form.

    Algebraically identical to energy(u) - energy(v), but accurate down to
    decreases far below the rounding floor of the individual energies; the
    line search relies on this near convergence.
    """
    return _energy_difference(problem, u, v, u.values - v.values)


def _normalization_correction(problem: Problem, f: GridFunction, t: float) -> float:
    """E(f / sqrt(1 + t)) - E(f), where ||f||^2 = 1 + t."""
    s2 = 1.0 + t
    kin, pot, quart = _energy_terms(problem, f)
    return (kin + pot) * (t / s2) + quart * (t * (t + 2.0) / s2**2)


def _step_decreases(problem: Problem, u: GridFunction, g: GridFunction):
    """The function alpha -> step_decrease(problem, u, g, alpha).

    The terms at u that do not depend on alpha are computed once, so a line
    search pays for them once per step instead of once per trial.
    """
    # ||y||^2 = 1 + t_y with every term of t_y small; no large cancellation.
    # The stored u sits eps off the sphere, so compare the energies of the
    # exactly normalized u and y: subtract the normalization correction at u
    # as well, or that eps-level offset drowns decreases near convergence.
    t_u = inner_l2(u, u) - 1.0
    correction_u = _normalization_correction(problem, u, t_u)
    gu, gg = inner_l2(g, u), inner_l2(g, g)

    def decrease_at(alpha: float) -> tuple[float, GridFunction]:
        y = GridFunction(problem.grid, u.values - alpha * g.values)
        unnormalized = _energy_difference(problem, u, y, alpha * g.values)
        t_y = t_u - 2.0 * alpha * gu + alpha * alpha * gg
        decrease = unnormalized + _normalization_correction(problem, y, t_y) - correction_u
        u_next = GridFunction(problem.grid, y.values / math.sqrt(1.0 + t_y))
        return decrease, u_next

    return decrease_at


def step_decrease(
    problem: Problem, u: GridFunction, g: GridFunction, alpha: float
) -> tuple[float, GridFunction]:
    """E(u) - E(retract(u - alpha g)) and the retracted step, computed stably.

    The pre-retraction difference is exactly alpha*g (never the rounded
    difference of two nearby iterates), and the retraction's contribution uses
    t = ||u - alpha g||^2 - 1 accumulated from its small constituents.  This
    keeps the decrease accurate at the alpha*residual^2 scale even when that
    is far below the rounding floor of the energies themselves.
    """
    return _step_decreases(problem, u, g)(alpha)


def _gradient(
    kind: SchemeKind,
    problem: Problem,
    u: GridFunction,
    op: LinearOperator,
    x0: np.ndarray | None = None,
    rtol: float | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Metric gradient values at u, the Green-solve term added to u, and
    that term's unscaled Green solve.

    H1: u + G_H1(V u + beta u^3); a0: u + beta G_a0(u^3); a_u, and a0 at
    beta = 0: u itself, with no Green-solve term (None, None).  ``op`` is the
    scheme's operator at u; the a0 solve starts from ``x0`` and stops at
    ``rtol``.
    """
    if kind is MetricKind.H1:
        gv = solution = op.solve(problem.V.values * u.values + problem.beta * u.values**3)
    elif kind is MetricKind.A0 and problem.beta != 0.0:
        solution = op.solve(u.values**3, x0, rtol)
        gv = problem.beta * solution
    else:
        return u.values, None, None
    return u.values + gv, gv, solution


def metric_gradient(kind: SchemeKind, problem: Problem, u: GridFunction) -> GridFunction:
    """Gradient of the energy in the scheme's metric.

    H1: u + G_H1(V u + beta u^3); a0: u + beta G_a0(u^3); a_u: u itself.
    """
    if u.grid != problem.grid:
        raise GridMismatchError("function does not live on the problem grid")
    grad, _, _ = _gradient(kind, problem, u, LinearOperator(metric_for(kind, u), problem))
    return GridFunction(problem.grid, grad)


def project_tangent(
    metric: Metric, problem: Problem, u: GridFunction, xi: GridFunction
) -> GridFunction:
    """Project xi onto the tangent space at u, orthogonally in the metric.

    Subtracts the Green-solve direction G u scaled so the result is exactly
    L2-orthogonal to u (the squared metric norm of G u equals (G u, u)_L2).
    """
    _require_unit(u)
    gu = solve_green(metric, problem, u)
    coeff = inner_l2(xi, u) / inner_l2(gu, u)
    return GridFunction(u.grid, xi.values - coeff * gu.values)


@dataclass(frozen=True, eq=False)
class SchemeState:
    """Everything one iteration needs: direction, multiplier, residual.

    ``gradient`` holds the values of the metric gradient at u, from the
    state's own solve (a state solved at greens.CG_RTOL without a start, as
    ``scheme_state`` returns it without ``prev``, has exactly
    ``metric_gradient``'s values), and ``riemannian_gradient`` is
    gradient - gamma * G u.
    ``green_u`` is G u and ``green_term`` the unscaled Green solve inside the
    gradient (G_H1(V u + beta u^3) for H1, G_a0(u^3) for a0, None when the
    gradient has none); the next step's solves start from them.  ``rtol`` is
    the relative residual the a0 and a_u solves behind the state stopped at,
    and ``cg_iterations`` the CG iterations it took, every solve counted.
    """

    riemannian_gradient: GridFunction
    gradient: np.ndarray
    gamma: float
    residual: float
    green_u: GridFunction
    green_term: np.ndarray | None
    rtol: float
    cg_iterations: int


def _solve_state(
    kind: SchemeKind,
    problem: Problem,
    u: GridFunction,
    op: LinearOperator,
    start: SchemeState | None,
    rtol: float,
) -> SchemeState:
    """The state at u with every solve at ``rtol``, started from ``start``'s."""
    start_u = start_term = None
    if start is not None:
        start_u, start_term = start.green_u.values, start.green_term
    gu = GridFunction(problem.grid, op.solve(u.values, start_u, rtol))
    iterations = op.iterations
    denom = inner_l2(gu, u)  # equals ||G u||_X^2
    grad, gv, solution = _gradient(kind, problem, u, op, start_term, rtol)
    if solution is not None:  # op.iterations now counts the gradient's solve
        iterations += op.iterations
    numer = 1.0 if gv is None else 1.0 + inner_l2(GridFunction(problem.grid, gv), u)
    gamma = numer / denom
    rgrad = GridFunction(problem.grid, grad - gamma * gu.values)
    residual = norm(metric_for(kind, u), problem, rgrad)
    return SchemeState(rgrad, grad, gamma, residual, gu, solution, rtol, iterations)


def scheme_state(
    kind: SchemeKind,
    problem: Problem,
    u: GridFunction,
    op: LinearOperator | None = None,
    prev: SchemeState | None = None,
    tol: float | None = None,
) -> SchemeState:
    """Riemannian gradient, multiplier and residual norm at u, in one pass.

    A prebuilt LinearOperator may be passed to reuse it across iterations
    (the H1 and a0 operators never change within a run).  ``prev``, the
    state of the previous iterate, warm-starts the CG solves: its G u starts
    the solve for G u (also across a_u's change of operator between steps)
    and its ``green_term`` the a0 solve for G u^3.  A start changes the
    solves only within their tolerance, never their stopping test.

    Every solve stops at relative residual greens.CG_RTOL, with one
    exception.  When ``tol`` (the flow's residual tolerance) and ``prev``
    are both given and the scheme is not H1 (whose solve is exact), the
    solves stop at the forcing term clamp(CG_FORCING * prev.residual,
    CG_RTOL, CG_RTOL_MAX): an inexact G u still gives a direction exactly
    tangent to the sphere (gamma = numer / denom), and the residual is the
    norm of that direction.  Such a state is certified before it can end a
    run: if its residual is at most ``tol``, the solves are rerun at
    CG_RTOL, started from the loose solutions, and the tight state is
    returned, its ``cg_iterations`` counting both passes.
    """
    _require_unit(u)
    if op is None:
        op = LinearOperator(metric_for(kind, u), problem)
    if tol is None or prev is None or kind is MetricKind.H1:
        return _solve_state(kind, problem, u, op, prev, greens.CG_RTOL)
    forcing = greens.CG_FORCING * prev.residual
    rtol = min(max(forcing, greens.CG_RTOL), greens.CG_RTOL_MAX)
    state = _solve_state(kind, problem, u, op, prev, rtol)
    if state.residual > tol or rtol == greens.CG_RTOL:
        return state
    tight = _solve_state(kind, problem, u, op, state, greens.CG_RTOL)
    return replace(tight, cg_iterations=state.cg_iterations + tight.cg_iterations)


def retract(u: GridFunction) -> GridFunction:
    """Normalize back onto the unit L2 sphere."""
    n = norm_l2(u)
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("retraction undefined at zero")
    return GridFunction(u.grid, u.values / n)
