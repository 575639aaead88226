"""Energy, metric gradients, tangent projections, retraction and multiplier.

The three schemes share one structure: metric gradient, projection onto the
tangent space of the unit L2 sphere, and normalization back onto it.  The
scalar coefficient of the Green-solve direction (the multiplier gamma) is the
running eigenvalue estimate; at a critical point it equals the eigenvalue.

The energy is quadratic plus quartic, so the decrease along a retracted
step, E(u) - E((u - alpha g) / ||u - alpha g||), is a rational function of
alpha.  The scheme state takes the moments of u and g once per step
(``_step_moments``); the residual reads a(g, g) from them and the flow's
line search (``flows._step_decreases``) all of them.  ``energy_decrease``, a
difference form on two grid functions, is the search's independent reference.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .grid import (
    H1,
    GridFunction,
    GridMismatchError,
    Metric,
    MetricKind,
    dirichlet_moments,
    inner,
    inner_l2,
    norm_l2,
)
from .greens import LinearOperator, solve_green
from .problem import Problem

UNIT_NORM_TOL = 1e-10


def _require_unit(u: GridFunction) -> float:
    """(u, u)_L2, as inner_l2 takes it, once u is checked to be unit."""
    uu = u.grid.cell_volume * float(u.values.dot(u.values))
    if abs(math.sqrt(uu) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("function is not unit L2-norm within 1e-10")
    return uu


def _require_on_grid(problem: Problem, *funcs: GridFunction) -> None:
    """Raise GridMismatchError unless every function lives on the problem's grid."""
    for f in funcs:
        if f.grid is not problem.grid and f.grid != problem.grid:
            raise GridMismatchError("function does not live on the problem grid")


def energy(problem: Problem, u: GridFunction) -> float:
    """Discrete Gross-Pitaevskii energy.

    Kinetic term via the Dirichlet edge form, potential and quartic terms via
    the same pointwise quadrature as every other integral, so all discrete
    identities hold exactly.
    """
    _require_on_grid(problem, u)
    w = problem.grid.cell_volume
    kinetic = 0.5 * inner(H1, None, u, u)
    potential = 0.5 * w * float(np.sum(problem.V.values * u.values**2))
    quartic = 0.25 * problem.beta * w * float(np.sum(u.values**4))
    return kinetic + potential + quartic


def energy_decrease(problem: Problem, u: GridFunction, v: GridFunction) -> float:
    """E(u) - E(v) in a cancellation-free difference form.

    Every term factors through d = u - v, so the result stays accurate far
    below the rounding floor of the two energies.  It shares no code with
    the line search's model (``flows._step_decreases``) and is its reference.
    """
    _require_on_grid(problem, u, v)
    w = problem.grid.cell_volume
    d = GridFunction(problem.grid, u.values - v.values)
    summ = GridFunction(problem.grid, u.values + v.values)
    kinetic = 0.5 * inner(H1, None, d, summ)
    potential = 0.5 * w * float(np.sum(problem.V.values * d.values * summ.values))
    sq_diff = d.values * summ.values  # u^2 - v^2
    sq_sum = u.values**2 + v.values**2
    quartic = 0.25 * problem.beta * w * float(np.sum(sq_diff * sq_sum))
    return kinetic + potential + quartic


StepMoments = namedtuple("StepMoments", "l2 dirichlet potential quartic")


def _step_moments(problem: Problem, u: np.ndarray, g: np.ndarray, uu: float) -> StepMoments:
    """What one step reads of its iterate u and direction g (value arrays),
    as float64, w the cell volume: l2 (u, u) (``uu``, as inner_l2 and
    _require_unit take it), (g, u), (g, g); dirichlet a(u, u), a(g, u),
    a(g, g); potential w sum V (u^2, u g, g^2); quartic
    beta w sum(u^4, u^3 g, u^2 g^2, u g^3, g^4)."""
    w, V, ug, u2, g2 = problem.grid.cell_volume, problem.V.values, u * g, u * u, g * g
    bw = problem.beta * w
    return StepMoments(
        (np.float64(uu), w * g.dot(u), w * g.dot(g)),
        dirichlet_moments(problem.grid, u, g),
        (w * V.dot(u2), w * V.dot(ug), w * V.dot(g2)),
        (bw * u2.dot(u2), bw * u2.dot(ug), bw * ug.dot(ug), bw * ug.dot(g2), bw * g2.dot(g2)),
    )


def _gradient(
    kind: MetricKind,
    problem: Problem,
    u: np.ndarray,
    op: LinearOperator,
    x0: np.ndarray | None = None,
    rtol: float | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Metric gradient values at u (values), the Green-solve term added to
    u, and that term's unscaled Green solve.

    H1: u + G_H1(V u + beta u^3); a0: u + beta G_a0(u^3); a_u, and a0 at
    beta = 0: u itself, with no Green-solve term (None, None).  ``op`` is the
    scheme's operator at u; the a0 solve starts from ``x0`` and stops at
    ``rtol``.
    """
    if kind is MetricKind.H1:
        rhs = problem.V.values * u
        if problem.beta != 0.0:
            rhs += problem.beta * u**3
        gv = solution = op.solve(rhs)
    elif kind is MetricKind.A0 and problem.beta != 0.0:
        solution = op.solve(u**3, x0, rtol)
        gv = problem.beta * solution
    else:
        return u, None, None
    return u + gv, gv, solution


def metric_gradient(kind: MetricKind, problem: Problem, u: GridFunction) -> GridFunction:
    """Gradient of the energy in the scheme's metric.

    H1: u + G_H1(V u + beta u^3); a0: u + beta G_a0(u^3); a_u: u itself.
    """
    _require_on_grid(problem, u)
    grad, _, _ = _gradient(kind, problem, u.values, LinearOperator(Metric(kind, u), problem))
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


class SchemeState(NamedTuple):
    """Everything one iteration needs: direction, multiplier, residual.

    Its four vectors are value arrays (dof,) on ``problem.grid``.
    ``gradient`` holds the values of the metric gradient at u, from the
    state's own solve (a state solved at greens.CG_RTOL without a start, as
    ``scheme_state`` returns it by default, has exactly
    ``metric_gradient``'s values), and ``riemannian_gradient`` is
    gradient - gamma * G u.
    ``green_u`` is G u and ``green_term`` the unscaled Green solve inside the
    gradient (G_H1(V u + beta u^3) for H1, G_a0(u^3) for a0, None when the
    gradient has none); the next step's solves start from them.
    ``cg_iterations`` counts the CG iterations it took, every solve counted.
    ``moments``, of u and riemannian_gradient, give residual and line search.
    """

    riemannian_gradient: np.ndarray
    gradient: np.ndarray
    gamma: float
    residual: float
    green_u: np.ndarray
    green_term: np.ndarray | None
    cg_iterations: int
    moments: StepMoments


def _solve_state(
    kind: MetricKind,
    problem: Problem,
    u: np.ndarray,
    uu: float,
    op: LinearOperator,
    start: SchemeState | None,
    rtol: float | None,
) -> SchemeState:
    """The state at u (values), whose (u, u)_L2 is ``uu``, with every solve
    at ``rtol``, started from ``start``'s."""
    start_u = start_term = None
    if start is not None:
        start_u, start_term = start.green_u, start.green_term
    w = problem.grid.cell_volume
    gu = op.solve(u, start_u, rtol)
    iterations = op.iterations
    denom = w * float(gu.dot(u))  # (G u, u)_L2, equal to ||G u||_X^2
    grad, gv, solution = _gradient(kind, problem, u, op, start_term, rtol)
    if solution is not None:  # op.iterations now counts the gradient's solve
        iterations += op.iterations
    numer = 1.0 if gv is None else 1.0 + w * float(gv.dot(u))
    gamma = numer / denom
    g = grad - gamma * gu
    moments = _step_moments(problem, u, g, uu)
    # ||g||_X^2 = a(g, g) + w sum D g^2, whose last term is a moment for a0 (D = V)
    d_term = (0.0 if kind is MetricKind.H1 else moments.potential[2] if kind is MetricKind.A0
              else w * op.diagonal_term.dot(g * g))
    residual = math.sqrt(moments.dirichlet[2] + d_term)
    return SchemeState(g, grad, gamma, residual, gu, solution, iterations, moments)


def scheme_state(
    kind: MetricKind,
    problem: Problem,
    u: GridFunction,
    op: LinearOperator | None = None,
    prev: SchemeState | None = None,
    rtol: float | None = None,
) -> SchemeState:
    """Riemannian gradient, multiplier and residual norm at u, in one pass.

    A prebuilt LinearOperator may be passed to reuse it across iterations
    (the H1 and a0 operators never change within a run).  ``prev``, the
    state of the previous iterate, warm-starts the CG solves: its G u starts
    the solve for G u (also across a_u's change of operator between steps)
    and its ``green_term`` the a0 solve for G u^3.  A start changes the
    solves only within their tolerance, never their stopping test.  The
    G u and a0 solves stop at relative residual ``rtol`` (None means
    greens.CG_RTOL); an inexact G u still gives a direction exactly tangent
    to the sphere (gamma = numer / denom), and the residual is the norm of
    that direction.  ``op`` must be of the scheme's metric.
    """
    _require_on_grid(problem, u)
    uu = _require_unit(u)
    if op is None:
        op = LinearOperator(Metric(kind, u), problem)
    elif op.metric.kind is not kind:
        raise ValueError(f"operator of metric {op.metric.kind.value} given for scheme {kind.value}")
    return _solve_state(kind, problem, u.values, uu, op, prev, rtol)


def retract(u: GridFunction) -> GridFunction:
    """Normalize back onto the unit L2 sphere."""
    n = norm_l2(u)
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("retraction undefined at zero")
    return GridFunction(u.grid, u.values / n)
