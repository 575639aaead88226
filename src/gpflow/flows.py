"""The three discrete projected gradient-descent schemes with line search.

One RunConfig fixes a run: its scheme, its stepsize rule and its stopping
rule.  Backtracking enforces the per-step sufficient-decrease inequality
E(u_n) - E(u_{n+1}) >= (alpha/2) * residual^2, which is exactly the condition
the energy-decay results are built on, so the theorems' hypothesis holds at
every accepted step without knowing the admissible-stepsize constant.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .energy import StepMoments, _solve_state, energy, retract, scheme_state
from . import greens
from .greens import LinearOperator
from .grid import H1, GridFunction, Metric, MetricKind, norm
from .problem import Problem
from .spectral import fit_rate

# the forcing term of a run's inexact solves (run)
CG_FORCING = 0.01
CG_RTOL_MAX = 1e-3


class FlowBreakdownError(RuntimeError):
    """A step overflowed or produced NaN, e.g. a retraction from a stepsize
    beyond the float range: the run cannot continue."""


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one gradient-flow run: the scheme, the stepsize rule
    (a fixed stepsize alpha0, or backtracking from alpha0 by ``shrink`` down
    to ``alpha_floor``) and the stopping rule."""

    scheme: MetricKind = MetricKind.H1
    mode: str = "backtracking"  # "fixed" or "backtracking"
    alpha0: float = 0.5
    shrink: float = 0.5
    alpha_floor: float = 1e-8
    tol: float = 1e-9
    max_iter: int = 50000
    seed: int = 0
    init: str = "default_bump"  # "default_bump" or "random"

    def __post_init__(self):
        if self.mode not in ("fixed", "backtracking"):
            raise ValueError("mode must be 'fixed' or 'backtracking'")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must be in (0, 1)")
        if not (self.alpha_floor > 0.0 and self.alpha0 >= self.alpha_floor):  # also rejects NaN
            raise ValueError("need alpha0 >= alpha_floor > 0")
        if not isinstance(self.scheme, MetricKind):
            raise ValueError(f"scheme must be a MetricKind, got {self.scheme!r}")
        if not self.tol > 0.0:  # also rejects NaN
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.init not in ("default_bump", "random"):
            raise ValueError("init must be 'default_bump' or 'random'")


@dataclass(frozen=True)
class IterationRecord:
    """One row of the iteration trace."""

    n: int
    energy: float
    residual: float
    gamma: float
    alpha: float
    decrease: float
    sufficient_decrease: bool = True
    delta: float | None = None  # H1 distance to a reference, when tracked
    trials: int = 0  # line-search trials in the step
    cg_iterations: int = 0  # CG iterations of the step's Green's solves


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Full outcome of a run."""

    records: list[IterationRecord]
    final: GridFunction
    status: str  # "converged", "max_iter", "stepsize_floor" or "stalled"
    config: RunConfig
    rate: object | None = None  # spectral.RateFit
    max_norm_drift: float = 0.0

    @property
    def final_record(self) -> IterationRecord:
        return self.records[-1]


def initial_guess(problem: Problem, init: str, seed: int = 0) -> GridFunction:
    """Unit-norm starting function.

    "default_bump" is the normalized product of half-period sines (strictly
    positive, and for beta=0, V=0 the exact continuum ground-state shape);
    "random" draws uniform(-1, 1) values from a seeded generator.
    """
    grid = problem.grid
    if init == "default_bump":
        values = np.ones(grid.n)
        for axis, (a, b) in enumerate(grid.bounds):
            x = grid.axis_coords(axis)
            values = values * grid.along(axis, np.sin(math.pi * (x - a) / (b - a)))
        u = GridFunction(grid, values.ravel())
    elif init == "random":
        rng = np.random.default_rng(seed)
        u = GridFunction(grid, rng.uniform(-1.0, 1.0, grid.dof))
    else:
        raise ValueError(f"unknown init mode {init!r}")
    return retract(u)


def sign_normalize(u: GridFunction) -> GridFunction:
    """Fix the sign ambiguity of an eigenfunction: make the mean non-negative."""
    total = u.grid.cell_volume * float(np.sum(u.values))
    if total < 0.0:
        return GridFunction(u.grid, -u.values)
    return u


def run(
    problem: Problem,
    cfg: RunConfig,
    reference: GridFunction | None = None,
    u0: GridFunction | None = None,
) -> ConvergenceReport:
    """Iterate the scheme until the residual tolerance, max_iter or the floor.

    Every iteration is recorded; the logged energy trace follows the exact
    difference-form decreases, so monotonicity of the trace reflects the
    accepted line-search decreases rather than rounding of O(1) energies.
    When ``reference`` is given, each record carries the H1 distance to it.
    When ``u0`` is given, the run starts from retract(u0) and ``cfg.init`` is
    ignored.

    h1 and a0 build one operator per run, and a_u one per record, at u.
    The first step's solves, and every solve of an ``exact`` operator
    (``LinearOperator.exact``), stop at greens.CG_RTOL; every later one at
    the forcing term clamp(CG_FORCING * previous residual, CG_RTOL,
    CG_RTOL_MAX).  One rule keeps the state that ends a run certified: when
    ``_decide`` ends the run from a loosely solved state, the state at u is
    solved again at CG_RTOL, started from the loose solutions, and the step
    is decided again on it; a fixed step that stalled stands, on the
    re-solved state.  Where CG cannot bring that state to CG_RTOL, the
    re-solve raises greens.GreenSolveError, so no run ends on a number it
    cannot certify.  Each record carries its step's line-search trials and
    CG iterations, a re-solve's included.

    A step whose retracted iterate equals u or one of the 7 iterates before
    it bit for bit (at a residual so large that alpha * g is lost in u's
    rounding, say, or along a cycle of fixed steps) is not accepted: its
    record logs a decrease of 0 and no sufficient decrease, and the run
    ends there with status "stalled", instead of claiming the model's
    decrease at every step to ``max_iter``.

    A floating-point overflow or invalid operation in any step raises
    FlowBreakdownError naming the step, instead of the input check that
    the broken iterate would fail next.
    """
    u = retract(u0) if u0 is not None else initial_guess(problem, cfg.init, cfg.seed)

    records: list[IterationRecord] = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            u, status, max_drift = _iterate(problem, cfg, u, reference, records)
    except FloatingPointError as exc:
        raise FlowBreakdownError(
            f"{cfg.scheme.value} run broke down at step {len(records)}: {exc}"
        ) from exc

    u = sign_normalize(u)
    return ConvergenceReport(
        records=records,
        final=u,
        status=status,
        config=cfg,
        rate=_fit_tail_rate(records) if status == "converged" else None,
        max_norm_drift=max_drift,
    )


def _iterate(problem, cfg, u, reference, records):
    """run's loop from u: appends one record per iteration to ``records`` and
    returns (final iterate, status, largest drift of ||u|| from 1)."""
    op = None
    backtracking = cfg.mode == "backtracking"

    max_drift = 0.0
    current_energy = energy(problem, u)
    state = None  # the previous step's state warm-starts this step's solves
    recent = deque([u], maxlen=8)  # u and the 7 iterates before it, held by reference

    for n in range(cfg.max_iter + 1):
        if op is None or cfg.scheme is MetricKind.AU:
            op = LinearOperator(Metric(cfg.scheme, u), problem)
        rtol = greens.CG_RTOL
        if state is not None and not op.exact:
            rtol = min(max(CG_FORCING * state.residual, greens.CG_RTOL), CG_RTOL_MAX)
        state = scheme_state(cfg.scheme, problem, u, op=op, prev=state, rtol=rtol)
        uu = state.moments.l2[0]  # (u, u)_L2
        max_drift = max(max_drift, abs(math.sqrt(uu) - 1.0))  # |norm_l2(u) - 1|
        cg_iterations = state.cg_iterations
        delta = _h1_distance(u, reference) if reference is not None else None

        step, status, trials = _decide(problem, cfg, n, u, state, recent)
        if status is not None and rtol > greens.CG_RTOL:
            # the run would end on a loose state: solve it again at CG_RTOL,
            # and decide the step again on it, unless a fixed step stalled
            state = _solve_state(cfg.scheme, problem, u.values, uu, op, state, greens.CG_RTOL)
            cg_iterations += state.cg_iterations
            if backtracking or step[1] is u:  # step[1] is u: no step is taken
                step, status, tried = _decide(problem, cfg, n, u, state, recent)
                trials += tried
        alpha, u_next, decrease, accepted = step
        records.append(
            IterationRecord(
                n, current_energy, state.residual, state.gamma, alpha, decrease, accepted,
                delta, trials, cg_iterations,
            )
        )
        if status is not None:
            break
        current_energy -= decrease
        u = u_next
        recent.append(u)
    return u, status, max_drift


def _decide(problem, cfg, n, u, state, recent):
    """Step n from u along ``state``, and the one decision of whether it
    ends the run: (step, status, trials), step being (alpha, u_next,
    decrease, accepted).  ``status`` is None while the run goes on, and
    otherwise "converged" or "max_iter" when no step is taken (the residual
    meets ``cfg.tol``, or n == max_iter; a NaN residual is "max_iter"; the
    step is then (0.0, u, 0.0, True)), "stalled" when the retracted iterate
    equals u or one of ``recent`` bit for bit (the step is then unaccepted
    and decreases nothing), or "stepsize_floor" when a backtracking search
    ends unaccepted.

    Trials read ``_step_decreases``' model on the state's moments, and only
    the step returned is retracted, once, into a GridFunction.  alpha is the
    last stepsize tried, so decrease and u_next belong to it, and ``trials``
    counts the stepsizes tried; a search stopped by the floor returns its
    last trial unaccepted.
    """
    if not state.residual > cfg.tol or n == cfg.max_iter:  # a NaN residual takes none
        return (0.0, u, 0.0, True), "converged" if state.residual <= cfg.tol else "max_iter", 0
    g = state.riemannian_gradient
    decrease_at = _step_decreases(state.moments)
    res_sq = state.residual**2
    alpha = cfg.alpha0
    trials = 1
    while True:
        decrease = decrease_at(alpha)
        accepted = decrease >= 0.5 * alpha * res_sq
        if accepted or cfg.mode == "fixed" or alpha * cfg.shrink < cfg.alpha_floor:
            break
        alpha *= cfg.shrink
        trials += 1
    u_next = GridFunction(problem.grid, _retracted(u.values, g, state.moments, alpha))
    # a step back to a recent iterate (or to u) decreases nothing; one entry
    # is compared first, so a miss costs one scalar test
    x, k = u_next.values, u.values.size // 2
    xk = x[k]
    if any(v.values[k] == xk and np.array_equal(x, v.values) for v in recent):
        return (alpha, u_next, 0.0, False), "stalled", trials
    status = None if accepted or cfg.mode == "fixed" else "stepsize_floor"
    return (alpha, u_next, decrease, accepted), status, trials


def _step_decreases(moments: StepMoments):
    """The function alpha -> decrease, read off the StepMoments of a step's
    iterate u and direction g.  With tau = ||u||^2,
    y = u - alpha g and s = ||y||^2 = 1 + t_y, E(u / sqrt(tau)) - E(y / sqrt(s)) is

      alpha (k1 - alpha k2) / (tau s) + alpha (m0 + alpha (m1 + alpha (m2 + alpha m3))) / (tau s)^2.

    u is normalized too, since its eps-level offset from the sphere would
    drown small decreases.  Every term carries a factor alpha and is divided
    by (tau s)^k before any is subtracted, so neither a small decrease nor a
    large alpha cancels.  The float64 coefficients make an overflowing trial
    raise under errstate.  A trial forms no step (``_retracted`` does).
    """
    (uu, p, r), (a_uu, a_gu, a_gg), (v_uu, v_gu, v_gg), (q0, q1, q2, q3, q4) = moments
    t_u = uu - 1.0
    tau, kp_u, q_u = 1.0 + t_u, 0.5 * a_uu + 0.5 * v_uu, 0.25 * q0
    k1, k2 = (a_gu + v_gu) * tau - 2.0 * p * kp_u, 0.5 * (a_gg + v_gg) * tau - r * kp_u
    m0 = tau * tau * q1 - 4.0 * tau * p * q_u
    m1 = 2.0 * tau * r * q_u + 4.0 * p * p * q_u - 1.5 * tau * tau * q2
    m2 = tau * tau * q3 - 4.0 * p * r * q_u
    m3 = r * r * q_u - 0.25 * tau * tau * q4

    def decrease_at(alpha: float) -> float:
        t_y = t_u - 2.0 * alpha * p + alpha * alpha * r
        ts = tau * (1.0 + t_y)
        quartic = alpha * (m0 + alpha * (m1 + alpha * (m2 + alpha * m3))) / (ts * ts)
        return float(alpha * (k1 - alpha * k2) / ts + quartic)

    return decrease_at


def _retracted(u: np.ndarray, g: np.ndarray, moments: StepMoments, alpha: float) -> np.ndarray:
    """(u - alpha g) / ||u - alpha g|| (value arrays), with the squared norm
    1 + t_y read off the moments as in ``_step_decreases``."""
    uu, p, r = moments.l2
    t_y = (uu - 1.0) - 2.0 * alpha * p + alpha * alpha * r
    return (u - alpha * g) / math.sqrt(1.0 + t_y)


def _h1_distance(u: GridFunction, ref: GridFunction) -> float:
    return norm(H1, None, GridFunction(u.grid, u.values - ref.values))


def _fit_tail_rate(records):
    """Geometric fit of the residual tail (latter half of the trace); ``run``
    fits converged runs only, since a residual that never falls has no rate."""
    residuals = [r.residual for r in records if r.residual > 0.0]
    if len(residuals) < 10:
        return None
    tail = residuals[len(residuals) // 2 :]
    try:
        return fit_rate(tail, threshold=math.inf)
    except ValueError:
        return None
