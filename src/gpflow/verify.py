"""Named, reportable checks for every numerical invariant of the solver.

Each check packages one lemma/theorem-derived property as a pass/fail result
with the smallest observed slack as its margin; a check with nothing to
observe (no trials, no accepted steps, a one-record trace) is a skip, never a
pass.  Inequality checks carry an additive 1e-9 tolerance on the slack to
absorb the error of the Green's solves (exact up to roundoff for H1, CG to
relative residual 1e-13 for a0 and a_u).

Every check is registered in ALL_CHECKS by ``@_check(name, *needs)``, which
turns a body ``body(ctx, name)`` into the module-level ``check_*(ctx)``.
``needs`` names the check's prerequisites, from ``report`` (a run report),
``ustar`` (a converged ground state), ``converged`` (the same, for a check
of the run rather than the state), ``spectral`` (a spectral report) and
``trials`` (at least one trial requested); the check skips with the first
missing one, in the order given, before its body runs.  A sampled check
registers only its draw, ``draw(ctx, rng)``, which yields margins, with
``@_sampled(name, *needs, detail=...)``: the decorator adds ``trials`` to
the needs, draws ``ctx.trials`` times from the check's one generator, seeded
from (seed, check name), and reports the smallest margin.  No check reads
another's generator, so identical inputs yield identical results, alone or
in the suite.
"""

from __future__ import annotations

import functools
import itertools
import math
import zlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import spectral as spectral_mod
from .energy import (
    energy,
    energy_decrease,
    metric_gradient,
    project_tangent,
    retract,
    scheme_state,
)
from .flows import ConvergenceReport, run, sign_normalize
from .greens import solve_green
from .grid import (
    A0,
    H1,
    GridFunction,
    Metric,
    MetricKind,
    inner,
    inner_l2,
    norm,
    neg_laplacian,
    norm_l2,
)
from .problem import Problem
from .spectral import SpectralReport, estimate_poincare, fit_rate

SLACK_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    name: str
    passed: bool
    margin: float
    trials: int
    detail: str
    skipped: bool = False


def _skip(name: str, detail: str) -> CheckResult:
    return CheckResult(name, passed=False, margin=math.nan, trials=0, detail=detail, skipped=True)


def _result(name: str, margin: float, trials: int, detail: str) -> CheckResult:
    """A pass iff margin >= 0; nothing observed (zero trials) is a skip, never a pass."""
    if trials == 0:
        return _skip(name, detail)
    return CheckResult(name, passed=margin >= 0.0, margin=margin, trials=trials, detail=detail)


def _rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def smoothed_noise(problem: Problem, rng: np.random.Generator) -> GridFunction:
    """Unit-L2 probe: one Jacobi sweep of the Laplacian applied to noise.

    The sweep damps the highest frequencies so H1 norms stay moderate.
    """
    grid = problem.grid
    x = rng.uniform(-1.0, 1.0, grid.dof)
    x = x - neg_laplacian(grid, x) / sum(2.0 / h**2 for h in grid.h)
    return retract(GridFunction(grid, x))


def _tangent_probe(problem: Problem, u: GridFunction, rng) -> GridFunction:
    """Unit-H1 probe L2-orthogonal to u."""
    z = smoothed_noise(problem, rng)
    t = z.values - inner_l2(z, u) * u.values / inner_l2(u, u)
    tf = GridFunction(problem.grid, t)
    return GridFunction(problem.grid, t / norm(H1, None, tf))


class CheckContext:
    """Shared inputs for the suite; report and spectral may be absent."""

    def __init__(self, problem, report, spectral, trials, seed, sweep=None):
        self.problem = problem
        self.report: ConvergenceReport | None = report
        self.spectral: SpectralReport | None = spectral
        self.trials = trials
        self.seed = seed
        self.sweep = sweep  # list of (alpha, rho) from a fixed-step sweep

    def ustar(self) -> GridFunction | None:
        if self.report is None or self.report.status != "converged":
            return None
        return self.report.final

    def au_base(self, rng) -> GridFunction:
        ustar = self.ustar()
        return ustar if ustar is not None else smoothed_noise(self.problem, rng)


# --- the check protocol ------------------------------------------------------

# prerequisite -> (whether ctx has it, the skip detail when it does not)
_NEEDS = {
    "report": (lambda ctx: ctx.report is not None, "no run report available"),
    "ustar": (lambda ctx: ctx.ustar() is not None, "no converged ground state available"),
    "converged": (lambda ctx: ctx.ustar() is not None, "no converged run available"),
    "spectral": (lambda ctx: ctx.spectral is not None, "no spectral report available"),
    "trials": (lambda ctx: ctx.trials != 0, "no trials requested"),
}

ALL_CHECKS: dict[str, Callable[[CheckContext], CheckResult]] = {}


def _check(name: str, *needs: str):
    """Register ``body(ctx, name)`` in ALL_CHECKS as the check ``name``.

    The registered ``check(ctx)`` skips with the first of ``needs`` (keys of
    _NEEDS) that ctx lacks, in the order given, before the body runs.
    """
    prerequisites = [_NEEDS[need] for need in needs]

    def register(body):
        @functools.wraps(body)
        def check(ctx: CheckContext) -> CheckResult:
            for present, detail in prerequisites:
                if not present(ctx):
                    return _skip(name, detail)
            return body(ctx, name)

        ALL_CHECKS[name] = check
        return check

    return register


def _fold(ctx: CheckContext, name: str, draw: Callable[..., Iterable[float]]) -> float:
    """The smallest margin over ctx.trials draws, from inf.

    ``draw(ctx, rng)`` runs one draw and yields the margins it observes;
    every draw reads the check's one generator, seeded from (ctx.seed,
    name), in turn.
    """
    rng = _rng_for(ctx.seed, name)
    margin = math.inf
    for _ in range(ctx.trials):
        for observed in draw(ctx, rng):
            margin = min(margin, observed)
    return margin


def _sampled(name: str, *needs: str, detail: str | Callable[[CheckContext, float], str]):
    """Register the draw ``draw(ctx, rng)`` in ALL_CHECKS as the sampled check ``name``.

    The check needs ``needs``, then ``trials``; its margin is ``_fold``'s
    over ctx.trials draws, and its detail is ``detail``, or
    ``detail(ctx, margin)`` when that is a function.
    """

    def register(draw):
        @_check(name, *needs, "trials")
        @functools.wraps(draw)
        def check(ctx: CheckContext, name: str) -> CheckResult:
            margin = _fold(ctx, name, draw)
            text = detail(ctx, margin) if callable(detail) else detail
            return _result(name, margin, ctx.trials, text)

        return check

    return register


def _toward_ground_state(ctx: CheckContext, direction: GridFunction) -> list[GridFunction]:
    """retract(u* + eps direction) for eps = 1e-2, 1e-3, 1e-4, 1e-5."""
    ustar = ctx.ustar()
    return [
        retract(GridFunction(ctx.problem.grid, ustar.values + eps * direction.values))
        for eps in (1e-2, 1e-3, 1e-4, 1e-5)
    ]


# --- grid invariants ---------------------------------------------------------


@_sampled("grid:inner_symmetry",
          detail=lambda ctx, margin: f"max symmetry defect {-margin:.3e} (must be exactly 0)")
def check_inner_symmetry(ctx: CheckContext, rng) -> Iterable[float]:
    u = smoothed_noise(ctx.problem, rng)
    v = smoothed_noise(ctx.problem, rng)
    base = ctx.au_base(rng)
    yield -abs(inner_l2(u, v) - inner_l2(v, u))
    for metric in (Metric(kind, base) for kind in MetricKind):
        yield -abs(inner(metric, ctx.problem, u, v) - inner(metric, ctx.problem, v, u))


@_sampled("grid:positive_definite",
          detail=lambda ctx, margin: f"min quadratic form value {margin:.3e}")
def check_positive_definite(ctx: CheckContext, rng) -> Iterable[float]:
    u = smoothed_noise(ctx.problem, rng)
    base = ctx.au_base(rng)
    yield inner_l2(u, u)
    for metric in (Metric(kind, base) for kind in MetricKind):
        yield inner(metric, ctx.problem, u, u)


@_sampled("grid:summation_by_parts", detail="edge form vs Laplacian pairing")
def check_summation_by_parts(ctx: CheckContext, rng) -> Iterable[float]:
    u = smoothed_noise(ctx.problem, rng)
    v = smoothed_noise(ctx.problem, rng)
    edge = inner(H1, ctx.problem, u, v)
    lap = inner_l2(GridFunction(u.grid, neg_laplacian(u.grid, u.values)), v)
    yield 1e-12 * (1.0 + abs(edge)) - abs(edge - lap)


def _a0_h1_constant(ctx: CheckContext) -> float:
    """The a0 norm's bound in H1 norms, sqrt(1 + C_P^2 max V)."""
    return math.sqrt(1.0 + estimate_poincare(ctx.problem.grid) ** 2 * float(np.max(ctx.problem.V.values)))


@_sampled("lemma:equiv_a0_H1",
          detail=lambda ctx, margin: f"equivalence constant {_a0_h1_constant(ctx):.6f}")
def check_equiv_a0_h1(ctx: CheckContext, rng) -> Iterable[float]:
    upper = _a0_h1_constant(ctx)
    u = smoothed_noise(ctx.problem, rng)
    nh1 = norm(H1, ctx.problem, u)
    na0 = norm(A0, ctx.problem, u)
    yield na0 - nh1 + SLACK_TOL
    yield upper * nh1 - na0 + SLACK_TOL


@_sampled("lemma:equiv_au_H1", "ustar", detail="a_u norm at the ground state dominates H1")
def check_equiv_au_h1(ctx: CheckContext, rng) -> Iterable[float]:
    metric = Metric(MetricKind.AU, base=ctx.ustar())
    u = smoothed_noise(ctx.problem, rng)
    yield norm(metric, ctx.problem, u) - norm(H1, ctx.problem, u) + SLACK_TOL


@_check("lemma:stab_au", "ustar", "trials")
def check_stab_au(ctx: CheckContext, name: str) -> CheckResult:
    rng = _rng_for(ctx.seed, name)
    probes = [smoothed_noise(ctx.problem, rng) for _ in range(max(3, ctx.trials // 2))]
    ref = Metric(MetricKind.AU, base=ctx.ustar())
    devs = []
    for u in _toward_ground_state(ctx, smoothed_noise(ctx.problem, rng)):
        metric = Metric(MetricKind.AU, base=u)
        dev = max(
            abs(norm(metric, ctx.problem, z) / norm(ref, ctx.problem, z) - 1.0) for z in probes
        )
        devs.append(dev)
    margin = min(devs[k] - devs[k + 1] + SLACK_TOL for k in range(len(devs) - 1))
    detail = "deviations along shrinking perturbations: " + ", ".join(f"{d:.3e}" for d in devs)
    return _result(name, margin, len(probes), detail)


# --- Green's operator invariants --------------------------------------------


@_sampled("greens:adjoint_identity", detail="(z, G w)_X vs (z, w)_L2")
def check_adjoint_identity(ctx: CheckContext, rng) -> Iterable[float]:
    z = smoothed_noise(ctx.problem, rng)
    w = smoothed_noise(ctx.problem, rng)
    rhs = inner_l2(z, w)
    base = ctx.au_base(rng)
    for metric in (Metric(kind, base) for kind in MetricKind):
        lhs = inner(metric, ctx.problem, z, solve_green(metric, ctx.problem, w))
        yield SLACK_TOL * (1.0 + abs(rhs)) - abs(lhs - rhs)


@_sampled("lemma:Gu",
          detail=lambda ctx, margin: f"Poincare constant {estimate_poincare(ctx.problem.grid):.6f}")
def check_gu_bound(ctx: CheckContext, rng) -> Iterable[float]:
    c3 = estimate_poincare(ctx.problem.grid)
    u = smoothed_noise(ctx.problem, rng)
    g = solve_green(H1, ctx.problem, u)
    yield c3 * norm_l2(u) - norm(H1, ctx.problem, g) + SLACK_TOL


@_sampled("greens:self_adjoint", detail="(z, G w)_L2 vs (w, G z)_L2")
def check_green_self_adjoint(ctx: CheckContext, rng) -> Iterable[float]:
    z = smoothed_noise(ctx.problem, rng)
    w = smoothed_noise(ctx.problem, rng)
    base = ctx.au_base(rng)
    for metric in (Metric(kind, base) for kind in MetricKind):
        a = inner_l2(z, solve_green(metric, ctx.problem, w))
        b = inner_l2(w, solve_green(metric, ctx.problem, z))
        yield SLACK_TOL * (1.0 + abs(a)) - abs(a - b)


@_check("lemma:Gau", "ustar", "trials")
def check_gau_lipschitz(ctx: CheckContext, name: str) -> CheckResult:
    ustar = ctx.ustar()
    rng = _rng_for(ctx.seed, name)
    ref = Metric(MetricKind.AU, base=ustar)
    gstar = solve_green(ref, ctx.problem, ustar)
    ratios = []
    for u in _toward_ground_state(ctx, smoothed_noise(ctx.problem, rng)):
        g = solve_green(Metric(MetricKind.AU, base=u), ctx.problem, u)
        diff_g = GridFunction(ctx.problem.grid, g.values - gstar.values)
        diff_u = GridFunction(ctx.problem.grid, u.values - ustar.values)
        ratios.append(norm(ref, ctx.problem, diff_g) / norm(ref, ctx.problem, diff_u))
    # bounded ratio: no blow-up as the perturbation shrinks
    bound = 4.0 * ratios[0] + 1.0
    margin = bound - max(ratios)
    detail = "Lipschitz ratios: " + ", ".join(f"{r:.4f}" for r in ratios)
    return _result(name, margin, len(ratios), detail)


# --- energy invariants -------------------------------------------------------


@_check("energy:gradient_consistency", "trials")
def check_gradient_consistency(ctx: CheckContext, name: str) -> CheckResult:
    t = 1e-5

    def draw(ctx, rng):  # yields minus each relative mismatch
        u = retract(smoothed_noise(ctx.problem, rng))
        h = _tangent_probe(ctx.problem, u, rng)
        up = GridFunction(ctx.problem.grid, u.values + t * h.values)
        dn = GridFunction(ctx.problem.grid, u.values - t * h.values)
        # the difference form avoids the rounding floor of the two O(1)
        # energies, which would drown the derivative at this t
        fd = energy_decrease(ctx.problem, up, dn) / (2.0 * t)
        for kind in MetricKind:
            grad = metric_gradient(kind, ctx.problem, u)
            ip = inner(Metric(kind, u), ctx.problem, grad, h)
            rel = abs(ip - fd) / max(abs(fd), abs(ip), 1e-30)
            yield -rel

    # not _sampled: 1e-6 - margin need not give the worst mismatch back exactly
    worst = -_fold(ctx, name, draw)
    # rounding is monotone, so 1e-6 - worst is the least 1e-6 - mismatch
    return _result(name, 1e-6 - worst, ctx.trials, f"max relative FD mismatch {worst:.3e}")


@_sampled("energy:pythagorean_split", detail="||grad||^2 = ||proj||^2 + gamma^2 ||G u||^2")
def check_pythagorean_split(ctx: CheckContext, rng) -> Iterable[float]:
    u = retract(smoothed_noise(ctx.problem, rng))
    for kind in MetricKind:
        metric = Metric(kind, u)
        state = scheme_state(kind, ctx.problem, u)
        grad, rgrad, gu = (GridFunction(ctx.problem.grid, x) for x in
                           (state.gradient, state.riemannian_gradient, state.green_u))
        full = inner(metric, ctx.problem, grad, grad)
        proj = inner(metric, ctx.problem, rgrad, rgrad)
        tail = state.gamma**2 * inner(metric, ctx.problem, gu, gu)
        yield 1e-8 - abs(full - (proj + tail)) / max(abs(full), 1e-30)


@_sampled("lemma:esti_gradEu", detail="projected gradient never exceeds the full gradient")
def check_projected_norm_inequality(ctx: CheckContext, rng) -> Iterable[float]:
    u = retract(smoothed_noise(ctx.problem, rng))
    for kind in MetricKind:
        metric = Metric(kind, u)
        state = scheme_state(kind, ctx.problem, u)
        grad, rgrad = (GridFunction(ctx.problem.grid, x) for x in
                       (state.gradient, state.riemannian_gradient))
        yield norm(metric, ctx.problem, grad) - norm(metric, ctx.problem, rgrad) + SLACK_TOL


@_sampled("energy:projection_tangency", detail="projected vector is L2-orthogonal to the base")
def check_projection_tangency(ctx: CheckContext, rng) -> Iterable[float]:
    u = retract(smoothed_noise(ctx.problem, rng))
    xi = smoothed_noise(ctx.problem, rng)
    for metric in (Metric(kind, u) for kind in MetricKind):
        r = project_tangent(metric, ctx.problem, u, xi)
        yield 1e-10 - abs(inner_l2(r, u))


@_sampled("lemma:esti_retraction", detail="retraction drift within the quadratic bound")
def check_retraction_bound(ctx: CheckContext, rng) -> Iterable[float]:
    u = retract(smoothed_noise(ctx.problem, rng))
    t = _tangent_probe(ctx.problem, u, rng)
    for scale in (1e-3, 1e-2, 1e-1, 0.5):
        xi = GridFunction(ctx.problem.grid, scale * t.values)
        upxi = GridFunction(ctx.problem.grid, u.values + xi.values)
        drift = GridFunction(ctx.problem.grid, retract(upxi).values - upxi.values)
        bound = 0.5 * norm_l2(xi) ** 2 * norm(H1, ctx.problem, upxi)
        yield bound - norm(H1, ctx.problem, drift) + SLACK_TOL


@_sampled("lemma:linear_error", detail="second-order remainder matches the exact expansion")
def check_linear_error_expansion(ctx: CheckContext, rng) -> Iterable[float]:
    problem = ctx.problem
    w = problem.grid.cell_volume
    beta = problem.beta
    u = retract(smoothed_noise(problem, rng))
    v0 = smoothed_noise(problem, rng)
    v = GridFunction(problem.grid, 0.5 * v0.values)
    grad = metric_gradient(MetricKind.H1, problem, u)
    upv = GridFunction(problem.grid, u.values + v.values)
    lhs = energy(problem, upv) - energy(problem, u) - inner(H1, problem, grad, v)
    rhs = (
        0.5 * inner(H1, problem, v, v)
        + 0.5 * w * float(np.sum(problem.V.values * v.values**2))
        + w
        * float(
            np.sum(
                1.5 * beta * u.values**2 * v.values**2
                + beta * u.values * v.values**3
                + 0.25 * beta * v.values**4
            )
        )
    )
    yield 1e-9 - abs(lhs - rhs) / max(abs(lhs), 1e-30)


# --- flow (run trace) invariants --------------------------------------------


@_check("thm:energy_decay", "report")
def check_energy_decay(ctx: CheckContext, name: str) -> CheckResult:
    energies = [r.energy for r in ctx.report.records]
    if len(energies) < 2:
        return _skip(name, "trace too short to decrease")
    margin = min(energies[k] - energies[k + 1] for k in range(len(energies) - 1))
    return _result(name, margin, len(energies), f"min per-step energy decrease {margin:.3e}")


def _accepted_steps(report: ConvergenceReport):
    return [r for r in report.records if r.alpha > 0.0 and r.sufficient_decrease]


@_check("flows:sufficient_decrease", "report")
def check_sufficient_decrease(ctx: CheckContext, name: str) -> CheckResult:
    accepted = _accepted_steps(ctx.report)
    if not accepted:
        return _skip(name, "no accepted steps in the trace")
    margin = min(r.decrease - 0.5 * r.alpha * r.residual**2 for r in accepted)
    return _result(name, margin, len(accepted), "logged decreases re-verified against the predicate")


@_check("thm:iterate_boundedness", "report")
def check_iterate_boundedness(ctx: CheckContext, name: str) -> CheckResult:
    e0 = ctx.report.records[0].energy
    bound = math.sqrt(max(2.0 * e0, 0.0))
    margin = min(bound - math.sqrt(max(2.0 * r.energy, 0.0)) for r in ctx.report.records)
    final_norm = norm(H1, ctx.problem, ctx.report.final)
    margin = min(margin, bound - final_norm + SLACK_TOL)
    detail = f"sqrt(2 E0) = {bound:.4f}, final H1 norm {final_norm:.4f}"
    return _result(name, margin, len(ctx.report.records), detail)


@_check("flows:manifold_residence", "report")
def check_manifold_residence(ctx: CheckContext, name: str) -> CheckResult:
    drift = ctx.report.max_norm_drift
    return _result(name, 1e-12 - drift, len(ctx.report.records), f"max |norm - 1| = {drift:.3e}")


@_check("thm:residual_summability", "report")
def check_residual_summability(ctx: CheckContext, name: str) -> CheckResult:
    accepted = _accepted_steps(ctx.report)
    if not accepted:
        return _skip(name, "no accepted steps in the trace")
    alpha_min = min(r.alpha for r in accepted)
    total = sum(r.residual**2 for r in accepted)
    bound = 2.0 * ctx.report.records[0].energy / alpha_min
    detail = f"sum residual^2 = {total:.4e} vs 2 E0 / alpha_min = {bound:.4e}"
    return _result(name, bound - total, len(accepted), detail)


@_check("thm:local_exponential", "ustar")
def check_local_exponential(ctx: CheckContext, name: str) -> CheckResult:
    ustar = ctx.ustar()
    rng = _rng_for(ctx.seed, name)
    problem = ctx.problem
    scale = norm(H1, problem, ustar)
    direction = _tangent_probe(problem, ustar, rng)
    u0 = retract(GridFunction(problem.grid, ustar.values + 0.05 * scale * direction.values))
    cfg = replace(ctx.report.config, tol=1e-14, max_iter=60)
    rep = run(problem, cfg, reference=ustar, u0=u0)
    deltas = [r.delta for r in rep.records if r.delta is not None and r.delta > 1e-7]
    threshold = 0.1 * scale
    if sum(d < threshold for d in deltas) < 5:  # fit_rate's minimum
        return _skip(name, "local trace too short above the accuracy floor")
    fit = fit_rate(deltas, threshold=threshold)
    detail = f"fitted contraction rho = {fit.rho:.4f} (r^2 = {fit.r_squared:.4f})"
    return _result(name, 1.0 - fit.rho, len(deltas), detail)


# --- spectral invariants -----------------------------------------------------


@_check("spectral:eigen_residual", "spectral", "ustar")
def check_eigen_residual(ctx: CheckContext, name: str) -> CheckResult:
    op = spectral_mod.linearized_operator(ctx.problem, ctx.ustar())
    v0 = ctx.spectral.v0
    resid = GridFunction(
        ctx.problem.grid, op.apply(v0.values) - ctx.spectral.lambda0 * v0.values
    )
    margin = 1e-8 * ctx.spectral.lambda0 - norm_l2(resid)
    return _result(name, margin, 1, f"eigen-residual {norm_l2(resid):.3e}")


@_check("spectral:ground_state_consistency", "spectral", "ustar")
def check_ground_state_consistency(ctx: CheckContext, name: str) -> CheckResult:
    v0 = sign_normalize(ctx.spectral.v0)
    us = sign_normalize(ctx.ustar())
    dist = norm_l2(GridFunction(ctx.problem.grid, v0.values - us.values))
    return _result(name, 1e-6 - dist, 1, f"L2 distance ground state vs linearized eigvec {dist:.3e}")


@_check("spectral:gamma_equals_lambda0", "spectral", "converged")
def check_gamma_equals_lambda0(ctx: CheckContext, name: str) -> CheckResult:
    gamma_final = ctx.report.final_record.gamma
    rel = abs(gamma_final - ctx.spectral.lambda0) / abs(ctx.spectral.lambda0)
    detail = f"gamma {gamma_final:.10f} vs lambda0 {ctx.spectral.lambda0:.10f}"
    return _result(name, 1e-6 - rel, 1, detail)


def _quarter_gap(ctx: CheckContext) -> float:
    return 0.25 * (ctx.spectral.lambda1 - ctx.spectral.lambda0)


@_sampled("lemma:Elocalconvex", "spectral", "ustar",
          detail=lambda ctx, margin: f"quarter-gap {_quarter_gap(ctx):.4e}")
def check_local_convexity(ctx: CheckContext, rng) -> Iterable[float]:
    ustar = ctx.ustar()
    eps = 10.0 ** rng.uniform(-3, -1)
    z = smoothed_noise(ctx.problem, rng)
    u = retract(GridFunction(ctx.problem.grid, ustar.values + eps * z.values))
    dist_sq = norm_l2(GridFunction(ctx.problem.grid, u.values - ustar.values)) ** 2
    if dist_sq <= 2.0:
        e_star = energy(ctx.problem, ustar)
        yield energy(ctx.problem, u) - e_star - _quarter_gap(ctx) * dist_sq + SLACK_TOL


@_check("spectral:rate_vs_gap", "spectral")
def check_rate_vs_gap(ctx: CheckContext, name: str) -> CheckResult:
    if not ctx.sweep or len(ctx.sweep) < 2:
        return _skip(name, "no stepsize sweep provided")
    sweep = sorted(ctx.sweep)
    gap = ctx.spectral.gap_factor
    k_fit = max((rho - (1.0 - alpha * gap)) / alpha**2 for alpha, rho in sweep)
    margin = min(sweep[0][1] - sweep[1][1], min(1.0 - rho for _, rho in sweep))
    detail = (
        "rho per alpha: "
        + ", ".join(f"{a:g}->{r:.4f}" for a, r in sweep)
        + f"; fitted quadratic coefficient {k_fit:.3f}"
    )
    return _result(name, margin, len(sweep), detail)


def check_suite(
    problem: Problem,
    report: ConvergenceReport | None = None,
    spectral: SpectralReport | None = None,
    trials: int = 20,
    seed: int = 0,
    sweep=None,
) -> list[CheckResult]:
    """Run every registered check; unavailable prerequisites yield skips."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    ctx = CheckContext(problem, report, spectral, trials, seed, sweep)
    return [check(ctx) for check in ALL_CHECKS.values()]


def failures(results: list[CheckResult]) -> list[CheckResult]:
    return [r for r in results if not r.passed and not r.skipped]


def cross_scheme_agreement(problem: Problem, reports: Iterable[ConvergenceReport]) -> CheckResult:
    """The runs of the three schemes from one config and start, one report per
    scheme in MetricKind order, must meet at the same state.  A run that did not
    converge makes the check a skip, and the reports after it are not drawn."""
    name = "verify:cross_scheme_agreement"
    runs = {}
    for rep in reports:
        if rep.status != "converged":
            return _skip(name, f"{rep.config.scheme.value} run ended with status {rep.status}")
        runs[rep.config.scheme] = rep
    margin = math.inf
    details = []
    for a, b in itertools.combinations(MetricKind, 2):
        ra, rb = runs[a], runs[b]
        dist = norm_l2(GridFunction(problem.grid, ra.final.values - rb.final.values))
        dg = abs(ra.final_record.gamma - rb.final_record.gamma)
        margin = min(margin, 1e-6 - dist, 1e-6 - dg)
        details.append(f"{a.value}/{b.value}: dist {dist:.2e}, dgamma {dg:.2e}")
    return _result(name, margin, 3, "; ".join(details))
