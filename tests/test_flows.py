import math

import numpy as np
import pytest
from hypothesis import given

from gpflow.flows import (
    FlowBreakdownError,
    RunConfig,
    initial_guess,
    run,
    sign_normalize,
)
from gpflow import flows, greens
from gpflow.energy import _step_moments, energy, energy_decrease, retract, scheme_state
from gpflow.grid import GridFunction, Metric, MetricKind, build_grid, inner_l2, norm_l2
from gpflow.problem import Problem, harmonic_potential, well_potential, zero_potential
from strategies import PROPERTY_SETTINGS, small_problems

SCHEMES = tuple(MetricKind)


def linear_problem(n=31):
    grid = build_grid(1, [n], [(0.0, 1.0)])
    return Problem(grid, zero_potential(grid), 0.0)


def nonlinear_problem(n=63, beta=10.0, omega=10.0):
    grid = build_grid(1, [n], [(0.0, 1.0)])
    return Problem(grid, harmonic_potential(grid, omega), beta)


def laplacian_lambda0(grid):
    h = grid.h[0]
    a, b = grid.bounds[0]
    return (2.0 / h**2) * (1.0 - math.cos(math.pi * h / (b - a)))


def test_initial_guess_bump_is_positive_unit():
    prob = nonlinear_problem()
    u = initial_guess(prob, "default_bump")
    assert norm_l2(u) == pytest.approx(1.0)
    assert np.all(u.values > 0.0)


def test_initial_guess_random_is_seeded():
    prob = nonlinear_problem()
    a = initial_guess(prob, "random", seed=11)
    b = initial_guess(prob, "random", seed=11)
    c = initial_guess(prob, "random", seed=12)
    np.testing.assert_array_equal(a.values, b.values)
    assert np.any(a.values != c.values)


def test_linear_oracle_each_scheme():
    prob = linear_problem(n=31)
    lam0 = laplacian_lambda0(prob.grid)
    for scheme in SCHEMES:
        report = run(prob, RunConfig(scheme=scheme, init="random", seed=3))
        assert report.status == "converged"
        assert report.final_record.residual <= 1e-9
        assert report.final_record.gamma == pytest.approx(lam0, rel=1e-8)


def test_energy_trace_monotone_and_sufficient_decrease():
    prob = nonlinear_problem(beta=50.0)
    report = run(prob, RunConfig(scheme=MetricKind.H1))
    energies = [r.energy for r in report.records]
    assert all(a >= b for a, b in zip(energies, energies[1:]))
    for r in report.records:
        if r.alpha > 0.0:
            assert r.decrease >= 0.5 * r.alpha * r.residual**2


def test_fixed_stepsize_converges_for_small_alpha():
    prob = nonlinear_problem(beta=10.0)
    report = run(prob, RunConfig(scheme=MetricKind.H1, mode="fixed", alpha0=0.1))
    assert report.status == "converged"


def test_max_iter_status():
    prob = nonlinear_problem(beta=10.0)
    report = run(prob, RunConfig(scheme=MetricKind.H1, max_iter=3))
    assert report.status == "max_iter"
    assert len(report.records) == 4
    assert report.final_record.alpha == 0.0


def test_manifold_residence():
    prob = nonlinear_problem(beta=100.0)
    report = run(prob, RunConfig(scheme=MetricKind.A0))
    assert report.max_norm_drift <= 1e-12
    assert norm_l2(report.final) == pytest.approx(1.0, abs=1e-12)


def test_reference_tracking_deltas_decrease():
    prob = nonlinear_problem(beta=10.0)
    ref = run(prob, RunConfig(scheme=MetricKind.H1, tol=1e-11)).final
    report = run(prob, RunConfig(scheme=MetricKind.H1), reference=ref)
    deltas = [r.delta for r in report.records if r.delta is not None]
    assert deltas[0] > deltas[-1]
    assert deltas[-1] < 1e-7


def test_sign_normalize():
    grid = build_grid(1, [3], [(0.0, 1.0)])
    u = GridFunction(grid, [-1.0, -2.0, -1.0])
    flipped = sign_normalize(u)
    assert np.all(flipped.values > 0.0)
    same = sign_normalize(flipped)
    np.testing.assert_array_equal(same.values, flipped.values)


def test_step_moves_downhill():
    prob = nonlinear_problem(beta=20.0)
    u = initial_guess(prob, "random", seed=1)
    cfg = RunConfig(mode="fixed", alpha0=0.2)
    step, _, _ = flows._decide(prob, cfg, 0, u, scheme_state(MetricKind.H1, prob, u), ())
    v = step[1]
    assert norm_l2(v) == pytest.approx(1.0)
    assert energy(prob, v) < energy(prob, u)


def test_run_config_validation():
    with pytest.raises(ValueError, match="need alpha0 >= alpha_floor > 0"):
        RunConfig(alpha0=math.nan)
    with pytest.raises(ValueError, match="need alpha0 >= alpha_floor > 0"):
        RunConfig(alpha_floor=math.nan)
    with pytest.raises(ValueError):
        RunConfig(tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(max_iter=0)
    with pytest.raises(ValueError):
        RunConfig(init="file")
    with pytest.raises(ValueError):
        RunConfig(init="bogus")


def test_scheme_must_be_a_metric_kind():
    # the flow's branches test the kind by identity, so a string would take
    # the a_u gradient with an operator built once, a mixed scheme
    u = initial_guess(linear_problem(), "default_bump")
    with pytest.raises(ValueError, match="scheme must be a MetricKind"):
        RunConfig(scheme="h1")
    with pytest.raises(ValueError, match="metric kind must be a MetricKind"):
        Metric("h1", u)


def test_step_policy_validation():
    with pytest.raises(ValueError, match="mode must be 'fixed' or 'backtracking'"):
        RunConfig(mode="newton")
    with pytest.raises(ValueError, match=r"shrink must be in \(0, 1\)"):
        RunConfig(shrink=1.0)
    with pytest.raises(ValueError, match="need alpha0 >= alpha_floor > 0"):
        RunConfig(alpha0=1e-9, alpha_floor=1e-8)


def test_rate_fit_attached_to_long_runs():
    prob = nonlinear_problem(beta=100.0)
    report = run(prob, RunConfig(scheme=MetricKind.H1))
    assert report.rate is not None
    assert 0.0 < report.rate.rho < 1.0


def test_runs_that_do_not_converge_get_no_rate():
    # a residual that stalls or is cut off by max_iter has no rate to fit,
    # however many records it leaves: 51 for the stalled run here
    grid = build_grid(2, [7, 7], [(0.0, 1.0)] * 2)
    stalled = run(Problem(grid, zero_potential(grid), 1e200),
                  RunConfig(scheme=MetricKind.AU, mode="fixed"))
    capped = run(nonlinear_problem(beta=100.0), RunConfig(max_iter=20))
    assert (stalled.status, capped.status) == ("stalled", "max_iter")
    assert len(stalled.records) == 51 and len(capped.records) == 21
    assert stalled.rate is None and capped.rate is None


def test_deterministic_reports():
    prob = nonlinear_problem(beta=30.0)
    cfg = RunConfig(scheme=MetricKind.A0, init="random", seed=9)
    a = run(prob, cfg)
    b = run(prob, cfg)
    assert [r.energy for r in a.records] == [r.energy for r in b.records]
    np.testing.assert_array_equal(a.final.values, b.final.values)


def test_decide_takes_no_step_at_a_one_node_ground_state():
    # on one node every unit function is the ground state: the residual is
    # at roundoff, below tol, and no step is taken
    grid = build_grid(1, [1], [(0.0, 1.0)])
    prob = Problem(grid, GridFunction(grid, np.array([3.0])), 10.0)
    u = retract(GridFunction(grid, np.array([-2.0])))
    for kind in SCHEMES:
        state = scheme_state(kind, prob, u)
        assert not state.residual > RunConfig().tol
        assert flows._decide(prob, RunConfig(), 0, u, state, ()) == ((0.0, u, 0.0, True),
                                                                      "converged", 0)


@PROPERTY_SETTINGS
@given(small_problems().filter(lambda case: case[0].grid.dof > 1))
def test_decide_step_is_the_moments_model_bit_for_bit(case):
    # the search reads the state's moments once per step; every trial must
    # still give exactly the model's decrease and step on moments taken
    # afresh from u and g, and the independent difference form's decrease.
    # Two or more nodes: a random u is then no ground state, and has a step
    prob, rng = case
    u = retract(GridFunction(prob.grid, rng.standard_normal(prob.grid.dof)))
    for kind in SCHEMES:
        state = scheme_state(kind, prob, u)
        assert state.residual > RunConfig().tol
        g = state.riemannian_gradient
        moments = _step_moments(prob, u.values, g, inner_l2(u, u))
        for cfg in (RunConfig(alpha0=4.0), RunConfig(mode="fixed", alpha0=0.3)):
            step, status, _ = flows._decide(prob, cfg, 0, u, state, ())
            alpha, u_next, decrease, _ = step
            assert status is None
            assert decrease == flows._step_decreases(moments)(alpha)
            expected_next = flows._retracted(u.values, g, moments, alpha)
            np.testing.assert_array_equal(u_next.values, expected_next)
            scale = energy(prob, u) + energy(prob, u_next)
            assert abs(decrease - energy_decrease(prob, u, u_next)) <= 1e-12 * scale


@pytest.mark.parametrize("scheme", [MetricKind.A0, MetricKind.AU])
def test_run_warm_starts_every_solve_after_the_first_step(scheme, monkeypatch):
    starts = []
    original = greens.LinearOperator.solve

    def recording_solve(self, rhs, x0=None, rtol=None):
        starts.append(x0 is not None)
        return original(self, rhs, x0, rtol)

    monkeypatch.setattr(greens.LinearOperator, "solve", recording_solve)
    # operators that run CG: exact states need no certification
    report = run(cg_problem(scheme), RunConfig(scheme=scheme))
    assert report.status == "converged"
    per_step = 2 if scheme is MetricKind.A0 else 1  # a0 also solves for G u^3
    # the first step's solves are cold, every later one warm, and the
    # converged state is certified by at least one more set of (warm)
    # solves; a certification whose tight state misses tol lets the run go
    # on, so how many there are is left to roundoff
    assert starts == [False] * per_step + [True] * (len(starts) - per_step)
    assert len(starts) % per_step == 0
    assert len(starts) >= per_step * (len(report.records) + 1)


def harmonic_2d(n=31, beta=100.0):
    grid = build_grid(2, [n, n], [(0.0, 1.0)] * 2)
    return Problem(grid, harmonic_potential(grid, 20.0), beta)


def cg_problem(scheme, n=31, beta=100.0):
    """A 2D problem on which the scheme's solves run CG: a0 on a harmonic
    potential, which is additive, solves exactly, so a0 takes a well."""
    if scheme is MetricKind.A0:
        grid = build_grid(2, [n, n], [(0.0, 1.0)] * 2)
        return Problem(grid, well_potential(grid, 1000.0, 0.25, 0.75), beta)
    return harmonic_2d(n, beta)


def track_states(monkeypatch):
    """Record (rtol, state, resolve) for every state run solves: each public
    scheme_state call (resolve False), and each tight re-solve that run
    makes through energy._solve_state (resolve True)."""
    calls = []
    public, private = flows.scheme_state, flows._solve_state

    def tracking(*args, **kwargs):
        state = public(*args, **kwargs)
        calls.append((kwargs["rtol"], state, False))
        return state

    def resolving(*args):
        state = private(*args)
        calls.append((args[-1], state, True))
        return state

    monkeypatch.setattr(flows, "scheme_state", tracking)
    monkeypatch.setattr(flows, "_solve_state", resolving)
    return calls


@pytest.mark.parametrize("max_iter", [50000, 10])
@pytest.mark.parametrize("scheme", [MetricKind.A0, MetricKind.AU])
def test_reported_state_is_certified(scheme, max_iter, monkeypatch):
    calls = track_states(monkeypatch)
    prob = cg_problem(scheme)
    cfg = RunConfig(scheme=scheme, max_iter=max_iter)
    report = run(prob, cfg)
    assert report.status == ("converged" if max_iter > 10 else "max_iter")
    # the run solved loosely along the way, but the state it reports is tight
    assert any(rtol > greens.CG_RTOL for rtol, _, _ in calls)
    assert calls[-1][0] == greens.CG_RTOL
    fresh = scheme_state(scheme, prob, report.final)
    last = report.final_record
    assert last.gamma == pytest.approx(fresh.gamma, rel=1e-12)
    # the residual is a difference of terms of size gamma ||G u||_X, so two
    # tight states agree on it to the solves' tolerance on that scale
    scale = fresh.gamma * math.sqrt(inner_l2(GridFunction(prob.grid, fresh.green_u), report.final))
    assert abs(last.residual - fresh.residual) <= 1e-12 * scale
    if report.status == "converged":
        assert max(last.residual, fresh.residual) <= cfg.tol


@pytest.mark.parametrize("scheme", [MetricKind.A0, MetricKind.AU])
def test_floor_reached_along_a_loose_direction_is_retried(scheme, monkeypatch):
    # a forcing term of 1 solves so loosely that some line searches reach the
    # floor; each is retried along the tight direction at the same iterate
    monkeypatch.setattr(flows, "CG_FORCING", 1.0)
    calls = track_states(monkeypatch)
    cfg = RunConfig(scheme=scheme)
    report = run(cg_problem(scheme), cfg)
    resolves = [state for _, state, resolve in calls if resolve]
    # a re-solve after a loose state that missed tol (before max_iter) is a
    # floor retry; the others certify the converged state
    retries = [
        (rtol, state)
        for (_, loose, _), (rtol, state, resolve) in zip(calls, calls[1:])
        if resolve and loose.residual > cfg.tol
    ]
    assert retries
    assert all(rtol == greens.CG_RTOL for rtol, _ in retries)
    assert len(calls) == len(report.records) + len(resolves)
    assert report.status == "converged"
    assert all(r.sufficient_decrease for r in report.records)


@pytest.mark.parametrize(
    "scheme, policy, forcing",
    [
        (MetricKind.A0, {}, flows.CG_FORCING),
        (MetricKind.A0, {}, 1.0),  # with floor retries
        (MetricKind.AU, {"mode": "fixed", "alpha0": 0.1}, flows.CG_FORCING),
        (MetricKind.A0, {"alpha0": 4.0, "alpha_floor": 1.0}, flows.CG_FORCING),  # stepsize_floor
    ],
)
def test_records_count_trials_and_cg_iterations(scheme, policy, forcing, monkeypatch):
    monkeypatch.setattr(flows, "CG_FORCING", forcing)
    iterations, trials = [], []
    solve, step_decreases = greens.LinearOperator.solve, flows._step_decreases

    def counting_solve(self, rhs, x0=None, rtol=None):
        x = solve(self, rhs, x0, rtol)
        iterations.append(self.iterations)
        return x

    def counting_decreases(*args):
        decrease_at = step_decreases(*args)

        def trial(alpha):
            trials.append(alpha)
            return decrease_at(alpha)

        return trial

    monkeypatch.setattr(greens.LinearOperator, "solve", counting_solve)
    monkeypatch.setattr(flows, "_step_decreases", counting_decreases)
    report = run(cg_problem(scheme), RunConfig(scheme=scheme, **policy, max_iter=200))
    assert sum(r.cg_iterations for r in report.records) == sum(iterations) > 0
    assert sum(r.trials for r in report.records) == len(trials) > 0


def test_floor_record_carries_its_last_trial(monkeypatch):
    # a search stopped by the floor reports the last stepsize it tried, next
    # to that trial's decrease
    decisions, trials = [], []
    decide, step_decreases = flows._decide, flows._step_decreases

    def recording_decide(problem, cfg, n, u, state, recent):
        decisions.append((problem, u, state))
        return decide(problem, cfg, n, u, state, recent)

    def recording_decreases(moments):
        decrease_at = step_decreases(moments)

        def trial(alpha):
            trials.append(alpha)
            return decrease_at(alpha)

        return trial

    monkeypatch.setattr(flows, "_decide", recording_decide)
    monkeypatch.setattr(flows, "_step_decreases", recording_decreases)
    report = run(harmonic_2d(), RunConfig(scheme=MetricKind.A0, alpha0=4.0, alpha_floor=1.0))
    assert report.status == "stepsize_floor"
    last = report.final_record
    assert last.alpha == trials[-1]
    assert last.trials == len(trials)
    prob, u, state = decisions[-1]
    moments = _step_moments(prob, u.values, state.riemannian_gradient, inner_l2(u, u))
    assert last.decrease == step_decreases(moments)(last.alpha)


@pytest.mark.parametrize("mode", ["backtracking", "fixed"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_huge_beta_run_ends_without_claiming_null_decreases(scheme, dim, mode, monkeypatch):
    # at beta = 1e300 h1 and a0 overflow at the first step; a_u reaches
    # steps whose retracted iterate is u itself, which end the run
    moved, logged = [], []  # per step decided: whether it moves u; per record: its last one
    decide, record = flows._decide, flows.IterationRecord

    def recording_decide(problem, cfg, n, u, state, recent):
        result = decide(problem, cfg, n, u, state, recent)
        step = result[0]
        if step[1] is not u:  # a step is taken
            moved.append(not np.array_equal(step[1].values, u.values))
        return result

    def recording_record(*args):
        logged.append((record(*args), moved[-1]))
        return logged[-1][0]

    monkeypatch.setattr(flows, "_decide", recording_decide)
    monkeypatch.setattr(flows, "IterationRecord", recording_record)
    grid = build_grid(dim, [7] * dim, [(0.0, 1.0)] * dim)
    prob = Problem(grid, zero_potential(grid), 1e300)
    cfg = RunConfig(scheme=scheme, mode=mode)
    if scheme is not MetricKind.AU:
        with pytest.raises(FlowBreakdownError, match="step 0"):
            run(prob, cfg)
        return
    if dim == 2 and mode == "fixed":
        # CG cannot solve the state this stall ends on to CG_RTOL: a run
        # never ends on a state it cannot certify, so it raises
        with pytest.raises(greens.GreenSolveError, match="relative residual 1e-13"):
            run(prob, cfg)
        return
    report = run(prob, cfg)
    assert report.status == "stalled"
    assert len(report.records) <= 50
    # no record claims a decrease for a step that did not move, and the
    # first such step ends the run
    assert [r.n for r, step_moved in logged if not step_moved] == [report.final_record.n]
    last = report.final_record
    assert last.decrease == 0.0 and not last.sufficient_decrease and last.alpha > 0.0


def test_fixed_steps_that_cycle_end_the_run(monkeypatch):
    # at beta = 1e200 fixed a_u steps fall into a cycle of iterates: a step
    # back to one of the last 8 is a null step, which ends the run
    steps = []  # per step decided: (u, its retracted step)
    decide = flows._decide

    def recording_decide(problem, cfg, n, u, state, recent):
        result = decide(problem, cfg, n, u, state, recent)
        steps.append((u, result[0][1]))
        return result

    monkeypatch.setattr(flows, "_decide", recording_decide)
    calls = track_states(monkeypatch)
    grid = build_grid(2, [7, 7], [(0.0, 1.0)] * 2)
    prob = Problem(grid, zero_potential(grid), 1e200)
    report = run(prob, RunConfig(scheme=MetricKind.AU, mode="fixed"))
    assert report.status == "stalled"
    assert len(report.records) <= 100
    # one public scheme_state call per record; the stall is decided once,
    # and only its loose state is re-solved, at CG_RTOL
    assert len(report.records) == len(steps) == len(calls) - 1 == 51
    assert [resolve for _, _, resolve in calls] == [False] * 51 + [True]
    assert calls[-2][0] > greens.CG_RTOL and calls[-1][0] == greens.CG_RTOL
    last = report.final_record
    assert last.decrease == 0.0 and not last.sufficient_decrease and last.alpha > 0.0
    u, u_next = steps[-1]
    assert not np.array_equal(u_next.values, u.values)  # a cycle, not a step that stays
    assert any(np.array_equal(u_next.values, earlier.values) for earlier, _ in steps[-8:-1])


def test_fixed_stall_ends_on_a_certified_state():
    # the stalled step stands, and its record reads the state at the final
    # iterate as a tight solve gives it, not the loose state it stalled at
    grid = build_grid(2, [7, 7], [(0.0, 1.0)] * 2)
    prob = Problem(grid, zero_potential(grid), 1e200)
    report = run(prob, RunConfig(scheme=MetricKind.AU, mode="fixed"))
    assert report.status == "stalled"
    fresh = scheme_state(MetricKind.AU, prob, report.final, rtol=greens.CG_RTOL)
    last = report.final_record
    assert last.decrease == 0.0 and not last.sufficient_decrease
    assert last.gamma == pytest.approx(fresh.gamma, rel=1e-12)
    # as in test_reported_state_is_certified: agreement on the scale gamma ||G u||_X
    scale = fresh.gamma * math.sqrt(inner_l2(GridFunction(grid, fresh.green_u), report.final))
    assert abs(last.residual - fresh.residual) <= 1e-12 * scale


def test_backtracking_stall_ends_tight_with_one_scheme_state_per_record(monkeypatch):
    # at beta = 1e200 backtracking a_u steps reach the floor along loose
    # directions; each is retried at a tight state through the private
    # solve, so the public scheme_state runs once per record
    calls = track_states(monkeypatch)
    grid = build_grid(2, [7, 7], [(0.0, 1.0)] * 2)
    prob = Problem(grid, zero_potential(grid), 1e200)
    report = run(prob, RunConfig(scheme=MetricKind.AU))
    assert report.status == "stalled"
    assert sum(not resolve for _, _, resolve in calls) == len(report.records)
    assert any(resolve for _, _, resolve in calls)
    rtol, state, _ = calls[-1]  # the last step's operator is exact, so it needs no re-solve
    assert rtol == greens.CG_RTOL
    assert report.final_record.residual == state.residual


@pytest.mark.parametrize("scheme, beta", [(MetricKind.H1, 100.0), (MetricKind.A0, 100.0),
                                          (MetricKind.AU, 0.0)])
def test_run_builds_one_grid_function_per_step(scheme, beta, monkeypatch):
    # inside the flow vectors are arrays: a run wraps its start (the draw
    # and its retraction) and each step it takes, and nothing else; these
    # solves are exact, so no search is retried
    prob = harmonic_2d(beta=beta)
    built = []
    post_init = GridFunction.__post_init__

    def counting_post_init(self):
        built.append(self.grid)
        post_init(self)

    monkeypatch.setattr(GridFunction, "__post_init__", counting_post_init)
    report = run(prob, RunConfig(scheme=scheme))
    assert report.status == "converged"
    assert len(built) <= len(report.records) + 2


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_builds_one_operator_or_one_per_au_record(scheme, monkeypatch):
    # h1 and a0 keep one operator for the whole run; a_u's metric is
    # linearized at each iterate, so it builds one per record, and the
    # tight re-solve that ends a CG run reuses its record's operator
    built = []
    init = greens.LinearOperator.__init__

    def counting_init(self, metric, problem):
        built.append(metric.kind)
        init(self, metric, problem)

    monkeypatch.setattr(greens.LinearOperator, "__init__", counting_init)
    calls = track_states(monkeypatch)
    report = run(cg_problem(scheme, n=15), RunConfig(scheme=scheme))
    assert report.status == "converged"
    assert built == [scheme] * (len(report.records) if scheme is MetricKind.AU else 1)
    assert any(resolve for _, _, resolve in calls) == (scheme is not MetricKind.H1)


def repulsive_7():
    grid = build_grid(1, [7], [(0.0, 1.0)])
    return Problem(grid, zero_potential(grid), 10.0)


@pytest.mark.parametrize("alpha0", [1e10, 1e20])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_backtracking_from_a_huge_alpha0_converges(scheme, alpha0):
    # a trial at alpha * ||g|| >> 1 must get its decrease right, or a wrongly
    # accepted trial throws the run out of the basin and it never converges
    prob = repulsive_7()
    default = run(prob, RunConfig(scheme=scheme, max_iter=300))
    report = run(prob, RunConfig(scheme=scheme, alpha0=alpha0, max_iter=300))
    assert report.status == "converged"
    assert report.final_record.gamma == pytest.approx(default.final_record.gamma, rel=1e-8)
    final_energy = energy(prob, report.final)
    assert all(r.energy >= final_energy - 1e-12 for r in report.records)


@pytest.mark.parametrize("alpha0", [1e100, 1e200])
@pytest.mark.parametrize("mode", ["fixed", "backtracking"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_stepsize_beyond_the_float_range_converges_or_breaks_down(scheme, mode, alpha0):
    # an overflowing trial is a breakdown, never an OverflowError, ValueError
    # or ZeroDivisionError, and never a report with a non-finite energy
    cfg = RunConfig(scheme=scheme, mode=mode, alpha0=alpha0, max_iter=300)
    try:
        report = run(repulsive_7(), cfg)
    except FlowBreakdownError:
        return
    assert report.status == "converged"
    assert all(math.isfinite(r.energy) for r in report.records)
