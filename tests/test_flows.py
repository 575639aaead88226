import math

import numpy as np
import pytest
from hypothesis import given

from gpflow.flows import (
    RunConfig,
    StepPolicy,
    _search,
    initial_guess,
    load_function,
    run,
    sign_normalize,
)
from gpflow import greens
from gpflow.energy import energy, retract, scheme_state, step_decrease
from gpflow.grid import GridFunction, MetricKind, build_grid, norm_l2
from gpflow.problem import Problem, harmonic_potential, zero_potential
from strategies import PROPERTY_SETTINGS, small_problems

SCHEMES = (MetricKind.H1, MetricKind.A0, MetricKind.AU)


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
    policy = StepPolicy(mode="fixed", alpha0=0.1)
    report = run(prob, RunConfig(scheme=MetricKind.H1, policy=policy))
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
    g = scheme_state(MetricKind.H1, prob, u).riemannian_gradient
    _, v = step_decrease(prob, u, g, 0.2)
    assert norm_l2(v) == pytest.approx(1.0)
    assert energy(prob, v) < energy(prob, u)


def test_init_from_file(tmp_path):
    prob = nonlinear_problem()
    target = run(prob, RunConfig(scheme=MetricKind.H1)).final
    path = tmp_path / "start.csv"
    np.savetxt(path, target.values)
    loaded = load_function(prob, str(path))
    np.testing.assert_allclose(loaded.values, target.values, atol=1e-14)
    report = run(prob, RunConfig(scheme=MetricKind.H1, init="file", init_path=str(path)))
    assert report.status == "converged"
    assert len(report.records) <= 3  # already at the solution


def test_run_from_u0_matches_file_start(tmp_path):
    prob = nonlinear_problem()
    start = initial_guess(prob, "random", seed=4)
    path = tmp_path / "start.csv"
    np.savetxt(path, start.values)
    cfg = RunConfig(scheme=MetricKind.A0, max_iter=20)
    from_file = run(prob, RunConfig(scheme=MetricKind.A0, max_iter=20, init="file", init_path=str(path)))
    from_u0 = run(prob, cfg, u0=start)
    assert [r.energy for r in from_u0.records] == [r.energy for r in from_file.records]
    np.testing.assert_array_equal(from_u0.final.values, from_file.final.values)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(scheme=MetricKind.L2)
    with pytest.raises(ValueError):
        RunConfig(tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(max_iter=0)
    with pytest.raises(ValueError):
        RunConfig(init="file")
    with pytest.raises(ValueError):
        RunConfig(init="bogus")


def test_step_policy_validation():
    with pytest.raises(ValueError):
        StepPolicy(mode="newton")
    with pytest.raises(ValueError):
        StepPolicy(shrink=1.0)
    with pytest.raises(ValueError):
        StepPolicy(alpha0=1e-9, alpha_floor=1e-8)


def test_rate_fit_attached_to_long_runs():
    prob = nonlinear_problem(beta=100.0)
    report = run(prob, RunConfig(scheme=MetricKind.H1))
    assert report.rate is not None
    assert 0.0 < report.rate.rho < 1.0


def test_deterministic_reports():
    prob = nonlinear_problem(beta=30.0)
    cfg = RunConfig(scheme=MetricKind.A0, init="random", seed=9)
    a = run(prob, cfg)
    b = run(prob, cfg)
    assert [r.energy for r in a.records] == [r.energy for r in b.records]
    np.testing.assert_array_equal(a.final.values, b.final.values)


@PROPERTY_SETTINGS
@given(small_problems())
def test_search_decrease_is_step_decrease_bit_for_bit(case):
    # the search computes the terms at u once per step; every trial must
    # still give exactly step_decrease's decrease and step
    prob, rng = case
    u = retract(GridFunction(prob.grid, rng.standard_normal(prob.grid.dof)))
    for kind in SCHEMES:
        state = scheme_state(kind, prob, u)
        for policy in (StepPolicy(alpha0=4.0), StepPolicy(mode="fixed", alpha0=0.3)):
            alpha, u_next, decrease, _ = _search(prob, u, state, policy)
            expected, expected_next = step_decrease(prob, u, state.riemannian_gradient, alpha)
            assert decrease == expected
            np.testing.assert_array_equal(u_next.values, expected_next.values)


@pytest.mark.parametrize("scheme", [MetricKind.A0, MetricKind.AU])
def test_run_warm_starts_every_solve_after_the_first_step(scheme, monkeypatch):
    starts = []
    original = greens.LinearOperator.solve

    def recording_solve(self, rhs, x0=None):
        starts.append(x0 is not None)
        return original(self, rhs, x0)

    monkeypatch.setattr(greens.LinearOperator, "solve", recording_solve)
    report = run(nonlinear_problem(), RunConfig(scheme=scheme))
    assert report.status == "converged"
    per_step = 2 if scheme is MetricKind.A0 else 1  # a0 also solves for G u^3
    assert len(starts) == per_step * len(report.records)
    assert starts == [False] * per_step + [True] * (len(starts) - per_step)
