import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpflow import greens
from gpflow.energy import (
    _step_moments,
    energy,
    energy_decrease,
    metric_gradient,
    project_tangent,
    retract,
    scheme_state,
)
from gpflow.flows import RunConfig, _decide
from gpflow.greens import LinearOperator, solve_green
from gpflow.grid import (
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
from gpflow.problem import Problem, harmonic_potential, zero_potential
from strategies import PROPERTY_SETTINGS, small_problems


def linear_problem(n=31):
    grid = build_grid(1, [n], [(0.0, 1.0)])
    return Problem(grid, zero_potential(grid), 0.0)


def nonlinear_problem(n=31, beta=10.0, omega=10.0):
    grid = build_grid(1, [n], [(0.0, 1.0)])
    return Problem(grid, harmonic_potential(grid, omega), beta)


def fixed_step(problem, u, state, alpha):
    """The flow's step of size alpha from u along ``state``, as (alpha,
    u_next, decrease, accepted); (0.0, u, 0.0, True) when ``state`` takes
    none."""
    cfg = RunConfig(mode="fixed", alpha0=alpha)
    return _decide(problem, cfg, 0, u, state, ())[0]


def sine_mode(problem):
    """Exact discrete ground eigenfunction of the 1D Dirichlet Laplacian."""
    grid = problem.grid
    x = grid.axis_coords(0)
    a, b = grid.bounds[0]
    return retract(GridFunction(grid, np.sin(math.pi * (x - a) / (b - a))))


def test_energy_hand_oracle():
    # n=3, h=1/4, beta=4, V=0, u=(1,1,1): kinetic 4, quartic 0.75
    grid = build_grid(1, [3], [(0.0, 1.0)])
    prob = Problem(grid, zero_potential(grid), 4.0)
    u = GridFunction(grid, [1.0, 1.0, 1.0])
    assert energy(prob, u) == pytest.approx(4.75)


def test_energy_decrease_matches_difference():
    rng = np.random.default_rng(0)
    prob = nonlinear_problem(beta=50.0)
    u = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    v = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    direct = energy(prob, u) - energy(prob, v)
    assert energy_decrease(prob, u, v) == pytest.approx(direct, rel=1e-10)


def test_retract_hand_oracle():
    grid = build_grid(1, [3], [(0.0, 1.0)])
    u = retract(GridFunction(grid, [1.0, 1.0, 1.0]))
    np.testing.assert_allclose(u.values, [2.0 / math.sqrt(3)] * 3)
    assert norm_l2(u) == pytest.approx(1.0)


def test_retract_rejects_zero():
    grid = build_grid(1, [3], [(0.0, 1.0)])
    with pytest.raises(ValueError):
        retract(GridFunction(grid, [0.0, 0.0, 0.0]))


def test_gamma_at_exact_eigenfunction():
    prob = linear_problem(n=31)
    h = prob.grid.h[0]
    lam0 = (2.0 / h**2) * (1.0 - math.cos(math.pi * h))
    u = sine_mode(prob)
    for kind in (MetricKind.H1, MetricKind.A0, MetricKind.AU):
        state = scheme_state(kind, prob, u)
        assert state.gamma == pytest.approx(lam0, rel=1e-10)
        assert state.residual < 1e-9


def test_riemannian_gradient_tangent():
    rng = np.random.default_rng(1)
    prob = nonlinear_problem(beta=25.0)
    u = retract(GridFunction(prob.grid, rng.standard_normal(prob.grid.dof)))
    for kind in (MetricKind.H1, MetricKind.A0, MetricKind.AU):
        r = GridFunction(prob.grid, scheme_state(kind, prob, u).riemannian_gradient)
        assert abs(inner_l2(r, u)) < 1e-10


def test_project_tangent_orthogonality_and_idempotence():
    rng = np.random.default_rng(2)
    prob = nonlinear_problem()
    u = retract(GridFunction(prob.grid, rng.standard_normal(prob.grid.dof)))
    xi = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    for kind in (MetricKind.H1, MetricKind.A0, MetricKind.AU):
        metric = Metric(kind, u)
        p = project_tangent(metric, prob, u, xi)
        assert abs(inner_l2(p, u)) < 1e-10
        p2 = project_tangent(metric, prob, u, p)
        np.testing.assert_allclose(p2.values, p.values, atol=1e-10)


def test_gradient_matches_finite_difference():
    rng = np.random.default_rng(3)
    prob = nonlinear_problem(beta=5.0)
    u = retract(GridFunction(prob.grid, rng.standard_normal(prob.grid.dof)))
    hdir = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    t = 1e-6
    up = GridFunction(prob.grid, u.values + t * hdir.values)
    dn = GridFunction(prob.grid, u.values - t * hdir.values)
    fd = energy_decrease(prob, up, dn) / (2.0 * t)
    for kind in (MetricKind.H1, MetricKind.A0, MetricKind.AU):
        grad = metric_gradient(kind, prob, u)
        ip = inner(Metric(kind, u), prob, grad, hdir)
        assert ip == pytest.approx(fd, rel=1e-6)


def test_step_decrease_matches_energy_difference():
    rng = np.random.default_rng(4)
    prob = nonlinear_problem(beta=20.0)
    u = retract(GridFunction(prob.grid, rng.standard_normal(prob.grid.dof)))
    _, u_next, decrease, _ = fixed_step(prob, u, scheme_state(MetricKind.H1, prob, u), 0.3)
    assert norm_l2(u_next) == pytest.approx(1.0, abs=1e-14)
    direct = energy(prob, u) - energy(prob, u_next)
    assert decrease == pytest.approx(direct, rel=1e-8)


def test_scheme_state_requires_unit_norm():
    prob = nonlinear_problem()
    u = GridFunction(prob.grid, np.ones(prob.grid.dof))
    with pytest.raises(ValueError):
        scheme_state(MetricKind.H1, prob, u)



def test_operands_off_the_problem_grid_are_rejected():
    # the 2D (3, 4) and (4, 3) grids of the unit square have the same dof
    # and cell volume, so only a grid check tells their functions apart
    grid, other = (build_grid(2, n, [(0.0, 1.0)] * 2) for n in ([3, 4], [4, 3]))
    prob = Problem(grid, harmonic_potential(grid, 10.0), 10.0)
    u = retract(GridFunction(other, np.arange(1.0, 13.0)))
    v = retract(GridFunction(other, np.arange(12.0, 0.0, -1.0)))
    for kind in MetricKind:
        with pytest.raises(GridMismatchError, match="problem grid"):
            scheme_state(kind, prob, u)
        with pytest.raises(GridMismatchError, match="problem grid"):
            metric_gradient(kind, prob, u)
    with pytest.raises(GridMismatchError, match="problem grid"):
        energy_decrease(prob, u, v)
    with pytest.raises(GridMismatchError, match="problem grid"):
        energy(prob, u)


def test_scheme_state_rejects_an_operator_of_another_scheme():
    grid = build_grid(2, [7, 7], [(0.0, 1.0)] * 2)
    prob = Problem(grid, harmonic_potential(grid, 20.0), 10.0)
    u = retract(GridFunction(grid, np.arange(1.0, 50.0)))
    for kind, other in itertools.permutations(MetricKind, 2):
        op = LinearOperator(Metric(other, u), prob)
        with pytest.raises(ValueError, match=f"metric {other.value} given for scheme {kind.value}$"):
            scheme_state(kind, prob, u, op=op)
        assert scheme_state(other, prob, u, op=op).residual > 0.0


def test_a0_at_beta_zero_skips_the_cubic_solve(monkeypatch):
    solves = []
    original = greens.LinearOperator.solve

    def counting_solve(self, rhs, x0=None, rtol=None):
        solves.append(self.metric.kind)
        return original(self, rhs, x0, rtol)

    monkeypatch.setattr(greens.LinearOperator, "solve", counting_solve)
    rng = np.random.default_rng(5)
    for beta, expected in ((0.0, 1), (10.0, 2)):
        prob = nonlinear_problem(beta=beta)
        u = retract(GridFunction(prob.grid, rng.standard_normal(prob.grid.dof)))
        solves.clear()
        state = scheme_state(MetricKind.A0, prob, u)
        assert solves == [MetricKind.A0] * expected
        assert (state.green_term is None) == (beta == 0.0)
        solves.clear()
        metric_gradient(MetricKind.A0, prob, u)
        assert len(solves) == expected - 1


@pytest.mark.parametrize("dim, n", [(1, 31), (2, 15)])
def test_h1_gradient_at_beta_zero_is_u_plus_the_potential_solve(dim, n):
    # at beta = 0 the H1 gradient adds no cube term: u + G_H1(V u) bit for bit
    grid = build_grid(dim, [n] * dim, [(0.0, 1.0)] * dim)
    prob = Problem(grid, harmonic_potential(grid, 10.0), 0.0)
    u = retract(GridFunction(grid, np.random.default_rng(dim).uniform(-1.0, 1.0, grid.dof)))
    assert np.any(u.values < 0.0) and np.any(u.values > 0.0)
    green = solve_green(H1, prob, GridFunction(grid, prob.V.values * u.values))
    grad = metric_gradient(MetricKind.H1, prob, u)
    assert np.array_equal(grad.values, u.values + green.values)


def test_scheme_state_warm_start_matches_cold():
    # the previous state's solves start this one's; the result agrees with a
    # cold start to the solves' tolerance
    rng = np.random.default_rng(6)
    prob = nonlinear_problem(n=63, beta=100.0, omega=20.0)
    u_prev = retract(GridFunction(prob.grid, rng.uniform(0.5, 1.0, prob.grid.dof)))
    for kind in (MetricKind.H1, MetricKind.A0, MetricKind.AU):
        prev = scheme_state(kind, prob, u_prev)
        u = retract(GridFunction(prob.grid, u_prev.values - 1e-3 * prev.riemannian_gradient))
        cold = scheme_state(kind, prob, u)
        warm = scheme_state(kind, prob, u, prev=prev)
        assert warm.gamma == pytest.approx(cold.gamma, rel=1e-12)
        assert warm.residual == pytest.approx(cold.residual, rel=1e-9)
        np.testing.assert_allclose(warm.green_u, cold.green_u, rtol=1e-11)


def test_scheme_state_residual_and_moments():
    # the residual is read from the moments the state carries; it is the
    # metric norm of the Riemannian gradient, and the moments are those of
    # (u, riemannian_gradient)
    rng = np.random.default_rng(7)
    grid = build_grid(2, [15, 9], [(0.0, 1.0), (0.0, 0.75)])
    prob = Problem(grid, harmonic_potential(grid, 20.0), 50.0)
    u = retract(GridFunction(grid, rng.uniform(0.5, 1.0, grid.dof)))
    for kind in (MetricKind.H1, MetricKind.A0, MetricKind.AU):
        state = scheme_state(kind, prob, u)
        g = GridFunction(prob.grid, state.riemannian_gradient)
        assert state.residual == pytest.approx(norm(Metric(kind, u), prob, g), rel=1e-13)
        assert state.moments == _step_moments(prob, u.values, g.values, inner_l2(u, u))
        # (u, u) is the one the unit check took, bit for bit as the moment was
        assert state.moments.l2[0] == grid.cell_volume * np.dot(u.values, u.values)


@PROPERTY_SETTINGS
@given(small_problems())
def test_energy_decrease_matches_energy_difference_property(case):
    prob, rng = case
    u = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    v = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    eu, ev = energy(prob, u), energy(prob, v)
    # both sides carry the roundoff of the O(E) energies, not of their difference
    assert energy_decrease(prob, u, v) == pytest.approx(eu - ev, rel=1e-12, abs=1e-12 * max(eu, ev))


@PROPERTY_SETTINGS
@given(small_problems(), st.floats(-6.0, 12.0))
def test_step_decrease_matches_energy_decrease_property(case, log_alpha):
    # the line search's closed-form decrease against the independent
    # difference form, from stepsizes far below to far above the natural one
    prob, rng = case
    alpha = 10.0**log_alpha
    u = retract(GridFunction(prob.grid, rng.standard_normal(prob.grid.dof)))
    for kind in (MetricKind.H1, MetricKind.A0, MetricKind.AU):
        _, u_next, decrease, _ = fixed_step(prob, u, scheme_state(kind, prob, u), alpha)
        scale = energy(prob, u) + energy(prob, u_next)
        assert abs(decrease - energy_decrease(prob, u, u_next)) <= 1e-12 * scale
