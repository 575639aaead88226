import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gpflow import greens
from gpflow.energy import metric_gradient, retract, scheme_state
from gpflow.flows import RunConfig, run
from gpflow.greens import CG_RTOL, GreenSolveError, LinearOperator, solve_green
from gpflow.grid import (
    A0,
    DENSE_SINE_MAX,
    Grid,
    GridFunction,
    H1,
    Metric,
    MetricKind,
    build_grid,
    dirichlet_moments,
    inner,
    inner_l2,
    neg_laplacian,
)
from gpflow.problem import Problem, harmonic_potential, well_potential, zero_potential
from oracles import laplacian_matrix, operator_matrix
from strategies import PROPERTY_SETTINGS, small_problems


def make_problem(n=15, beta=5.0, dim=1, omega=10.0):
    if dim == 1:
        grid = build_grid(1, [n], [(0.0, 1.0)])
    else:
        grid = build_grid(dim, [n] * dim, [(0.0, 1.0)] * dim)
    return Problem(grid, harmonic_potential(grid, omega), beta)


def well_problem(n=15, beta=5.0, dim=2):
    """A problem whose a0 operator runs CG: a well is not additive across
    the axes, so the per-axis eigenbases of its additive part only
    precondition -Laplacian + V."""
    grid = build_grid(dim, [n] * dim, [(0.0, 1.0)] * dim)
    return Problem(grid, well_potential(grid, 1000.0, 0.25, 0.75), beta)


def test_laplacian_matrix_1d_oracle():
    grid = build_grid(1, [3], [(0.0, 1.0)])
    dense = laplacian_matrix(grid).toarray()
    expected = np.array(
        [[32.0, -16.0, 0.0], [-16.0, 32.0, -16.0], [0.0, -16.0, 32.0]]
    )
    np.testing.assert_allclose(dense, expected)


def test_operator_apply_matches_matrix():
    rng = np.random.default_rng(0)
    for dim in (1, 2):
        prob = make_problem(n=7, dim=dim)
        base = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
        for metric in (H1, A0, Metric(MetricKind.AU, base=base)):
            op = LinearOperator(metric, prob)
            x = rng.standard_normal(prob.grid.dof)
            np.testing.assert_allclose(op.apply(x), operator_matrix(op) @ x, rtol=1e-12, atol=1e-12)


def test_operator_solve_inverts_apply():
    rng = np.random.default_rng(1)
    prob = make_problem(n=31)
    op = LinearOperator(A0, prob)
    rhs = rng.standard_normal(prob.grid.dof)
    x = op.solve(rhs)
    np.testing.assert_allclose(op.apply(x), rhs, rtol=1e-10, atol=1e-10)


def test_solve_green_adjoint_identity():
    rng = np.random.default_rng(2)
    prob = make_problem(n=31, beta=10.0)
    base = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    z = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    w = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    for metric in (H1, A0, Metric(MetricKind.AU, base=base)):
        g = solve_green(metric, prob, w)
        assert inner(metric, prob, z, g) == pytest.approx(inner_l2(z, w), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("dim, n", [(2, 63), (3, 19)])
def test_solve_residual_well_potential(dim, n):
    # a deep well: the diagonal term jumps by 1000 across the box, so
    # neither the additive part's bases (a0) nor the mean-shifted sine
    # basis (a_u) is near exact
    grid = build_grid(dim, [n] * dim, [(0.0, 1.0)] * dim)
    prob = Problem(grid, well_potential(grid, 1000.0, 0.25, 0.75), 100.0)
    rng = np.random.default_rng(3)
    base = retract(GridFunction(grid, rng.uniform(0.0, 1.0, grid.dof)))
    rhs = rng.standard_normal(grid.dof)
    for metric in (H1, A0, Metric(MetricKind.AU, base=base)):
        op = LinearOperator(metric, prob)
        x = op.solve(rhs)
        resid = np.linalg.norm(operator_matrix(op) @ x - rhs)
        assert resid <= 1e-12 * np.linalg.norm(rhs), (metric.kind, resid)


def test_no_kernel_hashes_the_grid(monkeypatch):
    # what a kernel reads of its grid is planned once, on the Grid, so a cold
    # CG solve (one stencil per iteration) and the other kernels never hash it
    prob = well_problem(n=31, beta=100.0)
    grid = prob.grid
    op = LinearOperator(A0, prob)
    rhs = np.random.default_rng(5).standard_normal(grid.dof)
    hashes, grid_hash = [], Grid.__hash__

    def counting_hash(self):
        hashes.append(self)
        return grid_hash(self)

    monkeypatch.setattr(Grid, "__hash__", counting_hash)
    op.solve(rhs)
    assert op.iterations > 0
    op.apply(rhs)
    neg_laplacian(grid, rhs)
    dirichlet_moments(grid, rhs, rhs)
    assert len(hashes) == 0


def test_cg_stopping_short_raises(monkeypatch):
    # a zero tolerance is unreachable: on 5^2 nodes CG runs into its
    # iteration cap; on 31^2 its residual first shrinks to ~1e-160, where
    # r.z and p.Ap underflow to zero (breakdown).  CG runs on two or more
    # axes only, and there only where the potential is not additive.
    monkeypatch.setattr(greens, "CG_RTOL", 0.0)
    for n in (5, 31):
        prob = well_problem(n=n)
        rhs = np.random.default_rng(4).standard_normal(prob.grid.dof)
        op = LinearOperator(A0, prob)
        with pytest.raises(GreenSolveError):
            op.solve(rhs)
        assert op.iterations > 0
    # the H1 solve is one exact transform pair and runs no CG
    LinearOperator(H1, prob).solve(rhs)


def test_zero_rhs_short_circuit():
    prob = make_problem(n=9)
    zero = GridFunction(prob.grid, np.zeros(prob.grid.dof))
    assert not np.any(solve_green(H1, prob, zero).values)


def test_zero_rhs_of_any_sign_solves_to_positive_zeros():
    # the exact maps answer zeros with signed zeros (dpttrs keeps -0.0, and
    # dstn on a 130-node axis returns -0.0 for +0.0), so solve tests for a
    # zero rhs before it applies any map, and every operator returns +0.0
    harmonic = make_problem(n=15, dim=2)
    long_grid = build_grid(2, [DENSE_SINE_MAX + 2, 3], [(0.0, 1.0)] * 2)
    basis_op = LinearOperator(A0, harmonic)
    # before the well's operator, which replaces the cached basis
    assert basis_op._inverse is greens._potential_basis(harmonic)[0]
    ops = {
        "tridiagonal": LinearOperator(A0, make_problem(n=15)),
        "sine": LinearOperator(H1, harmonic),
        "potential basis": basis_op,
        "dstn": LinearOperator(H1, Problem(long_grid, zero_potential(long_grid), 1.0)),
        "cg": LinearOperator(A0, well_problem(n=15)),
    }
    assert [op.exact for op in ops.values()] == [True, True, True, True, False]
    for name, op in ops.items():
        dof = op.grid.dof
        mixed = np.where(np.arange(dof) % 2 == 0, 0.0, -0.0)
        for rhs in (np.zeros(dof), np.full(dof, -0.0), mixed):
            x = op.solve(rhs, x0=np.ones(dof), rtol=1e-3)
            np.testing.assert_array_equal(x, np.zeros(dof))
            assert not np.signbit(x).any(), name
            assert op.iterations == 0


def _reference_pcg(op, b, x0, rtol):
    """Preconditioned CG as ``LinearOperator.solve`` runs it, written plainly:
    np.linalg.norm for every norm and np.dot for every dot, a fresh array
    for every update, A x as stencil plus D x, and the operator's own
    preconditioner.  (x, iterations), or None where CG breaks down or hits
    its cap."""
    def apply(v):
        return neg_laplacian(op.grid, v) + op.diagonal_term * v

    target = rtol * np.linalg.norm(b)
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = x0.copy()
        r = b - apply(x)
        if np.linalg.norm(r) <= target:
            return x, 0
    z = op._inverse(r)
    p, rz = z, float(np.dot(r, z))
    for iterations in range(1, 2 * op.grid.dof + 1):
        ap = apply(p)
        curvature = float(np.dot(p, ap))
        if not (rz > 0.0 and curvature > 0.0):
            return None
        step = rz / curvature
        x = x + step * p
        r = r - step * ap
        if np.linalg.norm(r) <= target:
            return x, iterations
        z = op._inverse(r)
        rz_next = float(np.dot(r, z))
        p = z + (rz_next / rz) * p
        rz = rz_next
    return None


@st.composite
def cg_operators(draw):
    """A CG operator on a 2D grid of at most 15^2 or a 3D grid of at most 7^3
    nodes: a0 on a drawn well, or a_u at beta > 0 on a random base; and a
    seeded generator."""
    dim = draw(st.integers(2, 3))
    n = draw(st.lists(st.integers(2, 15 if dim == 2 else 7), min_size=dim, max_size=dim))
    grid = build_grid(dim, n, [(0.0, 1.0)] * dim)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.floats(0.0, 0.5))
    hi = draw(st.floats(lo + 0.3, 1.0))
    try:
        V = well_potential(grid, 10.0 ** draw(st.floats(0.0, 4.0)), lo, hi)
    except ValueError:  # a well that holds no node
        assume(False)
    if draw(st.booleans()):
        op = LinearOperator(A0, Problem(grid, V, 0.0))
    else:
        base = GridFunction(grid, rng.uniform(-2.0, 2.0, grid.dof))
        prob = Problem(grid, V, draw(st.sampled_from([1.0, 100.0, 1e4])))
        op = LinearOperator(Metric(MetricKind.AU, base=base), prob)
    assume(not op.exact)
    return op, rng


@PROPERTY_SETTINGS
@given(cg_operators(), st.booleans(), st.floats(-13.0, -3.0))
def test_cg_solve_is_the_plain_pcg_loop_bit_for_bit(case, warm, log_rtol):
    # solve's in-place updates and its norms as one dot and a square root
    # keep every bit of the plain loop, iteration count included
    op, rng = case
    b = rng.standard_normal(op.grid.dof)
    x0 = rng.standard_normal(op.grid.dof) if warm else None
    rtol = 10.0**log_rtol
    expected = _reference_pcg(op, b, x0, rtol)
    try:
        x = op.solve(b, x0=x0, rtol=rtol)
    except GreenSolveError:
        assert expected is None
        return
    assert expected is not None
    assert x.tobytes() == expected[0].tobytes()
    assert op.iterations == expected[1]


def test_warm_solve_from_exact_solution_takes_no_iterations():
    rng = np.random.default_rng(5)
    prob = well_problem(n=15)
    base = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    x = rng.standard_normal(prob.grid.dof)
    for metric in (H1, A0, Metric(MetricKind.AU, base=base)):
        op = LinearOperator(metric, prob)
        rhs = operator_matrix(op) @ x
        op.solve(rhs)
        if metric.kind is MetricKind.H1:  # the exact transform pair ignores x0
            assert op.iterations == 0
            continue
        assert op.iterations > 0
        np.testing.assert_array_equal(op.solve(rhs, x0=x), x)
        assert op.iterations == 0


def test_warm_start_at_converged_a0_state_saves_iterations():
    # two consecutive iterates near convergence of the 2D-63 well a0 flow: the
    # solve at the later one, started from the earlier one's solution
    prob = well_problem(n=63, beta=100.0)
    cfg = RunConfig(scheme=MetricKind.A0)
    steps = len(run(prob, cfg).records) - 1
    u_prev = run(prob, RunConfig(scheme=MetricKind.A0, max_iter=steps - 1)).final
    u = run(prob, RunConfig(scheme=MetricKind.A0, max_iter=steps)).final
    op = LinearOperator(A0, prob)
    for rhs_of in (lambda f: f.values, lambda f: f.values**3):
        start = op.solve(rhs_of(u_prev))
        cold = op.solve(rhs_of(u))
        cold_iterations = op.iterations
        warm = op.solve(rhs_of(u), x0=start)
        assert op.iterations < cold_iterations, (op.iterations, cold_iterations)
        np.testing.assert_allclose(warm, cold, rtol=0.0, atol=1e-11 * np.max(np.abs(cold)))


# --- properties over random small grids --------------------------------------


@PROPERTY_SETTINGS
@given(small_problems())
def test_solve_green_matches_dense_solve(case):
    prob, rng = case
    grid = prob.grid
    base = GridFunction(grid, rng.uniform(-2.0, 2.0, grid.dof))
    w = GridFunction(grid, rng.standard_normal(grid.dof))
    z = GridFunction(grid, rng.standard_normal(grid.dof))
    lap = laplacian_matrix(grid).toarray()
    diags = {
        MetricKind.H1: np.zeros(grid.dof),
        MetricKind.A0: prob.V.values,
        MetricKind.AU: prob.V.values + prob.beta * base.values**2,
    }
    for metric in (H1, A0, Metric(MetricKind.AU, base=base)):
        g = solve_green(metric, prob, w)
        expected = np.linalg.solve(lap + np.diag(diags[metric.kind]), w.values)
        np.testing.assert_allclose(
            g.values, expected, rtol=1e-10, atol=1e-10 * np.max(np.abs(expected))
        )
        assert inner(metric, prob, z, g) == pytest.approx(inner_l2(z, w), rel=1e-9, abs=1e-9)


@PROPERTY_SETTINGS
@given(small_problems())
def test_scheme_state_gradient_is_projected_metric_gradient(case):
    prob, rng = case
    u = retract(GridFunction(prob.grid, rng.standard_normal(prob.grid.dof)))
    for kind in (MetricKind.H1, MetricKind.A0, MetricKind.AU):
        state = scheme_state(LinearOperator(Metric(kind, u), prob), u)
        grad = metric_gradient(kind, prob, u)
        np.testing.assert_array_equal(state.gradient, grad.values)
        np.testing.assert_array_equal(
            state.riemannian_gradient,
            grad.values - state.gamma * state.green_u,
        )


@PROPERTY_SETTINGS
@given(small_problems())
def test_warm_solve_matches_dense_solve(case):
    prob, rng = case
    grid = prob.grid
    base = GridFunction(grid, rng.uniform(-2.0, 2.0, grid.dof))
    rhs = rng.standard_normal(grid.dof)
    for metric in (H1, A0, Metric(MetricKind.AU, base=base)):
        op = LinearOperator(metric, prob)
        matrix = operator_matrix(op).toarray()
        expected = np.linalg.solve(matrix, rhs)
        # a random start of the solution's size (a start far larger than the
        # solution raises the floor of the true residual to ~eps ||A x0||)
        x0 = np.max(np.abs(expected)) * rng.standard_normal(grid.dof)
        x = op.solve(rhs, x0=x0)
        np.testing.assert_allclose(
            x, expected, rtol=1e-10, atol=1e-10 * np.max(np.abs(expected))
        )
        assert np.linalg.norm(rhs - matrix @ x) <= CG_RTOL * np.linalg.norm(rhs)


@PROPERTY_SETTINGS
@given(small_problems(), st.floats(-12.0, -3.0))
def test_solve_meets_the_rtol_it_is_given(case, log_rtol):
    prob, rng = case
    grid = prob.grid
    rtol = 10.0**log_rtol
    base = GridFunction(grid, rng.uniform(-2.0, 2.0, grid.dof))
    rhs = rng.standard_normal(grid.dof)
    for metric in (A0, Metric(MetricKind.AU, base=base)):
        op = LinearOperator(metric, prob)
        matrix = operator_matrix(op)
        # a start such as the previous step's solution along a flow: the
        # solution for a nearby right-hand side
        x0 = op.solve(rhs + 0.1 * rng.standard_normal(grid.dof))
        x = op.solve(rhs, x0=x0, rtol=rtol)
        # the updated residual CG tests drifts from the true one by ~eps ||A x0||
        drift = 1e-14 * (np.linalg.norm(rhs) + np.linalg.norm(matrix @ x0))
        assert np.linalg.norm(rhs - matrix @ x) <= rtol * np.linalg.norm(rhs) + drift


def test_solve_stops_at_the_rtol_it_is_given():
    prob = well_problem(n=31)
    rhs = np.random.default_rng(4).standard_normal(prob.grid.dof)
    op = LinearOperator(A0, prob)
    op.solve(rhs)
    tight = op.iterations
    x = op.solve(rhs, rtol=1e-3)
    assert 0 < op.iterations < tight
    assert np.linalg.norm(rhs - operator_matrix(op) @ x) <= 1e-3 * np.linalg.norm(rhs)
    # the error names the tolerance the solve missed, not CG_RTOL
    with pytest.raises(GreenSolveError, match=r"relative residual 0 "):
        op.solve(rhs, rtol=0.0)


def _one_node_case():
    grid = build_grid(1, [1], [(0.0, 1.0)])
    return Problem(grid, zero_potential(grid), 10.0), np.random.default_rng(0)


@PROPERTY_SETTINGS
@given(small_problems(max_dim=1, max_n=31), st.floats(0.0, 1e4))
@example(_one_node_case(), 0.0)
def test_one_axis_solves_are_exact(case, shift):
    # on one axis every metric solves with one tridiagonal factorization:
    # no CG iteration, the start and the tolerance ignored, the dense solve
    # to roundoff; so does greens.laplacian_inverse, for any shift >= 0
    prob, rng = case
    dof = prob.grid.dof
    base = GridFunction(prob.grid, rng.uniform(-2.0, 2.0, dof))

    def assert_solves(x, matrix, rhs):
        expected = np.linalg.solve(matrix, rhs)
        error = np.linalg.norm(x - expected)
        assert error <= 1e-12 * np.linalg.norm(expected), error

    for metric in (H1, A0, Metric(MetricKind.AU, base=base)):
        op = LinearOperator(metric, prob)
        assert op.exact
        rhs = rng.standard_normal(dof)
        x = op.solve(rhs)
        assert op.iterations == 0
        for x0, rtol in ((rng.standard_normal(dof), None), (None, 1e-3), (x, 0.0)):
            np.testing.assert_array_equal(op.solve(rhs, x0=x0, rtol=rtol), x)
            assert op.iterations == 0
        assert_solves(x, operator_matrix(op).toarray(), rhs)
    inverse = greens.laplacian_inverse(prob.grid, shift)
    shifted = laplacian_matrix(prob.grid).toarray() + shift * np.eye(dof)
    r = rng.standard_normal(dof)
    assert_solves(inverse(r), shifted, r)


@PROPERTY_SETTINGS
@given(
    st.lists(st.integers(1, 10), min_size=2, max_size=3),
    st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
    st.floats(0.0, 1e4),
)
@example([DENSE_SINE_MAX, 2], [1.0, 1.5, 2.0], 0.0)
@example([DENSE_SINE_MAX + 2, 3], [2.0, 0.5, 1.0], 1e4)
def test_laplacian_inverse_is_exact_on_two_and_three_axes(n, lengths, shift):
    # one DST-I pair, through the dense sine matrices or, past
    # DENSE_SINE_MAX nodes on an axis, scipy.fft.dstn, inverts
    # -Laplacian + shift to roundoff
    grid = build_grid(len(n), n, [(0.0, length) for length in lengths[: len(n)]])
    r = np.random.default_rng(grid.dof).standard_normal(grid.dof)
    expected = np.linalg.solve(laplacian_matrix(grid).toarray() + shift * np.eye(grid.dof), r)
    error = np.linalg.norm(greens.laplacian_inverse(grid, shift)(r) - expected)
    assert error <= 1e-11 * np.linalg.norm(expected), error


# --- exact solves on additive potentials --------------------------------------


@st.composite
def additive_problems(draw, max_n=15):
    """A 2D or 3D grid of at most ``max_n`` nodes per axis whose potential
    is a sum of random per-axis terms d_i(x_i) >= 0, and a seeded generator."""
    dim = draw(st.integers(2, 3))
    n = draw(st.lists(st.integers(1, max_n), min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    grid = build_grid(dim, n, [(0.0, length) for length in lengths])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = np.zeros(grid.n)
    for axis, k in enumerate(grid.n):
        shape = [1] * dim
        shape[axis] = k
        scale = draw(st.sampled_from([0.0, 1.0, 100.0]))
        V = V + scale * rng.uniform(0.0, 1.0, k).reshape(shape)
    beta = draw(st.sampled_from([0.0, 10.0]))
    return Problem(grid, GridFunction(grid, V.ravel()), beta), rng


@PROPERTY_SETTINGS
@given(additive_problems())
def test_additive_potential_solves_are_exact(case):
    # -Laplacian + sum_i d_i(x_i) is a Kronecker sum: the a0 operator, and
    # the a_u operator at beta = 0, solve it exactly, with no CG iteration,
    # the start and the tolerance ignored
    prob, rng = case
    dof = prob.grid.dof
    metrics = [A0]
    if prob.beta == 0.0:
        metrics.append(Metric(MetricKind.AU, base=GridFunction(prob.grid, rng.uniform(-2, 2, dof))))
    for metric in metrics:
        op = LinearOperator(metric, prob)
        assert op.exact
        matrix = operator_matrix(op).toarray()
        rhs = rng.standard_normal(dof)
        x = op.solve(rhs, x0=rng.standard_normal(dof), rtol=1e-3)
        assert op.iterations == 0
        expected = np.linalg.solve(matrix, rhs)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("dim, n", [(2, 15), (2, 63), (3, 19)])
def test_exact_exactly_where_the_diagonal_term_is_additive(dim, n):
    grid = build_grid(dim, [n] * dim, [(0.0, 1.0)] * dim)
    rng = np.random.default_rng(6)
    base = GridFunction(grid, rng.uniform(0.5, 1.0, grid.dof))
    coords = np.meshgrid(*(grid.axis_coords(k) for k in range(dim)), indexing="ij")
    per_axis = sum(np.cos(3.0 * x + axis) ** 2 for axis, x in enumerate(coords))
    additive = {
        "zero": zero_potential(grid),
        "harmonic": harmonic_potential(grid, 20.0),
        "per-axis sum": GridFunction(grid, per_axis.ravel()),
    }
    for V in additive.values():
        for metric in (A0, Metric(MetricKind.AU, base=base)):
            assert LinearOperator(metric, Problem(grid, V, 0.0)).exact
        assert LinearOperator(A0, Problem(grid, V, 100.0)).exact
    rhs = rng.standard_normal(grid.dof)
    well = Problem(grid, well_potential(grid, 1000.0, 0.25, 0.75), 100.0)
    au = Problem(grid, harmonic_potential(grid, 20.0), 100.0)
    for metric, prob in ((A0, well), (Metric(MetricKind.AU, base=base), au)):
        op = LinearOperator(metric, prob)
        assert not op.exact
        for rtol in (1e-3, CG_RTOL):
            x = op.solve(rhs, rtol=rtol)
            assert op.iterations > 0
            assert np.linalg.norm(rhs - operator_matrix(op) @ x) <= rtol * np.linalg.norm(rhs)


def _assert_matches_dense(op, rhs, x, rtol):
    expected = np.linalg.solve(operator_matrix(op).toarray(), rhs)
    assert np.linalg.norm(x - expected) <= rtol * np.linalg.norm(expected)


def test_exact_where_the_remainder_meets_the_solve_tolerance():
    # a bump of size b at one node leaves a remainder R of about 0.87 b
    # after the split (15^2 nodes), and the solve of the additive part then
    # a relative residual of up to max|R| / lambda_min: below CG_RTOL the
    # operator is exact, above it CG runs, preconditioned by that solve,
    # which the bound overstates: one or two iterations meet CG_RTOL
    grid = build_grid(2, [15, 15], [(0.0, 1.0)] * 2)
    V = harmonic_potential(grid, 20.0).values
    lam_min = np.linalg.eigvalsh(operator_matrix(
        LinearOperator(A0, Problem(grid, GridFunction(grid, V), 0.0))).toarray())[0]
    rhs = np.random.default_rng(7).standard_normal(grid.dof)
    for factor, exact in ((0.25, True), (4.0, False)):
        bumped = V.copy()
        bumped[grid.dof // 3] += factor * CG_RTOL * lam_min
        op = LinearOperator(A0, Problem(grid, GridFunction(grid, bumped), 0.0))
        assert op.exact is exact
        _assert_matches_dense(op, rhs, op.solve(rhs), 1e-12)
        assert op.iterations <= 2
    # a steep trap off the unit box misses the bound (max|R| ~ 8 CG_RTOL
    # lambda_min) by the same worst case
    grid = build_grid(2, [15, 15], [(-1.0, 2.0), (0.5, 3.0)])
    op = LinearOperator(A0, Problem(grid, harmonic_potential(grid, 1000.0), 0.0))
    assert not op.exact
    op.solve(rhs)
    assert op.iterations <= 2
    # a potential too deep for its grid: a0 on harmonic:1e100 is additive,
    # but its split's rounding (~eps max V ~ 1e184) swamps lambda_min, so
    # its solves run CG, which the additive part's solve preconditions
    # well enough to meet CG_RTOL
    grid = build_grid(2, [7, 7], [(0.0, 1.0)] * 2)
    op = LinearOperator(A0, Problem(grid, harmonic_potential(grid, 1e100), 1e100))
    assert not op.exact
    rhs = np.ones(grid.dof)
    _assert_matches_dense(op, rhs, op.solve(rhs), 1e-12)
    assert op.iterations > 0


@st.composite
def nonadditive_problems(draw, max_n=15):
    """A 2D or 3D grid of 2 to ``max_n`` nodes per axis whose potential is
    a random additive part (at most 300) plus noise over the whole grid of
    a drawn size (at most 10^3.9), so V >= 0 stays under 1e4 and is not
    additive; beta = 0, and a seeded generator."""
    dim = draw(st.integers(2, 3))
    n = draw(st.lists(st.integers(2, max_n), min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    grid = build_grid(dim, n, [(0.0, length) for length in lengths])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = 10.0 ** draw(st.floats(-16.0, 3.9)) * rng.uniform(0.0, 1.0, grid.n)
    for axis, k in enumerate(grid.n):
        shape = [1] * dim
        shape[axis] = k
        V = V + draw(st.sampled_from([0.0, 1.0, 100.0])) * rng.uniform(0.0, 1.0, k).reshape(shape)
    return Problem(grid, GridFunction(grid, V.ravel()), 0.0), rng


def _split_bound(prob, matrix):
    """max|R| and lambda_min(A') of the potential's split into mean,
    per-axis marginal means and remainder R, A' = A - diag(R) being the
    additive part's operator; computed as the split is."""
    v = prob.V.values.reshape(prob.grid.n)
    mean = float(np.mean(v))
    remainder = v - mean
    for axis, k in enumerate(prob.grid.n):
        shape = [1] * prob.grid.dim
        shape[axis] = k
        marginal = np.moveaxis(v, axis, 0).reshape(k, -1).mean(axis=1) - mean
        remainder = remainder - marginal.reshape(shape)
    lam_min = np.linalg.eigvalsh(matrix - np.diag(remainder.ravel()))[0]
    return float(np.max(np.abs(remainder))), lam_min


@PROPERTY_SETTINGS
@given(nonadditive_problems())
def test_potential_solves_match_dense_solve(case):
    # the a0 operator, and the a_u operator at beta = 0, solve -Laplacian
    # + V with the additive part's bases, exactly when the remainder's
    # bound meets CG_RTOL and as CG's preconditioner otherwise; either way
    # the result is the dense solve's, from any start.  Both operators' D is
    # V bit for bit, so they share one dense matrix, split bound and
    # Cholesky factorization
    prob, rng = case
    dof = prob.grid.dof
    base = GridFunction(prob.grid, rng.uniform(-2.0, 2.0, dof))
    au = Metric(MetricKind.AU, base=base)
    assert np.array_equal(au.diagonal_term(prob), prob.V.values)
    matrix = operator_matrix(LinearOperator(A0, prob)).toarray()
    max_r, lam_min = _split_bound(prob, matrix)
    factors = scipy.linalg.cho_factor(matrix)
    for metric in (A0, au):
        op = LinearOperator(metric, prob)
        assert op.exact is bool(max_r <= CG_RTOL * lam_min)
        rhs = rng.standard_normal(dof)
        expected = scipy.linalg.cho_solve(factors, rhs)
        for x0 in (None, rng.standard_normal(dof)):
            x = op.solve(rhs, x0=x0)
            assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_indefinite_additive_part_keeps_the_sine_preconditioner():
    # V = 1e4 but for a zero cross through the centre of 15^2 nodes: the
    # marginal means there sit ~1e4 below the mean, which outweighs the
    # Laplacian, so A' is indefinite and cannot precondition CG; the
    # mean-shifted sine basis does
    grid = build_grid(2, [15, 15], [(0.0, 1.0)] * 2)
    V = np.full(grid.n, 1e4)
    V[7, :] = V[:, 7] = 0.0
    op = LinearOperator(A0, Problem(grid, GridFunction(grid, V.ravel()), 0.0))
    assert greens._potential_basis(op.problem) is None
    assert not op.exact
    rhs = np.random.default_rng(8).standard_normal(grid.dof)
    sine = greens.laplacian_inverse(grid, op.diagonal_term)
    np.testing.assert_array_equal(op._inverse(rhs), sine(rhs))
    x = op.solve(rhs)
    assert op.iterations > 0
    assert np.linalg.norm(rhs - operator_matrix(op) @ x) <= CG_RTOL * np.linalg.norm(rhs)


@pytest.mark.parametrize("dim, n, most", [(2, 63, 20), (3, 19, 26)])
def test_well_a0_solve_is_preconditioned_by_the_additive_part(dim, n, most):
    # a cold a0 solve on the well: preconditioned by the exact solve of the
    # potential's additive part it takes 20 (2D-63^2) and 26 (3D-19^3)
    # iterations, against 32 and 33 with the sine basis shifted by mean(V)
    prob = well_problem(n=n, dim=dim)
    op = LinearOperator(A0, prob)
    assert not op.exact and op._inverse is greens._potential_basis(prob)[0]
    rhs = np.random.default_rng(1).standard_normal(prob.grid.dof)
    x = op.solve(rhs)
    assert 0 < op.iterations <= most
    assert np.linalg.norm(rhs - operator_matrix(op) @ x) <= CG_RTOL * np.linalg.norm(rhs)


def test_solved_problems_leave_no_basis_behind():
    # the caches hold the last problem's bases alone: once a0 has been
    # solved on three problems in turn and they are dropped, the first two
    # are freed, and a new operator on the third reuses its basis
    problems = [make_problem(n=n, dim=2) for n in (15, 17, 19)]
    for prob in problems:
        run(prob, RunConfig(scheme=MetricKind.A0, max_iter=3))
    refs = [weakref.ref(prob) for prob in problems]
    last = problems[-1]
    del problems, prob
    gc.collect()
    assert [ref() is None for ref in refs] == [True, True, False]
    misses = greens._potential_basis.cache_info().misses
    assert LinearOperator(A0, last).exact
    assert greens._potential_basis.cache_info().misses == misses


def test_solves_on_a_run_of_grids_hold_one_sine_basis():
    # H1 solves on 2D grids 8^2 ... 64^2 in turn, each grid dropped after,
    # leave only the last grid's sine basis held: S_64 and its spectrum,
    # 65 KB, where one S_n kept per length would be about 760 KB
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for n in range(8, 65):
            prob = make_problem(n=n, dim=2)
            solve_green(H1, prob, GridFunction(prob.grid, np.ones(prob.grid.dof)))
        del prob
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert held < 128 * 1024, held


def test_potential_bases_are_built_once_per_problem():
    prob = make_problem(n=15, beta=0.0, dim=2)
    base = GridFunction(prob.grid, np.ones(prob.grid.dof))
    ops = [LinearOperator(A0, prob), LinearOperator(Metric(MetricKind.AU, base=base), prob)]
    assert all(op.exact for op in ops)
    assert ops[0]._inverse is ops[1]._inverse
