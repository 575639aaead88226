import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpflow import spectral
from gpflow.flows import RunConfig, initial_guess, run
from gpflow.greens import LinearOperator
from gpflow.grid import (
    A0, GridFunction, H1, Metric, MetricKind, build_grid, neg_laplacian_norm, norm_l2,
)
from gpflow.problem import Problem, harmonic_potential, well_potential, zero_potential
from gpflow.spectral import (
    EigenSolveError,
    EigengapDegenerateError,
    SpectralReport,
    estimate_poincare,
    fit_rate,
    laplacian_min_eigenvalue,
    linearized_operator,
    lowest_two_eigen,
)
from oracles import operator_matrix


def linear_problem(n, dim=1):
    grid = build_grid(dim, [n] * dim, [(0.0, 1.0)] * dim)
    return Problem(grid, zero_potential(grid), 0.0)


def test_lowest_two_eigen_closed_form_1d():
    # n=3, h=1/4: lambda_k = 32 (1 - cos(k pi/4))
    prob = linear_problem(3)
    op = LinearOperator(H1, prob)
    report = lowest_two_eigen(op)
    assert report.lambda0 == pytest.approx(32.0 * (1.0 - math.cos(math.pi / 4)))
    assert report.lambda1 == pytest.approx(32.0)
    assert norm_l2(report.v0) == pytest.approx(1.0)


def test_estimate_poincare_hand_oracle():
    prob = linear_problem(3)
    lam0 = 32.0 * (1.0 - math.cos(math.pi / 4))
    assert estimate_poincare(prob.grid) == pytest.approx(1.0 / math.sqrt(lam0))


@st.composite
def small_operators(draw, dims=st.integers(1, 3), nodes=st.integers(1, 7)):
    """An H1, a0 or a_u operator on a random grid with 3 or more unknowns,
    by default 1D-3D with <= 7 nodes per axis, with random V >= 0, beta >= 0
    and a_u base."""
    dim = draw(dims)
    n = draw(st.lists(nodes, min_size=dim, max_size=dim))
    assume(math.prod(n) >= 3)
    lengths = draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    grid = build_grid(dim, n, [(0.0, length) for length in lengths])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v_scale = draw(st.sampled_from([0.0, 1.0, 100.0]))
    V = GridFunction(grid, v_scale * rng.uniform(0.0, 1.0, grid.dof))
    prob = Problem(grid, V, draw(st.sampled_from([0.0, 10.0, 100.0])))
    base = GridFunction(grid, rng.uniform(-2.0, 2.0, grid.dof))
    metric = draw(st.sampled_from([H1, A0, Metric(MetricKind.AU, base=base)]))
    return LinearOperator(metric, prob)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_operators())
def test_lowest_two_eigen_matches_dense(op):
    vals = scipy.linalg.eigvalsh(operator_matrix(op).toarray())
    report = lowest_two_eigen(op)
    assert report.lambda0 == pytest.approx(vals[0], rel=1e-10)
    assert report.lambda1 == pytest.approx(vals[1], rel=1e-10)
    assert norm_l2(report.v0) == pytest.approx(1.0, rel=1e-12)
    resid = op.apply(report.v0.values) - report.lambda0 * report.v0.values
    assert np.linalg.norm(resid) <= 1e-10 * report.lambda0 * np.linalg.norm(report.v0.values)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.one_of(
        small_operators(dims=st.just(1), nodes=st.integers(10, 40)),
        small_operators(dims=st.just(2), nodes=st.integers(8, 15)),
        small_operators(dims=st.just(3), nodes=st.integers(5, 7)),
    )
)
def test_lowest_two_eigen_matches_dense_iterating(op):
    # grids large enough that the solver iterates, on one axis (where the
    # preconditioner is tridiagonal) and on two and three (sine transforms)
    vals = scipy.linalg.eigvalsh(operator_matrix(op).toarray())
    report = lowest_two_eigen(op)
    assert report.lambda0 == pytest.approx(vals[0], rel=1e-10)
    assert report.lambda1 == pytest.approx(vals[1], rel=1e-10)
    resid = op.apply(report.v0.values) - report.lambda0 * report.v0.values
    assert np.linalg.norm(resid) <= 1e-10 * report.lambda0 * np.linalg.norm(report.v0.values)


def test_lowest_two_eigen_iterations_on_the_2d_well():
    # the linearization at the h1 ground state of the 2D-63 well, beta = 100:
    # 47 iterations, as scipy's lobpcg took on the same start block and
    # preconditioner; the bound is that count plus 10%
    grid = build_grid(2, [63, 63], [(0.0, 1.0)] * 2)
    prob = Problem(grid, well_potential(grid, 1000.0, 0.25, 0.75), 100.0)
    report = run(prob, RunConfig(scheme=MetricKind.H1))
    spec = lowest_two_eigen(linearized_operator(prob, report.final))
    assert 0 < spec.iterations <= 51
    assert max(spec.residuals) <= spec.tol / 10


def test_lowest_two_eigen_triply_degenerate_lambda1():
    # a centered harmonic potential on a cube: the first excited level is
    # the three axis-aligned modes
    grid = build_grid(3, [7] * 3, [(0.0, 1.0)] * 3)
    op = LinearOperator(A0, Problem(grid, harmonic_potential(grid, 20.0), 0.0))
    vals = scipy.linalg.eigvalsh(operator_matrix(op).toarray())
    assert vals[2] - vals[1] < 1e-9 * vals[1] and vals[3] - vals[1] < 1e-9 * vals[1]
    report = lowest_two_eigen(op)
    assert report.lambda0 == pytest.approx(vals[0], rel=1e-10)
    assert report.lambda1 == pytest.approx(vals[1], rel=1e-10)


def test_lowest_two_eigen_nearly_degenerate_pockets():
    # two equal pockets in a rough 1e4 plateau: lambda1 - lambda0 is 3.5e-6
    # of lambda0, and the solver needs about 80 iterations, long enough for
    # an implicitly updated A P to drift to overflow
    grid = build_grid(2, [31, 31], [(0.0, 1.0)] * 2)
    x, y = np.meshgrid(grid.axis_coords(0), grid.axis_coords(1), indexing="ij")
    V = 1e4 + 10.0 * np.random.default_rng(0).uniform(0.0, 1.0, grid.n)
    for centre in (0.25, 0.75):
        V[(abs(x - centre) < 0.1) & (abs(y - 0.5) < 0.1)] = 0.0
    op = LinearOperator(A0, Problem(grid, GridFunction(grid, V.ravel()), 0.0))
    vals = scipy.linalg.eigvalsh(operator_matrix(op).toarray(), subset_by_index=(0, 1))
    assert vals[1] - vals[0] < 1e-5 * vals[0]
    report = lowest_two_eigen(op)
    assert report.lambda0 == pytest.approx(vals[0], rel=1e-10)
    assert report.lambda1 == pytest.approx(vals[1], rel=1e-10)
    assert max(report.residuals) <= report.tol


def test_lowest_two_eigen_at_roundoff_floor():
    # at 1D-2047 the residual's roundoff floor eps * ||A||_inf lies above
    # 1e-10 * lambda_min(-Laplacian), so the floor term sets the tolerance
    grid = build_grid(1, [2047], [(0.0, 1.0)])
    prob = Problem(grid, harmonic_potential(grid, 20.0), 100.0)
    report = run(prob, RunConfig(scheme=MetricKind.AU))
    op = linearized_operator(prob, report.final)
    A = operator_matrix(op)
    row_sum = float(abs(A).sum(axis=1).max())
    assert np.finfo(float).eps * row_sum > 1e-10 * laplacian_min_eigenvalue(grid)
    weyl = laplacian_min_eigenvalue(grid) + op.diagonal_term.min()
    assert 16 * np.finfo(float).eps * row_sum > 1e-10 * weyl
    spec = lowest_two_eigen(op)
    vals = scipy.linalg.eigvalsh_tridiagonal(
        A.diagonal(), A.diagonal(1), select="i", select_range=(0, 1)
    )
    assert spec.lambda0 == pytest.approx(vals[0], rel=1e-10)
    assert spec.lambda0 == pytest.approx(144.6880, rel=1e-6)
    assert spec.lambda1 == pytest.approx(vals[1], rel=1e-10)


@pytest.mark.parametrize(
    "n, lengths",
    [
        ([1], [1.0]),
        ([2], [1.0]),
        ([9], [1.0]),
        ([1, 4], [1.0, 2.0]),
        ([2, 2], [1.0, 1.0]),
        ([6, 3], [1.0, 1.5]),
        ([1, 2, 5], [1.0, 1.0, 2.0]),
        ([3, 3, 3], [1.0, 1.2, 0.7]),
    ],
)
def test_neg_laplacian_norm_is_the_matrix_row_sum(n, lengths):
    # the eigen tolerance's ||A||_inf from the stencil's row sums against the
    # CSR oracle, to 4 ulp, for a random D, a zero D, and a D whose maximum
    # sits on the first row, a corner, whose neighbours are fewest
    grid = build_grid(len(n), n, [(0.0, length) for length in lengths])
    oracle = LinearOperator(H1, Problem(grid, zero_potential(grid), 0.0))
    corner = np.zeros(grid.dof)
    corner[0] = 3.0 / min(grid.h) ** 2
    for D in (np.random.default_rng(0).uniform(0.0, 100.0, grid.dof), np.zeros(grid.dof), corner):
        oracle.diagonal_term = D
        expected = float(abs(operator_matrix(oracle)).sum(axis=1).max())
        assert abs(neg_laplacian_norm(grid, D) - expected) <= 4 * np.spacing(expected)


HIGH_CONTRAST = pytest.mark.parametrize(
    "n, beta, potential",
    [
        # strong interaction: lambda1 - lambda0 is 1e-5 of lambda0 at beta 1e6;
        # at 1D-1023 the residual meets tol only through its min D term
        (255, 1e4, None),
        (255, 1e6, None),
        (1023, 1e6, None),
        # steep potentials: V spans five orders of magnitude
        (255, 10.0, ("harmonic", 1e4)),
        (255, 10.0, ("well", 1e5, 0.25, 0.75)),
    ],
    ids=["beta1e4", "beta1e6", "beta1e6-1023", "harmonic1e4", "well1e5"],
)


@functools.cache
def high_contrast_operator(n, beta, potential):
    """The a_u operator at the a_u ground state of a 1D high-contrast problem."""
    grid = build_grid(1, [n], [(0.0, 1.0)])
    if potential is None:
        V = zero_potential(grid)
    elif potential[0] == "harmonic":
        V = harmonic_potential(grid, potential[1])
    else:
        V = well_potential(grid, *potential[1:])
    prob = Problem(grid, V, beta)
    report = run(prob, RunConfig(scheme=MetricKind.AU))
    return linearized_operator(prob, report.final)


@HIGH_CONTRAST
def test_lowest_two_eigen_high_contrast(n, beta, potential):
    # one LOBPCG call meets tol on a_u operators at u* far from the Laplacian
    op = high_contrast_operator(n, beta, potential)
    A = operator_matrix(op)
    vals = scipy.linalg.eigvalsh_tridiagonal(
        A.diagonal(), A.diagonal(1), select="i", select_range=(0, 1)
    )
    spec = lowest_two_eigen(op)
    assert spec.lambda0 == pytest.approx(vals[0], rel=1e-12)
    assert spec.lambda1 == pytest.approx(vals[1], rel=1e-12)
    resid = op.apply(spec.v0.values) - spec.lambda0 * spec.v0.values
    assert np.linalg.norm(resid) <= 1e-10 * spec.lambda0 * np.linalg.norm(spec.v0.values)


@HIGH_CONTRAST
def test_lowest_two_eigen_headroom_under_perturbed_preconditioner(monkeypatch, n, beta, potential):
    # LOBPCG is asked for tol / 10, so a preconditioner changed at roundoff
    # level still ends both pairs well inside the tol they are checked against
    unperturbed = spectral._eigen_preconditioner

    def perturbed(op, x):
        precondition = unperturbed(op, x)
        rng = np.random.default_rng(0)
        return lambda r: precondition(r) * (1.0 + 1e-14 * rng.standard_normal(r.shape))

    monkeypatch.setattr(spectral, "_eigen_preconditioner", perturbed)
    op = high_contrast_operator(n, beta, potential)
    spec = lowest_two_eigen(op)
    assert spec.iterations > 0
    assert len(spec.residuals) == 2 and max(spec.residuals) <= spec.tol / 2
    resid = op.apply(spec.v0.values) - spec.lambda0 * spec.v0.values
    assert np.linalg.norm(resid) <= spec.tol / 2 * np.linalg.norm(spec.v0.values)


def test_lowest_two_eigen_rejects_unconverged_pairs(monkeypatch):
    def start_unchanged(A, S, *args, **kwargs):
        return S[:2], np.array([A(x) for x in S[:2]]), 0

    monkeypatch.setattr(spectral, "_lobpcg", start_unchanged)
    grid = build_grid(2, [15, 15], [(0.0, 1.0)] * 2)
    op = LinearOperator(A0, Problem(grid, harmonic_potential(grid, 20.0), 0.0))
    with pytest.raises(RuntimeError, match="above tolerance") as info:
        lowest_two_eigen(op)
    assert not isinstance(info.value, EigengapDegenerateError)


harmonic_20 = functools.partial(harmonic_potential, omega=20.0)


def bump_linearization(dim, n, beta, potential=zero_potential):
    """The operator linearized at the default bump of a dim-D n^dim grid."""
    grid = build_grid(dim, [n] * dim, [(0.0, 1.0)] * dim)
    prob = Problem(grid, potential(grid), beta)
    return linearized_operator(prob, initial_guess(prob, "default_bump"))


@pytest.mark.parametrize(
    "dim, n, beta, match",
    [
        (2, 7, 1e150, "Rayleigh-Ritz broke down"),  # eigh does not converge
        (2, 7, 1e200, "Rayleigh-Ritz broke down"),  # no direction is kept
        (2, 7, 1e300, "Rayleigh-Ritz broke down"),
        (1, 63, 1e300, "Rayleigh-Ritz broke down"),
        (2, 15, 1e300, "Rayleigh-Ritz broke down"),
        (3, 7, 1e300, "Rayleigh-Ritz broke down"),
        (2, 7, 1e308, "above tolerance"),  # D overflows: NaN residuals
    ],
)
def test_lowest_two_eigen_breakdown_is_a_runtime_error(dim, n, beta, match):
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match=match) as info:
        lowest_two_eigen(bump_linearization(dim, n, beta))
    assert not isinstance(info.value, EigengapDegenerateError)


@pytest.mark.parametrize(
    "beta, stall, match",
    [
        (10.0, True, "above tolerance"),
        (1e150, False, "Rayleigh-Ritz broke down"),  # eigh raises LinAlgError
        (1e200, False, "broke down: 0 of 4 directions kept"),
    ],
)
def test_every_failed_eigensolve_is_an_eigen_solve_error(beta, stall, match, monkeypatch):
    # lowest_two_eigen's three failure paths; a degenerate gap is the fourth kind
    assert issubclass(EigengapDegenerateError, EigenSolveError)
    if stall:  # the start rows and their products back, unconverged
        monkeypatch.setattr(spectral, "_lobpcg",
                            lambda A, S, *args: (S[:2], np.array([A(x) for x in S[:2]]), 0))
    with np.errstate(all="ignore"), pytest.raises(EigenSolveError, match=match) as info:
        lowest_two_eigen(bump_linearization(2, 7, beta))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError) == (beta == 1e150)


def test_lowest_two_eigen_working_set():
    # the traced peak of one call, in vectors of the grid: the six rows of
    # S and of A S (the residuals R and the step P among the latter), and
    # the temporaries of one apply or preconditioner call (19.0 on this
    # operator)
    op = bump_linearization(3, 19, 100.0, harmonic_20)
    first = lowest_two_eigen(op)  # fills the sine-basis cache and imports scipy
    tracemalloc.start()
    try:
        report = lowest_two_eigen(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.lambda0, report.lambda1) == (first.lambda0, first.lambda1)
    assert peak < 21 * 8 * op.grid.dof


@pytest.mark.parametrize("dim, n", [(1, 63), (2, 15), (3, 7)])
def test_lowest_two_eigen_reads_explicit_products(monkeypatch, dim, n):
    # the products lowest_two_eigen takes from _lobpcg are op.apply of the
    # returned rows, bit for bit: no product updated from Ritz coefficients
    returned = []

    def recording(*args, **kwargs):
        returned.append(lobpcg(*args, **kwargs))
        return returned[-1]

    lobpcg = spectral._lobpcg
    monkeypatch.setattr(spectral, "_lobpcg", recording)
    op = bump_linearization(dim, n, 100.0, harmonic_20)
    report = lowest_two_eigen(op)
    (rows, products, iterations), = returned
    assert iterations == report.iterations > 0
    assert np.array_equal(products, np.array([op.apply(x) for x in rows]))


@pytest.mark.parametrize(
    "n, bounds",
    [
        ([9], [(0.0, 1.0)]),
        ([5, 7], [(0.0, 1.0), (0.0, 1.5)]),
        ([3, 4, 5], [(0.0, 1.0), (0.0, 1.2), (-0.5, 1.0)]),
        ([31, 31], [(0.0, 1.0), (0.0, 1.0)]),
    ],
)
def test_lowest_two_eigen_closed_form_laplacian(n, bounds):
    # beta = 0, V = 0: the eigenvalues are the sums of one per-axis eigenvalue
    # (2/h^2)(1 - cos(pi k h / (b - a))), k = 1..n, for each axis
    grid = build_grid(len(n), n, bounds)
    per_axis = [
        [(2.0 / h**2) * (1.0 - math.cos(math.pi * k * h / (b - a))) for k in range(1, m + 1)]
        for m, h, (a, b) in zip(grid.n, grid.h, grid.bounds)
    ]
    sums = sorted(sum(combo) for combo in itertools.product(*per_axis))
    report = lowest_two_eigen(LinearOperator(H1, Problem(grid, zero_potential(grid), 0.0)))
    assert report.lambda0 == pytest.approx(laplacian_min_eigenvalue(grid), rel=1e-10)
    assert report.lambda0 == pytest.approx(sums[0], rel=1e-10)
    assert report.lambda1 == pytest.approx(sums[1], rel=1e-10)


@pytest.mark.parametrize("dim, n", [(1, [1]), (1, [2]), (2, [1, 2])])
def test_lowest_two_eigen_needs_three_unknowns(dim, n):
    grid = build_grid(dim, n, [(0.0, 1.0)] * dim)
    with pytest.raises(ValueError):
        lowest_two_eigen(LinearOperator(H1, Problem(grid, zero_potential(grid), 0.0)))


def test_degenerate_gap_raises():
    class IdentityOp(LinearOperator):
        # an H1 operator whose matrix is the identity
        def apply(self, values):
            return values

        def solve(self, rhs):
            return rhs

    grid = build_grid(1, [4], [(0.0, 1.0)])
    with pytest.raises(EigengapDegenerateError):
        lowest_two_eigen(IdentityOp(H1, Problem(grid, zero_potential(grid), 0.0)))


def test_gap_factor_capped_at_one():
    grid = build_grid(1, [3], [(0.0, 1.0)])
    v0 = GridFunction(grid, [1.0, 1.0, 1.0])
    assert SpectralReport(1.0, 100.0, v0).gap_factor == 1.0
    assert SpectralReport(10.0, 14.0, v0).gap_factor == pytest.approx(0.1)


def test_linearized_operator_at_ground_state():
    grid = build_grid(1, [63], [(0.0, 1.0)])
    prob = Problem(grid, zero_potential(grid), 50.0)
    report = run(prob, RunConfig(scheme=MetricKind.H1))
    op = linearized_operator(prob, report.final)
    spec = lowest_two_eigen(op)
    # the converged multiplier is the smallest eigenvalue of the linearization
    assert spec.lambda0 == pytest.approx(report.final_record.gamma, rel=1e-8)
    assert spec.lambda1 > spec.lambda0


def test_fit_rate_exact_geometric():
    deltas = [0.5**k for k in range(12)]
    fit = fit_rate(deltas, threshold=math.inf)
    assert fit.rho == pytest.approx(0.5, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_rate_threshold_window():
    deltas = [100.0, 50.0] + [0.1 * 0.8**k for k in range(10)]
    fit = fit_rate(deltas, threshold=1.0)
    assert fit.rho == pytest.approx(0.8, rel=1e-10)


def test_fit_rate_needs_enough_points():
    with pytest.raises(ValueError):
        fit_rate([0.5, 0.25, 0.125], threshold=math.inf)


def test_fit_rate_constant_sequence():
    fit = fit_rate([1.0] * 8, threshold=math.inf)
    assert fit.rho == pytest.approx(1.0)
    assert fit.r_squared == 1.0
