import ast
import math
import pathlib

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from gpflow.grid import (
    A0,
    DENSE_SINE_MAX,
    GridFunction,
    GridMismatchError,
    H1,
    Metric,
    MetricKind,
    axis_products,
    build_grid,
    dirichlet_moments,
    inner,
    inner_l2,
    neg_laplacian,
    norm,
    norm_l2,
    sine_basis,
)
from gpflow.energy import retract
from gpflow.flows import initial_guess
from gpflow.problem import Problem, harmonic_potential, well_potential, zero_potential
from gpflow.spectral import laplacian_min_eigenvalue
from oracles import laplacian_matrix
from strategies import PROPERTY_SETTINGS, small_problems


def grid_1d(n=3, a=0.0, b=1.0):
    return build_grid(1, [n], [(a, b)])


def test_build_grid_spacing():
    g = grid_1d(3)
    assert g.h == (0.25,)
    assert g.dof == 3
    assert g.cell_volume == 0.25


def test_build_grid_2d():
    g = build_grid(2, [3, 7], [(0.0, 1.0), (-1.0, 1.0)])
    assert g.h == (0.25, 0.25)
    assert g.dof == 21
    assert g.cell_volume == pytest.approx(0.0625)


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid(4, [3, 3, 3, 3], [(0, 1)] * 4)
    with pytest.raises(ValueError):
        build_grid(1, [0], [(0, 1)])
    with pytest.raises(ValueError):
        build_grid(1, [3], [(1, 1)])
    with pytest.raises(ValueError):
        build_grid(2, [3], [(0, 1), (0, 1)])


def test_axis_coords_interior_only():
    g = grid_1d(3)
    np.testing.assert_allclose(g.axis_coords(0), [0.25, 0.5, 0.75])


def test_grid_function_validation():
    g = grid_1d(3)
    with pytest.raises(ValueError):
        GridFunction(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        GridFunction(g, [1.0, np.nan, 2.0])
    u = GridFunction(g, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        u.values[0] = 5.0  # read-only


def test_neg_laplacian_hand_oracle():
    # n=3, h=1/4: L u for u = (1,1,1) is (16, 0, 16)
    g = grid_1d(3)
    u = GridFunction(g, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(neg_laplacian(g, u.values), [16.0, 0.0, 16.0])


def test_neg_laplacian_2d_cross_stencil():
    g = build_grid(2, [3, 3], [(0.0, 1.0), (0.0, 1.0)])
    u = GridFunction(g, np.zeros(9))
    v = np.zeros((3, 3))
    v[1, 1] = 1.0
    u = GridFunction(g, v.ravel())
    out = neg_laplacian(g, u.values).reshape(g.n)
    # center: 4/h^2 per axis summed; neighbors: -1/h^2
    assert out[1, 1] == pytest.approx(2 * 2.0 / 0.25**2)
    assert out[0, 1] == pytest.approx(-16.0)
    assert out[1, 0] == pytest.approx(-16.0)
    assert out[0, 0] == 0.0


def test_inner_l2_uniform_weights():
    g = grid_1d(3)
    u = GridFunction(g, [1.0, 1.0, 1.0])
    assert inner_l2(u, u) == pytest.approx(0.75)
    assert norm_l2(u) == pytest.approx(math.sqrt(0.75))


def test_h1_inner_hand_oracle():
    # ||u||_H1^2 for u = (1,1,1) on n=3, h=1/4: only boundary edges contribute
    g = grid_1d(3)
    u = GridFunction(g, [1.0, 1.0, 1.0])
    assert inner(H1, None, u, u) == pytest.approx(8.0)


def test_summation_by_parts():
    rng = np.random.default_rng(3)
    g = build_grid(2, [5, 4], [(0.0, 1.0), (0.0, 2.0)])
    u = GridFunction(g, rng.standard_normal(g.dof))
    v = GridFunction(g, rng.standard_normal(g.dof))
    edge = inner(H1, None, u, v)
    pairing = inner_l2(GridFunction(g, neg_laplacian(g, u.values)), v)
    assert edge == pytest.approx(pairing, rel=1e-12)


def test_inner_bitwise_symmetric():
    rng = np.random.default_rng(4)
    g = build_grid(2, [6, 5], [(0.0, 1.0), (0.0, 1.0)])
    V = GridFunction(g, rng.uniform(0.0, 1000.0, g.dof))
    prob = Problem(g, V, beta=7.0)
    u = GridFunction(g, rng.standard_normal(g.dof))
    v = GridFunction(g, rng.standard_normal(g.dof))
    base = GridFunction(g, rng.standard_normal(g.dof))
    assert inner_l2(u, v) == inner_l2(v, u)
    for metric in (H1, A0, Metric(MetricKind.AU, base=base)):
        assert inner(metric, prob, u, v) == inner(metric, prob, v, u)


def test_metric_au_requires_base():
    with pytest.raises(ValueError):
        Metric(MetricKind.AU)


def test_a0_diagonal_term_is_the_potential_itself():
    # a0's D is V's own read-only values, no copy; H1's and a_u's are new
    grid = grid_1d(7)
    prob = Problem(grid, harmonic_potential(grid, 10.0), 10.0)
    d = A0.diagonal_term(prob)
    assert np.shares_memory(d, prob.V.values) and not d.flags.writeable
    base = GridFunction(grid, np.ones(grid.dof))
    for metric in (H1, Metric(MetricKind.AU, base=base)):
        d = metric.diagonal_term(prob)
        assert not np.shares_memory(d, prob.V.values) and d.flags.writeable


def test_grid_mismatch_raises():
    u = GridFunction(grid_1d(3), [1.0, 2.0, 3.0])
    v = GridFunction(grid_1d(3, b=2.0), [1.0, 2.0, 3.0])
    with pytest.raises(GridMismatchError):
        inner_l2(u, v)
    # a0 and a_u read V: their operands, and an a_u base, must live on V's
    # grid, also when only the bounds differ
    grid = grid_1d(7)
    prob = Problem(grid, harmonic_potential(grid, 10.0), 10.0)
    on = GridFunction(grid, np.arange(1.0, 8.0))
    for off in (GridFunction(grid_1d(7, b=2.0), on.values), GridFunction(grid_1d(5), on.values[:5])):
        for metric, w in ((A0, off), (Metric(MetricKind.AU, base=off), on),
                          (Metric(MetricKind.AU, base=off), off)):
            with pytest.raises(GridMismatchError):
                inner(metric, prob, w, w)


def test_problem_rejects_a_potential_off_its_grid():
    grid = grid_1d(7)
    with pytest.raises(GridMismatchError):
        Problem(grid, zero_potential(grid_1d(7, b=2.0)), 1.0)


def test_grid_mismatch_is_raised_in_one_function():
    # static: the package's one raise of GridMismatchError sits in
    # grid._require_grid, so every operand meets the same membership test
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "gpflow"
    raises = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, owner + [child.name])
                continue
            if isinstance(child, ast.Raise) and "GridMismatchError" in ast.unparse(child):
                raises.append((module, ".".join(owner)))
            visit(child, module, owner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, [])
    assert raises == [("grid", "_require_grid")], raises


@PROPERTY_SETTINGS
@given(st.data())
def test_per_axis_broadcasts_match_full_meshgrid_formulas(data):
    # Grid.along builds the potentials and the default start from one axis at
    # a time; each equals, bit for bit, the formula on full coordinate arrays
    dim = data.draw(st.integers(1, 3))
    n = data.draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim))
    starts = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim))
    lengths = data.draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim))
    grid = build_grid(dim, n, [(a, a + length) for a, length in zip(starts, lengths)])
    coords = np.meshgrid(*(grid.axis_coords(k) for k in range(dim)), indexing="ij")

    omega = data.draw(st.floats(0.0, 50.0))
    squares = np.zeros(grid.n)
    for (a, b), x in zip(grid.bounds, coords):
        squares += (x - 0.5 * (a + b)) ** 2
    expected = ((0.5 * omega**2) * squares).ravel()
    assert harmonic_potential(grid, omega).values.tobytes() == expected.tobytes()

    depth = data.draw(st.floats(0.0, 1e3))
    lo, hi = sorted(data.draw(st.lists(st.floats(-6.0, 16.0), min_size=2, max_size=2)))
    inside = np.ones(grid.n, dtype=bool)
    for x in coords:
        inside &= (x >= lo) & (x <= hi)
    if inside.any():
        expected = np.where(inside, 0.0, depth).ravel()
        assert well_potential(grid, depth, lo, hi).values.tobytes() == expected.tobytes()
    else:
        with pytest.raises(ValueError, match="holds no interior node"):
            well_potential(grid, depth, lo, hi)

    bump = np.ones(grid.n)
    for (a, b), x in zip(grid.bounds, coords):
        bump = bump * np.sin(math.pi * (x - a) / (b - a))
    expected = retract(GridFunction(grid, bump.ravel())).values
    start = initial_guess(Problem(grid, zero_potential(grid), 0.0), "default_bump")
    assert start.values.tobytes() == expected.tobytes()


def test_norm_positive_definite():
    rng = np.random.default_rng(5)
    g = grid_1d(17)
    prob = Problem(g, zero_potential(g), 1.0)
    u = GridFunction(g, rng.standard_normal(g.dof))
    assert norm_l2(u) > 0.0
    for metric in (H1, A0, Metric(MetricKind.AU, base=u)):
        assert norm(metric, prob, u) > 0.0


@PROPERTY_SETTINGS
@given(small_problems())
def test_summation_by_parts_property(case):
    prob, rng = case
    grid = prob.grid
    u = GridFunction(grid, rng.standard_normal(grid.dof))
    v = GridFunction(grid, rng.standard_normal(grid.dof))
    lap_u = GridFunction(grid, neg_laplacian(grid, u.values))
    # the edge form against w (-Laplacian u, v), to roundoff of the summed terms
    scale = grid.cell_volume * float(np.sum(np.abs(lap_u.values * v.values)))
    assert inner(H1, None, u, v) == pytest.approx(inner_l2(lap_u, v), rel=0.0, abs=1e-13 * scale)
    assert inner(H1, None, u, u) == inner(H1, None, u, GridFunction(grid, u.values))


@PROPERTY_SETTINGS
@given(
    st.lists(st.tuples(st.integers(1, 12), st.sampled_from([1.0, 2.0, 1.5])),
             min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
@example([(5, 1.0)] * 3, 0)  # one group of three equally spaced axes
@example([(3, 1.0), (7, 2.0), (4, 1.0)], 0)  # h = 1/4, 1/4, 1/5: a group and a single
@example([(1, 1.0), (2, 2.0), (12, 1.5)], 0)  # three groups, one- and two-node axes
def test_stencil_is_the_laplacian_matrix_property(axes, seed):
    # the padded-slice stencil against the CSR oracle, on boxes whose axes
    # share a spacing or not; the result is a fresh array
    n, lengths = zip(*axes)
    grid = build_grid(len(n), n, [(0.0, length) for length in lengths])
    x = np.random.default_rng(seed).standard_normal(grid.dof)
    y = neg_laplacian(grid, x)
    ref = laplacian_matrix(grid) @ x
    assert y.shape == x.shape
    np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-14 * np.max(np.abs(ref)))
    first = y.copy()
    y[:] = 7.0
    np.testing.assert_array_equal(neg_laplacian(grid, x), first)


@PROPERTY_SETTINGS
@given(small_problems())
def test_sine_spectrum_is_the_laplacian_spectrum_property(case):
    # the closed-form sine spectrum against a dense eigensolve of the one
    # -Laplacian matrix, on boxes with unequal sides
    grid = case[0].grid
    eig, _ = sine_basis(grid)
    dense = scipy.linalg.eigvalsh(laplacian_matrix(grid).toarray())  # ascending
    closed = np.sort(eig.ravel())
    np.testing.assert_allclose(closed, dense, rtol=1e-12, atol=0.0)
    assert laplacian_min_eigenvalue(grid) == closed[0]
    assert laplacian_min_eigenvalue(grid) == pytest.approx(dense[0], rel=1e-12)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(1, 40), min_size=2, max_size=3), st.integers(0, 2**32 - 1))
@example([DENSE_SINE_MAX, 2], 0)  # the longest dense axis: needs the exact reduction
def test_sine_transform_is_the_orthonormal_dst_property(n, seed):
    # a vector (dof,) through sine_basis' factors against scipy's DST-I over
    # the grid; the transform is its own inverse, and every S_n is symmetric.
    # Only two or three axes of at most DENSE_SINE_MAX nodes have factors:
    # one axis and longer axes take dpttrs and dstn (greens.laplacian_inverse).
    grid = build_grid(len(n), n, [(0.0, 1.0)] * len(n))
    _, factors = sine_basis(grid)
    x = np.random.default_rng(seed).standard_normal(grid.dof)
    y = axis_products(grid, x, factors)
    assert y.shape == x.shape
    ref = scipy.fft.dstn(x.reshape(grid.n), type=1, norm="ortho")
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(y, ref.reshape(x.shape), rtol=0.0, atol=1e-14 * scale)
    np.testing.assert_allclose(
        axis_products(grid, y, factors), x, rtol=0.0, atol=1e-14 * np.max(np.abs(x))
    )
    for k, (matrix, transposed) in zip(n, factors):
        # one S_n per distinct n, exactly symmetric
        assert matrix is transposed is factors[n.index(k)][0]
        assert np.array_equal(matrix, matrix.T)
    for other in (build_grid(1, n[:1], [(0.0, 1.0)]),
                  build_grid(2, [DENSE_SINE_MAX + 1, 2], [(0.0, 1.0)] * 2)):
        assert sine_basis(other)[1] is None


def _padded_difference_form(u, v):
    """The Dirichlet edge form from zero-padded differences, the reference
    for the H1 inner product's edge differences."""
    grid = u.grid
    total = 0.0
    for axis in range(grid.dim):
        du = np.diff(u.values.reshape(grid.n), axis=axis, prepend=0.0, append=0.0)
        dv = np.diff(v.values.reshape(grid.n), axis=axis, prepend=0.0, append=0.0)
        total += float(np.sum(du * dv)) / grid.h[axis] ** 2
    return grid.cell_volume * total


@PROPERTY_SETTINGS
@given(small_problems())
def test_edge_difference_sum_matches_padded_differences(case):
    prob, rng = case
    u = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    v = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    for a, b in ((u, v), (u, u)):
        scale = abs(_padded_difference_form(a, a)) + abs(_padded_difference_form(b, b))
        assert inner(H1, None, a, b) == pytest.approx(
            _padded_difference_form(a, b), rel=0.0, abs=1e-14 * scale
        )
    assert inner(H1, None, u, v) == inner(H1, None, v, u)


@PROPERTY_SETTINGS
@given(small_problems())
def test_dirichlet_moments_are_the_pairwise_forms(case):
    # one set of differences per function serves all three pairings, with
    # the pairwise form's arithmetic; 1-node axes have no interior edges
    prob, rng = case
    u = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    g = GridFunction(prob.grid, rng.standard_normal(prob.grid.dof))
    assert dirichlet_moments(prob.grid, u.values, g.values) == (
        inner(H1, None, u, u), inner(H1, None, g, u), inner(H1, None, g, g)
    )


def _slab_edge_forms(grid, xs, pairs):
    """The Dirichlet forms a(xs[i], xs[j]) built slab by slab: per axis, each
    function's n + 1 edges per line in a fresh array, the first and last
    slab copied and the interior differences taken between them, then one
    np.dot per pair, the axes summed in order, each over h^2, and the sum
    scaled by the cell volume.  The bitwise reference for the flat padded
    edge vectors of inner(H1) and dirichlet_moments."""
    totals = [0.0] * len(pairs)
    for axis, (n, h) in enumerate(zip(grid.n, grid.h)):
        shape = (math.prod(grid.n[:axis]), n, math.prod(grid.n[axis + 1:]))
        edges = []
        for x in xs:
            x3, e = x.reshape(shape), np.empty((shape[0], n + 1, shape[2]))
            e[:, 0], e[:, -1] = x3[:, 0], x3[:, -1]
            np.subtract(x3[:, 1:], x3[:, :-1], out=e[:, 1:-1])
            edges.append(e.ravel())
        totals = [t + float(np.dot(edges[i], edges[j])) / h**2 for t, (i, j) in zip(totals, pairs)]
    return [grid.cell_volume * total for total in totals]


@PROPERTY_SETTINGS
@given(
    st.lists(st.tuples(st.integers(1, 19), st.floats(0.5, 2.0)), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
@example([(1, 1.0), (1, 0.7), (1, 1.9)], 0)  # one-node axes: no interior edge anywhere
@example([(19, 0.5), (1, 2.0), (13, 1.3)], 0)  # a one-node middle axis
@example([(9, 1.0), (11, 0.6), (7, 1.7)], 0)  # three unequal axes and spacings
def test_dirichlet_forms_are_the_slab_edge_forms_bitwise(axes, seed):
    # the flat padded edge vector negates each line's last edge; the
    # products, and so every dot, keep their bits
    n, lengths = zip(*axes)
    grid = build_grid(len(n), n, [(0.0, length) for length in lengths])
    rng = np.random.default_rng(seed)
    u, g = (GridFunction(grid, rng.uniform(-1.0, 1.0, grid.dof)) for _ in range(2))
    pairs = ((0, 0), (1, 0), (1, 1))
    assert dirichlet_moments(grid, u.values, g.values) == tuple(
        _slab_edge_forms(grid, (u.values, g.values), pairs)
    )
    assert inner(H1, None, u, g) == _slab_edge_forms(grid, (u.values, g.values), ((0, 1),))[0]
    assert inner(H1, None, u, u) == _slab_edge_forms(grid, (u.values,), ((0, 0),))[0]
