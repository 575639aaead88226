"""Tensor-product box grids with zero Dirichlet boundaries (``Grid.along``
broadcasts per-axis values to their shape), functions on their interior
nodes, and the kernels of the discrete -Laplacian and its form:
``neg_laplacian`` (the stencil product), ``neg_laplacian_norm`` (its
inf-norm), ``sine_basis`` (its DST-I spectrum and eigenvectors),
``axis_products`` (the per-axis transforms the solves run) and
``_dirichlet_forms`` (the form a(u, v), which ``inner`` and
``dirichlet_moments`` read).  Each kernel's docstring says how it computes.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

# the longest axis on which the sine transform is a dense product
# (``greens.laplacian_inverse`` says why)
DENSE_SINE_MAX = 128


class GridMismatchError(ValueError):
    """Raised when operands live on different grids."""


class MetricKind(enum.Enum):
    """The metrics of the flows, each a form of -Laplacian + D, in scheme order."""

    H1 = "h1"
    A0 = "a0"
    AU = "au"


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid on an axis-aligned box.

    Attributes:
        dim: spatial dimension, 1, 2 or 3.
        bounds: per-axis (a, b) interval with a < b.
        n: per-axis interior node count (boundary nodes excluded).
        h: per-axis spacing, (b - a) / (n + 1).
    """

    dim: int
    bounds: tuple[tuple[float, float], ...]
    n: tuple[int, ...]
    h: tuple[float, ...]

    # derived once per instance: kernels read them with no arithmetic and no
    # cache lookup, which would hash the grid on every call
    @functools.cached_property
    def dof(self) -> int:
        return math.prod(self.n)

    @functools.cached_property
    def cell_volume(self) -> float:
        """Quadrature weight of one interior node."""
        return math.prod(self.h)

    @functools.cached_property
    def _axis_plan(self) -> tuple[tuple[int, int, int], ...]:
        """Per axis, the (before, n, after) view of the values: the nodes on
        the axes before it, on it and after it."""
        return tuple((math.prod(self.n[:axis]), n, math.prod(self.n[axis + 1:]))
                     for axis, n in enumerate(self.n))

    @functools.cached_property
    def _stencil_plan(self):
        """What ``neg_laplacian`` needs of the grid, as immutable numbers: the
        padded shape and size, the flat range [lo, hi) from the first interior
        node to the last, the interior's index, the diagonal sum_k 2/h_k^2, and
        one (1/h^2, strides) per group of axes with equal spacing h."""
        padded = tuple(n + 2 for n in self.n)
        size = math.prod(padded)
        strides = [math.prod(padded[axis + 1:]) for axis in range(self.dim)]
        groups: dict[float, list[int]] = {}
        for stride, h in zip(strides, self.h):
            groups.setdefault(h, []).append(stride)
        lo = sum(strides)
        return (padded, size, lo, size - lo, (slice(1, -1),) * self.dim,
                sum(2.0 / h**2 for h in self.h),
                tuple((1.0 / h**2, tuple(group)) for h, group in groups.items()))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Interior node coordinates along one axis."""
        a, b = self.bounds[axis]
        return np.linspace(a, b, self.n[axis] + 2)[1:-1]

    def along(self, axis: int, values: np.ndarray) -> np.ndarray:
        """Values (n[axis],) along one axis, as a view that broadcasts to the grid's shape."""
        return values.reshape([-1 if k == axis else 1 for k in range(self.dim)])


def build_grid(
    dim: int,
    n: list[int] | tuple[int, ...],
    bounds: list[tuple[float, float]] | tuple[tuple[float, float], ...],
) -> Grid:
    """Build a grid, validating dimension, counts and intervals."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if len(n) != dim or len(bounds) != dim:
        raise ValueError("n and bounds must have one entry per axis")
    n = tuple(int(k) for k in n)
    if any(k < 1 for k in n):
        raise ValueError(f"interior node counts must be >= 1, got {n}")
    bounds = tuple((float(a), float(b)) for a, b in bounds)
    if any(a >= b for a, b in bounds):
        raise ValueError(f"degenerate interval in bounds {bounds}")
    h = tuple((b - a) / (k + 1) for (a, b), k in zip(bounds, n))
    # the stencil weighs 1/h^2, which must be a positive finite float
    if not all(0.0 < hk * hk < math.inf and 1.0 / (hk * hk) < math.inf for hk in h):
        raise ValueError(f"grid spacing {h} out of range: 1/h^2 must be positive and finite")
    return Grid(dim=dim, bounds=bounds, n=n, h=h)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values at the interior nodes of a grid, in lexicographic order
    (last axis fastest), so serialized functions are portable.  Boundary
    values are implicitly zero, which encodes the zero-trace condition
    exactly."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size != self.grid.dof:
            raise ValueError(
                f"expected {self.grid.dof} values for grid {self.grid.n}, got {values.size}"
            )
        if not np.isfinite(values).all():
            raise ValueError("grid function contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class Metric:
    """One of the inner products H1, a0 or a_u: the forms of -Laplacian + D,
    with D from ``diagonal_term``.  The AU metric depends on a base function
    (the ``u`` in a_u); only AU reads one.
    """

    kind: MetricKind
    base: GridFunction | None = field(default=None)

    def __post_init__(self):
        if not isinstance(self.kind, MetricKind):
            raise ValueError(f"metric kind must be a MetricKind, got {self.kind!r}")
        if self.kind is MetricKind.AU and self.base is None:
            raise ValueError("AU metric requires a base function")

    def diagonal_term(self, problem) -> np.ndarray:
        """D (dof,) on the problem's grid: a new array for H1 (zeros) and
        for a_u (V + beta*base^2, whose base must live on that grid), and
        for a0 V's own read-only values, not a copy."""
        if self.kind is MetricKind.H1:
            return np.zeros(problem.grid.dof)
        if self.kind is MetricKind.A0:
            return problem.V.values
        if self.base.grid != problem.grid:
            raise GridMismatchError("AU base does not live on the problem grid")
        return problem.V.values + problem.beta * self.base.values**2


H1 = Metric(MetricKind.H1)
A0 = Metric(MetricKind.A0)


def _check_same_grid(*funcs: GridFunction) -> Grid:
    grid = funcs[0].grid
    for f in funcs[1:]:
        if f.grid is not grid and f.grid != grid:
            raise GridMismatchError("grid functions live on different grids")
    return grid


def neg_laplacian(grid: Grid, x: np.ndarray) -> np.ndarray:
    """-Laplacian x, for x (dof,) in the grid's order: the (2 dim + 1)-point
    central second difference, with zero Dirichlet boundary values.

    x is copied into a zero-padded array (one boundary layer per side), so
    along an axis of padded stride s both neighbours of flat node i sit at
    i - s and i + s, whether interior or boundary.  Every term is then one
    contiguous slice over the flat range from the first interior node to
    the last, the boundary nodes inside it computed and dropped: the
    diagonal sum_k 2/h_k^2 times x, less the neighbours of each group of
    axes with equal spacing h, summed and then scaled by 1/h^2.  Returns a
    new array.
    """
    padded, size, lo, hi, interior, diagonal, groups = grid._stencil_plan
    xp = np.zeros(size)
    xp.reshape(padded)[interior] = x.reshape(grid.n)
    y = np.empty(size)
    out = np.multiply(xp[lo:hi], diagonal, out=y[lo:hi])
    for scale, strides in groups:
        neighbours = xp[lo - strides[0]:hi - strides[0]] + xp[lo + strides[0]:hi + strides[0]]
        for s in strides[1:]:
            neighbours += xp[lo - s:hi - s]
            neighbours += xp[lo + s:hi + s]
        neighbours *= scale
        out -= neighbours
    return y.reshape(padded)[interior].ravel()


def neg_laplacian_norm(grid: Grid, diagonal_term: np.ndarray) -> float:
    """||A||_inf of A = -Laplacian + diag(D), from the stencil's entries:
    row i holds |sum_k 2/h_k^2 + D_i| on its diagonal and -1/h_k^2 for each
    interior neighbour along axis k (two, one next to the boundary, none on
    a one-node axis)."""
    off = np.zeros(grid.n)
    for axis, (n, h) in enumerate(zip(grid.n, grid.h)):
        neighbours = np.full(n, 2.0)
        neighbours[0] -= 1.0
        neighbours[-1] -= 1.0
        off = off + grid.along(axis, neighbours / h**2)
    diagonal = sum(2.0 / h**2 for h in grid.h)
    return float(np.max(np.abs(diagonal + diagonal_term) + off.ravel()))


@functools.lru_cache(maxsize=1)
def sine_basis(grid: Grid) -> tuple[np.ndarray, tuple | None]:
    """The fast diagonalization of the grid's -Laplacian by the DST-I (Lynch,
    Rice and Thomas, Numer. Math. 6, 1964): (eig, factors), read-only.  The
    cache holds the basis of the grid asked for last, and only it, keyed by
    the grid's value so that equal grids share one: a call on another grid
    replaces it.

    ``eig`` is the spectrum, shaped like the grid.  Along an axis with n
    nodes and spacing h the eigenvalue of the k-th sine mode is
    (4/h^2) sin^2(pi k / (2(n + 1))); the box operator is the Kronecker sum,
    so its eigenvalues broadcast to the grid's shape; the first entry (k = 1
    on every axis) is the smallest.

    ``factors`` is ``axis_products``' pair (S_n, S_n) per axis, on grids of
    two or three axes of at most DENSE_SINE_MAX nodes, and None on every
    other grid.  S_n is the orthonormal DST-I matrix, one per distinct n:
    S_jk = sqrt(2/(n+1)) sin(pi j k / (n+1)) for j, k = 1..n, with the
    argument reduced exactly: j k mod 2(n+1) is an integer, so the sine's
    argument stays in [0, 2 pi) and carries one rounding, not the error of
    pi j k for large j k.  S_n is exactly symmetric and S_n^2 = I.
    """
    eig = np.zeros(grid.n)
    for axis, (n, h) in enumerate(zip(grid.n, grid.h)):
        k = np.arange(1, n + 1)
        eig = eig + grid.along(axis, (4.0 / h**2) * np.sin(np.pi * k / (2 * (n + 1))) ** 2)
    eig.setflags(write=False)
    if grid.dim == 1 or max(grid.n) > DENSE_SINE_MAX:
        return eig, None
    matrices = {}
    for n in set(grid.n):
        j = np.arange(1, n + 1)
        phase = np.outer(j, j) % (2 * (n + 1))
        matrices[n] = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * phase / (n + 1))
        matrices[n].setflags(write=False)
    return eig, tuple((matrices[n],) * 2 for n in grid.n)


def axis_products(grid: Grid, x: np.ndarray, factors) -> np.ndarray:
    """x (dof,), in the grid's lexicographic order, multiplied by one dense
    matrix along every axis of the grid.

    ``factors`` holds one pair (M, M^T) per axis, both C-contiguous, so no
    transposed view reaches a matmul.  Along each axis x is viewed as
    (before, n, after) and multiplied by M: as M @ x (a matmul broadcast
    over ``before``), or as x @ M^T when nothing comes after the axis.
    This is the one kernel of the sine transform and of the per-axis
    eigenbases of the Green's solves (``greens``).
    """
    y = x
    for (before, n, after), (matrix, transposed) in zip(grid._axis_plan, factors):
        if after == 1:
            y = y.reshape(before, n) @ transposed
        else:
            y = matrix @ y.reshape(before, n, after)
    return y.reshape(x.shape)


def _dirichlet_forms(grid: Grid, xs, pairs) -> list[float]:
    """a(xs[i], xs[j]) for each (i, j) in ``pairs``: per axis the dot of
    two edge vectors over h^2, the axes summed in order, times cell_volume.

    On an axis viewed as (before, n, after) a line has n + 1 edges, both
    boundary ones included.  A function's edges are the one contiguous
    difference q[after:] - q[:m] of a flat copy q: ``after`` zeros, then the
    values as (before, n + 1, after) with a zero slab at index n, the outer
    neighbour of the next line's first node.  Each line's last edge comes
    out negated; it meets only last edges, and (-a)(-b) = ab exactly, so
    every dot keeps its bits.
    """
    totals = [0.0] * len(pairs)
    for (before, n, after), h in zip(grid._axis_plan, grid.h):
        m = before * (n + 1) * after
        edges = []
        for x in xs:
            q = np.zeros(after + m)
            q[after:].reshape(before, n + 1, after)[:, :n] = x.reshape(before, n, after)
            edges.append(q[after:] - q[:m])
        totals = [t + float(edges[i].dot(edges[j])) / h**2 for t, (i, j) in zip(totals, pairs)]
        del edges, q  # one axis's edges alive at a time, not two while the next are taken
    return [grid.cell_volume * total for total in totals]


def dirichlet_moments(grid: Grid, u: np.ndarray, g: np.ndarray) -> tuple[float, float, float]:
    """a(u, u), a(g, u) and a(g, g), each inner(H1)'s bit for bit."""
    return tuple(_dirichlet_forms(grid, (u, g), ((0, 0), (1, 0), (1, 1))))


def inner(metric: Metric, problem, u: GridFunction, v: GridFunction) -> float:
    """Discrete inner product in the given metric.

    H1 is the Dirichlet form a(u, v), summed over edges, boundary edges
    included: bitwise symmetric in (u, v), since every term is a product of
    one u-difference and one v-difference, summed in a fixed order, and
    algebraically equal to ``inner_l2`` of -Laplacian(u) and v (summation
    by parts).  a0 and a_u add the quadrature of D u v, D from
    ``Metric.diagonal_term``, and their operands must live on the problem's
    grid.  ``problem`` may be None for H1.
    """
    grid = _check_same_grid(u, v)
    xs = (u.values,) if v is u else (u.values, v.values)
    form = _dirichlet_forms(grid, xs, ((0, len(xs) - 1),))[0]
    if metric.kind is MetricKind.H1:
        return form
    _check_same_grid(u, problem.V)
    # the pointwise product u*v comes first so the form is bitwise symmetric
    return form + grid.cell_volume * float(np.sum(metric.diagonal_term(problem) * (u.values * v.values)))


def norm(metric: Metric, problem, u: GridFunction) -> float:
    """Norm induced by ``inner``."""
    return math.sqrt(inner(metric, problem, u, u))


def inner_l2(u: GridFunction, v: GridFunction) -> float:
    """Plain discrete L2 inner product, (prod h) * sum(u v)."""
    return _check_same_grid(u, v).cell_volume * float(u.values.dot(v.values))


def norm_l2(u: GridFunction) -> float:
    return math.sqrt(inner_l2(u, u))
