"""Green's operators of the H1, a0 and a_u metrics, as SPD solves
A_X g = w with A_X = -Laplacian + D, D from ``Metric.diagonal_term``.

``LinearOperator`` holds one operator and one map r -> M^-1 r, its exact
inverse or the preconditioner of its CG, and says which metric and grid
take which map.  The maps are ``laplacian_inverse`` (tridiagonal factors on
one axis, a shifted DST-I pair on more, and the package's only scipy
imports) and ``_potential_basis`` (the potential's per-axis eigenbases).
``solve_green`` is one solve.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np

from .grid import (
    DENSE_SINE_MAX, Grid, GridFunction, GridMismatchError, Metric, MetricKind, axis_products,
    neg_laplacian, sine_basis,
)
from .problem import Problem

# CG stops once its residual ||b - A x||_2 is at most rtol ||b||_2; rtol is
# CG_RTOL unless the caller passes its own
CG_RTOL = 1e-13


class GreenSolveError(RuntimeError):
    """Preconditioned CG did not reach its tolerance within its iteration
    cap, or a tridiagonal operator was not positive definite."""


def laplacian_inverse(grid: Grid, shift) -> Callable[[np.ndarray], np.ndarray]:
    """The map r -> (-Laplacian + shift)^-1 r for one vector r (dof,);
    ``shift`` is a scalar or one value per node.  The package imports scipy
    here alone, when first needed, so that other grids never load it.

    On a one-axis grid it is exact for every shift: one L D L^T
    factorization, taken here, of the stencil's tridiagonal (2/h^2 on the
    diagonal, -1/h^2 off it) plus the shift, and one ``dpttrs`` per apply.
    LAPACK's wrapper asks for an off-diagonal of at least one entry, which
    a one-node grid does not read.  Raises GreenSolveError when the matrix
    is not positive definite.  On two or three axes it is one orthonormal
    DST-I pair with the sine eigenvalues shifted by mean(shift): exact when
    the shift is constant, and otherwise the inverse of -Laplacian +
    mean(shift).  On axes of at most DENSE_SINE_MAX nodes each transform is
    ``axis_products`` with ``sine_basis``' factors, bound here once, since
    scipy's per-call overhead dominates there.  A longer axis takes
    ``scipy.fft.dstn`` (~0.1 s to import), where a dense product's O(n)
    cost per unknown loses to the FFT and S_n would take n^2 doubles: the
    2D crossover, measured at about 128 nodes per axis.  The operators'
    maps and the eigensolve's preconditioner both call it.
    """
    if grid.dim > 1:
        shift = np.asarray(shift)  # its mean as np.mean takes it, sum / size
        eig, factors = sine_basis(grid)
        eig = eig.ravel() + float(np.add.reduce(shift, axis=None)) / shift.size
        if factors is None:
            from scipy.fft import dstn

            eig, dst = eig.reshape(grid.n), functools.partial(dstn, type=1, norm="ortho")
            return lambda r: dst(dst(r.reshape(grid.n)) / eig).ravel()
        return lambda r: axis_products(grid, axis_products(grid, r, factors) / eig, factors)
    from scipy.linalg.lapack import dpttrf, dpttrs

    (n,), (h,) = grid.n, grid.h
    main = np.full(n, 2.0 / h**2) + shift
    d, e, info = dpttrf(main, np.full(max(n - 1, 1), -1.0 / h**2))
    if info != 0:
        raise GreenSolveError(f"tridiagonal operator not positive definite (dpttrf info {info})")
    return lambda r: dpttrs(d, e, r)[0]


@functools.lru_cache(maxsize=1)
def _potential_basis(problem: Problem):
    """The map r -> A'^-1 r for -Laplacian + V's additive part A', and
    whether it is exact for -Laplacian + V: (inverse, exact), or None.  The
    cache holds the basis of the problem asked for last, and only it: an
    operator on another problem replaces it, so no finished problem stays
    alive in it.

    V splits into its mean m, its per-axis marginal means d_i(x_i) (the mean
    over the other axes, less m) and a remainder R.  A' is the Kronecker sum
    of the SPD tridiagonals T_i = -Laplacian_i + d_i, plus m; each
    T_i = Q_i diag(lambda_i) Q_i^T (``numpy.linalg.eigh`` of the dense T_i),
    so the eigenvectors of A' are the tensor products of the Q_i and its
    eigenvalues the sums m + lambda_1 + ... + lambda_d (the fast
    diagonalization of Lynch, Rice and Thomas, Numer. Math. 6, 1964, whose
    constant-D case is the DST-I pair of ``laplacian_inverse``).  The
    inverse applies the Q_i^T along each axis (``grid.axis_products``),
    divides by those sums and applies the Q_i.  Solving A' x = b leaves b - (A' + R) x = -R x, of
    relative size at most max|R| / lambda_min(A'); ``exact`` is whether that
    meets CG_RTOL (read when the basis is built), as it does to roundoff
    for the harmonic trap, and when it does not, A' preconditions CG.  Only
    grids of two or three axes ask for it.  None on a grid with an axis over
    DENSE_SINE_MAX nodes, where dense per-axis products lose to CG's
    transforms, and when A' is not positive definite (a negative marginal
    mean can outweigh the Laplacian), which no SPD preconditioner may be.
    """
    grid = problem.grid
    if max(grid.n) > DENSE_SINE_MAX:
        return None
    v = problem.V.values.reshape(grid.n)
    mean = float(np.mean(v))
    eig, remainder, forward, backward = mean, v - mean, [], []
    for axis, (n, h) in enumerate(zip(grid.n, grid.h)):
        # the mean of a contiguous (n, dof / n) copy: numpy sums each row
        # pairwise, so the split's rounding barely grows with the grid
        marginal = np.moveaxis(v, axis, 0).reshape(n, -1).mean(axis=1) - mean
        remainder = remainder - grid.along(axis, marginal)
        off = np.diag(np.full(n - 1, -1.0 / h**2), 1)
        lam, q = np.linalg.eigh(np.diag(2.0 / h**2 + marginal) + off + off.T)
        q, qt = np.ascontiguousarray(q), np.ascontiguousarray(q.T)
        forward.append((qt, q))
        backward.append((q, qt))
        eig = eig + grid.along(axis, lam)
    lam_min = float(np.min(eig))
    if not lam_min > 0.0:
        return None
    eig = eig.ravel()
    exact = bool(np.max(np.abs(remainder)) <= CG_RTOL * lam_min)
    return lambda r: axis_products(grid, axis_products(grid, r, forward) / eig, backward), exact


class LinearOperator:
    """The SPD operator A_X of a metric: the grid's -Laplacian plus the
    metric's diagonal term D (``Metric.diagonal_term``).

    ``solve`` is the one Green's solve of the package.  The operator holds
    one map r -> M^-1 r, chosen at construction, and ``exact`` says whether
    it is A_X^-1 itself.  It is on a one-axis grid, by tridiagonal factors
    taken at construction (``laplacian_inverse`` with shift D); on more axes
    when D is constant, by the sine transform (``laplacian_inverse``), and
    when D is a potential additive across the axes (a0, and a_u at
    beta = 0) up to a remainder that moves the residual by at most CG_RTOL,
    by its per-axis eigenbases (``_potential_basis``).  Otherwise the map
    is the preconditioner of conjugate gradients, optionally warm-started:
    the same eigenbases when D is a potential (such as a well), and the sine
    transform shifted by mean(D) (the kinetic preconditioner of Antoine,
    Levitt and Tang) for a_u at beta > 0, an axis over DENSE_SINE_MAX nodes
    or a potential whose additive part is not positive definite.  A new
    operator per a_u step costs one factorization on one axis, about as much
    as a solve, and one scan of D on more axes.  A one-axis operator that is not positive definite raises
    GreenSolveError at construction.
    """

    def __init__(self, metric: Metric, problem: Problem):
        self.metric = metric
        self.problem = problem
        self.grid = problem.grid
        self.diagonal_term = d = metric.diagonal_term(problem)
        self.exact = self.grid.dim == 1 or not (d != d[0]).any()
        basis = None
        if not self.exact and (metric.kind is MetricKind.A0 or problem.beta == 0.0):
            basis = _potential_basis(problem)
        if basis is None:
            basis = laplacian_inverse(self.grid, d), self.exact
        self._inverse, self.exact = basis  # r -> M^-1 r: A_X^-1 or CG's preconditioner
        self.iterations = 0  # CG iterations of the last solve

    def apply(self, values: np.ndarray) -> np.ndarray:
        """A_X values: the grid's stencil plus D values."""
        y = neg_laplacian(self.grid, values)  # a fresh array: D values is added in place
        y += self.diagonal_term * values
        return y

    def solve(
        self, rhs: np.ndarray, x0: np.ndarray | None = None, rtol: float | None = None
    ) -> np.ndarray:
        """Solve A_X x = rhs to relative residual rtol, from x0 if given.

        ``rtol`` None means the module's CG_RTOL, read at call time.  A zero
        rhs returns +0.0 zeros at once, and this test stays ahead of the
        exact map: the maps answer zeros with signed zeros, ``dpttrs`` -0.0
        for -0.0 entries and ``scipy.fft.dstn`` on a long axis -0.0 for
        +0.0 ones, and a zero rhs holding -0.0 is common (V u on V = 0).  An
        ``exact`` operator runs no CG iteration and ignores x0 and rtol: it
        applies its map, which is then A_X^-1, once.  Otherwise CG starts at
        x0 (zero when None) from the explicitly computed residual rhs - A x0,
        and stops once the residual norm is at most rtol times that of rhs,
        whatever the start; a start that already meets the test is returned
        without iterating.  A close start, such as the previous
        step's solution along a gradient flow, only shortens the solve.  (The
        updated residual the test reads drifts from the true one by about
        eps * ||A x0||, so a start much larger than the solution raises the
        true residual's floor.)  The number of CG iterations run is left in
        ``self.iterations``: 0 for an exact operator, a zero rhs or a start
        that meets the test.

        Raises GreenSolveError, naming the rtol it missed, on breakdown or
        after 2 * grid.dof iterations.
        In exact arithmetic CG terminates within grid.dof iterations; in
        floating point it loses that finite termination, and on grids of a
        few dozen unknowns, where termination rather than the preconditioned
        rate ends the solve, high-contrast a_u operators need up to
        ~1.5 * grid.dof.
        """
        self.iterations = 0
        b = np.asarray(rhs, dtype=float)
        if not b.any():
            return np.zeros_like(b)
        if self.exact:
            return self._inverse(b)
        if rtol is None:
            rtol = CG_RTOL
        # ||r||_2 as np.linalg.norm takes it: one ddot, one correctly rounded root
        target = rtol * math.sqrt(float(b.dot(b)))
        if x0 is None:
            x = np.zeros_like(b)
            r = b.copy()
        else:
            x = np.array(x0, dtype=float)
            r = b - self.apply(x)
            if math.sqrt(float(r.dot(r))) <= target:
                return x
        z = self._inverse(r)
        p = z
        rz = float(r.dot(z))
        for self.iterations in range(1, 2 * self.grid.dof + 1):
            ap = self.apply(p)
            curvature = float(p.dot(ap))
            if not (rz > 0.0 and curvature > 0.0):  # breakdown: roundoff has won
                break
            step = rz / curvature
            x += step * p
            r -= step * ap
            if math.sqrt(float(r.dot(r))) <= target:
                return x
            z = self._inverse(r)
            rz_next = float(r.dot(z))
            # in place, bit for bit: p is the first z, a fresh array no cache holds
            p *= rz_next / rz
            p += z
            rz = rz_next
        raise GreenSolveError(
            f"preconditioned CG stopped short of relative residual {rtol:g} "
            f"(iteration cap {2 * self.grid.dof})"
        )


def solve_green(metric: Metric, problem: Problem, w: GridFunction) -> GridFunction:
    """Apply the Green's operator of the metric: solve A_X g = w.

    With uniform quadrature weights g satisfies the adjoint identity
    (z, g)_X = (z, w)_L2 for every z.  One solve through a fresh
    LinearOperator; a zero right-hand side short-circuits to zero output.
    """
    if w.grid != problem.grid:
        raise GridMismatchError("right-hand side does not live on the problem grid")
    return GridFunction(problem.grid, LinearOperator(metric, problem).solve(w.values))
