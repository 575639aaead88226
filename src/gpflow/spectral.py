"""Linearized spectrum at a candidate ground state, and rate fitting.

The linearized operator at u* is -Laplacian + V + beta*u*^2, i.e. the AU
metric operator based at u*.  Its two smallest eigenvalues give the gap
factor min{1, (lambda1 - lambda0) / (4 lambda0)} that controls the local
contraction of all three schemes.

Both eigenpairs come from one path at every grid size: LOBPCG (Knyazev, SIAM
J. Sci. Comput. 23, 2001; ``scipy.sparse.linalg.lobpcg``) on the operator's
matrix, preconditioned by the combined potential and kinetic preconditioner
of Antoine, Levitt and Tang (J. Comput. Phys. 343, 2017): a diagonal scaling
around the exact inverse of -Laplacian + shift (``laplacian_inverse``: a
tridiagonal factorization on one axis, a DST-I pair on more), with its
shifts read off the start vector's Rayleigh quotient
(``_eigen_preconditioner``).  No inner solve runs.  At a converged ground
state u* the start block already holds the ground eigenvector to the flow's
tolerance.  LOBPCG is asked for a tenth of
the residual tolerance that every returned pair is then checked against:
it stops on residuals it updates implicitly, which on steep potentials
leave the recomputed ones just under the bound it was given, and the
margin keeps roundoff-level changes of the preconditioner from pushing a
pair over.  The report carries
both residuals, the tolerance and LOBPCG's iteration count.  LOBPCG's own
non-convergence only warns.
The pure -Laplacian's spectrum needs no solver: it is the grid's closed-form
sine spectrum (``grid.sine_basis``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .grid import Grid, GridFunction, GridMismatchError, Metric, MetricKind, sine_basis
from .greens import LinearOperator
from .problem import Problem


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Two smallest eigenpairs of the linearized operator.

    ``residuals`` are ||A v - lambda v|| / ||v|| of both pairs, ``tol`` the
    bound they were checked against and ``iterations`` LOBPCG's iteration
    count; None when the report did not come from ``lowest_two_eigen``.
    """

    lambda0: float
    lambda1: float
    v0: GridFunction
    residuals: tuple[float, float] | None = None
    tol: float | None = None
    iterations: int | None = None

    @property
    def gap_factor(self) -> float:
        return min(1.0, (self.lambda1 - self.lambda0) / (4.0 * self.lambda0))


class EigengapDegenerateError(RuntimeError):
    """lambda1 - lambda0 below resolution: the eigengap assumption fails."""


@dataclass(frozen=True)
class RateFit:
    """Least-squares geometric fit of a decaying sequence."""

    rho: float
    r_squared: float
    window: tuple[int, int]


def linearized_operator(problem: Problem, ustar: GridFunction) -> LinearOperator:
    """Operator of the eigenproblem linearized at ustar."""
    if ustar.grid != problem.grid:
        raise GridMismatchError("linearization point does not live on the problem grid")
    return LinearOperator(Metric(MetricKind.AU, base=ustar), problem)


def lowest_two_eigen(op: LinearOperator) -> SpectralReport:
    """Two smallest eigenvalues and the ground eigenvector (unit L2).

    One LOBPCG call on ``op.matrix()`` with ``_eigen_preconditioner``, from a
    fixed start block, so repeated calls agree bit for bit.  The block is
    [base, r] for an a_u operator (at u* the base is the ground eigenvector
    to the flow's tolerance) and [r1, r2] otherwise, r drawn uniform(0.5, 1.5)
    from ``default_rng(0)``.  The random column has no symmetry on purpose:
    on a symmetric grid and potential the all-ones vector has no component
    along an antisymmetric second eigenvector, and an iterative eigensolver,
    which only sees the eigenvectors its start touches, would then report
    the third eigenvalue as lambda1 unless roundoff happened to supply the
    missing component.

    Every pair must end with ||A v - lambda v|| <= tol for unit v, with
    tol = max(1e-10 * (lambda_min(-Laplacian) + min D), 16 eps ||A||_inf)
    for A = -Laplacian + D.  LOBPCG itself is asked for tol / 10: it stops
    on residuals it updates implicitly, and on steep potentials the
    recomputed ones ended within a few percent of the bound it was given.
    The first term of tol bounds the relative residual by
    1e-10 * lambda0, since lambda0 >= lambda_min(-Laplacian) + min D (Weyl).
    The second keeps tol above the roundoff floor of the residual itself,
    about eps ||A||_inf, which the first term falls below on fine grids;
    below that floor LOBPCG only warns and returns a pair that is no
    eigenpair.  Its warnings (also the one that it switched to a dense
    ``eigh`` below 10 unknowns) are silenced; instead both residuals are
    recomputed, and a pair above tol raises RuntimeError naming them.

    Grids with fewer than 3 interior unknowns raise ValueError; a gap
    lambda1 - lambda0 below 1e-12 raises EigengapDegenerateError.
    """
    grid = op.grid
    n = grid.dof
    if n < 3:
        raise ValueError(f"the eigensolve needs at least 3 interior unknowns, got {n}")
    A = op.matrix()
    tol = max(
        1e-10 * (laplacian_min_eigenvalue(grid) + float(op.diagonal_term.min())),
        16.0 * np.finfo(float).eps * float(abs(A).sum(axis=1).max()),
    )
    vecs = np.random.default_rng(0).uniform(0.5, 1.5, (n, 2))  # the start block
    if op.metric.base is not None:
        vecs[:, 0] = op.metric.base.values
    precondition = _eigen_preconditioner(op, vecs[:, 0])
    iterations = 0

    def counted(r: np.ndarray) -> np.ndarray:  # LOBPCG preconditions once per iteration
        nonlocal iterations
        iterations += 1
        return precondition(r)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals, vecs = spla.lobpcg(A, vecs, M=counted, tol=tol / 10, maxiter=500, largest=False)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    residuals = np.linalg.norm(A @ vecs - vecs * vals, axis=0) / np.linalg.norm(vecs, axis=0)
    if np.any(residuals > tol):
        raise RuntimeError(
            f"LOBPCG stopped at eigen-residuals {residuals[0]:.3e}, {residuals[1]:.3e} "
            f"above tolerance {tol:.3e}"
        )
    lam0, lam1 = float(vals[0]), float(vals[1])
    if lam1 - lam0 < 1e-12:
        raise EigengapDegenerateError(
            f"gap {lam1 - lam0:.3e} below 1e-12: linearized eigengap degenerate"
        )
    v0 = vecs[:, 0]
    v0 = v0 / (math.sqrt(grid.cell_volume) * np.linalg.norm(v0))
    return SpectralReport(
        lam0, lam1, GridFunction(grid, v0),
        residuals=(float(residuals[0]), float(residuals[1])), tol=tol, iterations=iterations,
    )


def _eigen_preconditioner(op: LinearOperator, x: np.ndarray):
    """LOBPCG's preconditioner for A = -Laplacian + D, built about x.

    M r = s (-Laplacian + alpha)^-1 (s r) with s = (alpha + E)^(-1/2): the
    combined potential and kinetic preconditioner of Antoine, Levitt and
    Tang.  x's Rayleigh quotient splits into a potential part sigma (the
    x^2-weighted mean of D) and a kinetic part K; at u* their sum is lambda0.
    With E = max(D - sigma, 0) and D frozen locally, M^-1 is within a factor
    1 + min(E, k)/alpha of alpha (A - sigma + alpha) on a mode of -Laplacian
    eigenvalue k where D >= sigma.  So M inverts A around the shift
    sigma - alpha, about K + alpha below lambda0, up to a factor of at most
    1 + Q/alpha with Q = min(max E, lambda_max(-Laplacian)).  A small alpha
    brings the shift close to lambda0, which LOBPCG needs when the gap is a
    tiny fraction of lambda0 (strong beta); a large alpha keeps the factor
    small, which it needs where D spans orders of magnitude (steep
    potentials).  alpha = sqrt(K Q) minimizes the product
    (K + alpha)(1 + Q/alpha).  It is kept at least lambda_min(-Laplacian):
    for a constant D (Q = 0), as in H1, M is then the exact
    (A - sigma + alpha)^-1 up to a scale, which LOBPCG ignores.
    """
    laplacian, eig = sine_basis(op.grid)
    weight = x * x / float(x @ x)
    sigma = float(op.diagonal_term @ weight)
    kinetic = max(float(x @ (laplacian @ x)) / float(x @ x), 0.0)
    excess = np.maximum(op.diagonal_term - sigma, 0.0)
    spread = min(float(excess.max()), float(eig.max()))
    alpha = max(math.sqrt(kinetic * spread), float(eig.flat[0]))
    inverse = op.laplacian_inverse(alpha)
    scale = 1.0 / np.sqrt(alpha + excess)

    def precondition(r: np.ndarray) -> np.ndarray:
        s = scale.reshape((-1,) + (1,) * (r.ndim - 1))
        return s * inverse(s * r)

    return precondition


def laplacian_min_eigenvalue(grid: Grid) -> float:
    """Smallest eigenvalue of the discrete Dirichlet -Laplacian: the first
    entry of the grid's sine spectrum (the k = 1 mode on every axis)."""
    return float(sine_basis(grid)[1].flat[0])


def estimate_poincare(grid: Grid) -> float:
    """Sharp discrete Poincare constant, 1/sqrt(lambda_min(-Laplacian))."""
    return 1.0 / math.sqrt(laplacian_min_eigenvalue(grid))


def fit_rate(deltas, threshold: float) -> RateFit:
    """Fit log(delta_n) linearly over the window where delta_n < threshold.

    rho = exp(slope) is the per-step contraction factor; r_squared measures
    fit quality.  Requires at least 5 positive entries below the threshold.
    """
    deltas = np.asarray(list(deltas), dtype=float)
    mask = (deltas < threshold) & (deltas > 0.0)
    idx = np.nonzero(mask)[0]
    if idx.size < 5:
        raise ValueError(
            f"need at least 5 entries below threshold, got {idx.size}"
        )
    start, end = int(idx[0]), int(idx[-1])
    x = idx.astype(float)
    y = np.log(deltas[idx])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(rho=float(np.exp(slope)), r_squared=r_squared, window=(start, end + 1))
