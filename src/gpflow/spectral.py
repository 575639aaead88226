"""The linearized spectrum at a candidate ground state, and rate fitting.

The linearized operator at u* is the a_u operator based at u*,
-Laplacian + V + beta*u*^2 (``linearized_operator``).  Its two smallest
eigenvalues give the gap factor min{1, (lambda1 - lambda0) / (4 lambda0)}
that controls the local contraction of all three schemes.
``lowest_two_eigen`` computes both pairs with the package's two-vector
LOBPCG (``_lobpcg``) and its preconditioner (``_eigen_preconditioner``) at
every grid size; the pure -Laplacian's spectrum is the grid's closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid, GridFunction, Metric, MetricKind, neg_laplacian, neg_laplacian_norm, sine_basis,
)
from .greens import LinearOperator, laplacian_inverse
from .problem import Problem

# Rayleigh-Ritz drops the directions of its scaled Gram matrix whose
# eigenvalues fall below this fraction of the largest (_ritz_coefficients)
RITZ_DROP = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Two smallest eigenpairs of the linearized operator.

    ``residuals`` are ||A v - lambda v|| / ||v|| of both pairs, ``tol`` the
    bound they were checked against and ``iterations`` the LOBPCG
    iterations run, each one Rayleigh-Ritz step on new search directions;
    None when the report did not come from ``lowest_two_eigen``.
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


class EigenSolveError(RuntimeError):
    """``lowest_two_eigen`` found no two eigenpairs it can certify."""


class EigengapDegenerateError(EigenSolveError):
    """lambda1 - lambda0 below resolution: the eigengap assumption fails."""


@dataclass(frozen=True)
class RateFit:
    """Least-squares geometric fit of a decaying sequence."""

    rho: float
    r_squared: float


def linearized_operator(problem: Problem, ustar: GridFunction) -> LinearOperator:
    """Operator of the eigenproblem linearized at ustar."""
    return LinearOperator(Metric(MetricKind.AU, base=ustar), problem)


def lowest_two_eigen(op: LinearOperator) -> SpectralReport:
    """Two smallest eigenvalues and the ground eigenvector (unit L2).

    One two-vector LOBPCG run (``_lobpcg``) on ``op.apply`` with
    ``_eigen_preconditioner``, from a fixed start block, so repeated calls
    agree bit for bit; no inner solve runs.  The block is [base, r] for an a_u operator (at u*
    the base is the ground eigenvector to the flow's tolerance) and
    [r1, r2] otherwise, r drawn uniform(0.5, 1.5) from ``default_rng(0)``.
    The random vector has no symmetry on purpose: on a symmetric grid and
    potential the all-ones vector has no component along an antisymmetric
    second eigenvector, and an iterative eigensolver, which only sees the
    eigenvectors its start touches, would then report the third eigenvalue
    as lambda1 unless roundoff happened to supply the missing component.

    Every pair must end with ||A v - lambda v|| <= tol for unit v, with
    tol = max(1e-10 * (lambda_min(-Laplacian) + min D), 16 eps ||A||_inf)
    for A = -Laplacian + D, ||A||_inf from the stencil's exact row sums
    (``grid.neg_laplacian_norm``).  The solver is asked for tol / 10; the
    margin keeps a preconditioner changed at roundoff level from pushing a
    pair over tol.  The first term of tol bounds the relative residual by
    1e-10 * lambda0, since lambda0 >= lambda_min(-Laplacian) + min D (Weyl).
    The second keeps tol above the roundoff floor of the residual itself,
    about eps ||A||_inf, which the first term falls below on fine grids.
    After the solver stops (converged, or after 500 iterations) both
    residuals are recomputed from the returned vectors, their Rayleigh
    quotients and the solver's last products with them, which are explicit
    ``op.apply`` results of those rows, so no product is taken twice; a
    pair above tol, or a NaN residual, raises EigenSolveError naming them.
    The report's ``iterations`` is 0 when the start block already met the
    request.

    The start block is written into the solver's rows and dropped before
    it runs: a call holds about 19 vectors of the grid at its peak.

    Grids with fewer than 3 interior unknowns raise ValueError.  Every
    failed solve raises EigenSolveError: a Rayleigh-Ritz breakdown
    (``_ritz_coefficients``), a pair above tol, and a gap lambda1 - lambda0
    below 1e-12, as its subclass EigengapDegenerateError.
    """
    grid = op.grid
    n = grid.dof
    if n < 3:
        raise ValueError(f"the eigensolve needs at least 3 interior unknowns, got {n}")
    tol = max(
        1e-10 * (laplacian_min_eigenvalue(grid) + float(op.diagonal_term.min())),
        16.0 * np.finfo(float).eps * neg_laplacian_norm(grid, op.diagonal_term),
    )
    start = np.random.default_rng(0).uniform(0.5, 1.5, (n, 2))  # the start block
    if op.metric.base is not None:
        start[:, 0] = op.metric.base.values
    precondition = _eigen_preconditioner(op, start[:, 0])
    S = np.zeros((6, n))  # _lobpcg's rows, the start block first
    S[:2] = start.T
    del start
    rows, products, iterations = _lobpcg(op.apply, S, precondition, tol / 10)
    vals = np.sum(rows * products, axis=1) / np.sum(rows * rows, axis=1)
    order = np.argsort(vals)
    vals, rows, products = vals[order], rows[order], products[order]
    residuals = np.linalg.norm(products - vals[:, None] * rows, axis=1)
    residuals /= np.linalg.norm(rows, axis=1)
    if not np.all(residuals <= tol):  # NaN residuals fail too
        raise EigenSolveError(
            f"LOBPCG stopped at eigen-residuals {residuals[0]:.3e}, {residuals[1]:.3e} "
            f"above tolerance {tol:.3e}"
        )
    lam0, lam1 = float(vals[0]), float(vals[1])
    if lam1 - lam0 < 1e-12:
        raise EigengapDegenerateError(
            f"gap {lam1 - lam0:.3e} below 1e-12: linearized eigengap degenerate"
        )
    v0 = rows[0] / (math.sqrt(grid.cell_volume) * np.linalg.norm(rows[0]))
    return SpectralReport(
        lam0, lam1, GridFunction(grid, v0),
        residuals=(float(residuals[0]), float(residuals[1])), tol=tol, iterations=iterations,
    )


def _eigen_preconditioner(op: LinearOperator, x: np.ndarray):
    """LOBPCG's preconditioner for A = -Laplacian + D, built about x.

    M r = s (-Laplacian + alpha)^-1 (s r) with s = (alpha + E)^(-1/2): the
    combined potential and kinetic preconditioner of Antoine, Levitt and
    Tang (J. Comput. Phys. 343, 2017), around the exact inverse of
    -Laplacian + alpha (``greens.laplacian_inverse``).  x's Rayleigh quotient splits into a potential part sigma (the
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
    (A - sigma + alpha)^-1 up to a scale, which LOBPCG ignores.  ``r`` is
    one vector (dof,).
    """
    eig, _ = sine_basis(op.grid)
    weight = x * x / float(x @ x)
    sigma = float(op.diagonal_term @ weight)
    kinetic = max(float(x @ neg_laplacian(op.grid, x)) / float(x @ x), 0.0)
    excess = np.maximum(op.diagonal_term - sigma, 0.0)
    spread = min(float(excess.max()), float(eig.max()))
    alpha = max(math.sqrt(kinetic * spread), float(eig.flat[0]))
    inverse = laplacian_inverse(op.grid, alpha)
    scale = 1.0 / np.sqrt(alpha + excess)

    return lambda r: scale * inverse(scale * r)


def _lobpcg(apply, S: np.ndarray, precondition, tol: float, maxiter: int = 500):
    """Rows X (2, n) spanning the two lowest eigenvectors of the symmetric
    A, their products A X and the iterations run, by LOBPCG (Knyazev, SIAM
    J. Sci. Comput. 23, 2001) from the start rows in S[:2].  X and A X are
    views of the solver's blocks, and A X is ``apply`` of X's final rows,
    so a caller may use it as their product bit for bit.

    S (6, n) is the solver's block of rows [X; W; P], written in place, so
    the caller need hold no other copy of the start.  Blocks are contiguous
    rows, one per vector, because ``apply`` (x -> A x) and ``precondition``
    take one row at a time, and each result is written straight into its row
    of S or of A S.  Each iteration runs Rayleigh-Ritz on the rows of S
    (``_ritz_coefficients``), W being the preconditioned residuals of the
    active pairs and P their previous steps; X and P then come from the Ritz
    coefficients.  W and P are made orthogonal to X, which leaves span(S) as
    it is (the basis handling of Hetmaniuk and Lehoucq, J. Comput. Phys.
    218, 2006), and every product with A is explicit: an A P updated from
    the coefficients drifts from the true product by a factor that grows in
    each iteration whose update cancels, and on a nearly degenerate pair
    (two pockets of a potential) it grew from roundoff to overflow within
    350 iterations.  A pair whose residual ||A x - lambda x|| (x unit,
    lambda its Rayleigh quotient) is at most ``tol`` is soft-locked: it
    stays in the Rayleigh-Ritz but gets no W or P row, so it is not pulled
    off while the other pair converges.  Stops when both pairs meet ``tol``
    or after ``maxiter`` iterations, converged or not.  The residuals R
    and the step P are rows 2-3 and 4-5 of A S, dead between the
    Rayleigh-Ritz and the next products; P starts as zeros with A S.
    """
    AS = np.zeros_like(S)
    X, AX, R, P = S[:2], AS[:2], AS[2:4], AS[4:]
    for i in range(2):
        AX[i] = apply(X[i])
    m = 2  # rows of S in use
    for iteration in range(maxiter + 1):
        C = _ritz_coefficients(S[:m], AS[:m])
        if m > 2:
            np.matmul(C[2:].T, S[2:m], out=P)
        np.add(C[:2].T @ X, P, out=X)
        X /= np.linalg.norm(X, axis=1)[:, None]
        for i in range(2):
            AX[i] = apply(X[i])
        np.multiply(X, AX, out=R)
        np.multiply(R.sum(axis=1)[:, None], X, out=R)
        np.subtract(AX, R, out=R)
        active = np.flatnonzero(np.linalg.norm(R, axis=1) > tol)
        if active.size == 0 or iteration == maxiter:
            return X, AX, iteration
        k = active.size
        m = 2 + (2 * k if iteration > 0 else k)  # P exists from the second iteration on
        for j, i in enumerate(active):
            S[2 + j] = precondition(R[i])
            if iteration > 0:
                S[2 + k + j] = P[i]
        D = S[2:m]
        D -= (D @ X.T) @ X
        for j in range(2, m):
            AS[j] = apply(S[j])


def _ritz_coefficients(S: np.ndarray, AS: np.ndarray) -> np.ndarray:
    """Coefficients C (m, 2) of the two lowest Ritz vectors C^T S of A on
    the span of the rows S (m, n), with AS their products with A.

    The Gram matrices S S^T and S (A S)^T are scaled by diag(S S^T)^(-1/2),
    and the scaled S S^T is diagonalized; its eigenvectors whose eigenvalues
    fall below RITZ_DROP times the largest are dropped, and the others,
    scaled by their eigenvalues^(-1/2), give an orthonormal basis of the
    span's well-conditioned part (SVQB: Duersch, Shao, Yang and Gu, SIAM J.
    Sci. Comput. 40, 2018).  Rayleigh-Ritz runs in that basis.  It breaks
    down, raising EigenSolveError, when an ``eigh`` does not converge or
    fewer than two directions are kept, as when the products overflow.
    """
    gram, stiffness = S @ S.T, S @ AS.T
    d = np.diag(gram)
    scale = np.divide(1.0, np.sqrt(d), out=np.zeros_like(d), where=d > 0.0)
    try:
        theta, U = np.linalg.eigh(gram * np.outer(scale, scale))
        keep = theta > RITZ_DROP * theta[-1]
        basis = (scale[:, None] * U[:, keep]) / np.sqrt(theta[keep])
        reduced = basis.T @ stiffness @ basis
        _, Y = np.linalg.eigh(0.5 * (reduced + reduced.T))
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"LOBPCG's Rayleigh-Ritz broke down: {exc}") from exc
    if Y.shape[1] < 2:
        raise EigenSolveError(
            f"LOBPCG's Rayleigh-Ritz broke down: {Y.shape[1]} of {len(d)} directions kept, 2 needed"
        )
    return basis @ Y[:, :2]


def laplacian_min_eigenvalue(grid: Grid) -> float:
    """Smallest eigenvalue of the discrete Dirichlet -Laplacian: the first
    entry of the grid's sine spectrum (the k = 1 mode on every axis)."""
    return float(sine_basis(grid)[0].flat[0])


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
    x = idx.astype(float)
    y = np.log(deltas[idx])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(rho=float(np.exp(slope)), r_squared=r_squared)
