"""Linearized spectrum at a candidate ground state, and rate fitting.

The linearized operator at u* is -Laplacian + V + beta*u*^2, i.e. the AU
metric operator based at u*.  Its two smallest eigenvalues give the gap
factor min{1, (lambda1 - lambda0) / (4 lambda0)} that controls the local
contraction of all three schemes.

Both eigenpairs come from one path at every grid size: shift-invert Lanczos
(ARPACK's ``eigsh`` at sigma = 0) whose inverse is the package's one Green's
solve, ``LinearOperator.solve``.  The pure -Laplacian's spectrum needs no
solver: it is the grid's closed-form sine spectrum (``grid.sine_basis``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .grid import Grid, GridFunction, GridMismatchError, Metric, MetricKind, sine_basis
from .greens import LinearOperator
from .problem import Problem


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Two smallest eigenpairs of the linearized operator."""

    lambda0: float
    lambda1: float
    v0: GridFunction

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

    Shift-invert Lanczos at sigma = 0 with ``op.solve`` as the inverse and a
    fixed, seeded start vector, so repeated calls agree bit for bit.  The
    start vector has no symmetry on purpose: on a symmetric grid and
    potential the all-ones vector has no component along an antisymmetric
    second eigenvector, and Lanczos, which only sees the eigenvectors its
    start vector touches, would then report the third eigenvalue as lambda1
    unless solver roundoff happened to supply the missing component.

    ARPACK needs more unknowns than requested eigenpairs: grids with fewer
    than 3 interior unknowns raise ValueError.  ARPACK's non-convergence
    surfaces as ``ArpackNoConvergence``, a RuntimeError.
    """
    grid = op.grid
    n = grid.dof
    if n < 3:
        raise ValueError(f"the eigensolve needs at least 3 interior unknowns, got {n}")
    start = np.random.default_rng(0).uniform(0.5, 1.5, n)
    inverse = spla.LinearOperator((n, n), matvec=op.solve, dtype=float)
    vals, vecs = spla.eigsh(op.matrix(), k=2, sigma=0.0, OPinv=inverse, v0=start)
    lam0, lam1 = float(vals[0]), float(vals[1])
    if lam1 - lam0 < 1e-12:
        raise EigengapDegenerateError(
            f"gap {lam1 - lam0:.3e} below 1e-12: linearized eigengap degenerate"
        )
    v0 = vecs[:, 0]
    v0 = v0 / (math.sqrt(grid.cell_volume) * np.linalg.norm(v0))
    return SpectralReport(lam0, lam1, GridFunction(grid, v0))


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
