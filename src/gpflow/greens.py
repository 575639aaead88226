"""Green's operators for the three metrics, realized as SPD linear solves.

For a metric X with operator A_X (A_H1 = -Laplacian, A_a0 = -Laplacian + V,
A_au = -Laplacian + V + beta*base^2), the Green's operator returns g with
A_X g = w componentwise.  With uniform quadrature weights this is exactly the
adjoint identity (z, g)_X = (z, w)_L2 for every z.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import (
    GridFunction,
    GridMismatchError,
    Metric,
    MetricKind,
    apply_neg_laplacian,
)
from .problem import Problem


def _laplacian_matrix_1d(n: int, h: float) -> sp.csr_matrix:
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def laplacian_matrix(grid) -> sp.csr_matrix:
    """Sparse matrix of the discrete -Laplacian (Kronecker sum over axes)."""
    mats = [_laplacian_matrix_1d(n, h) for n, h in zip(grid.n, grid.h)]
    eyes = [sp.identity(n, format="csr") for n in grid.n]
    total = sp.csr_matrix((grid.dof, grid.dof))
    for axis, m in enumerate(mats):
        factors = [eyes[k] if k != axis else m for k in range(grid.dim)]
        term = factors[0]
        for f in factors[1:]:
            term = sp.kron(term, f, format="csr")
        total = total + term
    return total.tocsr()


class LinearOperator:
    """The SPD operator A_X of a metric: matrix-free apply and direct solves.

    ``solve`` is the one Green's solve of the package.  It factorizes the
    sparse matrix on first use and caches the LU factors, so an operator that
    is kept (H1 and a0 within a run) is factorized once.
    """

    def __init__(self, metric: Metric, problem: Problem):
        if metric.kind is MetricKind.L2:
            raise ValueError("L2 has no Green's operator here; use H1, A0 or AU")
        if metric.kind is MetricKind.AU and metric.base.grid != problem.grid:
            raise GridMismatchError("AU base does not live on the problem grid")
        self.metric = metric
        self.problem = problem
        self.grid = problem.grid
        if metric.kind is MetricKind.H1:
            self._diag_term = np.zeros(self.grid.dof)
        elif metric.kind is MetricKind.A0:
            self._diag_term = problem.V.values.copy()
        else:
            self._diag_term = problem.V.values + problem.beta * metric.base.values**2
        self._matrix: sp.csr_matrix | None = None
        self._factor = None

    def apply(self, values: np.ndarray) -> np.ndarray:
        u = GridFunction(self.grid, values)
        out = apply_neg_laplacian(self.grid, u).values.copy()
        out += self._diag_term * values
        return out

    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            self._matrix = laplacian_matrix(self.grid) + sp.diags(self._diag_term)
        return self._matrix

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Direct solve via cached sparse LU (exact up to roundoff)."""
        if not np.any(rhs):
            return np.zeros_like(rhs)
        if self._factor is None:
            self._factor = spla.splu(self.matrix().tocsc())
        return self._factor.solve(np.asarray(rhs, dtype=float))


def solve_green(metric: Metric, problem: Problem, w: GridFunction) -> GridFunction:
    """Apply the Green's operator of the metric: solve A_X g = w.

    One direct solve through a fresh LinearOperator; a zero right-hand side
    short-circuits to zero output.
    """
    if w.grid != problem.grid:
        raise GridMismatchError("right-hand side does not live on the problem grid")
    return GridFunction(problem.grid, LinearOperator(metric, problem).solve(w.values))
