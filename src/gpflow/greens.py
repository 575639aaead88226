"""Green's operators for the three metrics, realized as SPD linear solves.

For a metric X with operator A_X (A_H1 = -Laplacian, A_a0 = -Laplacian + V,
A_au = -Laplacian + V + beta*base^2), the Green's operator returns g with
A_X g = w componentwise.  With uniform quadrature weights this is exactly the
adjoint identity (z, g)_X = (z, w)_L2 for every z.

This module holds only the operators and their solve; the -Laplacian
matrix and its eigenvalues are the grid's (``grid.sine_basis``), and so is
the transform (``grid.sine_transform``: dense per-axis products on grids of
at most 128 nodes per axis, ``scipy.fft.dstn`` above).  Every solve goes
through the discrete sine transform (DST-I), which diagonalizes the
Dirichlet -Laplacian exactly: the H1 solve is one transform pair divided by
the Laplacian's eigenvalues, and the a0 and a_u solves run conjugate
gradients preconditioned by the same transform, shifted by the mean of the
operator's diagonal term (the kinetic preconditioner of Antoine, Levitt and
Tang, J. Comput. Phys. 343, 2017).  ``laplacian_inverse`` gives the same
transform pair at any shift, for the eigensolve's preconditioner.  ``apply``,
CG and ``matrix`` share the one matrix.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import scipy.sparse as sp

from .grid import GridFunction, GridMismatchError, Metric, MetricKind, sine_basis, sine_transform
from .problem import Problem

# CG stops once its residual ||b - A x||_2 is at most rtol ||b||_2; rtol is
# CG_RTOL unless the caller passes its own
CG_RTOL = 1e-13
# Along a flow the a0 and a_u solves run at the forcing term
# clamp(CG_FORCING * previous residual, CG_RTOL, CG_RTOL_MAX) (energy.scheme_state)
CG_FORCING = 0.01
CG_RTOL_MAX = 1e-3


class GreenSolveError(RuntimeError):
    """Preconditioned CG did not reach its tolerance within its iteration cap."""


class LinearOperator:
    """The SPD operator A_X of a metric: the grid's -Laplacian matrix plus a
    diagonal term, with DST-based solves.

    ``solve`` is the one Green's solve of the package: exact for H1 (one
    orthonormal DST-I pair), preconditioned conjugate gradients for a0 and
    a_u with the DST inverse of -Laplacian + mean(diagonal term) as
    preconditioner, optionally warm-started.  Nothing is factorized, so a new
    operator per a_u step costs no more than a kept one.
    """

    def __init__(self, metric: Metric, problem: Problem):
        if metric.kind is MetricKind.L2:
            raise ValueError("L2 has no Green's operator here; use H1, A0 or AU")
        if metric.kind is MetricKind.AU and metric.base.grid != problem.grid:
            raise GridMismatchError("AU base does not live on the problem grid")
        self.metric = metric
        self.problem = problem
        self.grid = problem.grid
        # D in A_X = -Laplacian + D: 0, V or V + beta*base^2
        if metric.kind is MetricKind.H1:
            self.diagonal_term = np.zeros(self.grid.dof)
        elif metric.kind is MetricKind.A0:
            self.diagonal_term = problem.V.values.copy()
        else:
            self.diagonal_term = problem.V.values + problem.beta * metric.base.values**2
        self._laplacian, self._laplacian_eig = sine_basis(self.grid)
        self._precond_eig = self._laplacian_eig + float(np.mean(self.diagonal_term))
        self.iterations = 0  # CG iterations of the last solve

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self._laplacian @ values + self.diagonal_term * values

    def matrix(self) -> sp.csr_matrix:
        return self._laplacian + sp.diags(self.diagonal_term)

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        """CG's preconditioner: the exact inverse of -Laplacian + mean(diagonal
        term), via DST-I, of one vector (dof,) or a block (dof, k)."""
        return self._sine_divide(r, self._precond_eig)

    def laplacian_inverse(self, shift: float) -> Callable[[np.ndarray], np.ndarray]:
        """The map r -> (-Laplacian + shift)^-1 r, exact by one DST-I pair.

        ``shift`` must exceed -lambda_min(-Laplacian); ``r`` is one vector
        (dof,) or a block (dof, k).
        """
        eig = self._laplacian_eig + shift
        return lambda r: self._sine_divide(r, eig)

    def _sine_divide(self, r: np.ndarray, eig: np.ndarray) -> np.ndarray:
        """r divided by ``eig`` (grid-shaped) in the orthonormal DST-I basis;
        ``r`` is one vector (dof,) or a block (dof, k) of k columns."""
        coeffs = sine_transform(self.grid, r)
        return sine_transform(self.grid, coeffs / eig.reshape((-1,) + (1,) * (r.ndim - 1)))

    def solve(
        self, rhs: np.ndarray, x0: np.ndarray | None = None, rtol: float | None = None
    ) -> np.ndarray:
        """Solve A_X x = rhs to relative residual rtol, from x0 if given.

        ``rtol`` None means the module's CG_RTOL, read at call time.  H1 has a
        zero diagonal term, so the preconditioner is its exact inverse: no CG
        iteration runs, and x0 and rtol are ignored.  Otherwise CG starts at
        x0 (zero when None) from the explicitly computed residual rhs - A x0,
        and stops once the residual norm is at most rtol times that of rhs,
        whatever the start; a start that already meets the test is returned
        without iterating.  A close start, such as the previous
        step's solution along a gradient flow, only shortens the solve.  (The
        updated residual the test reads drifts from the true one by about
        eps * ||A x0||, so a start much larger than the solution raises the
        true residual's floor.)  The number of CG iterations run is left in
        ``self.iterations``: 0 for H1, a zero rhs or a start that meets the
        test.

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
        if not np.any(b):
            return np.zeros_like(b)
        if self.metric.kind is MetricKind.H1:
            return self._precondition(b)
        if rtol is None:
            rtol = CG_RTOL
        target = rtol * float(np.linalg.norm(b))
        if x0 is None:
            x = np.zeros_like(b)
            r = b.copy()
        else:
            x = np.array(x0, dtype=float)
            r = b - self.apply(x)
            if np.linalg.norm(r) <= target:
                return x
        z = self._precondition(r)
        p = z
        rz = float(r @ z)
        for self.iterations in range(1, 2 * self.grid.dof + 1):
            ap = self.apply(p)
            curvature = float(p @ ap)
            if not (rz > 0.0 and curvature > 0.0):  # breakdown: roundoff has won
                break
            step = rz / curvature
            x += step * p
            r -= step * ap
            if np.linalg.norm(r) <= target:
                return x
            z = self._precondition(r)
            rz_next = float(r @ z)
            p = z + (rz_next / rz) * p
            rz = rz_next
        raise GreenSolveError(
            f"preconditioned CG stopped short of relative residual {rtol:g} "
            f"(iteration cap {2 * self.grid.dof})"
        )


def solve_green(metric: Metric, problem: Problem, w: GridFunction) -> GridFunction:
    """Apply the Green's operator of the metric: solve A_X g = w.

    One solve through a fresh LinearOperator; a zero right-hand side
    short-circuits to zero output.
    """
    if w.grid != problem.grid:
        raise GridMismatchError("right-hand side does not live on the problem grid")
    return GridFunction(problem.grid, LinearOperator(metric, problem).solve(w.values))
