"""Sparse assemblies of the package's operators, oracles for its tests.

No solver path builds them: the solves apply the stencil
(``grid.neg_laplacian``) and factor or diagonalize it per axis.
"""

import functools

import numpy as np
import scipy.sparse as sp


def laplacian_matrix(grid):
    """The discrete -Laplacian as a scipy.sparse CSR matrix: the Kronecker
    sum over axes of the 1D second differences.  An oracle for tests of
    ``neg_laplacian``."""
    total = sp.csr_matrix((grid.dof, grid.dof))
    for axis, (n, h) in enumerate(zip(grid.n, grid.h)):
        off = np.full(n - 1, -1.0 / h**2)
        factors = [sp.identity(m, format="csr") for m in grid.n]
        factors[axis] = sp.diags([off, np.full(n, 2.0 / h**2), off], [-1, 0, 1], format="csr")
        total = total + functools.reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)
    return total.tocsr()


def operator_matrix(op):
    """A_X of a ``greens.LinearOperator`` as a scipy.sparse CSR matrix, an
    oracle for tests of its ``apply`` and ``solve``."""
    return laplacian_matrix(op.grid) + sp.diags(op.diagonal_term)
