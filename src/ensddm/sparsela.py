"""Sparse matrix assembly, direct LU factorization, and block solves.

One factorization serves any number of right-hand sides, which is what makes
the shared-coefficient-matrix ensemble iteration cheap: the two subdomain
matrices are factorized once per run and then only triangular solves remain,
one block solve per subdomain and iteration for all samples at once.

Matrices are plain scipy CSR matrices and factors plain SuperLU objects
(partial pivoting, COLAMD column ordering); everything is float64.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

_factorize_calls = 0


def factorization_count():
    """Total factorize() calls in this process (test/bookkeeping hook)."""
    return _factorize_calls


class SingularMatrixError(RuntimeError):
    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class CooBuilder:
    """Accumulates COO triplets; duplicate entries are summed on finalize."""

    def __init__(self, n_rows, n_cols):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._rows = []
        self._cols = []
        self._vals = []

    def add(self, rows, cols, vals):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("rows, cols, vals must have equal lengths")
        self._rows.append(rows)
        self._cols.append(cols)
        self._vals.append(vals)

    def finalize(self):
        """The accumulated entries as a scipy CSR matrix."""
        if self._rows:
            r = np.concatenate(self._rows)
            c = np.concatenate(self._cols)
            v = np.concatenate(self._vals)
        else:
            r = c = np.empty(0, dtype=np.int64)
            v = np.empty(0)
        csr = sp.coo_matrix((v, (r, c)), shape=(self.n_rows, self.n_cols)).tocsr()
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("non-finite matrix entries")
        return csr


def factorize(a):
    """LU-factorize a square scipy sparse matrix; returns the SuperLU
    object, whose solve() takes an (n,) vector or an (n, k) block.

    A block is one SuperLU call and comes back column-major.  Its columns
    equal column-by-column solves to rounding (the blocked triangular
    kernels sum in another order), not bitwise; solving the same block
    again is bitwise repeatable.

    Raises ValueError for non-finite entries and SingularMatrixError for
    structurally or numerically singular input; the offending row index is
    reported when it can be identified.
    """
    global _factorize_calls
    csr = sp.csr_matrix(a)
    if not np.all(np.isfinite(csr.data)):
        raise ValueError("non-finite matrix entries")
    n_rows, n_cols = csr.shape
    if n_rows != n_cols:
        raise ValueError("factorize requires a square matrix")
    row_counts = np.diff(csr.indptr)
    empty = np.where(row_counts == 0)[0]
    if len(empty) > 0:
        raise SingularMatrixError(f"structurally singular: row {empty[0]} is empty", row=int(empty[0]))
    csc = csr.tocsc()
    col_counts = np.diff(csc.indptr)
    empty = np.where(col_counts == 0)[0]
    if len(empty) > 0:
        raise SingularMatrixError(f"structurally singular: column {empty[0]} is empty", row=int(empty[0]))
    try:
        lu = splu(csc, permc_spec="COLAMD")
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"singular pivot during LU: {exc}") from exc
    _factorize_calls += 1
    return lu


class SubdomainOperator:
    """A subdomain matrix reduced to its free rows and columns and
    factorized once.

    The `free` and `fixed` index arrays split the dofs; fixed rows carry
    boundary values.
    """

    def __init__(self, matrix, free, fixed):
        self.matrix = matrix
        self.free, self.fixed = free, fixed
        self.A_ff = matrix[free][:, free].tocsc()
        self.A_fd = matrix[free][:, fixed].tocsr()
        t0 = time.perf_counter()
        self.factorization = factorize(self.A_ff)
        self.factor_seconds = time.perf_counter() - t0

    def lift(self, fixed_values):
        """Free-row correction for the boundary values of the fixed rows,
        an (n_fixed,) vector or an (n_fixed, k) block."""
        return self.A_fd @ fixed_values

    def solve(self, rhs, fixed_values):
        """Full dof vectors (or a column-major (n_dofs, k) block) from
        full-length right-hand sides: the free rows solve against the
        factorization, and the fixed rows take `fixed_values` (a scalar or
        an (n_fixed, k) block).  Only the free rows of `rhs` are read."""
        full = np.zeros(rhs.shape, order="F")
        full[self.free] = self.factorization.solve(rhs[self.free])
        full[self.fixed] = fixed_values
        return full


def quadratic_form(m, x):
    """x^T m x for a vector x, or for every column of an (n, k) block.

    Each column is summed as one contiguous row, so a column's value does
    not depend on the other columns of the block.
    """
    mx = m @ x
    return np.multiply(x.T, mx.T, order="C").sum(axis=-1)
