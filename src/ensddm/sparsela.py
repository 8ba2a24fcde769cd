"""Sparse matrix assembly, direct LU factorization, and block solves.

One factorization serves any number of right-hand sides, which is what makes
the shared-coefficient-matrix ensemble iteration cheap: the two subdomain
matrices are factorized once per run and then only triangular solves remain,
one block solve per subdomain and iteration for all samples at once.

Backed by scipy.sparse and SuperLU (partial pivoting, COLAMD column
ordering); everything is float64.
"""

import threading
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

_counter_lock = threading.Lock()
_factorize_calls = 0


def factorization_count():
    """Total factorize() calls in this process (test/bookkeeping hook)."""
    return _factorize_calls


class SingularMatrixError(RuntimeError):
    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class SparseMatrix:
    """Square or rectangular sparse matrix in CSR form.

    Build incrementally with `builder()` / `add()` / `finalize()`, which sums
    duplicate (row, col) entries, or wrap an existing scipy matrix with the
    constructor.
    """

    def __init__(self, csr):
        csr = sp.csr_matrix(csr)
        csr.sum_duplicates()
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("non-finite matrix entries")
        self.csr = csr

    @classmethod
    def builder(cls, n_rows, n_cols):
        return _CooBuilder(n_rows, n_cols)

    @property
    def shape(self):
        return self.csr.shape

    @property
    def n_rows(self):
        return self.csr.shape[0]

    @property
    def n_cols(self):
        return self.csr.shape[1]

    def toarray(self):
        return self.csr.toarray()

    def __matmul__(self, other):
        return self.csr @ other


class _CooBuilder:
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
        if self._rows:
            r = np.concatenate(self._rows)
            c = np.concatenate(self._cols)
            v = np.concatenate(self._vals)
        else:
            r = c = np.empty(0, dtype=np.int64)
            v = np.empty(0)
        coo = sp.coo_matrix((v, (r, c)), shape=(self.n_rows, self.n_cols))
        return SparseMatrix(coo.tocsr())


class Factorization:
    """Reusable LU factors of a square sparse matrix.

    The factors are read-only after construction; concurrent solves against
    one factorization are safe (each solve uses its own workspace).
    """

    def __init__(self, lu, n):
        self._lu = lu
        self.n = n

    def solve(self, b):
        """Solve for an (n,) vector or for every column of an (n, k) block.

        A block is one SuperLU call and comes back column-major.  Its
        columns equal column-by-column solves to rounding (the blocked
        triangular kernels sum in another order), not bitwise; solving the
        same block again is bitwise repeatable.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ValueError(f"rhs shape {b.shape} does not match matrix size {self.n}")
        return self._lu.solve(b)


def factorize(a):
    """LU-factorize a square SparseMatrix (or scipy sparse matrix).

    Raises SingularMatrixError for structurally or numerically singular
    input; the offending row index is reported when it can be identified.
    """
    global _factorize_calls
    csr = a.csr if isinstance(a, SparseMatrix) else sp.csr_matrix(a)
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
    with _counter_lock:
        _factorize_calls += 1
    return Factorization(lu, n_rows)


class SubdomainOperator:
    """A subdomain matrix reduced to its free rows and columns and
    factorized once.

    The `free` and `fixed` index arrays split the dofs; fixed rows carry
    boundary values.  The stored matrix holds the unknowns of the
    `negated` slice (pressure or head) with flipped sign so that it is
    symmetric; `expand` restores the physical sign.
    """

    def __init__(self, matrix, free, fixed, negated):
        self.matrix = matrix
        self.free, self.fixed, self.negated = free, fixed, negated
        csr = matrix.csr
        self.A_ff = csr[free][:, free].tocsc()
        self.A_fd = csr[free][:, fixed].tocsr()
        t0 = time.perf_counter()
        self.factorization = factorize(SparseMatrix(self.A_ff))
        self.factor_seconds = time.perf_counter() - t0

    def lift(self, values):
        """Free-row correction for boundary values, given as full-length
        dof vectors or (n_dofs, k) blocks; only fixed rows are read."""
        return self.A_fd @ values[self.fixed]

    def reduce_rhs(self, rhs_full):
        return rhs_full[self.free]

    def expand(self, x_free):
        """Scatter a reduced solution (vector or column block) to full dof
        vectors with zero fixed rows and the physical sign restored."""
        full = np.zeros((self.matrix.n_rows,) + x_free.shape[1:], order="F")
        full[self.free] = x_free
        full[self.negated] *= -1.0
        return full


def quadratic_form(m, x):
    """x^T m x for a vector x, or for every column of an (n, k) block.

    Each column is summed as one contiguous row, so a column's value does
    not depend on the other columns of the block.
    """
    mx = m @ x
    return np.multiply(x.T, mx.T, order="C").sum(axis=-1)
