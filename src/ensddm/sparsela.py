"""Direct LU factorization of the subdomain matrices, and block solves.

One factorization serves any number of right-hand sides, which is what makes
the shared-coefficient-matrix ensemble iteration cheap: the two subdomain
matrices are factorized once per run and then only triangular solves remain,
one block solve per subdomain and iteration for all samples at once.

Before that one factorization, a subdomain operator condenses out interior
dof pairs that couple only with themselves and the other free dofs (the two
MINI bubbles of each free-flow triangle): each pair's 2x2 block is inverted
in closed form, only their Schur complement is factorized, and every solve
recovers the pairs with two sparse products.

Matrices are plain scipy CSR matrices (the assembly modules build them from
triplets in one call) and factors plain SuperLU objects; everything is
float64.  An operator keeps the factor and the condensation maps, not the
matrix.  Each matrix is factorized by its structure.  The condensed Stokes
matrix [A, -B^T; B, C] has a positive semidefinite symmetric part and a
diagonal filled by the bubble stabilization C, so it takes diagonal pivots
in a symmetric minimum-degree order of A + A^T (symmetric mode); the
pressure-mean multiplier, its one zero diagonal entry, is ordered last,
where it is already filled.  The Darcy matrix has a zero diagonal on every
head dof, so it keeps COLAMD with threshold partial pivoting at 0.5, which
keeps more of COLAMD's order than strict partial pivoting.
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


def factorize(a, symmetric=False):
    """LU-factorize a square scipy sparse matrix; returns the SuperLU
    object, whose solve() takes an (n,) vector or an (n, k) block.

    By default the columns are ordered by COLAMD and the pivots chosen by
    threshold partial pivoting (a diagonal pivot is kept while it is at
    least half the largest entry of its column), which suits matrices with
    zero diagonal entries, like the Darcy saddle point matrix.  With
    `symmetric=True` the order is a minimum degree order of A + A^T and
    every pivot is the diagonal entry (SuperLU's symmetric mode); that is
    for matrices with a definite symmetric part and a nonzero diagonal up to
    a few border rows ordered last, like the condensed Stokes matrix, whose
    factor then stores about half the fill.  In either mode a pivot that is
    zero falls back to the largest entry of its column, and a column with
    no nonzero entry left raises SingularMatrixError.

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
        if symmetric:
            lu = splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options=dict(SymmetricMode=True))
        else:
            lu = splu(csc, permc_spec="COLAMD", diag_pivot_thresh=0.5)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"singular pivot during LU: {exc}") from exc
    _factorize_calls += 1
    return lu


class SubdomainOperator:
    """A subdomain matrix reduced to its free rows and columns, with its
    interior dof pairs condensed out, and factorized once.  It keeps what
    `solve` and `lift` read (the dof count `n`, the factor, the condensation
    maps, the free-by-fixed block `A_fd`), not the matrix or its A_ff.

    The `free` and `fixed` index arrays split the dofs; fixed rows carry
    boundary values.  `interior` is an (m, 2) array of free dofs, each pair
    coupled only with itself and with the other free dofs (the x and y
    bubbles of a MINI triangle), or an empty (0, 2) array.  With B the
    block diagonal of the pairs' 2x2 blocks, inverted in closed form, the
    one factorization is of the Schur complement S = A_rr - A_ri B^-1 A_ir
    on the remaining free dofs r; without pairs, S is A_ff itself.  A
    condensed S (the Stokes operator's) is factorized in symmetric mode, an
    uncondensed one (the Darcy operator's) in the default mode; see
    factorize.  `factor_seconds` covers forming and factorizing S.
    """

    def __init__(self, matrix, free, fixed, interior):
        self.n = matrix.shape[0]
        self.free, self.fixed = free, fixed
        rows = matrix[free]
        a, self.A_fd = rows[:, free], rows[:, fixed]     # CSR, like the matrix rows
        del rows
        t0 = time.perf_counter()
        pos = np.full(self.n, -1)
        pos[free] = np.arange(len(free))
        pairs = pos[interior]                   # positions within the free dofs
        if np.any(pairs < 0):
            raise ValueError("interior dofs must be free")
        rest = np.ones(len(free), dtype=bool)
        rest[pairs] = False
        self._rest, self._inner = np.flatnonzero(rest), pairs.ravel()
        self._rest_dofs, self._inner_dofs = free[self._rest], free[self._inner]
        if len(pairs):
            inner_rows, rest_rows = a[self._inner], a[self._rest]
            self._B_inv = _pair_inverse(inner_rows[:, self._inner])
            A_ir = inner_rows[:, self._rest]
            self._condense = (rest_rows[:, self._inner] @ self._B_inv).tocsr()  # A_ri B^-1
            self._recover = (self._B_inv @ A_ir).tocsr()                        # B^-1 A_ir
            S = rest_rows[:, self._rest] - self._condense @ A_ir
        else:
            S = a
        self.factorization = factorize(S, symmetric=len(pairs) > 0)
        self.factor_seconds = time.perf_counter() - t0

    def lift(self, fixed_values):
        """Free-row correction for the boundary values of the fixed rows,
        an (n_fixed,) vector or an (n_fixed, k) block."""
        return self.A_fd @ fixed_values

    def solve(self, rhs, fixed_values):
        """Full dof vectors (or a column-major (n_dofs, k) block) from the
        free rows of the right-hand sides, an (n_free,) vector or an
        (n_free, k) block: the free rows solve A_ff x = rhs, and the fixed
        rows take `fixed_values` (a scalar or an (n_fixed, k) block).

        The pairs are condensed into the right-hand side, the rest solves
        against the factor of S, and the pairs are recovered from it."""
        shape = (self.n,) + rhs.shape[1:]
        if len(self._inner):
            b_inner = rhs[self._inner]
            rhs = rhs[self._rest]
            rhs -= self._condense @ b_inner
        x_rest = self.factorization.solve(rhs)
        del rhs
        full = np.zeros(shape, order="F")
        full[self._rest_dofs] = x_rest
        if len(self._inner):
            x_inner = self._B_inv @ b_inner
            x_inner -= self._recover @ x_rest
            full[self._inner_dofs] = x_inner
        full[self.fixed] = fixed_values
        return full


def _pair_inverse(block):
    """Inverse of a block diagonal matrix of 2x2 blocks (rows and columns
    2i, 2i+1), each inverted in closed form, as a CSR matrix."""
    m = block.shape[0] // 2
    coo = block.tocoo()
    if np.any(coo.row // 2 != coo.col // 2):
        raise ValueError("interior pairs couple with each other")
    d = block.diagonal()
    a, e = d[0::2], d[1::2]
    i = 2 * np.arange(m)
    b = np.asarray(block[i, i + 1]).ravel()
    c = np.asarray(block[i + 1, i]).ravel()
    det = a * e - b * c
    if np.any(det == 0.0):
        raise SingularMatrixError(f"singular interior pair {np.flatnonzero(det == 0.0)[0]}")
    rows = np.column_stack([i, i, i + 1, i + 1]).ravel()
    cols = np.column_stack([i, i + 1, i, i + 1]).ravel()
    vals = (np.column_stack([e, -b, -c, a]) / det[:, None]).ravel()
    return sp.csr_matrix((vals, (rows, cols)), shape=block.shape)


def quadratic_form(m, x):
    """x^T m x for a vector x, or for every column of an (n, k) block.

    Each column is summed as one contiguous row, so a column's value does
    not depend on the other columns of the block.
    """
    mx = m @ x
    return np.multiply(x.T, mx.T, order="C").sum(axis=-1)
