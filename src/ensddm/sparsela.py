"""Direct LU factorization of the subdomain matrices, and block solves.

One factorization serves any number of right-hand sides, which is what makes
the shared-coefficient-matrix ensemble iteration cheap: the two subdomain
matrices are factorized once per run and then only triangular solves remain,
one block solve per subdomain and iteration for all samples at once.

Before that one factorization, a subdomain operator condenses out b x b
blocks of dofs that couple only with themselves and the rest of the system:
the two MINI bubbles of each free-flow triangle (b = 2), and the six
velocity copies and the head of each triangle of the hybridized Darcy
system (b = 7).  All blocks are inverted by one batched call, only their
Schur complement is factorized, and every solve maps the right-hand side
to the complement's and the solution back with three sparse products.

Matrices are plain scipy CSR matrices (the assembly modules build them from
triplets in one call) and factors plain SuperLU objects; everything is
float64.  An operator keeps the factor and the condensation maps, not the
matrix (its free block only where a probe solve asks for refinement).
Both condensed matrices take diagonal pivots in a symmetric minimum-degree
order of A + A^T (SuperLU's symmetric mode), the one mode of `factorize`:
the condensed Stokes matrix [A, -B^T; B, C] has a positive semidefinite
symmetric part and a diagonal filled by the bubble stabilization C (the
pressure-mean multiplier, its one zero diagonal entry, is ordered last,
where it is already filled), and the Darcy multiplier system is symmetric
positive definite.
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


def factorize(a):
    """LU-factorize a square scipy sparse matrix in SuperLU's symmetric
    mode; returns the SuperLU object, whose solve() takes an (n,) vector or
    an (n, k) block.

    The order is a minimum degree order of A + A^T and every pivot is the
    diagonal entry.  That is for matrices with a definite symmetric part
    and a nonzero diagonal up to a few border rows, which the order leaves
    last: the condensed Stokes matrix with its pressure-mean multiplier, and
    the symmetric positive definite multiplier system of the hybridized
    Darcy operator.  A pivot that is zero falls back to the largest entry of
    its column, and a column with no nonzero entry left raises
    SingularMatrixError.

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
        lu = splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"singular pivot during LU: {exc}") from exc
    _factorize_calls += 1
    return lu


# The probe block that checks each operator's solves once at construction.
# A normwise backward error above REFINE_ABOVE (16 eps; the benchmark's
# operators give at most 4 eps) switches on one refinement step against
# A_ff for every solve of that operator.
_PROBE_SEED, _PROBE_COLUMNS = 20240901, 2
REFINE_ABOVE = 16 * np.finfo(float).eps


class SubdomainOperator:
    """A subdomain matrix reduced to its free rows and columns and solved
    through one factorization of a condensed system.  It keeps what `solve`
    and `lift` read (the dof count `n`, the factor, the three condensation
    maps, the free-by-fixed block `A_fd`), not the matrix.

    The `free` and `fixed` index arrays split the dofs; fixed rows carry
    boundary values.  The free block A_ff is solved through an equivalent
    system H y = P b, x = P^T y: by default H is A_ff and P the identity;
    `hybrid`, when given, is the pair (H, P) of a larger system (the
    hybridized Darcy system, whose P puts each free row on one element copy
    of its dof).  `interior` is an (m, b) array of free dofs of the matrix,
    or of dofs of H when `hybrid` is given; each row is a block of b dofs
    coupled only with itself and with the rest of H (the two MINI bubbles
    of a triangle, or the seven dofs of a broken BDM1-P0 element).  With B
    the block diagonal of these blocks, inverted by one batched call, the
    one factorization is of the Schur complement S = H_rr - H_ri B^-1 H_ir
    on the remaining dofs r of H; every solve maps the right-hand side to
    S's, solves against S's factor and recovers the free dofs from both.
    `factor_seconds` covers forming and factorizing S and the probe below.

    At construction a probe block is solved and its normwise backward error
    against A_ff is measured.  Above REFINE_ABOVE the operator keeps A_ff
    and every solve takes one refinement step against it.
    """

    def __init__(self, matrix, free, fixed, interior, hybrid=None):
        self.n = matrix.shape[0]
        self.free, self.fixed = free, fixed
        rows = matrix[free]
        a_ff, self.A_fd = rows[:, free], rows[:, fixed]     # CSR, like the matrix rows
        del rows
        t0 = time.perf_counter()
        if hybrid is None:
            H, P = a_ff, sp.identity(len(free), format="csr")
            pos = np.full(self.n, -1)
            pos[free] = np.arange(len(free))
            interior = pos[interior]            # positions within the free dofs
            if np.any(interior < 0):
                raise ValueError("interior dofs must be free")
        else:
            H, P = (sp.csr_matrix(m) for m in hybrid)
        rest = np.ones(H.shape[0], dtype=bool)
        rest[interior] = False
        rest, inner = np.flatnonzero(rest), interior.ravel()
        H_i, H_r = H[inner], H[rest]
        del H
        B_inv = _block_inverse(H_i[:, inner], interior.shape[1])
        condense = H_r[:, inner] @ B_inv                    # H_ri B^-1
        H_ir = H_i[:, rest]
        S = H_r[:, rest] - condense @ H_ir
        # Q = P^T with its rows at the free dofs of full dof vectors
        P_i = P[inner]
        Q = sp.csr_matrix((np.ones(len(free)), (free, np.arange(len(free)))),
                          shape=(self.n, len(free))) @ P.T
        # rhs of S, full dof vectors straight from the rhs and from S's solution
        self._condense = (P[rest] - condense @ P_i).tocsr()
        self._direct = (Q[:, inner] @ B_inv @ P_i).tocsr()
        self._recover = (Q[:, rest] - Q[:, inner] @ (B_inv @ H_ir)).tocsr()
        del H_i, H_r, H_ir, B_inv, condense, P, P_i, Q
        self.factorization = factorize(S)
        del S
        b = np.random.default_rng(_PROBE_SEED).standard_normal((len(free), _PROBE_COLUMNS))
        self.probe_error = backward_error(a_ff, self._solve(b)[free], b)
        self._A_ff = a_ff if self.probe_error > REFINE_ABOVE else None
        self.factor_seconds = time.perf_counter() - t0

    def lift(self, fixed_values):
        """Free-row correction for the boundary values of the fixed rows,
        an (n_fixed,) vector or an (n_fixed, k) block."""
        return self.A_fd @ fixed_values

    def _solve(self, rhs):
        """Full dof vectors, zero on the fixed rows, from free rows."""
        y = self.factorization.solve(self._condense @ rhs)
        x = self._direct @ rhs
        x += self._recover @ y
        return x

    def solve(self, rhs, fixed_values):
        """Full dof vectors (or a row-major (n_dofs, k) block) from the
        free rows of the right-hand sides, an (n_free,) vector or an
        (n_free, k) block: the free rows solve A_ff x = rhs, and the fixed
        rows take `fixed_values` (a scalar or an (n_fixed, k) block)."""
        x = self._solve(rhs)
        if self._A_ff is not None:
            x += self._solve(rhs - self._A_ff @ x[self.free])
        x[self.fixed] = fixed_values
        return x


def _block_inverse(block, b):
    """Inverse of a block diagonal CSR matrix of b x b blocks (rows and
    columns b i, ..., b i + b - 1) without duplicate entries, such as a
    slice of a canonical matrix, as a CSR matrix.  The blocks are gathered
    straight from the CSR arrays, inverted together by one batched LAPACK
    call and written back in block layout (`block_diagonal`)."""
    n = block.shape[0]
    rows = np.repeat(np.arange(n), np.diff(block.indptr))
    if np.any(rows // b != block.indices // b):
        raise ValueError("interior blocks couple with each other")
    dense = np.zeros((n // b, b, b))
    # entry (r, c) of block r // b sits at flat position r b + c % b
    dense.reshape(-1)[rows * b + block.indices % b] = block.data
    try:
        inv = np.linalg.inv(dense)
    except np.linalg.LinAlgError:
        bad = int(np.argmin(np.abs(np.linalg.det(dense))))
        raise SingularMatrixError(f"singular interior block {bad}") from None
    return block_diagonal(inv)


def block_diagonal(blocks):
    """The block diagonal matrix of the (m, b, b) array `blocks` as a CSR
    matrix written straight in block layout: b entries per row, every entry
    of each block stored."""
    m, b, _ = blocks.shape
    n = m * b
    cols = np.broadcast_to(np.arange(n).reshape(m, 1, b), blocks.shape)
    return sp.csr_matrix((blocks.reshape(-1), cols.reshape(-1), np.arange(0, n * b + 1, b)),
                         shape=(n, n))


def backward_error(a, x, b):
    """Largest normwise backward error max|r| / (||a|| max|x| + max|b|)
    over the columns of x (infinity norms, r = b - a x)."""
    r = np.abs(a @ x - b).max(axis=0)
    a_norm = abs(a).sum(axis=1).max()
    return (r / (a_norm * np.abs(x).max(axis=0) + np.abs(b).max(axis=0))).max()


def quadratic_form(m, x):
    """x^T m x for a vector x, or for every column of an (n, k) block.

    Each column is summed as one contiguous row, so a column's value does
    not depend on the other columns of the block.
    """
    mx = m @ x
    return np.multiply(x.T, mx.T, order="C").sum(axis=-1)
