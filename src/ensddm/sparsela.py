"""Direct LU factorization of the subdomain matrices, and block solves.

One factorization serves any number of right-hand sides, which is what makes
the shared-coefficient-matrix ensemble iteration cheap: the two subdomain
matrices are factorized once per run and then only triangular solves remain,
one block solve per subdomain and iteration for all samples at once.

What is factorized is a condensed system S: the two MINI bubbles of each
free-flow triangle, and the six velocity copies and the head of each
triangle of the hybridized Darcy system, are eliminated inside their
element (`block_inverse`), and S and the maps of every solve are scatters
of element blocks into sparsity patterns that each space makes once
(`pattern`, `scatter`).  The unknowns of S come in a nested-dissection
order of the mesh (`nested_dissection`), folded into those patterns, and
`factorize` eliminates in that order.  Matrices are scipy CSR matrices, factors SuperLU
objects, and everything is float64.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_sample_offsets
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
    """LU-factorize a square scipy sparse matrix in the order of its rows
    and columns with diagonal pivots (SuperLU's symmetric mode); returns the
    SuperLU object, whose solve() takes an (n,) vector or an (n, k) block.

    That suits both condensed matrices: the Stokes one [A, -B^T; B, C] has a
    positive semidefinite symmetric part and a diagonal filled by the
    bubble stabilization C up to the pressure-mean multiplier, which is
    ordered last, where its diagonal is filled; the Darcy multiplier system
    is symmetric positive definite.  A zero pivot falls back to the largest
    entry of its column.  A block is one SuperLU call and comes back
    column-major; its columns equal column-by-column solves to rounding,
    and solving the same block again is bitwise repeatable.

    Raises ValueError for non-finite entries and SingularMatrixError for
    structurally or numerically singular input; the offending row index is
    reported when it can be identified.
    """
    global _factorize_calls
    csr = sp.csr_matrix(a)
    if not np.all(np.isfinite(csr.data)):
        raise ValueError("non-finite matrix entries")
    if csr.shape[0] != csr.shape[1]:
        raise ValueError("factorize requires a square matrix")
    csc = csr.tocsc()
    for m, what in ((csr, "row"), (csc, "column")):
        empty = np.flatnonzero(np.diff(m.indptr) == 0)
        if len(empty):
            raise SingularMatrixError(f"structurally singular: {what} {empty[0]} is empty",
                                      row=int(empty[0]))
    try:
        lu = splu(csc, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"singular pivot during LU: {exc}") from exc
    _factorize_calls += 1
    return lu


def nested_dissection(points, links):
    """A nested-dissection order (George 1973) of n mesh entities at
    `points` (n, 2) joined by the graph edges `links` (m, 2): entry k is the
    entity at position k.  Each part of more than two entities is cut at the
    median of its longer extent, and the smaller one-sided boundary of the
    cut, its separator, follows the two halves; a level is one pass."""
    n = len(points)
    key = np.zeros(n, dtype=np.int64)       # base-3 path: 0, 1 a cut's halves, 2 its separator
    part = np.zeros(n, dtype=np.int64)      # the part of each entity, -1 once placed
    i, j = np.asarray(links).T
    ent = np.arange(n)                      # the entities still in a part
    while ent.size:
        key *= 3
        ent = ent[np.argsort(part[ent], kind="stable")]
        p = np.cumsum(np.diff(part[ent], prepend=-1) != 0) - 1
        size = np.bincount(p)
        starts = np.cumsum(size) - size
        xy = points[ent]
        extent = np.maximum.reduceat(xy, starts) - np.minimum.reduceat(xy, starts)
        c = xy[np.arange(ent.size), np.argmax(extent, axis=1)[p]]
        # c sorted within each part: the fraction of c's range is below 1/2
        med = c[np.argsort(p + (c - c.min()) / (2 * (c.max() - c.min()) + 1))][starts + size // 2]
        left = c < med[p]
        left |= (c == med[p]) & (np.bincount(p, left, len(size)) == 0)[p]
        # an end of a link between the two halves of a part is on its boundary
        part[ent] = 2 * p + ~left
        hi, hj = part[i], part[j]
        cross = (hi >= 0) & (hi != hj) & (hi // 2 == hj // 2)
        mark = np.zeros(n, dtype=bool)
        mark[i[cross]] = mark[j[cross]] = True
        mark = mark[ent]
        right = np.bincount(p, mark & ~left, len(size)) <= np.bincount(p, mark & left, len(size))
        sep = mark & (left != right[p])
        leaf = ((size <= 2) | (extent.max(axis=1) == 0))[p]
        key[ent] += np.where(leaf, 0, np.where(sep, 2, ~left))
        part[ent[leaf | sep]] = -1
        ent = ent[~(leaf | sep)]
    return np.argsort(key, kind="stable")


def pattern(shape, *terms):
    """The sparsity pattern of CSR matrices of `shape` summing terms at
    (rows, columns) broadcast together, as element blocks at rows (m, a, 1)
    and columns (m, 1, b) or flat triplets, a negative index dropping an
    entry: each entry's int32 slot (nnz if dropped), found by a binary search
    in its row, and the index arrays of one COO-to-CSR conversion."""
    rc = [np.broadcast_arrays(r, c) for r, c in terms]
    rows, cols = (np.concatenate([t[i].ravel() for t in rc], dtype=np.int32) for i in (0, 1))
    kept = (rows >= 0) & (cols >= 0)
    rows, cols = rows[kept], cols[kept]
    csr = sp.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=shape)
    found = np.empty(len(rows), dtype=np.int32)
    csr_sample_offsets(*shape, csr.indptr, csr.indices, len(rows), rows, cols, found)
    del rows, cols                 # freed before the slots, for the peak memory
    slots = np.full(len(kept), csr.nnz, dtype=np.int32)
    slots[kept] = found
    split = np.split(slots, np.cumsum([r.size for r, _ in rc])[:-1])
    # the conversion leaves the indices in a buffer as long as the kept entries
    return (shape, [s.reshape(r.shape) for s, (r, _) in zip(split, rc)], csr.indices.copy(),
            csr.indptr)


def derived(pattern, select, *slots):
    """The pattern of select(m), where m is a matrix of `pattern` and `select`
    only picks, moves or transposes entries (m[order][:, order], m.T), with
    terms at `slots` of `pattern`: each slot is mapped, not searched for."""
    m = sp.csr_matrix((np.arange(len(pattern[2]), dtype=np.int32), *pattern[2:]), pattern[0])
    csr = select(m).tocsr().sorted_indices()
    to = np.full(m.nnz + 1, csr.nnz, dtype=np.int32)
    to[csr.data] = np.arange(csr.nnz)
    return csr.shape, [to[s] for s in slots], csr.indices, csr.indptr


def scatter(pattern, *values):
    """The CSR matrix of a `pattern` (sharing its index arrays) summing one
    array or scalar per term, by one np.bincount per term in entry order."""
    shape, slots, indices, indptr = pattern
    data = sum(np.bincount(k.ravel(), np.broadcast_to(v, k.shape).ravel(), len(indices) + 1)
               for k, v in zip(slots, values))
    return sp.csr_matrix((data[:-1], indices, indptr), shape=shape)


def block_inverse(blocks):
    """The inverses of the (m, b, b) `blocks`, in closed form for b = 2;
    a singular block raises SingularMatrixError naming the first."""
    try:
        if blocks.shape[1] != 2:
            return np.linalg.inv(blocks)
        det = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
        if det.all():
            adj = blocks[:, [[1, 0], [1, 0]], [[1, 1], [0, 0]]] * [[1.0, -1.0], [-1.0, 1.0]]
            return adj / det[:, None, None]
    except np.linalg.LinAlgError:
        det = np.linalg.det(blocks)        # by the same LU: exactly 0 at a zero pivot
    raise SingularMatrixError(f"singular interior block {np.flatnonzero(det == 0)[0]}")


# The probe block that checks each operator's solves once at construction.
# A normwise backward error above REFINE_ABOVE (16 eps; the benchmark's
# operators give at most 4 eps) switches on one refinement step against
# the matrix for every solve of that operator.
_PROBE_SEED, _PROBE_COLUMNS = 20240901, 2
REFINE_ABOVE = 16 * np.finfo(float).eps


class SubdomainOperator:
    """A subdomain matrix with boundary values on its fixed rows, solved
    through one factorization of a condensed system.  It keeps what `solve`
    reads (the dof count `n`, the factor, the three condensation maps, the
    block `A_fd` of the fixed columns), not the matrix.

    The `free` and `fixed` index arrays split the dofs.  `condensed()`
    returns the condensed matrix S and the CSR maps `condense`, `direct` and
    `recover`, whose columns and rows are dofs: x = direct b + recover S^-1
    condense b reads only the free rows of b, is zero on the fixed rows and
    solves A_ff x = b on the free ones.  `factor_seconds` covers that call,
    the factorization of S and a probe solve whose normwise backward error
    against A_ff, above REFINE_ABOVE, makes every solve take one refinement
    step against the matrix; the probe reads A_ff in the matrix, without a
    copy of A_ff (`_free_block_error`).
    """

    def __init__(self, matrix, free, fixed, condensed):
        self.n = matrix.shape[0]
        self.free, self.fixed = free, fixed
        self.A_fd = matrix[:, fixed]       # CSR; the fixed rows of its products go unread
        t0 = time.perf_counter()
        S, self._condense, self._direct, self._recover = condensed()
        self.factorization = factorize(S)
        del S
        b = np.zeros((self.n, _PROBE_COLUMNS))
        b[free] = np.random.default_rng(_PROBE_SEED).standard_normal((len(free), _PROBE_COLUMNS))
        self.probe_error = _free_block_error(matrix, self.A_fd, free, fixed, self._solve(b), b)
        self._A = matrix if self.probe_error > REFINE_ABOVE else None
        self.factor_seconds = time.perf_counter() - t0

    def _solve(self, rhs):
        """Whole dof vectors, zero on the fixed rows, from the free rows."""
        y = self.factorization.solve(self._condense @ rhs)
        x = self._direct @ rhs
        x += self._recover @ y
        return x

    def solve(self, rhs, fixed_values):
        """Whole dof vectors from whole right-hand sides, an (n_dofs,)
        vector or a row-major (n_dofs, k) block whose fixed rows are never
        read nor the block written: the fixed rows take `fixed_values` (0,
        or an (n_fixed,) vector or (n_fixed, k) block), and the free rows
        solve A_ff x = rhs - A_fd fixed_values."""
        if np.any(fixed_values):
            rhs = rhs - self.A_fd @ fixed_values
        x = self._solve(rhs)
        if self._A is not None:
            x += self._solve(rhs - self._A @ x)
        x[self.fixed] = fixed_values
        return x


def positions(n, dofs):
    """Each of n dofs' int32 position in `dofs`, else -1 (also at index -1)."""
    pos = np.full(n + 1, -1, dtype=np.int32)
    pos[dofs] = np.arange(len(dofs))
    return pos


def _free_block_error(matrix, a_fd, free, fixed, x, b):
    """The largest normwise backward error max|r| / (||A_ff|| max|x| +
    max|b|) over the columns of x (infinity norms, r = b - A_ff x) of the
    block A_ff = matrix[free][:, free] against the free rows of x and b,
    which are zero on the fixed rows, without copying A_ff.  The free rows
    of matrix x only add zero terms, a row with no entry in a fixed column
    (none in the block of the fixed columns `a_fd`) is a row of A_ff, and
    only the other free rows are copied, so every row of A_ff is summed as
    SciPy sums it: bitwise the error computed on the copied block."""
    r = matrix @ x - b
    r[fixed] = 0.0
    sums = np.asarray(abs(matrix).sum(axis=1)).ravel()
    rows = free[np.diff(a_fd.indptr)[free] > 0]
    sums[rows] = np.asarray(abs(matrix[rows][:, free]).sum(axis=1)).ravel()
    r = np.abs(r).max(axis=0)
    return (r / (sums[free].max() * np.abs(x).max(axis=0) + np.abs(b).max(axis=0))).max()


def quadratic_form(m, x):
    """x^T m x for a vector x, or for every column of an (n, k) block.

    Each column is summed as one contiguous row, so a column's value does
    not depend on the other columns of the block.
    """
    mx = m @ x
    return np.multiply(x.T, mx.T, order="C").sum(axis=-1)
