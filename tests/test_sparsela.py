import gc
import weakref
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, onenormest, spsolve, splu

from ensddm.sparsela import (REFINE_ABOVE, SingularMatrixError, block_inverse, factorize,
                             factorization_count, quadratic_form)


def backward_error(a, x, b):
    """Largest normwise backward error max|r| / (||a|| max|x| + max|b|)
    over the columns of x (infinity norms, r = b - a x); the reference of
    the operators' probe."""
    r = np.abs(a @ x - b).max(axis=0)
    a_norm = abs(a).sum(axis=1).max()
    return (r / (a_norm * np.abs(x).max(axis=0) + np.abs(b).max(axis=0))).max()


def test_identity_solve():
    f = factorize(sp.eye(3, format="csr"))
    b = np.array([1.0, -2.0, 3.5])
    np.testing.assert_array_equal(f.solve(b), b)


def test_diagonal_solve():
    A = sp.csr_matrix(np.diag([2.0, 4.0]))
    f = factorize(A)
    np.testing.assert_allclose(f.solve(np.array([2.0, 8.0])), [1.0, 2.0])


def test_random_spd_residual():
    rng = np.random.default_rng(42)
    B = rng.standard_normal((50, 50))
    A = B @ B.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    f = factorize(sp.csr_matrix(A))
    x = f.solve(b)
    res = np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1.0)
    assert res <= 1e-10


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        factorize(sp.csr_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_matrix_builders_reject_nonpositive_or_nonfinite_coefficients(bad):
    # the coefficient checks stand in for a check of the assembled entries
    from ensddm.bench_cli import manufactured_meshes
    from ensddm.darcy_fem import DarcyInterfaceInfo, build_darcy_space, darcy_matrix
    from ensddm.stokes_fem import (StokesElements, StokesInterfaceInfo, build_stokes_space,
                                   stokes_matrix)
    mesh_s, mesh_d, pairing = manufactured_meshes(1 / 2)
    space_s, space_d = build_stokes_space(mesh_s), build_darcy_space(mesh_d)
    iface_s, iface_d = StokesInterfaceInfo(space_s, pairing), DarcyInterfaceInfo(space_d, pairing)
    with pytest.raises(ValueError):
        StokesElements(space_s, bad, iface_s)          # the viscosity
    elements = StokesElements(space_s, 1.0, iface_s)
    stokes = dict(delta_s=1.0, xi=0.5)
    darcy = dict(g=1.0, weight=1.0, k_min=1.0, delta_d=1.0)
    for name in stokes:
        with pytest.raises(ValueError):
            stokes_matrix(elements, **{**stokes, name: bad})
    for name in darcy:
        with pytest.raises(ValueError):
            darcy_matrix(space_d, iface=iface_d, **{**darcy, name: bad})
    weight = np.ones(len(space_d.quad_weight))
    weight[3] = bad
    with pytest.raises(ValueError):
        darcy_matrix(space_d, 1.0, weight, 1.0, 1.0, iface_d)
    stokes_matrix(elements, **{**stokes, "xi": 0.0})     # no slip is valid


def test_structurally_singular_reports_row():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMatrixError) as info:
        factorize(A)
    assert info.value.row == 1


def test_numerically_singular_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        factorize(A)


def _free_block(matrix, op):
    """The free-row, free-column block A_ff of a builder's matrix."""
    return matrix[op.free][:, op.free]


def _whole(op, b):
    """The whole dof vector or block with `b` on the free rows, zero on the
    fixed ones."""
    x = np.zeros((op.n,) + b.shape[1:])
    x[op.free] = b
    return x


def _stokes_system(pressure_multiplier=True, nu=1.0, delta_s=1.0, xi=0.5, h=1 / 8):
    """The condensed Stokes operator and the free block of its stokes_matrix."""
    from ensddm.bench_cli import manufactured_meshes
    from ensddm.stokes_fem import (build_stokes_space, assemble_stokes_operator, stokes_matrix,
                                   StokesElements, StokesInterfaceInfo)

    ms, _, pairing = manufactured_meshes(h)
    space = build_stokes_space(ms, pressure_multiplier=pressure_multiplier)
    iface = StokesInterfaceInfo(space, pairing)
    elements = StokesElements(space, nu, iface)
    op = assemble_stokes_operator(elements, delta_s, xi)
    return op, _free_block(stokes_matrix(elements, delta_s, xi), op)


def _darcy_system(k_inv=1.0, delta_d=2.0):
    """The Darcy operator of the isotropic conductivity K = 1/k_inv (so
    k_min = K) and the free block of its darcy_matrix."""
    from ensddm.bench_cli import manufactured_meshes
    from ensddm.darcy_fem import (assemble_darcy_operator, build_darcy_space, darcy_matrix,
                                  DarcyInterfaceInfo)

    _, md, pairing = manufactured_meshes(1 / 8)
    space = build_darcy_space(md)
    iface = DarcyInterfaceInfo(space, pairing)
    weight = np.full(len(space.quad_weight), k_inv)
    op = assemble_darcy_operator(space, 1.0, weight, 1.0 / k_inv, delta_d, iface)
    return op, _free_block(darcy_matrix(space, 1.0, weight, 1.0 / k_inv, delta_d, iface), op)


@pytest.mark.parametrize("system", ["stokes", "darcy", "darcy_refined"])
def test_probe_error_is_that_of_the_copied_free_block(system):
    # the probe reads A_ff in the matrix; its error is bitwise the backward
    # error against the copied block, also where it switches on refinement
    from ensddm.sparsela import _PROBE_COLUMNS, _PROBE_SEED
    op, A_ff = {"stokes": _stokes_system, "darcy": _darcy_system,
                "darcy_refined": partial(_darcy_system, 1e-3, 100.0)}[system]()
    b = np.zeros((op.n, _PROBE_COLUMNS))
    b[op.free] = np.random.default_rng(_PROBE_SEED).standard_normal((len(op.free),
                                                                     _PROBE_COLUMNS))
    x = op._solve(b)
    assert not x[op.fixed].any()
    assert op.probe_error == backward_error(A_ff, x[op.free], b[op.free])
    assert (op.probe_error > REFINE_ABOVE) == (system == "darcy_refined")


@pytest.mark.parametrize("seed", range(4))
def test_free_block_error_is_that_of_the_copied_block(seed):
    # rows of several lengths, an empty one, and fixed rows and columns
    # among them, the last row fixed; entries over twelve decades, so that
    # a row summed in another order moves the norm
    from ensddm.sparsela import _free_block_error
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((60, 60)) * (rng.random((60, 60)) < 0.4)
    dense *= 10.0 ** rng.integers(-6, 7, (60, 60))
    dense[7] = 0.0
    a = sp.csr_matrix(dense)
    fixed = np.flatnonzero((rng.random(60) < 0.3) & (np.arange(60) != 7) | (np.arange(60) == 59))
    free = np.setdiff1d(np.arange(60), fixed)
    x, b = rng.standard_normal((2, 60, 3))
    x[fixed] = b[fixed] = 0.0
    got = _free_block_error(a, a[:, fixed], free, fixed, x, b)
    assert got == backward_error(a[free][:, free], x[free], b[free]) > 0


def _stokes_factorization():
    return _stokes_system()[0].factorization


def test_block_solve_matches_column_solves():
    # the block contract: one call, columns equal to per-column solves to
    # rounding (blocked kernels sum in another order), repeatable bitwise;
    # the condensed Stokes factor is the symmetric-mode one
    f = _stokes_factorization()
    rng = np.random.default_rng(3)
    B = rng.standard_normal((f.shape[0], 7))
    X = f.solve(B)
    assert X.shape == (f.shape[0], 7)
    for i in range(7):
        x = f.solve(B[:, i])
        assert np.linalg.norm(X[:, i] - x) <= 1e-12 * np.linalg.norm(x)
    np.testing.assert_array_equal(f.solve(B), X)


def test_block_solve_shapes():
    f = factorize(sp.eye(4, format="csr"))
    b = np.arange(4.0)
    assert f.solve(b).shape == (4,)
    X = f.solve(np.column_stack([b, b, b]))
    assert X.shape == (4, 3)
    np.testing.assert_array_equal(X, np.column_stack([b, b, b]))
    with pytest.raises(ValueError):
        f.solve(np.ones((5, 2)))
    with pytest.raises(ValueError):
        f.solve(np.ones((4, 2, 1)))


def test_inverse_columns_roundtrip():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    f = factorize(sp.csr_matrix(A))
    Ainv = f.solve(np.eye(6))
    assert np.abs(A @ Ainv - np.eye(6)).max() <= 1e-10


def test_quadratic_form_per_column():
    rng = np.random.default_rng(8)
    M = sp.random(30, 30, density=0.2, random_state=9, format="csr")
    M = M + M.T + 30 * sp.eye(30)
    X = rng.standard_normal((30, 4))
    q = quadratic_form(M, X)
    for i in range(4):
        assert q[i] == pytest.approx(X[:, i] @ (M @ X[:, i]), rel=1e-14)
        assert q[i] == quadratic_form(M, X[:, i])
    # a column's value does not depend on its neighbours
    assert quadratic_form(M, X[:, [1]])[0] == q[1]


def test_rhs_length_mismatch():
    f = factorize(sp.eye(3, format="csr"))
    with pytest.raises(ValueError):
        f.solve(np.ones(4))


def test_factorization_counter_increments():
    before = factorization_count()
    factorize(sp.eye(2, format="csr"))
    factorize(sp.eye(2, format="csr"))
    assert factorization_count() - before == 2


def test_saddle_point_roundtrip_reproduces_discrete_solution():
    # the condensed solve of an assembled saddle matrix reproduces a known
    # dof vector
    from ensddm.mesh import Rect, build_rect_mesh, pair_interface
    from ensddm.stokes_fem import (build_stokes_space, assemble_stokes_operator, stokes_matrix,
                                   StokesElements, StokesInterfaceInfo)

    ms = build_rect_mesh(Rect(0, 1, 0, 1), 4, 4, side_tags={"bottom": "INTERFACE"})
    md = build_rect_mesh(Rect(0, 1, -1, 0), 4, 4, side_tags={"top": "INTERFACE"})
    pairing = pair_interface(ms, md)
    space = build_stokes_space(ms)
    iface = StokesInterfaceInfo(space, pairing)
    elements = StokesElements(space, 1.0, iface)
    op = assemble_stokes_operator(elements, 1.0, 0.5)
    A_ff = _free_block(stokes_matrix(elements, 1.0, 0.5), op)
    rng = np.random.default_rng(21)
    x_star = rng.standard_normal(A_ff.shape[0])
    b = A_ff @ x_star
    x = op.solve(_whole(op, b), 0.0)[op.free]
    assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) <= 1e-9


def _check_subdomain_solve(op, A_ff):
    # whole dof blocks in and out: the free rows solve
    # A_ff x = rhs - A_fd fixed, the fixed rows are the given boundary values
    n, k = op.n, 5
    rng = np.random.default_rng(11)
    B = rng.standard_normal((len(op.free), k))
    fixed = rng.standard_normal((len(op.fixed), k))
    W = _whole(op, B)

    x = op.solve(W[:, 0], 0.0)
    assert x.shape == (n,)
    assert np.all(x[op.fixed] == 0.0)
    r = A_ff @ x[op.free] - B[:, 0]
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(B[:, 0])

    X = op.solve(W, fixed)
    assert X.shape == (n, k) and X.flags.c_contiguous
    np.testing.assert_array_equal(X[op.fixed], fixed)
    lifted = B - op.A_fd[op.free] @ fixed
    R = A_ff @ X[op.free] - lifted
    assert np.all(np.linalg.norm(R, axis=0) <= 1e-12 * np.linalg.norm(lifted, axis=0))
    for i in range(k):
        xi = op.solve(W[:, i], fixed[:, i])
        np.testing.assert_array_equal(xi[op.fixed], fixed[:, i])
        assert np.linalg.norm(X[:, i] - xi) <= 1e-12 * np.linalg.norm(xi)
    Z = op.solve(_whole(op, lifted), 0.0)
    assert np.all(Z[op.fixed] == 0.0)
    np.testing.assert_array_equal(Z[op.free], X[op.free])
    # the right-hand side is not written to
    W0 = W.copy()
    op.solve(W, fixed)
    np.testing.assert_array_equal(W, W0)


def test_subdomain_solve_vector_and_block():
    _check_subdomain_solve(*_stokes_system())


def test_condensed_stokes_solve_without_pressure_multiplier():
    _check_subdomain_solve(*_stokes_system(pressure_multiplier=False))


def test_operator_drops_the_matrix_it_was_built_from():
    # a sweep reads the factor, not the assembled matrix
    from ensddm.bench_cli import manufactured_meshes
    from ensddm.sparsela import SubdomainOperator
    from ensddm.stokes_fem import (_condensed, build_stokes_space, stokes_matrix, StokesElements,
                                   StokesInterfaceInfo)

    ms, _, pairing = manufactured_meshes(1 / 4)
    space = build_stokes_space(ms)
    iface = StokesInterfaceInfo(space, pairing)
    elements = StokesElements(space, 1.0, iface)
    matrix = stokes_matrix(elements, 1.0, 0.5)
    ref = weakref.ref(matrix)
    op = SubdomainOperator(matrix, space.free, space.fixed,
                           partial(_condensed, elements, 1.0, 0.5))
    del matrix
    gc.collect()
    assert ref() is None
    assert op.n == space.n_dofs


def test_condensed_stokes_solve_of_zero_data_is_exact_zero():
    op = _stokes_system()[0]
    x = op.solve(np.zeros(op.n), 0.0)
    X = op.solve(np.zeros((op.n, 3)), np.zeros((len(op.fixed), 3)))
    assert not x.any() and not X.any()


def _stokes_boundary_case():
    """The Stokes operator of the manufactured meshes at h = 1/8, its
    matrix and the manufactured Dirichlet data of two samples."""
    from ensddm.bench_cli import manufactured_bc, manufactured_meshes
    from ensddm.ensemble_driver import stokes_dirichlet_values
    from ensddm.manufactured import ManufacturedSolution
    from ensddm.stokes_fem import (build_stokes_space, assemble_stokes_operator, stokes_matrix,
                                   StokesElements, StokesInterfaceInfo)

    ms, _, pairing = manufactured_meshes(1 / 8)
    space = build_stokes_space(ms)
    iface = StokesInterfaceInfo(space, pairing)
    elements = StokesElements(space, 1.0, iface)
    bc = manufactured_bc([ManufacturedSolution(k, k) for k in (0.5, 2.21)])
    g = np.column_stack([stokes_dirichlet_values(space, bc.stokes_values, j) for j in range(2)])
    return (assemble_stokes_operator(elements, 1.0, 0.5),
            stokes_matrix(elements, 1.0, 0.5), g)


def _darcy_boundary_case():
    """The Darcy operator of the manufactured meshes at h = 1/8 with its
    default essential sides, its matrix and the essential data of two
    samples: the exact normal velocity at the essential edges' ends."""
    from ensddm.bench_cli import manufactured_meshes
    from ensddm.darcy_fem import (assemble_darcy_operator, build_darcy_space, darcy_matrix,
                                  DarcyInterfaceInfo)
    from ensddm.manufactured import ManufacturedSolution

    _, md, pairing = manufactured_meshes(1 / 8)
    space = build_darcy_space(md)
    iface = DarcyInterfaceInfo(space, pairing)
    weight = np.full(len(space.quad_weight), 1.0 / 2.21)
    edges = space.essential_edges
    g = np.zeros((space.n_dofs, 2))
    for j, k in enumerate((0.5, 2.21)):
        u_D = ManufacturedSolution(k, k).u_D
        for end in range(2):
            u = u_D(md.verts[md.edges[edges, end]])
            g[2 * edges + end, j] = np.einsum("ij,ij->i", u, space.edge_normal[edges])
    return (assemble_darcy_operator(space, 1.0, weight, 2.21, 2.0, iface),
            darcy_matrix(space, 1.0, weight, 2.21, 2.0, iface), g[space.fixed])


@pytest.mark.parametrize("case", [_stokes_boundary_case, _darcy_boundary_case])
def test_solve_takes_whole_blocks_and_lifts_the_boundary_values(case):
    # the fixed rows of the right-hand side are never read and the block is
    # not written; the free rows solve A_ff x = rhs - A_fd g, the fixed rows
    # are g
    op, matrix, g = case()
    rhs = np.random.default_rng(41).standard_normal((op.n, 2))
    rhs[op.fixed] = np.nan
    rhs0 = rhs.copy()
    x = op.solve(rhs, g)
    np.testing.assert_array_equal(rhs, rhs0)
    np.testing.assert_array_equal(x[op.fixed], g)
    rows = matrix[op.free]
    ref = spsolve(rows[:, op.free].tocsc(), rhs[op.free] - rows[:, op.fixed] @ g)
    assert _rel_diff(x[op.free], ref) <= 1e-12
    rhs[op.fixed] = 0.0
    np.testing.assert_array_equal(op.solve(rhs, g), x)


def test_stokes_factor_holds_no_bubbles_and_less_fill():
    # the two bubbles of each triangle are condensed out before the one
    # factorization, which then holds fewer unknowns and less fill
    from ensddm.bench_cli import manufactured_meshes

    n_tris = manufactured_meshes(1 / 8)[0].n_tris
    for pin in (True, False):
        op, A_ff = _stokes_system(pressure_multiplier=pin)
        f = op.factorization
        assert f.shape == (len(op.free) - 2 * n_tris,) * 2
        full = factorize(A_ff)
        assert f.L.nnz + f.U.nnz < full.L.nnz + full.U.nnz
        assert f.nnz < full.nnz


def test_hybrid_darcy_solve_matches_the_plain_factor_solve():
    # the hybridized operator factorizes the multiplier system, not A_ff:
    # one unknown per multiplier, with a symmetric positive definite
    # matrix; its solves match a partial-pivot factor of A_ff to rounding
    from ensddm.bench_cli import manufactured_meshes
    from ensddm.darcy_fem import build_darcy_space

    op, A_ff = _darcy_system()
    space = build_darcy_space(manufactured_meshes(1 / 8)[1])
    assert op.factorization.shape == (len(space.order),) * 2
    assert op.factorization.shape[0] < A_ff.shape[0]
    B = np.random.default_rng(5).standard_normal((len(op.free), 4))
    ref = _colamd_partial_pivot(A_ff)
    assert _rel_diff(op.solve(_whole(op, B), 0.0)[op.free], ref.solve(B)) <= 1e-12
    assert _rel_diff(op.solve(_whole(op, B[:, 1]), 0.0)[op.free], ref.solve(B[:, 1])) <= 1e-12
    # diagonal pivots of a symmetric positive definite matrix are positive
    assert np.all(op.factorization.U.diagonal() > 0)


def test_block_inverse_of_pairs_and_element_blocks():
    # one batched inverse of b x b blocks, for the MINI bubble pairs (b = 2,
    # in closed form) and the BDM1-P0 element blocks (b = 7)
    rng = np.random.default_rng(31)
    for b in (2, 7):
        blocks = rng.standard_normal((5, b, b)) + b * np.eye(b)
        np.testing.assert_allclose(block_inverse(blocks), np.linalg.inv(blocks),
                                   rtol=0, atol=1e-13)
        singular = blocks.copy()
        singular[3, 1] = 0.0                  # block 3 has a zero row
        with pytest.raises(SingularMatrixError, match="block 3"):
            block_inverse(singular)


@pytest.mark.parametrize("where", [0, 3])
def test_block_inverse_names_a_pair_singular_in_closed_form_only(where):
    # the closed-form determinant of this pair is exactly 0, LAPACK's is not
    pair = np.array([[1.65276355e-02, 8.13270239e-01], [9.12755577e-01, 44.91368086229714]])
    assert pair[0, 0] * pair[1, 1] - pair[0, 1] * pair[1, 0] == 0.0
    assert np.linalg.det(pair) != 0.0
    blocks = np.tile(2.0 * np.eye(2), (5, 1, 1))
    blocks[where] = pair
    with pytest.raises(SingularMatrixError, match=f"block {where}$"):
        block_inverse(blocks)


def test_interior_pairs_must_not_couple():
    # each triangle's two bubbles couple only with each other: the part of
    # the solve that reads the bubble rows of the right-hand side directly is
    # the block diagonal of the 2 x 2 inverse bubble blocks; the condensed
    # solve is exact
    op, A_ff = _stokes_system(h=1 / 4)
    from ensddm.bench_cli import manufactured_meshes
    from ensddm.stokes_fem import build_stokes_space

    space = build_stokes_space(manufactured_meshes(1 / 4)[0])
    bubbles = space.vel_elem_dofs[:, [3, 7]]
    pos = np.searchsorted(op.free, bubbles)
    direct = op._direct.tocoo()
    assert set(direct.row) <= set(bubbles.ravel())
    pair_of = np.empty(space.n_dofs, dtype=np.int64)
    pair_of[bubbles] = np.arange(len(bubbles))[:, None]
    assert np.array_equal(pair_of[direct.row], pair_of[direct.col])
    assert direct.nnz == 4 * len(bubbles) and np.all(op.free[pos] == bubbles)
    b = np.random.default_rng(33).standard_normal(len(op.free))
    x = op.solve(_whole(op, b), 0.0)[op.free]
    assert np.abs(A_ff @ x - b).max() <= 1e-13 * np.abs(b).max()


# -- the symmetric-mode factors against partial pivoting -------------------


def _colamd_partial_pivot(a, threshold=1.0):
    return splu(sp.csc_matrix(a), permc_spec="COLAMD", diag_pivot_thresh=threshold)


def _rel_diff(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def test_symmetric_mode_solves_bordered_matrix_with_zero_corner():
    # a definite block bordered by one dense row and column whose diagonal
    # entry is the only zero one, like the pressure-mean multiplier
    rng = np.random.default_rng(12)
    n = 40
    A = sp.random(n, n, density=0.1, random_state=13) + 10 * sp.eye(n)
    m = rng.uniform(0.5, 1.5, n)
    K = sp.bmat([[A, -m[:, None]], [m[None, :], None]]).tocsr()
    assert K.diagonal()[-1] == 0.0 and np.all(K.diagonal()[:-1] != 0.0)
    b = rng.standard_normal(n + 1)
    x = factorize(K).solve(b)
    assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("pin", [True, False])
@pytest.mark.parametrize("nu,delta_s,xi", [(1.0, 1.0, 0.5), (1.0, 100.0, 0.5),
                                           (0.01, 1.0, 0.5), (100.0, 1.0, 0.5),
                                           (1.0, 0.01, 100.0), (1e-3, 100.0, 0.0)])
def test_symmetric_mode_stokes_solve_matches_partial_pivoting(nu, delta_s, xi, pin):
    # the condensed Stokes factor in symmetric mode against a COLAMD
    # partial-pivot factor of the same free-row matrix, over the parameter
    # range of the scenarios and beyond
    op, A_ff = _stokes_system(pin, nu, delta_s, xi)
    B = np.random.default_rng(17).standard_normal((len(op.free), 4))
    ref = _colamd_partial_pivot(A_ff).solve(B)
    assert _rel_diff(op.solve(_whole(op, B), 0.0)[op.free], ref) <= 1e-10


@pytest.mark.parametrize("k_inv", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("delta_d", [0.05, 2.0, 100.0])
def test_threshold_pivoted_darcy_solve_matches_partial_pivoting(k_inv, delta_d):
    # the hybridized Darcy operator against a partial-pivot factor of the
    # conforming free block, with the isotropic conductivity K = 1/k_inv
    # (so k_min = K)
    op, A_ff = _darcy_system(k_inv, delta_d)
    B = np.random.default_rng(18).standard_normal((len(op.free), 4))
    x = op.solve(_whole(op, B), 0.0)[op.free]
    ref_lu = _colamd_partial_pivot(A_ff)
    ref = ref_lu.solve(B)
    assert backward_error(A_ff, x, B) <= 1e-14
    assert backward_error(A_ff, ref, B) <= 1e-14
    # two backward stable solves differ by up to about eps * cond; at
    # k_inv = 1e-3 cond_1 is about 1e10, so no two factors agree to 1e-10
    n = A_ff.shape[0]
    inv = LinearOperator((n, n), matvec=ref_lu.solve,
                         rmatvec=lambda y: ref_lu.solve(y, trans="T"))
    cond = onenormest(inv) * abs(A_ff).sum(axis=0).max()
    assert _rel_diff(x, ref) <= max(1e-10, 1e-15 * cond)


def test_pressure_multiplier_costs_under_twice_the_fill():
    # the multiplier's row and column couple to every pressure dof; ordered
    # last in symmetric mode they add little fill (partial pivoting in
    # COLAMD order stored 3.8x the fill at this size)
    with_pin, without = (_stokes_system(pin, h=1 / 32)[0].factorization.nnz
                         for pin in (True, False))
    assert with_pin < 2 * without


def test_probe_switches_on_refinement_only_where_the_solve_needs_it():
    # at delta_d = 100 and K = 1000 the multiplier solve alone has a
    # backward error of about 1e-14, so the probe keeps A_ff and refines;
    # the channel operator of the Monte Carlo scenario needs no refinement
    from ensddm.bench_cli import ScenarioConfig, channel_bc, channel_meshes, channel_samples, \
        resolve_delta_d, scenario_context
    from ensddm.darcy_fem import DarcyInterfaceInfo, build_darcy_space
    from ensddm.ensemble_driver import _setup
    from ensddm.stokes_fem import StokesElements, build_stokes_space, StokesInterfaceInfo

    op, A_ff = _darcy_system(1e-3, 100.0)
    assert op.probe_error > REFINE_ABOVE
    B = np.random.default_rng(19).standard_normal((len(op.free), 3))
    x = op.solve(_whole(op, B), 0.0)[op.free]
    assert backward_error(A_ff, x, B) <= 4 * np.finfo(float).eps

    cfg = ScenarioConfig(scenario="channel_mc", J=8)
    mesh_s, mesh_d, pairing = channel_meshes(1 / 8)
    bc = channel_bc()
    samples = channel_samples(cfg, mesh_d)[0]
    ctx, _ = scenario_context(cfg, samples, resolve_delta_d(cfg, pairing.length, 1 / 8))
    space_s = build_stokes_space(mesh_s, dirichlet_tags=bc.stokes_dirichlet_tags,
                                 pressure_multiplier=bc.stokes_pressure_multiplier)
    space_d = build_darcy_space(mesh_d, essential_tags=bc.darcy_essential_tags)
    su, _ = _setup(ctx, ctx.samples,
                   StokesElements(space_s, ctx.nu, StokesInterfaceInfo(space_s, pairing)),
                   space_d, DarcyInterfaceInfo(space_d, pairing), bc, range(ctx.J))
    assert su.op_d.probe_error <= REFINE_ABOVE
    assert su.op_s.probe_error <= REFINE_ABOVE


def test_hybrid_darcy_factor_stores_under_six_tenths_of_the_conforming_fill():
    # the conforming saddle-point matrix needs pivoting: COLAMD with
    # threshold partial pivoting at 0.5 was its factor
    from ensddm.bench_cli import manufactured_meshes
    from ensddm.darcy_fem import (assemble_darcy_operator, build_darcy_space, darcy_matrix,
                                  DarcyInterfaceInfo)

    _, md, pairing = manufactured_meshes(1 / 32)
    space = build_darcy_space(md)
    iface = DarcyInterfaceInfo(space, pairing)
    weight = np.ones(len(space.quad_weight))
    op = assemble_darcy_operator(space, 1.0, weight, 1.0, 2.0, iface)
    A_ff = _free_block(darcy_matrix(space, 1.0, weight, 1.0, 2.0, iface), op)
    assert op.factorization.nnz < 0.6 * _colamd_partial_pivot(A_ff, threshold=0.5).nnz


# -- sparsity patterns against the per-term oracle ----------------------------


def _pattern_oracle(shape, *terms):
    """The oracle of `pattern`: one boolean CSR per term, summed, and every
    slot looked up in the sum by `csr[rows, cols]`."""
    rc = [np.broadcast_arrays(r, c) for r, c in terms]
    keep = [(r >= 0) & (c >= 0) for r, c in rc]
    csr = sum(sp.csr_matrix((np.ones(np.count_nonzero(k), dtype=bool), (r[k], c[k])), shape=shape)
              for (r, c), k in zip(rc, keep))
    csr.data = np.arange(csr.nnz, dtype=np.int32)
    slots = [np.full(r.shape, csr.nnz, dtype=np.int32) for r, _ in rc]
    for slot, (r, c), k in zip(slots, rc, keep):
        slot[k] = np.asarray(csr[r[k], c[k]]).ravel()
    return shape, slots, csr.indices, csr.indptr


def _assert_same_pattern(got, want):
    """Shape, every term's slots and both index arrays, bitwise with dtypes."""
    assert got[0] == want[0] and len(got[1]) == len(want[1])
    for a, b in zip((*got[1], got[2], got[3]), (*want[1], want[2], want[3])):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _random_terms(rng, shape):
    """Element blocks and triplets over `shape`, with dropped (negative)
    indices, repeated entries and rows left empty."""
    rows = rng.choice(shape[0], size=max(1, shape[0] // 2), replace=False)   # the rest stay empty
    m, a, b = rng.integers(1, 9), rng.integers(1, 5), rng.integers(1, 5)
    br = np.where(rng.random((m, a)) < 0.2, -1, rng.choice(rows, (m, a)))
    bc = rng.integers(-1, shape[1], (m, b))
    k = rng.integers(0, 3 * shape[0])
    tr, tc = rng.choice(rows, k), rng.integers(-1, shape[1], k)
    return (br[:, :, None], bc[:, None, :]), (tr, tc), (tr[::-1], tc[::-1])


@pytest.mark.parametrize("shape", [(7, 7), (5, 11), (12, 4), (1, 1)])
def test_pattern_matches_the_per_term_oracle(shape):
    from ensddm.sparsela import pattern

    rng = np.random.default_rng(sum(shape))
    for _ in range(20):
        terms = _random_terms(rng, shape)
        _assert_same_pattern(pattern(shape, *terms), _pattern_oracle(shape, *terms))
    # a term that keeps no entry
    empty = ([-1, 0], [0, -1])
    _assert_same_pattern(pattern(shape, empty), _pattern_oracle(shape, empty))


def test_derived_patterns_match_the_oracle():
    # a restriction to an order of rows and columns, and the transpose, each
    # as the pattern of its own terms
    from ensddm.sparsela import derived, pattern, positions

    rng = np.random.default_rng(41)
    for n in (1, 6, 13):
        for _ in range(10):
            terms = _random_terms(rng, (n, n))
            whole = pattern((n, n), *terms)
            order = rng.permutation(n)[:rng.integers(0, n + 1)]
            s_of = positions(n, order)
            _assert_same_pattern(derived(whole, lambda m: m[order][:, order], *whole[1]),
                                 _pattern_oracle((len(order),) * 2,
                                                 *((s_of[r], s_of[c]) for r, c in terms)))
            flip = [np.swapaxes(s, -1, -2) if s.ndim > 1 else s for s in whole[1]]
            flipped = [(np.swapaxes(c, -1, -2), np.swapaxes(r, -1, -2)) if np.ndim(r) > 1
                       else (c, r) for r, c in terms]
            _assert_same_pattern(derived(whole, lambda m: m.T, *flip),
                                 _pattern_oracle((n, n), *flipped))


def _stokes_pattern_oracle(space):
    """The ten patterns' oracle, part one: every Stokes pattern from its own
    terms (S in the space's order, `recover` its own terms)."""
    from ensddm.sparsela import positions
    from ensddm.stokes_fem import _BUBBLES, _REST

    d, n, n_s = space.elem_dofs, space.n_dofs, len(space.order)
    s_of = positions(n, space.order)
    md = n - 1 if space.pressure_multiplier else -1
    r, b, k, pd = s_of[d[:, _REST]], d[:, _BUBBLES], np.arange(n_s), d[:, 8:].ravel()
    P = _pattern_oracle
    return {"matrix": P((n, n), (d[:, :, None], d[:, None, :]), (pd, md), (md, pd)),
            "S": P((n_s, n_s), (r[:, :, None], r[:, None, :]), (s_of[pd], s_of[md]),
                   (s_of[md], s_of[pd])),
            "condense": P((n_s, n), (r[:, :, None], b[:, None, :]), (k, space.order)),
            "direct": P((n, n), (b[:, :, None], b[:, None, :])),
            "recover": P((n, n_s), (b[:, :, None], r[:, None, :]), (space.order, k))}


def _darcy_pattern_oracle(space):
    """Part two: every Darcy pattern from its own terms."""
    from ensddm.sparsela import positions

    n, n_s = space.n_dofs, len(space.order)
    h = space.hybrid_dofs.astype(np.int32)
    m = positions(n, space.order)[h]
    first = space.sign > 0
    c = np.where(first & ~np.isin(h, space.fixed), h, -1)
    P = _pattern_oracle
    return {"matrix": P((n, n), (h[:, :, None], h[:, None, :])),
            "S": P((n_s, n_s), (m[:, :, None], m[:, None, :])),
            "condense": P((n_s, n), (m[:, :, None], c[:, None, :])),
            "direct": P((n, n), (c[:, :, None], c[:, None, :])),
            "recover": P((n, n_s), (c[:, :, None], m[:, None, :]))}


@pytest.mark.parametrize("geometry", ["channel", "manufactured"])
def test_space_patterns_match_the_oracle(geometry):
    # S is derived from the matrix and `recover` from `condense`; both equal
    # the patterns of their own terms, with and without the multiplier
    from ensddm.bench_cli import channel_bc, channel_meshes, manufactured_meshes
    from ensddm.darcy_fem import build_darcy_space
    from ensddm.stokes_fem import build_stokes_space

    if geometry == "channel":
        ms, md, _ = channel_meshes(1 / 8)
        bc = channel_bc()
        tags_s, tags_d = bc.stokes_dirichlet_tags, bc.darcy_essential_tags
    else:
        ms, md, _ = manufactured_meshes(1 / 8)
        tags_s = tags_d = None
    spaces = [build_stokes_space(ms, dirichlet_tags=tags_s, pressure_multiplier=pin)
              for pin in (True, False)]
    for space in spaces:
        oracle = _stokes_pattern_oracle(space)
        assert space.patterns.keys() == oracle.keys()
        for key in oracle:
            _assert_same_pattern(space.patterns[key], oracle[key])
    space = build_darcy_space(md, essential_tags=tags_d)
    oracle = _darcy_pattern_oracle(space)
    assert space.patterns.keys() == oracle.keys()
    for key in oracle:
        _assert_same_pattern(space.patterns[key], oracle[key])
