import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from ensddm.sparsela import (SingularMatrixError, factorize,
                             factorization_count, quadratic_form)


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
    from ensddm.darcy_fem import build_darcy_space, darcy_form, darcy_matrix
    from ensddm.stokes_fem import build_stokes_space, stokes_matrix
    mesh_s, mesh_d, pairing = manufactured_meshes(1 / 2)
    space_s, space_d = build_stokes_space(mesh_s), build_darcy_space(mesh_d)
    stokes = dict(nu=1.0, delta_s=1.0, xi=0.5)
    darcy = dict(g=1.0, weight=1.0, k_min=1.0, delta_d=1.0)
    for name in stokes:
        with pytest.raises(ValueError):
            stokes_matrix(space_s, pairing=pairing, **{**stokes, name: bad})
    for name in darcy:
        with pytest.raises(ValueError):
            darcy_matrix(space_d, pairing=pairing, **{**darcy, name: bad})
    weight = np.ones(space_d.eval_op.shape[0])
    weight[3] = bad
    with pytest.raises(ValueError):
        darcy_form(space_d, 1.0, weight, 1.0)
    stokes_matrix(space_s, pairing=pairing, **{**stokes, "xi": 0.0})     # no slip is valid


def test_structurally_singular_reports_row():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMatrixError) as info:
        factorize(A)
    assert info.value.row == 1


def test_numerically_singular_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        factorize(A)
    with pytest.raises(SingularMatrixError):
        factorize(A, symmetric=True)


def _free_block(matrix, op):
    """The free-row, free-column block A_ff of a builder's matrix."""
    return matrix[op.free][:, op.free]


def _stokes_system(pressure_multiplier=True, nu=1.0, delta_s=1.0, xi=0.5, h=1 / 8):
    """The condensed Stokes operator and the free block of its stokes_matrix."""
    from ensddm.bench_cli import manufactured_meshes
    from ensddm.stokes_fem import build_stokes_space, assemble_stokes_operator, stokes_matrix

    ms, _, pairing = manufactured_meshes(h)
    space = build_stokes_space(ms, pressure_multiplier=pressure_multiplier)
    op = assemble_stokes_operator(space, nu, delta_s, xi, pairing)
    return op, _free_block(stokes_matrix(space, nu, delta_s, xi, pairing), op)


def _darcy_system(k_inv=1.0, delta_d=2.0):
    """The Darcy operator of the isotropic conductivity K = 1/k_inv (so
    k_min = K) and the free block of its darcy_matrix."""
    from ensddm.bench_cli import manufactured_meshes
    from ensddm.darcy_fem import assemble_darcy_operator, build_darcy_space, darcy_matrix

    _, md, pairing = manufactured_meshes(1 / 8)
    space = build_darcy_space(md)
    weight = np.full(space.eval_op.shape[0], k_inv)
    op = assemble_darcy_operator(space, 1.0, weight, 1.0 / k_inv, delta_d, pairing)
    return op, _free_block(darcy_matrix(space, 1.0, weight, 1.0 / k_inv, delta_d, pairing), op)


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
    from ensddm.stokes_fem import build_stokes_space, assemble_stokes_operator, stokes_matrix

    ms = build_rect_mesh(Rect(0, 1, 0, 1), 4, 4, side_tags={"bottom": "INTERFACE"})
    md = build_rect_mesh(Rect(0, 1, -1, 0), 4, 4, side_tags={"top": "INTERFACE"})
    pairing = pair_interface(ms, md)
    space = build_stokes_space(ms)
    op = assemble_stokes_operator(space, 1.0, 1.0, 0.5, pairing)
    A_ff = _free_block(stokes_matrix(space, 1.0, 1.0, 0.5, pairing), op)
    rng = np.random.default_rng(21)
    x_star = rng.standard_normal(A_ff.shape[0])
    b = A_ff @ x_star
    x = op.solve(b, 0.0)[op.free]
    assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) <= 1e-9


def _check_subdomain_solve(op, A_ff):
    # free rows in, full-length solutions out: the free rows solve
    # A_ff x = rhs, the fixed rows are the given boundary values
    n, k = op.n, 5
    rng = np.random.default_rng(11)
    B = rng.standard_normal((len(op.free), k))
    fixed = rng.standard_normal((len(op.fixed), k))

    x = op.solve(B[:, 0], 0.0)
    assert x.shape == (n,)
    assert np.all(x[op.fixed] == 0.0)
    r = A_ff @ x[op.free] - B[:, 0]
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(B[:, 0])

    X = op.solve(B, fixed)
    assert X.shape == (n, k) and X.flags.f_contiguous
    np.testing.assert_array_equal(X[op.fixed], fixed)
    R = A_ff @ X[op.free] - B
    assert np.all(np.linalg.norm(R, axis=0) <= 1e-12 * np.linalg.norm(B, axis=0))
    for i in range(k):
        xi = op.solve(B[:, i], fixed[:, i])
        np.testing.assert_array_equal(xi[op.fixed], fixed[:, i])
        assert np.linalg.norm(X[:, i] - xi) <= 1e-12 * np.linalg.norm(xi)
    Z = op.solve(B, 0.0)
    assert np.all(Z[op.fixed] == 0.0)
    np.testing.assert_array_equal(Z[op.free], X[op.free])
    # the right-hand side is not written to
    B0 = B.copy()
    op.solve(B, fixed)
    np.testing.assert_array_equal(B, B0)


def test_subdomain_solve_vector_and_block():
    _check_subdomain_solve(*_stokes_system())


def test_condensed_stokes_solve_without_pressure_multiplier():
    _check_subdomain_solve(*_stokes_system(pressure_multiplier=False))


def test_operator_drops_the_matrix_it_was_built_from():
    # a sweep reads the factor, not the assembled matrix
    from ensddm.bench_cli import manufactured_meshes
    from ensddm.sparsela import SubdomainOperator
    from ensddm.stokes_fem import build_stokes_space, stokes_matrix

    ms, _, pairing = manufactured_meshes(1 / 4)
    space = build_stokes_space(ms)
    matrix = stokes_matrix(space, 1.0, 1.0, 0.5, pairing)
    ref = weakref.ref(matrix)
    op = SubdomainOperator(matrix, space.free, space.fixed, space.vel_elem_dofs[:, [3, 7]])
    del matrix
    gc.collect()
    assert ref() is None
    assert op.n == space.n_dofs


def test_condensed_stokes_solve_of_zero_data_is_exact_zero():
    op = _stokes_system()[0]
    x = op.solve(np.zeros(len(op.free)), 0.0)
    X = op.solve(np.zeros((len(op.free), 3)), np.zeros((len(op.fixed), 3)))
    assert not x.any() and not X.any()


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


def test_darcy_solve_without_interior_pairs_is_the_plain_factor_solve():
    # no pairs to condense: the operator factorizes A_ff itself and its
    # solve is the plain factor solve, bitwise
    op, A_ff = _darcy_system()
    assert op.factorization.shape == A_ff.shape
    f = factorize(A_ff)
    B = np.random.default_rng(5).standard_normal((len(op.free), 4))
    np.testing.assert_array_equal(op.solve(B, 0.0)[op.free], f.solve(B))
    np.testing.assert_array_equal(op.solve(B[:, 1], 0.0)[op.free], f.solve(B[:, 1]))


def test_interior_pairs_must_not_couple():
    from ensddm.sparsela import SubdomainOperator

    A = sp.csr_matrix(np.array([[4.0, 1.0, 0.0, 1.0],
                                [1.0, 4.0, 1.0, 0.0],
                                [0.0, 1.0, 4.0, 1.0],
                                [1.0, 0.0, 1.0, 4.0]]))
    free, fixed = np.arange(4), np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError):
        SubdomainOperator(A, free, fixed, np.array([[0, 1], [2, 3]]))
    # a pair coupled only with itself and the rest condenses exactly
    op = SubdomainOperator(A, free, fixed, np.array([[0, 2]]))
    assert op.factorization.shape == (2, 2)
    b = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_allclose(A @ op.solve(b, 0.0), b, rtol=0, atol=1e-14)


# -- the two factorization modes -------------------------------------------


def _colamd_partial_pivot(a):
    return splu(sp.csc_matrix(a), permc_spec="COLAMD", diag_pivot_thresh=1.0)


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
    x = factorize(K, symmetric=True).solve(b)
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
    assert _rel_diff(op.solve(B, 0.0)[op.free], ref) <= 1e-10


def _backward_error(a, x, b):
    """Largest normwise backward error max|r| / (||a|| max|x| + max|b|)
    over the columns of x."""
    r = np.abs(a @ x - b).max(axis=0)
    a_norm = abs(a).sum(axis=1).max()
    return (r / (a_norm * np.abs(x).max(axis=0) + np.abs(b).max(axis=0))).max()


@pytest.mark.parametrize("k_inv", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("delta_d", [0.05, 2.0, 100.0])
def test_threshold_pivoted_darcy_solve_matches_partial_pivoting(k_inv, delta_d):
    # the Darcy factor at pivot threshold 0.5 against threshold 1.0, with
    # the isotropic conductivity K = 1/k_inv (so k_min = K)
    op, A_ff = _darcy_system(k_inv, delta_d)
    B = np.random.default_rng(18).standard_normal((len(op.free), 4))
    x = op.solve(B, 0.0)[op.free]
    ref_lu = _colamd_partial_pivot(A_ff)
    ref = ref_lu.solve(B)
    assert _backward_error(A_ff, x, B) <= 1e-14
    assert _backward_error(A_ff, ref, B) <= 1e-14
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
