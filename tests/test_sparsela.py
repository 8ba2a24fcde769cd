import numpy as np
import pytest
import scipy.sparse as sp

from ensddm.sparsela import (CooBuilder, SingularMatrixError, factorize,
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


def test_duplicate_entries_summed():
    b = CooBuilder(2, 2)
    b.add([0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
    m = b.finalize()
    np.testing.assert_allclose(m.toarray(), [[3.0, 0.0], [0.0, 5.0]])


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        factorize(sp.csr_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]])))
    b = CooBuilder(2, 2)
    b.add([0, 1], [0, 1], [np.inf, 1.0])
    with pytest.raises(ValueError):
        b.finalize()


def test_structurally_singular_reports_row():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMatrixError) as info:
        factorize(A)
    assert info.value.row == 1


def test_numerically_singular_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        factorize(A)


def _stokes_operator():
    from ensddm.bench_cli import manufactured_meshes
    from ensddm.stokes_fem import build_stokes_space, assemble_stokes_operator

    ms, _, pairing = manufactured_meshes(1 / 8)
    return assemble_stokes_operator(build_stokes_space(ms), 1.0, 1.0, 0.5, pairing)


def _stokes_factorization():
    return _stokes_operator().factorization


def test_block_solve_matches_column_solves():
    # the block contract: one call, columns equal to per-column solves to
    # rounding (blocked kernels sum in another order), repeatable bitwise
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
    # factor+solve on an assembled saddle matrix reproduces a known dof vector
    from ensddm.mesh import Rect, build_rect_mesh, pair_interface
    from ensddm.stokes_fem import build_stokes_space, assemble_stokes_operator

    ms = build_rect_mesh(Rect(0, 1, 0, 1), 4, 4, side_tags={"bottom": "INTERFACE"})
    md = build_rect_mesh(Rect(0, 1, -1, 0), 4, 4, side_tags={"top": "INTERFACE"})
    pairing = pair_interface(ms, md)
    space = build_stokes_space(ms)
    op = assemble_stokes_operator(space, 1.0, 1.0, 0.5, pairing)
    rng = np.random.default_rng(21)
    x_star = rng.standard_normal(op.A_ff.shape[0])
    b = op.A_ff @ x_star
    x = op.factorization.solve(b)
    assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) <= 1e-9


def test_subdomain_solve_vector_and_block():
    # full-length rows in, full-length solutions out: the free rows solve
    # A_ff x = rhs_free, the fixed rows are the given boundary values
    op = _stokes_operator()
    n, k = op.matrix.shape[0], 5
    rng = np.random.default_rng(11)
    B = rng.standard_normal((n, k))
    fixed = rng.standard_normal((len(op.fixed), k))

    x = op.solve(B[:, 0], 0.0)
    assert x.shape == (n,)
    assert np.all(x[op.fixed] == 0.0)
    r = op.A_ff @ x[op.free] - B[op.free, 0]
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(B[op.free, 0])

    X = op.solve(B, fixed)
    assert X.shape == (n, k) and X.flags.f_contiguous
    np.testing.assert_array_equal(X[op.fixed], fixed)
    R = op.A_ff @ X[op.free] - B[op.free]
    assert np.all(np.linalg.norm(R, axis=0) <= 1e-12 * np.linalg.norm(B[op.free], axis=0))
    for i in range(k):
        xi = op.solve(B[:, i], fixed[:, i])
        np.testing.assert_array_equal(xi[op.fixed], fixed[:, i])
        assert np.linalg.norm(X[:, i] - xi) <= 1e-12 * np.linalg.norm(xi)
    Z = op.solve(B, 0.0)
    assert np.all(Z[op.fixed] == 0.0)
    np.testing.assert_array_equal(Z[op.free], X[op.free])
    # only the free rows of the right-hand side are read
    B[op.fixed] = np.nan
    np.testing.assert_array_equal(op.solve(B, fixed), X)
