import numpy as np
import pytest

from ensddm.mesh import Rect, build_rect_mesh, pair_interface
from ensddm.stokes_fem import (build_stokes_space, assemble_stokes_operator,
                               assemble_stokes_volume_rhs, add_interface_rhs,
                               edge_mass)
from ensddm.manufactured import ManufacturedSolution
from ensddm.norms import stokes_errors

PI = np.pi


def unit_square_space(**kw):
    mesh = build_rect_mesh(Rect(0, 1, 0, 1), 1, 1)
    return build_stokes_space(mesh, **kw)


def stacked(nx, ny, width=1.0):
    ms = build_rect_mesh(Rect(0, width, 0, 1), nx, ny, side_tags={"bottom": "INTERFACE"})
    md = build_rect_mesh(Rect(0, width, -1, 0), nx, ny,
                         side_tags={"top": "INTERFACE", "bottom": "BOTTOM",
                                    "left": "SIDE", "right": "SIDE"})
    return ms, md, pair_interface(ms, md)


def test_dof_counts_unit_square():
    sp = unit_square_space()
    assert sp.n_velocity == 2 * (4 + 2) == 12
    assert sp.n_pressure == 4
    assert sp.n_dofs == 12 + 4 + 1


def test_dof_counts_32x32():
    mesh = build_rect_mesh(Rect(0, PI, 0, 1), 32, 32)
    sp = build_stokes_space(mesh)
    assert sp.n_velocity == 2 * (1089 + 2048) == 6274


def test_all_wall_masks_every_boundary_node_but_no_bubbles():
    sp = unit_square_space()   # default tags: WALL on all sides
    assert set(sp.dirichlet_nodes) == {0, 1, 2, 3}
    nv = sp.mesh.n_verts
    bubble_dofs = list(range(nv, sp.n_comp)) + list(range(sp.n_comp + nv, sp.n_velocity))
    assert not sp.dirichlet_mask[bubble_dofs].any()
    assert not sp.dirichlet_mask[sp.n_velocity:].any()


def test_interface_nodes_not_dirichlet_by_default():
    ms, _, _ = stacked(4, 4)
    sp = build_stokes_space(ms)
    interior_iface = [n for n in sp.interface_nodes
                      if 0 < ms.verts[n, 0] < ms.rect.x1]
    assert not sp.dirichlet_mask[interior_iface].any()


def test_bubble_volume_integral():
    # constant f = (0, 1): bubble rows get 9 A / 20, nodal y-rows A/3 per cell
    sp = unit_square_space()
    rhs = assemble_stokes_volume_rhs(sp, lambda p: np.column_stack(
        [np.zeros(len(p)), np.ones(len(p))]))
    A = sp.mesh.tri_area
    for t in range(2):
        assert rhs[sp.bubble_dof(1, t)] == pytest.approx(9 * A[t] / 20, rel=1e-12)
        assert rhs[sp.bubble_dof(0, t)] == 0.0


def test_local_robin_block():
    ms, md, pairing = stacked(1, 1)
    sp = build_stokes_space(ms)
    a1 = assemble_stokes_operator(sp, 1.0, 1.0, 0.0, pairing).matrix.toarray()
    a2 = assemble_stokes_operator(sp, 1.0, 3.0, 0.0, pairing).matrix.toarray()
    diff = (a2 - a1) / 2.0   # isolates the <u.n, v.n> edge term
    nodes = pairing.nodes_s[0]
    dofs = [sp.vel_dof(1, nodes[0]), sp.vel_dof(1, nodes[1])]
    np.testing.assert_allclose(diff[np.ix_(dofs, dofs)], edge_mass(1.0), atol=1e-14)
    diff[np.ix_(dofs, dofs)] = 0.0
    assert np.abs(diff).max() < 1e-14


def test_tangential_block_uses_x_components():
    ms, md, pairing = stacked(1, 1)
    sp = build_stokes_space(ms)
    a1 = assemble_stokes_operator(sp, 1.0, 1.0, 0.0, pairing).matrix.toarray()
    a2 = assemble_stokes_operator(sp, 1.0, 1.0, 0.5, pairing).matrix.toarray()
    diff = (a2 - a1) / 0.5
    nodes = pairing.nodes_s[0]
    dofs = [sp.vel_dof(0, nodes[0]), sp.vel_dof(0, nodes[1])]
    np.testing.assert_allclose(diff[np.ix_(dofs, dofs)], edge_mass(1.0), atol=1e-14)


def test_matrix_symmetry():
    ms, _, pairing = stacked(4, 4)
    sp = build_stokes_space(ms)
    op = assemble_stokes_operator(sp, 0.7, 1.3, 0.4, pairing)
    d = op.matrix.csr - op.matrix.csr.T
    assert np.abs(d.toarray()).max() <= 1e-12


def test_interface_term_touches_only_p1_dofs():
    ms, _, pairing = stacked(4, 4)
    sp = build_stokes_space(ms)
    a1 = assemble_stokes_operator(sp, 1.0, 1.0, 0.2, pairing).matrix.csr
    a2 = assemble_stokes_operator(sp, 1.0, 2.0, 0.4, pairing).matrix.csr
    diff = (a2 - a1).tocoo()
    nz = np.abs(diff.data) > 1e-14
    touched = set(diff.row[nz]) | set(diff.col[nz])
    nv = ms.n_verts
    p1_dofs = set(range(nv)) | set(range(sp.n_comp, sp.n_comp + nv))
    assert touched <= p1_dofs


def test_operator_rejects_bad_parameters():
    ms, _, pairing = stacked(2, 2)
    sp = build_stokes_space(ms)
    with pytest.raises(ValueError):
        assemble_stokes_operator(sp, -1.0, 1.0, 0.0, pairing)
    with pytest.raises(ValueError):
        assemble_stokes_operator(sp, 1.0, 0.0, 0.0, pairing)


def test_volume_quadrature_exact_vs_symbolic():
    """Degree-4 rule integrates all gradient products of the enriched basis
    exactly; reference values from symbolic integration."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    # triangle (0,0)-(1,0)-(1,1): element 0 of the unit-square mesh
    l0 = 1 - x
    l1 = x - y
    l2 = y
    basis = [l0, l1, l2, 27 * l0 * l1 * l2]

    def integrate(expr):
        return float(sympy.integrate(sympy.integrate(expr, (y, 0, x)), (x, 0, 1)))

    sp = unit_square_space()
    t = 0
    assert np.allclose(sp.mesh.verts[sp.mesh.tris[t]],
                       [[0, 0], [1, 0], [1, 1]])
    P = np.einsum("q,qia,qjb->ijab", sp.qw, sp.dN[t], sp.dN[t]) * sp.mesh.tri_area[t]
    for i in range(4):
        for j in range(4):
            for a, va in enumerate((x, y)):
                for b, vb in enumerate((x, y)):
                    exact = integrate(sympy.diff(basis[i], va) * sympy.diff(basis[j], vb))
                    assert P[i, j, a, b] == pytest.approx(exact, abs=1e-13)


def _robin_data(ms_exact, mesh, pairing, delta_s, xi):
    xs = mesh.verts[pairing.nodes_s, 0]
    g_n = ms_exact.g_S_interface(xs.ravel(), delta_s).reshape(xs.shape)
    g_t = ms_exact.g_S_tau_interface(xs.ravel(), xi).reshape(xs.shape)
    return g_n, g_t


def _solve_subproblem(n, k=2.21, nu=1.0, delta_s=1.0):
    exact = ManufacturedSolution(k, k, nu=nu)
    xi = 1.0 / np.sqrt(k)
    ms, _, pairing = stacked(n, n, width=PI)
    sp = build_stokes_space(ms)
    op = assemble_stokes_operator(sp, nu, delta_s, xi, pairing)
    rhs = assemble_stokes_volume_rhs(sp, exact.f_S)
    g_n, g_t = _robin_data(exact, ms, pairing, delta_s, xi)
    add_interface_rhs(rhs, sp, pairing, g_n=g_n, g_tau=g_t)
    gdir = np.zeros(sp.n_dofs)
    pts = ms.verts[sp.dirichlet_nodes]
    vals = exact.u_S(pts)
    gdir[sp.dirichlet_nodes] = vals[:, 0]
    gdir[sp.n_comp + sp.dirichlet_nodes] = vals[:, 1]
    x = op.factorization.solve(op.reduce_rhs(rhs) - op.lift(gdir))
    full = op.expand(x)
    full[sp.fixed] = gdir[sp.fixed]
    return sp, full, exact


def test_subproblem_converges_second_order():
    errs = []
    for n in (8, 16):
        sp, full, exact = _solve_subproblem(n)
        l2, h1, _, _ = stokes_errors(sp, full, exact)
        errs.append((l2, h1))
    rate_l2 = np.log2(errs[0][0] / errs[1][0])
    rate_h1 = np.log2(errs[0][1] / errs[1][1])
    assert rate_l2 == pytest.approx(2.0, abs=0.4)
    assert rate_h1 == pytest.approx(1.0, abs=0.4)


def test_subproblem_discrete_divergence():
    # with the mean multiplier, (q, div u) vanishes for mean-zero q
    sp, full, _ = _solve_subproblem(8)
    from ensddm.stokes_fem import div_element_matrices
    B = div_element_matrices(sp)
    r = np.zeros(sp.n_pressure)
    uloc = full[sp.vel_elem_dofs]
    np.add.at(r, sp.mesh.tris.ravel(), np.einsum("tij,tj->ti", B, uloc).ravel())
    m = np.zeros(sp.n_pressure)
    np.add.at(m, sp.mesh.tris.ravel(), np.repeat(sp.mesh.tri_area / 3.0, 3))
    r_proj = r - m * (m @ r) / (m @ m)
    assert np.abs(r_proj).max() <= 1e-9 * max(1.0, np.abs(full).max())


def test_velocity_solution_invariant_under_joint_scaling():
    # doubling (nu, delta_s, xi) and the data doubles p and keeps u
    n, k = 6, 2.21
    exact = ManufacturedSolution(k, k, nu=1.0)
    xi = 1.0 / np.sqrt(k)
    ms, _, pairing = stacked(n, n, width=PI)
    sp = build_stokes_space(ms)
    solutions = []
    for scale in (1.0, 2.0):
        op = assemble_stokes_operator(sp, scale * 1.0, scale * 1.0, scale * xi, pairing)
        g_n, g_t = _robin_data(exact, ms, pairing, 1.0, xi)
        rhs = np.zeros(sp.n_dofs)
        add_interface_rhs(rhs, sp, pairing, g_n=scale * g_n, g_tau=scale * g_t)
        x = op.factorization.solve(op.reduce_rhs(rhs))
        solutions.append(op.expand(x))
    u1, u2 = solutions[0][:sp.n_velocity], solutions[1][:sp.n_velocity]
    p1 = solutions[0][sp.pressure_slice]
    p2 = solutions[1][sp.pressure_slice]
    scale_ref = np.abs(u1).max()
    np.testing.assert_allclose(u2, u1, atol=1e-11 * scale_ref)
    np.testing.assert_allclose(p2, 2.0 * p1, atol=1e-10 * max(1.0, np.abs(p1).max()))
