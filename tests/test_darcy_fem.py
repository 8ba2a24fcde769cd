import numpy as np
import pytest

from ensddm.mesh import Rect, build_rect_mesh, pair_interface
from ensddm.darcy_fem import (build_darcy_space, assemble_darcy_operator,
                              assemble_darcy_volume_rhs, add_darcy_interface_rhs)
from ensddm.stokes_fem import edge_mass
from ensddm.fields import ConstantConductivity
from ensddm.manufactured import ManufacturedSolution
from ensddm.norms import darcy_errors

PI = np.pi


def stacked(nx, ny, width=1.0):
    ms = build_rect_mesh(Rect(0, width, 0, 1), nx, ny, side_tags={"bottom": "INTERFACE"})
    md = build_rect_mesh(Rect(0, width, -1, 0), nx, ny,
                         side_tags={"top": "INTERFACE", "bottom": "BOTTOM",
                                    "left": "SIDE", "right": "SIDE"})
    return ms, md, pair_interface(ms, md)


def test_dof_counts_two_triangles():
    mesh = build_rect_mesh(Rect(0, 1, 0, 1), 1, 1)
    sp = build_darcy_space(mesh)
    assert mesh.n_edges == 5
    assert sp.n_velocity == 10
    assert sp.n_head == 2


def test_all_boundary_constrained_interior_free():
    mesh = build_rect_mesh(Rect(0, 1, 0, 1), 2, 2)  # all sides WALL by default
    sp = build_darcy_space(mesh)
    boundary = mesh.boundary_edges()
    assert set(sp.essential_edges) == set(boundary)
    interior = set(range(mesh.n_edges)) - set(boundary)
    for e in interior:
        assert not sp.essential_mask[2 * e] and not sp.essential_mask[2 * e + 1]


def test_interface_dofs_listed_and_free():
    _, md, _ = stacked(3, 3)
    sp = build_darcy_space(md)
    assert len(sp.interface_dofs) == 6
    assert not sp.essential_mask[sp.interface_dofs].any()


def test_normal_trace_is_kronecker():
    """Basis dof (e, p) has unit normal trace at endpoint p of edge e and
    zero normal trace at both endpoints of every other edge."""
    mesh = build_rect_mesh(Rect(0, 2, -1, 1), 2, 2)
    sp = build_darcy_space(mesh)
    for t in range(0, mesh.n_tris, 3):
        tri = mesh.tris[t]
        for lk in range(3):
            e = mesh.edge_of_tri[t, lk]
            a, b = mesh.edges[e]
            n_e = sp.edge_normal[e]
            for p, node in enumerate((a, b)):
                m = int(np.where(tri == node)[0][0])
                for ldof in range(6):
                    val = sp.vertex_values[t, ldof, m] @ n_e
                    expect = 1.0 if ldof == 2 * lk + p else 0.0
                    assert val == pytest.approx(expect, abs=1e-12)


def test_divergence_theorem_elementwise():
    """Constant elementwise divergence equals the boundary flux / area."""
    mesh = build_rect_mesh(Rect(0, PI, -1, 0), 4, 3)
    sp = build_darcy_space(mesh)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(sp.n_velocity)
    div = sp.elementwise_div(u)
    for t in range(mesh.n_tris):
        flux = 0.0
        centroid = mesh.verts[mesh.tris[t]].mean(axis=0)
        for lk in range(3):
            e = mesh.edge_of_tri[t, lk]
            a, b = mesh.edges[e]
            ell = mesh.edge_length[e]
            mid = 0.5 * (mesh.verts[a] + mesh.verts[b])
            out = np.sign((mid - centroid) @ sp.edge_normal[e])
            flux += out * ell * 0.5 * (u[2 * e] + u[2 * e + 1])
        assert div[t] * mesh.tri_area[t] == pytest.approx(flux, abs=1e-12)


def test_local_robin_block():
    _, md, pairing = stacked(1, 1)
    sp = build_darcy_space(md)
    K = ConstantConductivity(1.0)
    a1 = assemble_darcy_operator(sp, 1.0, K, 1.0, 1.0, pairing).matrix.toarray()
    a2 = assemble_darcy_operator(sp, 1.0, K, 1.0, 4.0, pairing).matrix.toarray()
    diff = (a2 - a1) / 3.0
    d = sp.interface_info(pairing).dofs_x[0]
    np.testing.assert_allclose(diff[np.ix_(d, d)], edge_mass(1.0), atol=1e-14)
    diff[np.ix_(d, d)] = 0.0
    assert np.abs(diff).max() < 1e-14


def test_matrix_symmetry_and_spd_velocity_block():
    _, md, pairing = stacked(4, 4)
    sp = build_darcy_space(md)
    op = assemble_darcy_operator(sp, 1.0, ConstantConductivity(2.21), 1 / 2.21, 3.0, pairing)
    d = op.matrix.csr - op.matrix.csr.T
    assert np.abs(d.toarray()).max() <= 1e-12
    free_vel = [i for i in sp.free if i < sp.n_velocity]
    block = op.matrix.csr[np.ix_(free_vel, free_vel)].toarray()
    w = np.linalg.eigvalsh(block)
    assert w.min() > 0


def test_rejects_bad_parameters():
    _, md, pairing = stacked(2, 2)
    sp = build_darcy_space(md)
    K = ConstantConductivity(1.0)
    with pytest.raises(ValueError):
        assemble_darcy_operator(sp, 0.0, K, 1.0, 1.0, pairing)
    with pytest.raises(ValueError):
        assemble_darcy_operator(sp, 1.0, K, 1.0, -1.0, pairing)
    with pytest.raises(ValueError):
        assemble_darcy_operator(sp, 1.0, ConstantConductivity(1.0, -2.0), 1.0, 1.0, pairing)


def test_mass_matrix_exact_vs_symbolic():
    """The assembled velocity mass equals the symbolic element integrals of
    the linear basis fields, scattered by elem_dofs."""
    sympy = pytest.importorskip("sympy")
    mesh = build_rect_mesh(Rect(0, 1, 0, 1), 1, 1)
    sp = build_darcy_space(mesh)
    s, t = sympy.symbols("s t")
    lam = [1 - s - t, s, t]   # barycentrics on the reference triangle
    exact = np.zeros((sp.n_velocity, sp.n_velocity))
    for tri in range(mesh.n_tris):
        # symbolic basis from the vertex values (fields are linear)
        V = sp.vertex_values[tri]  # (6, 3, 2)
        f = [[sum(V[i, m, c] * lam[m] for m in range(3)) for c in range(2)] for i in range(6)]
        for i in range(6):
            for j in range(6):
                ref = sympy.integrate(f[i][0] * f[j][0] + f[i][1] * f[j][1], (t, 0, 1 - s), (s, 0, 1))
                exact[sp.elem_dofs[tri, i], sp.elem_dofs[tri, j]] += 2 * mesh.tri_area[tri] * float(ref)
    np.testing.assert_allclose(sp.velocity_mass.toarray(), exact, rtol=0, atol=1e-13)


def test_volume_rhs_structure():
    mesh = build_rect_mesh(Rect(0, 1, 0, 1), 1, 1)
    sp = build_darcy_space(mesh)
    k_min, g = 0.7, 1.0
    rhs = assemble_darcy_volume_rhs(sp, lambda p: np.ones(len(p)), k_min, g)
    A = mesh.tri_area
    np.testing.assert_allclose(rhs[sp.head_slice], g * A, rtol=1e-14)
    expected = np.zeros(sp.n_velocity)
    np.add.at(expected, sp.elem_dofs, k_min * g * sp.div * A[:, None])
    np.testing.assert_allclose(rhs[:sp.n_velocity], expected, rtol=1e-12)


def test_operator_depends_only_on_means_bitwise():
    from ensddm.fields import MeanInverseField
    _, md, pairing = stacked(3, 3)
    sp = build_darcy_space(md)
    f1 = [ConstantConductivity(2.0), ConstantConductivity(4.0)]
    f2 = [ConstantConductivity(4.0), ConstantConductivity(2.0)]
    m1 = assemble_darcy_operator(sp, 1.0, MeanInverseField(f1), 0.375, 2.0, pairing)
    m2 = assemble_darcy_operator(sp, 1.0, MeanInverseField(f2), 0.375, 2.0, pairing)
    assert (m1.matrix.csr != m2.matrix.csr).nnz == 0


def _solve_subproblem(n, k=2.21, delta_d=2.0, g=1.0):
    exact = ManufacturedSolution(k, k, g=g)
    _, md, pairing = stacked(n, n, width=PI)
    sp = build_darcy_space(md)
    K = ConstantConductivity(k)
    op = assemble_darcy_operator(sp, g, K, 1.0 / k, delta_d, pairing)
    rhs = assemble_darcy_volume_rhs(sp, exact.f_D, 1.0 / k, g)
    xs = md.verts[pairing.nodes_d, 0]
    g_D = exact.g_D_interface(xs.ravel(), delta_d).reshape(xs.shape)
    add_darcy_interface_rhs(rhs, sp.interface_info(pairing), g_D)
    gdir = np.zeros(sp.n_dofs)
    edges = sp.essential_edges
    a, b = md.edges[edges, 0], md.edges[edges, 1]
    n_e = sp.edge_normal[edges]
    gdir[2 * edges] = np.einsum("ij,ij->i", exact.u_D(md.verts[a]), n_e)
    gdir[2 * edges + 1] = np.einsum("ij,ij->i", exact.u_D(md.verts[b]), n_e)
    x = op.factorization.solve(op.reduce_rhs(rhs) - op.lift(gdir))
    full = op.expand(x)
    full[sp.fixed] = gdir[sp.fixed]
    return sp, full, exact


def test_subproblem_convergence_orders():
    errs = []
    for n in (8, 16):
        sp, full, exact = _solve_subproblem(n)
        l2, hdiv, phil2 = darcy_errors(sp, full, exact)
        errs.append((l2, phil2))
    rate_u = np.log2(errs[0][0] / errs[1][0])
    rate_phi = np.log2(errs[0][1] / errs[1][1])
    assert rate_u == pytest.approx(2.0, abs=0.4)
    assert rate_phi == pytest.approx(1.0, abs=0.4)


def test_subproblem_divergence_exactly_matches_source():
    # continuity rows force int_T div u = int_T f_D exactly; f_D = 0 here
    sp, full, _ = _solve_subproblem(8)
    div = sp.elementwise_div(full[:sp.n_velocity])
    assert np.abs(div).max() <= 1e-9


def test_head_level_pinned_by_robin_data():
    # no multiplier: the head level must come out matching the exact field
    sp, full, exact = _solve_subproblem(12)
    _, _, phil2 = darcy_errors(sp, full, exact)
    assert phil2 < 0.15
