import numpy as np
import pytest
import scipy.sparse

from ensddm.mesh import Rect, build_rect_mesh, pair_interface
from ensddm.darcy_fem import (build_darcy_space, assemble_darcy_operator,
                              assemble_darcy_volume_rhs, add_darcy_interface_rhs,
                              inverse_diagonal, darcy_matrix, DarcyInterfaceInfo)
from ensddm.stokes_fem import edge_mass
from ensddm.bench_cli import channel_meshes, manufactured_meshes
from ensddm.fields import ConstantConductivity, KLConductivity, MeanInverseField
from ensddm.random_field import RandomFieldSpec, draw_samples
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
    boundary = np.flatnonzero(mesh.boundary_tags != "")
    assert set(sp.essential_edges) == set(boundary)
    interior = set(range(mesh.n_edges)) - set(boundary)
    for e in interior:
        assert np.isin([2 * e, 2 * e + 1], sp.free).all()


def test_interface_dofs_listed_and_free():
    _, md, _ = stacked(3, 3)
    sp = build_darcy_space(md)
    iface = md.boundary_edges("INTERFACE")
    interface_dofs = np.concatenate([2 * iface, 2 * iface + 1])
    assert len(interface_dofs) == 6
    assert np.isin(interface_dofs, sp.free).all()


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
    iface = DarcyInterfaceInfo(sp, pairing)
    W = inverse_diagonal(sp, ConstantConductivity(1.0))
    a1 = darcy_matrix(sp, 1.0, W, 1.0, 1.0, iface).toarray()
    a2 = darcy_matrix(sp, 1.0, W, 1.0, 4.0, iface).toarray()
    diff = (a2 - a1) / 3.0
    d = iface.normal[:2].indices    # the edge dofs of pair 0
    np.testing.assert_allclose(diff[np.ix_(d, d)], edge_mass(1.0), atol=1e-14)
    diff[np.ix_(d, d)] = 0.0
    assert np.abs(diff).max() < 1e-14


def test_matrix_symmetry_and_spd_velocity_block():
    _, md, pairing = stacked(4, 4)
    sp = build_darcy_space(md)
    iface = DarcyInterfaceInfo(sp, pairing)
    W = inverse_diagonal(sp, ConstantConductivity(2.21))
    a = darcy_matrix(sp, 1.0, W, 1 / 2.21, 3.0, iface)
    # physical signs: symmetric once the head columns are negated
    flip = np.ones(sp.n_dofs)
    flip[sp.head_slice] = -1.0
    m = a @ scipy.sparse.diags(flip)
    assert np.abs((m - m.T).toarray()).max() <= 1e-12
    free_vel = [i for i in sp.free if i < sp.n_velocity]
    block = a[np.ix_(free_vel, free_vel)].toarray()
    w = np.linalg.eigvalsh(block)
    assert w.min() > 0


def test_rejects_bad_parameters():
    _, md, pairing = stacked(2, 2)
    sp = build_darcy_space(md)
    iface = DarcyInterfaceInfo(sp, pairing)
    W = inverse_diagonal(sp, ConstantConductivity(1.0))
    with pytest.raises(ValueError):
        assemble_darcy_operator(sp, 0.0, W, 1.0, 1.0, iface)
    with pytest.raises(ValueError):
        assemble_darcy_operator(sp, 1.0, W, 1.0, -1.0, iface)
    not_spd = inverse_diagonal(sp, ConstantConductivity(1.0, -2.0))
    with pytest.raises(ValueError):
        assemble_darcy_operator(sp, 1.0, not_spd, 1.0, 1.0, iface)


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


@pytest.mark.parametrize("meshes, h, n_heights", [(channel_meshes, 1 / 8, 102),
                                                  (manufactured_meshes, 1 / 32, 134)])
def test_inverse_diagonal_gathers_the_evaluation_at_every_point(meshes, h, n_heights):
    # each field is evaluated once per distinct height of the quadrature
    # points and gathered: bitwise its evaluation at every point
    sp = build_darcy_space(meshes(h)[1])
    y = sp.qpoints[:, :, 1].ravel()
    assert len(sp.heights) == n_heights
    assert np.all(np.diff(sp.heights) > 0)
    assert np.array_equal(sp.heights[sp.height_of], y)
    spec = RandomFieldSpec(sigma=0.15)
    kl = [KLConductivity(spec, d) for d in draw_samples(spec, 8, 20240901)]
    for field in kl + [ConstantConductivity(2.21, 4.11), MeanInverseField(kl)]:
        assert np.array_equal(inverse_diagonal(sp, field),
                              np.column_stack(field.inv_diag(y)).ravel())


def test_operator_depends_only_on_means_bitwise():
    _, md, pairing = stacked(3, 3)
    sp = build_darcy_space(md)
    iface = DarcyInterfaceInfo(sp, pairing)
    f1 = [ConstantConductivity(2.0), ConstantConductivity(4.0)]
    f2 = [ConstantConductivity(4.0), ConstantConductivity(2.0)]
    m1 = darcy_matrix(sp, 1.0, inverse_diagonal(sp, MeanInverseField(f1)), 0.375, 2.0, iface)
    m2 = darcy_matrix(sp, 1.0, inverse_diagonal(sp, MeanInverseField(f2)), 0.375, 2.0, iface)
    assert (m1 != m2).nnz == 0


def _solve_subproblem(n, k=2.21, delta_d=2.0, g=1.0):
    exact = ManufacturedSolution(k, k, g=g)
    _, md, pairing = stacked(n, n, width=PI)
    sp = build_darcy_space(md)
    iface = DarcyInterfaceInfo(sp, pairing)
    W = inverse_diagonal(sp, ConstantConductivity(k))
    op = assemble_darcy_operator(sp, g, W, 1.0 / k, delta_d, iface)
    rhs = assemble_darcy_volume_rhs(sp, exact.f_D, 1.0 / k, g)
    xs = md.verts[pairing.nodes_d, 0].ravel()
    pts = np.column_stack([xs, np.zeros_like(xs)])
    # g phi_D - delta_d u_D.n_D at y = 0, n_D = (0, 1)
    g_D = g * exact.phi_D(pts) - delta_d * exact.u_D(pts)[:, 1]
    add_darcy_interface_rhs(rhs, iface, g_D)
    gdir = np.zeros(sp.n_dofs)
    edges = sp.essential_edges
    a, b = md.edges[edges, 0], md.edges[edges, 1]
    n_e = sp.edge_normal[edges]
    gdir[2 * edges] = np.einsum("ij,ij->i", exact.u_D(md.verts[a]), n_e)
    gdir[2 * edges + 1] = np.einsum("ij,ij->i", exact.u_D(md.verts[b]), n_e)
    return sp, op.solve(rhs, gdir[sp.fixed]), exact


def test_subproblem_convergence_orders():
    errs = []
    for n in (8, 16):
        sp, full, exact = _solve_subproblem(n)
        (l2,), _, (phil2,) = darcy_errors(sp, full[:, None], [exact])
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
    _, _, (phil2,) = darcy_errors(sp, full[:, None], [exact])
    assert phil2 < 0.15
