import numpy as np
import pytest
import scipy.sparse

from ensddm import quadrature
from ensddm.bench_cli import channel_bc, channel_meshes, manufactured_meshes
from ensddm.mesh import Rect, build_rect_mesh, pair_interface
from ensddm.stokes_fem import (build_stokes_space, assemble_stokes_operator,
                               assemble_stokes_volume_rhs, add_interface_rhs,
                               edge_mass, mini_basis, stokes_matrix, StokesElements,
                               StokesInterfaceInfo, _condensed)
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
    assert np.isin(bubble_dofs, sp.free).all()
    assert np.isin(np.arange(sp.n_velocity, sp.n_dofs), sp.free).all()


def test_interface_nodes_not_dirichlet_by_default():
    ms, _, _ = stacked(4, 4)
    sp = build_stokes_space(ms)
    iface_nodes = np.unique(ms.edges[ms.boundary_edges("INTERFACE")])
    interior_iface = [n for n in iface_nodes
                      if 0 < ms.verts[n, 0] < ms.rect.x1]
    assert np.isin(interior_iface, sp.free).all()


def test_bubble_volume_integral():
    # constant f = (0, 1): bubble rows get 9 A / 20, nodal y-rows A/3 per cell
    sp = unit_square_space()
    rhs = assemble_stokes_volume_rhs(sp, lambda p: np.column_stack(
        [np.zeros(len(p)), np.ones(len(p))]))
    A = sp.mesh.tri_area
    for t in range(2):
        # the bubble of triangle t follows the nodal values of its component
        bubble_x = sp.mesh.n_verts + t
        assert rhs[sp.n_comp + bubble_x] == pytest.approx(9 * A[t] / 20, rel=1e-12)
        assert rhs[bubble_x] == 0.0


def _einsum_deformation(space, nu):
    P = np.einsum("q,tqia,tqjb->tijab", space.qw, space.dN, space.dN) \
        * space.mesh.tri_area[:, None, None, None, None]
    K = np.empty((space.mesh.n_tris, 8, 8))
    trace = P[..., 0, 0] + P[..., 1, 1]
    for c in range(2):
        for d in range(2):
            K[:, 4 * c:4 * c + 4, 4 * d:4 * d + 4] = nu * P[:, :, :, d, c] + (c == d) * nu * trace
    return K


def _einsum_div(space):
    B = np.einsum("q,qi,tqjc->tijc", space.qw, space.N[:, :3], space.dN) \
        * space.mesh.tri_area[:, None, None, None]
    return np.concatenate([B[:, :, :, 0], B[:, :, :, 1]], axis=2)


def _einsum_volume_rhs(space, f_S):
    fvals = f_S(space.qpoints.reshape(-1, 2)).reshape(space.mesh.n_tris, len(space.qw), 2)
    contrib = np.einsum("q,tqc,qi->tic", space.qw, fvals, space.N) \
        * space.mesh.tri_area[:, None, None]
    rhs = np.zeros(space.n_dofs)
    np.add.at(rhs, space.vel_elem_dofs[:, :4], contrib[:, :, 0])
    np.add.at(rhs, space.vel_elem_dofs[:, 4:], contrib[:, :, 1])
    return rhs


def test_velocity_norm_is_the_l2_norm_of_the_mini_field():
    # the bubble squared is of degree 6: a degree-6 rule integrates |u_h|^2
    # exactly, so the mass must agree with it to rounding
    mesh = build_rect_mesh(Rect(0, 2, 0, 1), 3, 2)
    space = build_stokes_space(mesh)
    vec = np.random.default_rng(5).standard_normal(space.n_dofs)
    bary, w = quadrature.triangle_rule(6)
    N, _ = mini_basis(bary, mesh.tri_grads)
    vd = space.vel_elem_dofs
    u = np.stack([vec[vd[:, :4]] @ N.T, vec[vd[:, 4:]] @ N.T])      # (component, nt, q)
    expect = np.sqrt((u ** 2).sum(axis=0) @ w @ mesh.tri_area)
    assert space.velocity_l2(vec) == pytest.approx(expect, rel=1e-12)


def test_matmul_kernels_match_einsum_forms():
    # the element kernels are batched matmuls over the quadrature axis; the
    # einsum forms they replaced are the oracle
    from ensddm.stokes_fem import deformation_element_matrices, div_element_matrices
    ms, _, _ = stacked(5, 3, width=2.0)
    space = build_stokes_space(ms)

    def f_S(p):
        return np.column_stack([np.sin(3 * p[:, 0]) * p[:, 1], np.cos(p[:, 1]) + p[:, 0] ** 2])

    for got, want in ((deformation_element_matrices(space, 0.7), _einsum_deformation(space, 0.7)),
                      (div_element_matrices(space), _einsum_div(space)),
                      (assemble_stokes_volume_rhs(space, f_S), _einsum_volume_rhs(space, f_S))):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_local_robin_block():
    ms, md, pairing = stacked(1, 1)
    sp = build_stokes_space(ms)
    iface = StokesInterfaceInfo(sp, pairing)
    elements = StokesElements(sp, 1.0, iface)
    a1 = stokes_matrix(elements, 1.0, 0.0).toarray()
    a2 = stokes_matrix(elements, 3.0, 0.0).toarray()
    diff = (a2 - a1) / 2.0   # isolates the <u.n, v.n> edge term
    nodes = pairing.nodes_s[0]
    dofs = [sp.n_comp + nodes[0], sp.n_comp + nodes[1]]      # y components
    np.testing.assert_allclose(diff[np.ix_(dofs, dofs)], edge_mass(1.0), atol=1e-14)
    diff[np.ix_(dofs, dofs)] = 0.0
    assert np.abs(diff).max() < 1e-14


def test_tangential_block_uses_x_components():
    ms, md, pairing = stacked(1, 1)
    sp = build_stokes_space(ms)
    iface = StokesInterfaceInfo(sp, pairing)
    elements = StokesElements(sp, 1.0, iface)
    a1 = stokes_matrix(elements, 1.0, 0.0).toarray()
    a2 = stokes_matrix(elements, 1.0, 0.5).toarray()
    diff = (a2 - a1) / 0.5
    nodes = pairing.nodes_s[0]
    dofs = [nodes[0], nodes[1]]                               # x components
    np.testing.assert_allclose(diff[np.ix_(dofs, dofs)], edge_mass(1.0), atol=1e-14)


def test_matrix_symmetry():
    ms, _, pairing = stacked(4, 4)
    sp = build_stokes_space(ms)
    iface = StokesInterfaceInfo(sp, pairing)
    a = stokes_matrix(StokesElements(sp, 0.7, iface), 1.3, 0.4)
    # physical signs: symmetric once the pressure columns are negated
    flip = np.ones(sp.n_dofs)
    flip[sp.n_velocity:sp.n_velocity + sp.n_pressure] = -1.0
    m = a @ scipy.sparse.diags(flip)
    assert np.abs((m - m.T).toarray()).max() <= 1e-12


def test_interface_term_touches_only_p1_dofs():
    ms, _, pairing = stacked(4, 4)
    sp = build_stokes_space(ms)
    iface = StokesInterfaceInfo(sp, pairing)
    elements = StokesElements(sp, 1.0, iface)
    a1 = stokes_matrix(elements, 1.0, 0.2)
    a2 = stokes_matrix(elements, 2.0, 0.4)
    diff = (a2 - a1).tocoo()
    nz = np.abs(diff.data) > 1e-14
    touched = set(diff.row[nz]) | set(diff.col[nz])
    nv = ms.n_verts
    p1_dofs = set(range(nv)) | set(range(sp.n_comp, sp.n_comp + nv))
    assert touched <= p1_dofs


def _manufactured_or_channel(geometry):
    """The Stokes space and interface operator of a benchmark mesh at h=1/8;
    the channel's interface ends on Dirichlet walls."""
    if geometry == "channel":
        ms, _, pairing = channel_meshes(1 / 8)
        bc = channel_bc()
        sp = build_stokes_space(ms, dirichlet_tags=bc.stokes_dirichlet_tags,
                                pressure_multiplier=bc.stokes_pressure_multiplier)
    else:
        ms, _, pairing = manufactured_meshes(1 / 8)
        sp = build_stokes_space(ms)
    return sp, StokesInterfaceInfo(sp, pairing)


@pytest.mark.parametrize("geometry", ["manufactured", "channel"])
def test_stokes_matrix_is_affine_in_the_interface_coefficients(geometry):
    # matrices and condensed systems of two (delta_s, xi) pairs differ only
    # at the interface entries, and the slip term xi <u.tau, v.tau> is
    # -xi load_tau trace_tau, which the residual check relies on
    sp, iface = _manufactured_or_channel(geometry)
    elements = StokesElements(sp, 1.3, iface)
    pairs = ((1.0, 0.3), (2.5, 1.1))
    for name, build in (("matrix", stokes_matrix), ("S", lambda *a: _condensed(*a)[0])):
        a, b = (build(elements, delta_s, xi) for delta_s, xi in pairs)
        changed = np.flatnonzero(a.data != b.data)
        reached = np.concatenate([entries for entries, _ in elements.interface[name]])
        assert changed.size and np.isin(changed, reached).all()
    n2 = iface.trace.shape[0] // 2
    slip = stokes_matrix(elements, 1.7, 0.6) - stokes_matrix(elements, 1.7, 0.0)
    want = -0.6 * iface.load[:, n2:] @ iface.trace[n2:]
    assert abs(slip - want).max() <= 1e-14 * abs(want).max()


def test_operator_rejects_bad_parameters():
    ms, _, pairing = stacked(2, 2)
    sp = build_stokes_space(ms)
    iface = StokesInterfaceInfo(sp, pairing)
    with pytest.raises(ValueError):
        StokesElements(sp, -1.0, iface)
    with pytest.raises(ValueError):
        assemble_stokes_operator(StokesElements(sp, 1.0, iface), 0.0, 0.0)


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
    """The Robin traces -n.T.n - delta_s u_S.n and -tau.T.n - xi u_S.tau
    of the exact fields at y = 0, with n = (0, -1), tau = (1, 0) and
    T = -p I + 2 nu D(u_S)."""
    xs = mesh.verts[pairing.nodes_s, 0].ravel()
    pts = np.column_stack([xs, np.zeros_like(xs)])
    u, grad = ms_exact.u_S(pts), ms_exact.grad_u_S(pts)
    t_xy = ms_exact.nu * (grad[:, 0, 1] + grad[:, 1, 0])
    t_yy = -ms_exact.p_S(pts) + 2 * ms_exact.nu * grad[:, 1, 1]
    return -t_yy + delta_s * u[:, 1], t_xy - xi * u[:, 0]


def _solve_subproblem(n, k=2.21, nu=1.0, delta_s=1.0):
    exact = ManufacturedSolution(k, k, nu=nu)
    xi = 1.0 / np.sqrt(k)
    ms, _, pairing = stacked(n, n, width=PI)
    sp = build_stokes_space(ms)
    iface = StokesInterfaceInfo(sp, pairing)
    op = assemble_stokes_operator(StokesElements(sp, nu, iface), delta_s, xi)
    rhs = assemble_stokes_volume_rhs(sp, exact.f_S)
    g_n, g_t = _robin_data(exact, ms, pairing, delta_s, xi)
    add_interface_rhs(rhs, iface, g_n=g_n, g_tau=g_t)
    gdir = np.zeros(sp.n_dofs)
    pts = ms.verts[sp.dirichlet_nodes]
    vals = exact.u_S(pts)
    gdir[sp.dirichlet_nodes] = vals[:, 0]
    gdir[sp.n_comp + sp.dirichlet_nodes] = vals[:, 1]
    return sp, op.solve(rhs, gdir[sp.fixed]), exact


def test_subproblem_converges_second_order():
    errs = []
    for n in (8, 16):
        sp, full, exact = _solve_subproblem(n)
        (l2,), (h1,), _ = stokes_errors(sp, full[:, None], [exact])
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
    iface = StokesInterfaceInfo(sp, pairing)
    solutions = []
    for scale in (1.0, 2.0):
        op = assemble_stokes_operator(StokesElements(sp, scale * 1.0, iface), scale * 1.0, scale * xi)
        g_n, g_t = _robin_data(exact, ms, pairing, 1.0, xi)
        rhs = np.zeros(sp.n_dofs)
        add_interface_rhs(rhs, iface, g_n=scale * g_n, g_tau=scale * g_t)
        solutions.append(op.solve(rhs, 0.0))
    u1, u2 = solutions[0][:sp.n_velocity], solutions[1][:sp.n_velocity]
    p1, p2 = (s[sp.n_velocity:sp.n_velocity + sp.n_pressure] for s in solutions)
    scale_ref = np.abs(u1).max()
    np.testing.assert_allclose(u2, u1, atol=1e-11 * scale_ref)
    np.testing.assert_allclose(p2, 2.0 * p1, atol=1e-10 * max(1.0, np.abs(p1).max()))
