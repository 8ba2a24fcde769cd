"""The batched iteration core against per-pair and per-sample oracles.

The oracles are the loop forms the sparse operators replaced: one Python
iteration per interface pair, one dof vector per sample, and per-element
einsums over basis values tabulated here from the vertex values.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import norm as sparse_norm

from ensddm.bench_cli import manufactured_meshes, channel_meshes
from ensddm.darcy_fem import (build_darcy_space, darcy_matrix,
                              add_darcy_interface_rhs, add_darcy_lag_rhs, inverse_diagonal,
                              lag_weights, DarcyInterfaceInfo)
from ensddm.fields import ConstantConductivity, KLConductivity, MeanInverseField
from ensddm.mesh import Rect, build_rect_mesh, pair_interface
from ensddm.quadrature import triangle_rule
from ensddm.random_field import RandomFieldSpec, draw_samples
from ensddm.stokes_fem import (build_stokes_space, add_interface_rhs, interface_traces,
                               edge_mass, interface_mass, stokes_matrix, StokesElements,
                               StokesInterfaceInfo)


def stokes_below():
    ms = build_rect_mesh(Rect(0, 2, -1, 0), 6, 3, side_tags={"top": "INTERFACE"})
    md = build_rect_mesh(Rect(0, 2, 0, 1), 6, 3, side_tags={"bottom": "INTERFACE"})
    return ms, md, pair_interface(ms, md)


MESHES = {
    "manufactured": lambda: manufactured_meshes(1 / 8),
    "channel": lambda: channel_meshes(1 / 4),
    "stokes_below": stokes_below,
}


# -- oracles: the per-pair loops --------------------------------------------

def pairs(t):
    """Endpoint traces (2 n_pairs,) as one row per pair, (n_pairs, 2)."""
    return t.reshape(-1, 2)


def oracle_stokes_rhs(space, pairing, g_n, g_tau):
    g_n, g_tau = pairs(g_n), pairs(g_tau)
    rhs = np.zeros(space.n_dofs)
    n, tau = pairing.n_s, pairing.tau
    for p in range(pairing.n_pairs):
        Me = edge_mass(pairing.lengths[p])
        nodes = pairing.nodes_s[p]
        for c in range(2):
            dofs = (c * space.n_comp + nodes[0], c * space.n_comp + nodes[1])
            if n[c] != 0.0:
                v = Me @ g_n[p]
                rhs[dofs[0]] -= n[c] * v[0]
                rhs[dofs[1]] -= n[c] * v[1]
            if tau[c] != 0.0:
                v = Me @ g_tau[p]
                rhs[dofs[0]] -= tau[c] * v[0]
                rhs[dofs[1]] -= tau[c] * v[1]
    return rhs


def oracle_stokes_traces(space, pairing, full):
    nodes = pairing.nodes_s
    ux = full[nodes]
    uy = full[space.n_comp + nodes]
    n, tau = pairing.n_s, pairing.tau
    return (n[0] * ux + n[1] * uy).ravel(), (tau[0] * ux + tau[1] * uy).ravel()


def oracle_darcy_info(space, pairing):
    mesh = space.mesh
    n_p = pairing.n_pairs
    dofs_x = np.empty((n_p, 2), dtype=np.int64)
    sign = np.empty(n_p)
    tau_mat = np.empty((n_p, 2, 6))
    loc_dofs = np.empty((n_p, 6), dtype=np.int64)
    for p in range(n_p):
        e = pairing.pairs[p, 1]
        a, _ = mesh.edges[e]
        nA, nB = pairing.nodes_d[p]
        dofs_x[p] = (2 * e, 2 * e + 1) if a == nA else (2 * e + 1, 2 * e)
        sign[p] = float(space.edge_normal[e] @ pairing.n_d)
        t = mesh.edge_tris[e, 0]
        loc_dofs[p] = space.elem_dofs[t]
        for i, node in enumerate((nA, nB)):
            m = int(np.where(mesh.tris[t] == node)[0][0])
            tau_mat[p, i] = space.vertex_values[t, :, m, :] @ pairing.tau
    return dofs_x, sign, tau_mat, loc_dofs


def oracle_darcy_rhs(space, pairing, g_D):
    dofs_x, sign, _, _ = oracle_darcy_info(space, pairing)
    g_D = pairs(g_D)
    rhs = np.zeros(space.n_dofs)
    for p in range(pairing.n_pairs):
        v = edge_mass(pairing.lengths[p]) @ g_D[p]
        rhs[dofs_x[p, 0]] -= sign[p] * v[0]
        rhs[dofs_x[p, 1]] -= sign[p] * v[1]
    return rhs


def oracle_darcy_traces(space, pairing, vec):
    dofs_x, sign, tau_mat, loc_dofs = oracle_darcy_info(space, pairing)
    return ((sign[:, None] * vec[dofs_x]).ravel(),
            np.einsum("pil,pl->pi", tau_mat, vec[loc_dofs]).ravel())


def oracle_phi(space):
    """BDM1 basis values phi[t, q, ldof, comp] at the degree-2 rule."""
    bary, _ = triangle_rule(2)
    return np.einsum("qm,tlmc->tqlc", bary, space.vertex_values)


def oracle_inv_tensor(field, points):
    """Full (n, 2, 2) inverse tensors of a diagonal field at (n, 2) points."""
    out = np.zeros((len(points), 2, 2))
    out[:, 0, 0], out[:, 1, 1] = field.inv_diag(points[:, 1])
    return out


def oracle_form(space, g, W_full, k_min):
    """Element matrices of g (W u, v) + g k_min (div u, div v) scattered by
    elem_dofs; W_full is (nt, nq, 2, 2)."""
    A = space.mesh.tri_area
    phi = oracle_phi(space)
    Mel = g * np.einsum("q,tqcd,tqid,tqjc->tij", space.qw, W_full, phi, phi) * A[:, None, None]
    Mel += g * k_min * np.einsum("ti,tj->tij", space.div, space.div) * A[:, None, None]
    ed = space.elem_dofs
    return sp.csr_matrix((Mel.ravel(), (np.repeat(ed, 6, axis=1).ravel(), np.tile(ed, (1, 6)).ravel())),
                         shape=(space.n_velocity, space.n_velocity))


def oracle_lag_rhs(space, dW_full, dk_min, u_prev, g):
    """The tensor-valued einsum form; dW_full is (nt, nq, 2, 2)."""
    A = space.mesh.tri_area
    phi = oracle_phi(space)
    coeffs = u_prev[space.elem_dofs]
    uq = np.einsum("tqlc,tl->tqc", phi, coeffs)
    Wu = np.einsum("tqcd,tqd->tqc", dW_full, uq)
    vol = g * np.einsum("q,tqc,tqlc->tl", space.qw, Wu, phi) * A[:, None]
    div_prev = np.einsum("tl,tl->t", space.div, coeffs)
    vol += g * dk_min * (div_prev * A)[:, None] * space.div
    rhs = np.zeros(space.n_dofs)
    np.add.at(rhs, space.elem_dofs, vol)
    return rhs


def rel(a, b):
    if sp.issparse(a):
        return sparse_norm(a - b) / sparse_norm(b)
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# -- interface operators ----------------------------------------------------

@pytest.mark.parametrize("geometry", sorted(MESHES))
def test_stokes_load_and_trace_match_per_pair_loops(geometry):
    ms, _, pairing = MESHES[geometry]()
    space = build_stokes_space(ms, pressure_multiplier=True)
    info = StokesInterfaceInfo(space, pairing)
    rng = np.random.default_rng(11)
    k = 3
    g_n = rng.standard_normal((2 * pairing.n_pairs, k))
    g_tau = rng.standard_normal((2 * pairing.n_pairs, k))
    block = add_interface_rhs(np.zeros((space.n_dofs, k)), info, g_n, g_tau)
    full = rng.standard_normal((space.n_dofs, k))
    tn, tt = interface_traces(info, full)
    assert tn.shape == tt.shape == (2 * pairing.n_pairs, k)
    for j in range(k):
        want = oracle_stokes_rhs(space, pairing, g_n[:, j], g_tau[:, j])
        assert rel(block[:, j], want) <= 1e-14
        one = add_interface_rhs(np.zeros(space.n_dofs), info, g_n[:, j], g_tau[:, j])
        assert rel(one, want) <= 1e-14
        wn, wt = oracle_stokes_traces(space, pairing, full[:, j])
        assert rel(tn[:, j], wn) <= 1e-14 and rel(tt[:, j], wt) <= 1e-14
        vn, vt = interface_traces(info, full[:, j])
        assert rel(vn, wn) <= 1e-14 and rel(vt, wt) <= 1e-14


@pytest.mark.parametrize("geometry", sorted(MESHES))
def test_darcy_load_and_trace_match_per_pair_loops(geometry):
    _, md, pairing = MESHES[geometry]()
    space = build_darcy_space(md)
    info = DarcyInterfaceInfo(space, pairing)
    dofs_x, sign, tau_mat, loc_dofs = oracle_darcy_info(space, pairing)
    n2 = 2 * pairing.n_pairs
    # whole-dof operators: the head columns (and the load's head rows) are zero
    normal = np.zeros((n2, space.n_dofs))
    normal[np.arange(n2), dofs_x.ravel()] = np.repeat(sign, 2)
    tangential = np.zeros((n2, space.n_dofs))
    tangential[np.arange(n2)[:, None], np.repeat(loc_dofs, 2, axis=0)] = tau_mat.reshape(n2, 6)
    np.testing.assert_array_equal(info.normal.toarray(), normal)
    np.testing.assert_array_equal(info.tangential.toarray(), tangential)
    assert info.load.shape == (space.n_dofs, n2)
    assert not info.load[space.head_slice].count_nonzero()
    rng = np.random.default_rng(12)
    k = 3
    g_D = rng.standard_normal((2 * pairing.n_pairs, k))
    block = add_darcy_interface_rhs(np.zeros((space.n_dofs, k)), info, g_D)
    full = rng.standard_normal((space.n_dofs, k))
    tn, tt = info.normal_trace(full), info.tangential_trace(full)
    assert tn.shape == tt.shape == (2 * pairing.n_pairs, k)
    for j in range(k):
        want = oracle_darcy_rhs(space, pairing, g_D[:, j])
        assert rel(block[:, j], want) <= 1e-14
        one = add_darcy_interface_rhs(np.zeros(space.n_dofs), info, g_D[:, j])
        assert rel(one, want) <= 1e-14
        wn, wt = oracle_darcy_traces(space, pairing, full[:, j])
        assert rel(tn[:, j], wn) <= 1e-14 and rel(tt[:, j], wt) <= 1e-14
        assert rel(info.normal_trace(full[:, j]), wn) <= 1e-14
        assert rel(info.tangential_trace(full[:, j]), wt) <= 1e-14
    # a whole (n_dofs, k) block in F order, the order of SuperLU's output
    block_f = np.asfortranarray(full)
    for trace, oracle in ((info.normal_trace, 0), (info.tangential_trace, 1)):
        got = trace(block_f)
        for j in range(k):
            assert rel(got[:, j], oracle_darcy_traces(space, pairing, full[:, j])[oracle]) <= 1e-14


# -- lagged deviation term ---------------------------------------------------

def test_block_lag_rhs_matches_columns_and_tensor_oracle():
    _, md, _ = manufactured_meshes(1 / 8)
    space = build_darcy_space(md)
    spec = RandomFieldSpec(a0=1.0, sigma=0.15, L_c=0.25, n_f=3)
    fields = [KLConductivity(spec, d) for d in draw_samples(spec, 3, 5)]
    fields.append(ConstantConductivity(2.0, 3.0))
    k = len(fields)
    mean = MeanInverseField(fields)
    dW = np.column_stack([inverse_diagonal(space, mean) - inverse_diagonal(space, f)
                          for f in fields])
    dk = np.array([0.1, -0.2, 0.05, 0.3])
    rng = np.random.default_rng(13)
    U = rng.standard_normal((space.n_dofs, k))
    g = 1.7
    # whole-dof operators: nothing is stored in a head column, and the head
    # rows of the right-hand side are left bitwise as they are
    heads = space.head_slice
    assert not space.volume_op[:, heads].count_nonzero()
    start = np.zeros((space.n_dofs, k))
    start[heads] = rng.standard_normal((space.n_head, k))
    rows = space.volume_op.shape[0]
    lag_w = lag_weights(space, g, dW, dk, np.empty((rows, k)))
    block = add_darcy_lag_rhs(start.copy(), space, lag_w, U)
    assert np.array_equal(block[heads], start[heads])
    block[heads] = 0.0
    pts = space.qpoints.reshape(-1, 2)
    shape = (md.n_tris, len(space.qw), 2, 2)
    for j in range(k):
        one = add_darcy_lag_rhs(np.zeros((space.n_dofs, 1)), space,
                                lag_weights(space, g, dW[:, j:j + 1], dk[j:j + 1],
                                            np.empty((rows, 1))),
                                U[:, j:j + 1])[:, 0]
        assert rel(block[:, j], one) <= 1e-13
        dW_full = (oracle_inv_tensor(mean, pts) - oracle_inv_tensor(fields[j], pts)).reshape(shape)
        assert rel(one, oracle_lag_rhs(space, dW_full, dk[j], U[:, j], g)) <= 1e-13


# -- the subdomain matrices' interface terms ---------------------------------

@pytest.mark.parametrize("geometry", sorted(MESHES))
def test_stokes_interface_terms_come_from_the_trace_map(geometry):
    # delta_s <u.n_S, v.n_S> + xi <u.tau, v.tau> of stokes_matrix is
    # trace^T diag(delta_s M, xi M) trace, M the edge mass of every pair
    ms, _, pairing = MESHES[geometry]()
    space = build_stokes_space(ms, pressure_multiplier=True)
    info = StokesInterfaceInfo(space, pairing)
    (d1, x1), (d2, x2) = (1.0, 0.3), (2.5, 1.1)
    elements = StokesElements(space, 1.0, info)
    diff = stokes_matrix(elements, d2, x2) - stokes_matrix(elements, d1, x1)
    M = interface_mass(pairing)
    want = info.trace.T @ sp.block_diag(((d2 - d1) * M, (x2 - x1) * M)) @ info.trace
    assert rel(diff, want) <= 1e-14


# -- the Darcy form -----------------------------------------------------------

@pytest.mark.parametrize("geometry", sorted(MESHES))
@pytest.mark.parametrize("field", ["constant", "kl"])
def test_darcy_block_and_velocity_mass_match_element_oracle(geometry, field):
    _, md, pairing = MESHES[geometry]()
    space = build_darcy_space(md)
    if field == "constant":
        K = ConstantConductivity(2.0, 3.0)
    else:
        spec = RandomFieldSpec(a0=1.0, sigma=0.15, L_c=0.25, n_f=3)
        K = KLConductivity(spec, draw_samples(spec, 1, 7)[0])
    g, k_min, delta_d = 1.3, 0.4, 2.5
    nv = space.n_velocity
    pts = space.qpoints.reshape(-1, 2)
    W_full = oracle_inv_tensor(K, pts).reshape(md.n_tris, len(space.qw), 2, 2)
    weight = inverse_diagonal(space, K)
    iface = DarcyInterfaceInfo(space, pairing)
    block = darcy_matrix(space, g, weight, k_min, delta_d, iface)[:nv, :nv]
    normal = iface.normal[:, :nv]
    robin = normal.T @ (delta_d * interface_mass(pairing)) @ normal
    assert rel(block, oracle_form(space, g, W_full, k_min) + robin) <= 1e-14
    unit = np.broadcast_to(np.eye(2), W_full.shape)
    assert rel(space.velocity_mass, oracle_form(space, 1.0, unit, 0.0)) <= 1e-14
