"""The element-level condensed systems against the global-product Schur
complement, and the nested-dissection order of the condensed unknowns."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ensddm import darcy_fem, stokes_fem
from ensddm.bench_cli import channel_bc, channel_meshes, manufactured_meshes
from ensddm.darcy_fem import build_darcy_space, darcy_element_blocks, DarcyInterfaceInfo
from ensddm.sparsela import (REFINE_ABOVE, SubdomainOperator, block_inverse, nested_dissection,
                             positions, scatter)
from ensddm.stokes_fem import build_stokes_space, StokesElements, StokesInterfaceInfo


def _global_schur(H, P, Q, interior):
    """The oracle: S = H_rr - H_ri B^-1 H_ir of the system H y = P b,
    x = Q y, with B the block diagonal of the b x b blocks of dofs of H in
    the rows of `interior` (m, b), and the maps to S's right-hand side and
    back to x, all by global sparse products."""
    m, b = interior.shape
    rest = np.ones(H.shape[0], dtype=bool)
    rest[interior] = False
    rest, inner = np.flatnonzero(rest), interior.ravel()
    H_i, H_r = H[inner], H[rest]
    blocks = H_i[:, inner].toarray().reshape(m, b, m, b)[np.arange(m), :, np.arange(m), :]
    B_inv = sp.block_diag(list(np.linalg.inv(blocks)), format="csr")
    condense = H_r[:, inner] @ B_inv
    H_ir = H_i[:, rest]
    return (H_r[:, rest] - condense @ H_ir, P[rest] - condense @ P[inner],
            Q[:, inner] @ B_inv @ P[inner], Q[:, rest] - Q[:, inner] @ (B_inv @ H_ir))


def _rel(a, b):
    return abs(a - b).max() / abs(b).max()


def _stokes(h, pressure_multiplier):
    ms, _, pairing = manufactured_meshes(h)
    space = build_stokes_space(ms, pressure_multiplier=pressure_multiplier)
    return space, StokesInterfaceInfo(space, pairing)


def _darcy(geometry, h):
    if geometry == "channel":
        _, md, pairing = channel_meshes(h)
        space = build_darcy_space(md, essential_tags=channel_bc().darcy_essential_tags)
    else:
        _, md, pairing = manufactured_meshes(h)
        space = build_darcy_space(md)
    return space, DarcyInterfaceInfo(space, pairing)


def _stokes_condensed(space, iface):
    return stokes_fem._condensed(stokes_fem.StokesElements(space, 1.3, iface), 2.0, 0.7)


def _darcy_blocks(space, iface):
    weight = np.random.default_rng(3).uniform(0.5, 2.0, len(space.quad_weight))
    return darcy_element_blocks(space, 1.0, weight, 0.6, 2.0, iface)


@pytest.mark.parametrize("pin", [True, False])
def test_stokes_element_condensation_matches_global_products(pin):
    space, iface = _stokes(1 / 8, pin)
    free = space.free
    matrix = stokes_fem.stokes_matrix(stokes_fem.StokesElements(space, 1.3, iface), 2.0, 0.7)
    pos = np.full(space.n_dofs, -1)
    pos[free] = np.arange(len(free))
    Q = sp.csr_matrix((np.ones(len(free)), (free, np.arange(len(free)))),
                      shape=(space.n_dofs, len(free)))
    oracle = _global_schur(matrix[free][:, free], sp.identity(len(free), format="csr"), Q,
                           pos[space.vel_elem_dofs[:, [3, 7]]])
    # the oracle's unknowns are the rest of the free dofs in dof order
    p = np.argsort(space.order)
    S, condense, direct, recover = _stokes_condensed(space, iface)
    # the maps read dofs, none of them fixed
    assert condense[:, space.fixed].nnz == 0 and direct[:, space.fixed].nnz == 0
    for got, want in ((S[p][:, p], oracle[0]), (condense[p][:, free], oracle[1]),
                      (direct[:, free], oracle[2]), (recover[:, p], oracle[3])):
        assert got.shape == want.shape
        assert _rel(got, want) <= 1e-12


@pytest.mark.parametrize("geometry", ["manufactured", "channel"])
def test_darcy_element_condensation_matches_global_products(geometry):
    space, iface = _darcy(geometry, 1 / 8)
    blocks = _darcy_blocks(space, iface)
    nt, n_free = len(blocks), len(space.free)
    # the hybridized system [K, -C^T; C, 0] with one multiplier row per dof
    # of `order`, built from the copies of each dof
    flat = space.hybrid_dofs.ravel()
    rows = np.searchsorted(np.sort(space.order), flat)
    on = np.isin(flat, space.order)
    first = space.copy_of[flat] == np.arange(len(flat))
    C = sp.csr_matrix((np.where(first, 1.0, -1.0)[on], (rows[on], np.flatnonzero(on))),
                      shape=(len(space.order), 7 * nt))
    H = sp.bmat([[sp.block_diag(list(blocks)), -C.T], [C, None]], format="csr")
    P = sp.csr_matrix((np.ones(n_free), (space.copy_of[space.free], np.arange(n_free))),
                      shape=(H.shape[0], n_free))
    Q = sp.csr_matrix((np.ones(n_free), (space.free, np.arange(n_free))),
                      shape=(space.n_dofs, n_free)) @ P.T
    oracle = _global_schur(H, P, Q, np.arange(7 * nt).reshape(nt, 7))
    p = np.argsort(space.order)
    S, condense, direct, recover = darcy_fem._condensed(space, blocks)
    free = space.free
    assert condense[:, space.fixed].nnz == 0 and direct[:, space.fixed].nnz == 0
    for got, want in ((S[p][:, p], oracle[0]), (condense[p][:, free], oracle[1]),
                      (direct[:, free], oracle[2]), (recover[:, p], oracle[3])):
        assert got.shape == want.shape
        assert _rel(got, want) <= 1e-12


def _stokes_vertex(space, dofs):
    """The vertex of each nodal velocity or pressure dof."""
    return dofs - np.where(dofs < space.n_comp, 0,
                           np.where(dofs < space.n_velocity, space.n_comp, space.n_velocity))


def _adjacent(groups):
    """Every group label of the sequence forms one run."""
    runs = 1 + np.count_nonzero(np.diff(groups))
    return runs == len(np.unique(groups))


@pytest.mark.parametrize("pin", [True, False])
def test_stokes_order_keeps_each_vertex_together_and_the_multiplier_last(pin):
    space, _ = _stokes(1 / 8, pin)
    order = space.order
    bubbles = space.vel_elem_dofs[:, [3, 7]].ravel()
    expect = np.setdiff1d(space.free, bubbles)
    assert np.array_equal(np.sort(order), expect)
    vertex_dofs = order[:-1] if pin else order
    if pin:
        assert order[-1] == space.n_dofs - 1
    assert _adjacent(_stokes_vertex(space, vertex_dofs))


@pytest.mark.parametrize("geometry", ["manufactured", "channel"])
def test_darcy_order_keeps_each_edge_together(geometry):
    space, _ = _darcy(geometry, 1 / 8)
    mesh = space.mesh
    interior = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
    edges = np.union1d(interior, space.essential_edges)
    assert np.array_equal(np.sort(space.order), np.sort(np.r_[2 * edges, 2 * edges + 1]))
    assert _adjacent(space.order // 2)
    # each multiplier is on both copies of an interior-edge dof, with
    # opposite signs, or on the one copy of an essential dof
    m = positions(space.n_dofs, space.order)[space.hybrid_dofs].ravel()
    counts = np.bincount(m[m >= 0], minlength=len(space.order))
    signs = np.bincount(m[m >= 0], weights=space.sign.ravel()[m >= 0], minlength=len(counts))
    essential = np.isin(space.order // 2, space.essential_edges)
    assert np.all(counts == np.where(essential, 1, 2))
    assert np.all(signs == np.where(essential, 1.0, 0.0))


def _top_cut(points, links):
    """The first cut of `nested_dissection`, restated: the halves without
    the separator, and the separator."""
    extent = points.max(axis=0) - points.min(axis=0)
    c = points[:, np.argmax(extent)]
    left = c < np.sort(c)[len(c) // 2]
    i, j = links.T
    cross = left[i] != left[j]
    mark = np.zeros(len(points), dtype=bool)
    mark[i[cross]] = mark[j[cross]] = True
    right_sep = np.count_nonzero(mark & ~left) <= np.count_nonzero(mark & left)
    sep = mark & (left != right_sep)
    return np.flatnonzero(left & ~sep), np.flatnonzero(~left & ~sep), np.flatnonzero(sep)


def _check_top_separator(S, entity_of, halves):
    """The unknowns come left half, right half, separator; S couples no
    unknown of one half to one of the other."""
    rank = {e: k for k, part in enumerate(halves) for e in part}
    seq = np.array([rank.get(e, 3) for e in entity_of])
    assert np.all(np.diff(seq) >= 0) and set(seq[:-1]) <= {0, 1, 2}
    left, right = (np.flatnonzero(seq == k) for k in (0, 1))
    assert len(left) and len(right)
    assert S[left][:, right].nnz == 0 and S[right][:, left].nnz == 0


@pytest.mark.parametrize("pin", [True, False])
def test_stokes_top_separator_splits_the_condensed_matrix(pin):
    space, iface = _stokes(1 / 8, pin)
    mesh = space.mesh
    S = _stokes_condensed(space, iface)[0]
    entity = _stokes_vertex(space, space.order)
    if pin:
        entity[-1] = -1               # the multiplier follows the separator
    _check_top_separator(S, entity, _top_cut(mesh.verts, mesh.edges))


@pytest.mark.parametrize("geometry", ["manufactured", "channel"])
def test_darcy_top_separator_splits_the_multiplier_system(geometry):
    space, iface = _darcy(geometry, 1 / 8)
    mesh = space.mesh
    S = darcy_fem._condensed(space, _darcy_blocks(space, iface))[0]
    eot = mesh.edge_of_tri
    links = np.concatenate([eot[:, :2], eot[:, 1:], eot[:, ::2]])
    _check_top_separator(S, space.order // 2, _top_cut(mesh.verts[mesh.edges].mean(axis=1), links))


def test_operator_builds_reuse_the_order_of_their_space(monkeypatch):
    calls = []

    def counting(points, links):
        calls.append(len(points))
        return nested_dissection(points, links)

    monkeypatch.setattr(stokes_fem, "nested_dissection", counting)
    monkeypatch.setattr(darcy_fem, "nested_dissection", counting)
    ms, md, pairing = manufactured_meshes(1 / 4)
    space_s, space_d = build_stokes_space(ms, pressure_multiplier=True), build_darcy_space(md)
    iface_s, iface_d = StokesInterfaceInfo(space_s, pairing), DarcyInterfaceInfo(space_d, pairing)
    assert len(calls) == 2
    orders = space_s.order, space_d.order
    patterns = [dict(space.patterns) for space in (space_s, space_d)]
    weight = np.ones(len(space_d.quad_weight))
    elements = stokes_fem.StokesElements(space_s, 1.0, iface_s)
    for xi in (0.5, 0.7):
        stokes_fem.assemble_stokes_operator(elements, 1.0, xi)
        darcy_fem.assemble_darcy_operator(space_d, 1.0, weight * xi, 1.0, 2.0, iface_d)
    assert len(calls) == 2
    assert space_s.order is orders[0] and space_d.order is orders[1]
    # and the sparsity patterns the space made with that order
    for space, before in zip((space_s, space_d), patterns):
        assert space.patterns.keys() == before.keys()
        assert all(space.patterns[k] is before[k] for k in before)


def _interface_element_terms(space, pairing):
    """The element terms <u.n_S, v.n_S> and <u.tau, v.tau> [p, i, j, c, d]
    of the interface, from the pairing's geometry alone, and their slots
    (the interface edge's triangle, local velocity dof, local velocity
    dof): edge mass (i, j) of pair p times direction components c and d."""
    mesh = space.mesh
    tri = mesh.edge_tris[pairing.pairs[:, 0], 0]
    # local vertex of each x-ordered endpoint, then its local dof per component
    m = np.argmax(mesh.tris[tri][:, None, :] == pairing.nodes_s[:, :, None], axis=2)
    loc = 4 * np.arange(2) + m[:, :, None]                     # (pair, i, c)
    slots = (tri[:, None, None, None, None], loc[:, :, None, :, None], loc[:, None, :, None, :])
    mass = stokes_fem.edge_mass(pairing.lengths[:, None, None])[:, :, :, None, None]
    return (slots, mass * np.outer(pairing.n_s, pairing.n_s),
            mass * np.outer(pairing.tau, pairing.tau))


def _stokes_built_anew(space, nu, delta_s, xi, pairing):
    """The oracle of the shared Stokes element data: one operator's matrix,
    condensed system and maps with every element block and its bubble
    elimination made anew, interface terms included, these from the
    pairing's geometry rather than the interface operators."""
    E = np.zeros((space.mesh.n_tris, 11, 11))
    E[:, :8, :8] = stokes_fem.deformation_element_matrices(space, nu)
    E[:, 8:, :8] = B = stokes_fem.div_element_matrices(space)
    E[:, :8, 8:] = -B.transpose(0, 2, 1)
    slots, normal, tangential = _interface_element_terms(space, pairing)
    np.add.at(E, slots, delta_s * normal + xi * tangential)
    m, P = np.repeat(space.mesh.tri_area / 3.0, 3), space.patterns
    bub, rest = np.array([3, 7]), np.array([0, 1, 2, 4, 5, 6, 8, 9, 10])
    br = E[:, bub[:, None], rest]
    inv = block_inverse(E[:, bub[:, None], bub])
    up = E[:, rest[:, None], bub] @ inv
    return (scatter(P["matrix"], E, m, -m),
            (scatter(P["S"], E[:, rest[:, None], rest] - up @ br, m, -m),
             scatter(P["condense"], -up, 1.0), scatter(P["direct"], inv),
             scatter(P["recover"], -(inv @ br), 1.0)))


def _same_csr(a, b):
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data))


def _close_csr(a, b):
    """The same shape and index arrays, and data within 1e-14 of b's
    largest entry: the interface terms are summed in another order than a
    whole scatter sums them."""
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.abs(a.data - b.data).max() <= 1e-14 * np.abs(b.data).max())


def _stokes_pairing(geometry, h):
    if geometry == "channel":
        ms, _, pairing = channel_meshes(h)
        bc = channel_bc()
        space = build_stokes_space(ms, dirichlet_tags=bc.stokes_dirichlet_tags,
                                   pressure_multiplier=bc.stokes_pressure_multiplier)
    else:
        ms, _, pairing = manufactured_meshes(h)
        space = build_stokes_space(ms, pressure_multiplier=True)
    return space, StokesInterfaceInfo(space, pairing), pairing


@pytest.mark.parametrize("geometry", ["manufactured", "channel"])
def test_shared_stokes_data_builds_what_a_whole_build_builds(geometry):
    # one StokesElements serves operators of two (delta_s, xi) pairs; each
    # output is that of the operator's own whole build: the maps bitwise,
    # the matrix, S and A_fd to rounding with the same index arrays
    space, iface, pairing = _stokes_pairing(geometry, 1 / 8)
    elements = StokesElements(space, 1.3, iface)
    for delta_s, xi in ((1.0, 0.3), (2.5, 1.1)):
        matrix, condensed = _stokes_built_anew(space, 1.3, delta_s, xi, pairing)
        want = SubdomainOperator(matrix, space.free, space.fixed, lambda: condensed)
        got = stokes_fem._condensed(elements, delta_s, xi)
        assert _close_csr(got[0], condensed[0])
        assert all(_same_csr(g, w) for g, w in zip(got[1:], condensed[1:]))
        assert _close_csr(stokes_fem.stokes_matrix(elements, delta_s, xi), matrix)
        op = stokes_fem.assemble_stokes_operator(elements, delta_s, xi)
        assert _close_csr(op.A_fd, want.A_fd)
        assert (op.probe_error > REFINE_ABOVE) == (want.probe_error > REFINE_ABOVE)
        # the operators share the run's maps
        assert op._condense is elements.condense and op._recover is elements.recover


def test_shared_stokes_data_follows_the_viscosity():
    # the data is made from (space, nu, iface): another viscosity gives
    # other data, each that of its own whole build, and the same interface
    # terms, which no viscosity scales
    space, iface, pairing = _stokes_pairing("manufactured", 1 / 8)
    a, b = StokesElements(space, 1.0, iface), StokesElements(space, 0.7, iface)
    assert a.space is b.space and a.iface is b.iface and (a.nu, b.nu) == (1.0, 0.7)
    for name in ("matrix", "S"):
        assert not np.array_equal(a.data[name], b.data[name])
        terms = zip(a.interface[name], b.interface[name])
        assert all(np.array_equal(x, y) for p, q in terms for x, y in zip(p, q))
    for name in ("condense", "direct", "recover"):
        assert not np.array_equal(getattr(a, name).data, getattr(b, name).data)
    for elements in (a, b):
        matrix, condensed = _stokes_built_anew(space, elements.nu, 2.0, 0.5, pairing)
        assert _close_csr(stokes_fem.stokes_matrix(elements, 2.0, 0.5), matrix)
        got = stokes_fem._condensed(elements, 2.0, 0.5)
        assert _close_csr(got[0], condensed[0])
        assert all(_same_csr(g, w) for g, w in zip(got[1:], condensed[1:]))


def test_darcy_dissection_fill_is_under_eight_tenths_of_minimum_degree():
    # the same multiplier system at h=1/32, in the dissection order against
    # SuperLU's minimum degree order of A + A^T from the dof order, both
    # with diagonal pivots
    space, iface = _darcy("manufactured", 1 / 32)
    weight = np.ones(len(space.quad_weight))
    op = darcy_fem.assemble_darcy_operator(space, 1.0, weight, 1.0, 2.0, iface)
    S = darcy_fem._condensed(space, darcy_element_blocks(space, 1.0, weight, 1.0, 2.0, iface))[0]
    p = np.argsort(space.order)
    mmd = splu(S[p][:, p].tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               options=dict(SymmetricMode=True))
    assert op.factorization.nnz < 0.8 * mmd.nnz
