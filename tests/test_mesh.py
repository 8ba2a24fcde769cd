import numpy as np
import pytest

from ensddm.mesh import Rect, build_rect_mesh, pair_interface

PI = np.pi


def test_vertex_and_triangle_counts():
    m = build_rect_mesh(Rect(0, PI, 0, 1), 4, 4)
    assert m.n_verts == 25
    assert m.n_tris == 32


def test_single_cell():
    m = build_rect_mesh(Rect(0, 1, 0, 1), 1, 1)
    assert m.n_verts == 4
    assert m.n_tris == 2


def test_rejects_zero_divisions():
    with pytest.raises(ValueError):
        build_rect_mesh(Rect(0, 1, 0, 1), 0, 4)
    with pytest.raises(ValueError):
        build_rect_mesh(Rect(0, 1, 0, 1), 4, 0)


@pytest.mark.parametrize("n", [True, 2.0, 1.5, "2", None])
def test_rejects_non_integral_divisions(n):
    with pytest.raises(ValueError, match="integers"):
        build_rect_mesh(Rect(0, 1, 0, 1), n, 2)
    with pytest.raises(ValueError, match="integers"):
        build_rect_mesh(Rect(0, 1, 0, 1), 2, n)


def test_numpy_integer_divisions_build_the_same_mesh():
    m = build_rect_mesh(Rect(0, 1, 0, 1), np.int64(3), np.int32(2))
    ref = build_rect_mesh(Rect(0, 1, 0, 1), 3, 2)
    assert np.array_equal(m.edges, ref.edges) and np.array_equal(m.verts, ref.verts)


def _sorted_topology(tris):
    """Edges and incidences by sorting the triangles' vertex pairs: the
    oracle of the closed-form grid topology."""
    nt, nv = len(tris), tris.max() + 1
    # edge k of a triangle is opposite local vertex k; the key a nv + b of
    # a vertex pair a < b sorts like the pair
    pairs = np.concatenate([tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]])
    pairs = np.sort(pairs, axis=1)
    keys, inverse = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_inverse=True)
    edges = np.column_stack([keys // nv, keys % nv])
    edge_of_tri = inverse.reshape(3, nt).T.copy()
    # the triangles of each edge, lower first: a stable sort of the
    # row-major (triangle, local edge) entries by edge
    order = np.argsort(edge_of_tri.ravel(), kind="stable")
    e = edge_of_tri.ravel()[order]
    second = np.r_[False, e[1:] == e[:-1]]
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_tris[e[~second], 0] = order[~second] // 3
    edge_tris[e[second], 1] = order[second] // 3
    return edges, edge_tris, edge_of_tri


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 5), (5, 1), (3, 2), (24, 8), (24, 24),
                                   (64, 32), (96, 32)])
def test_topology_equals_the_sorted_vertex_pairs(nx, ny):
    m = build_rect_mesh(Rect(0, 2, -1, 1), nx, ny)
    expected = _sorted_topology(m.tris)
    for name, ref in zip(("edges", "edge_tris", "edge_of_tri"), expected):
        got = getattr(m, name)
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (7, 5), (16, 16)])
def test_euler_relation_and_conformity(nx, ny):
    m = build_rect_mesh(Rect(0, 2, -1, 1), nx, ny)
    assert m.n_verts - m.n_edges + m.n_tris == 1
    incident = (m.edge_tris >= 0).sum(axis=1)
    interior = m.boundary_tags == ""
    assert np.all(incident[interior] == 2)
    assert np.all(incident[~interior] == 1)


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (7, 5)])
def test_edge_connectivity(nx, ny):
    m = build_rect_mesh(Rect(0, 2, -1, 1), nx, ny)
    for t, tri in enumerate(m.tris):
        for k in range(3):
            e = m.edge_of_tri[t, k]
            # the edge opposite local vertex k, and t is one of its triangles
            assert m.edges[e].tolist() == sorted(np.delete(tri, k).tolist())
            assert t in m.edge_tris[e]
    first, second = m.edge_tris.T
    boundary = m.boundary_tags != ""
    assert np.all(second[boundary] == -1) and np.all(first[boundary] >= 0)
    assert np.all(first[~boundary] < second[~boundary])


@pytest.mark.parametrize("nx,ny", [(2, 3), (9, 4), (16, 16)])
def test_area_sums_to_rectangle(nx, ny):
    r = Rect(0, PI, -1, 0)
    m = build_rect_mesh(r, nx, ny)
    assert m.tri_area.sum() == pytest.approx((r.x1 - r.x0) * (r.y1 - r.y0), rel=1e-12)
    assert np.all(m.tri_area > 0)


def test_quasi_uniform_ratio_on_unit_aspect_cells():
    m = build_rect_mesh(Rect(0, 3, 0, 1), 48, 16)  # square cells
    assert m.edge_length.max() / m.edge_length.min() <= 3.0


def test_boundary_tagging():
    m = build_rect_mesh(Rect(0, 1, 0, 1), 3, 3,
                        side_tags={"bottom": "INTERFACE", "left": "INFLOW",
                                   "right": "OUTFLOW", "top": "WALL"})
    assert len(m.boundary_edges("INTERFACE")) == 3
    assert len(m.boundary_edges("INFLOW")) == 3
    assert len(m.boundary_edges("OUTFLOW")) == 3
    assert len(m.boundary_edges("WALL")) == 3
    with pytest.raises(ValueError):
        build_rect_mesh(Rect(0, 1, 0, 1), 2, 2, side_tags={"top": "NOT_A_TAG"})


def _two_stacked(nx_s=16, nx_d=16, ny=4, width=PI):
    ms = build_rect_mesh(Rect(0, width, 0, 1), nx_s, ny, side_tags={"bottom": "INTERFACE"})
    md = build_rect_mesh(Rect(0, width, -1, 0), nx_d, ny,
                         side_tags={"top": "INTERFACE", "bottom": "BOTTOM",
                                    "left": "SIDE", "right": "SIDE"})
    return ms, md


def test_pairing_matched_grids():
    ms, md = _two_stacked()
    pairing = pair_interface(ms, md)
    assert pairing.n_pairs == 16
    assert pairing.length == pytest.approx(PI, rel=1e-14)
    # deterministic x-ordering
    xs = ms.verts[pairing.nodes_s[:, 0], 0]
    assert np.all(np.diff(xs) > 0)


def test_pairing_mismatch_raises():
    ms, md = _two_stacked(nx_s=16, nx_d=32)
    with pytest.raises(ValueError, match="non-matching interface"):
        pair_interface(ms, md)


def test_pairing_normal_direction():
    ms, md = _two_stacked(nx_s=1, nx_d=1, ny=1, width=1.0)
    pairing = pair_interface(ms, md)
    assert pairing.n_pairs == 1
    np.testing.assert_allclose(pairing.n_s, [0.0, -1.0])
    np.testing.assert_allclose(pairing.n_d, [0.0, 1.0])


def test_pairing_is_bijection_over_interface_edges():
    ms, md = _two_stacked(nx_s=8, nx_d=8)
    pairing = pair_interface(ms, md)
    assert sorted(pairing.pairs[:, 0]) == sorted(ms.boundary_edges("INTERFACE"))
    assert sorted(pairing.pairs[:, 1]) == sorted(md.boundary_edges("INTERFACE"))
    assert len(set(map(tuple, pairing.pairs))) == pairing.n_pairs
