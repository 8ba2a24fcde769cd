"""Structured triangulations of axis-aligned rectangles with tagged boundaries.

Each grid cell is split along its lower-left to upper-right diagonal, which
keeps the triangulation deterministic.  The grid indices fix the topology,
so the edges (vertex pairs a < b in lexicographic order), each triangle's
edges (edge k opposite vertex k) and each edge's triangles (the lower one
first) follow from them in closed form, with no sort.  Boundary edges carry
one of the tags INTERFACE, WALL, INFLOW, OUTFLOW, BOTTOM, SIDE assigned by
exact coordinate comparison against the rectangle sides.  Two meshes that
share a horizontal side can be paired edge-by-edge along that interface.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

TAGS = ("INTERFACE", "WALL", "INFLOW", "OUTFLOW", "BOTTOM", "SIDE")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("rectangle requires x0 < x1 and y0 < y1")


@dataclass
class Mesh:
    """Conforming triangulation of a rectangle.

    Attributes
    ----------
    verts : (nv, 2) float array
    tris : (nt, 3) int array, counter-clockwise vertex triples
    edges : (ne, 2) int array, vertex pairs (a, b) with a < b, the rows in
        lexicographic order
    edge_tris : (ne, 2) int array, the incident triangles, the lower-numbered
        first; -1 for a boundary edge's missing second triangle
    boundary_tags : (ne,) str array, '' for interior edges
    edge_of_tri : (nt, 3) int array, edge k of a triangle is the one
        opposite its vertex k
    """

    rect: Rect
    verts: np.ndarray
    tris: np.ndarray
    edges: np.ndarray
    edge_tris: np.ndarray
    boundary_tags: np.ndarray
    # per-triangle geometry, filled in by build_rect_mesh
    tri_area: np.ndarray = field(default=None, repr=False)
    tri_grads: np.ndarray = field(default=None, repr=False)  # (nt, 3, 2) barycentric gradients
    edge_length: np.ndarray = field(default=None, repr=False)
    edge_of_tri: np.ndarray = field(default=None, repr=False)  # (nt, 3) edge ids, edge k opposite vertex k

    @property
    def n_verts(self):
        return len(self.verts)

    @property
    def n_tris(self):
        return len(self.tris)

    @property
    def n_edges(self):
        return len(self.edges)

    def boundary_edges(self, tag=None):
        """Edge ids on the boundary, optionally restricted to one tag."""
        if tag is None:
            return np.where(self.boundary_tags != "")[0]
        return np.where(self.boundary_tags == tag)[0]


def build_rect_mesh(rect, nx, ny, side_tags=None):
    """Triangulate `rect` into a structured (nx x ny)-cell mesh.

    Parameters
    ----------
    rect : Rect
    nx, ny : int
        Cell counts per direction; integers of at least 1.
    side_tags : dict, optional
        Tags for the four sides, keys 'left', 'right', 'bottom', 'top'.
        Defaults to WALL everywhere.

    Returns
    -------
    Mesh with (nx+1)(ny+1) vertices and 2*nx*ny triangles.
    """
    for n in (nx, ny):
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ValueError("nx and ny must be integers of at least 1")
    tags = {"left": "WALL", "right": "WALL", "bottom": "WALL", "top": "WALL"}
    if side_tags:
        unknown = set(side_tags) - set(tags)
        if unknown:
            raise ValueError(f"unknown sides {sorted(unknown)}")
        bad = set(side_tags.values()) - set(TAGS)
        if bad:
            raise ValueError(f"unknown tags {sorted(bad)}")
        tags.update(side_tags)

    xs = np.linspace(rect.x0, rect.x1, nx + 1)
    ys = np.linspace(rect.y0, rect.y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")  # row-major in y: vid = iy*(nx+1) + ix
    verts = np.column_stack([X.ravel(), Y.ravel()])

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    v00 = (iy * (nx + 1) + ix).ravel()
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1
    # diagonal from lower-left to upper-right, both triangles CCW
    t1 = np.column_stack([v00, v10, v11])
    t2 = np.column_stack([v00, v11, v01])
    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    tris[0::2] = t1
    tris[1::2] = t2

    edges, edge_tris, edge_of_tri = _grid_topology(nx, ny)
    boundary_tags = _tag_boundary(verts, edges, edge_tris, rect, tags)

    # `take` gathers whole rows, several times faster than `verts[tris]`
    corners = verts.take(tris, axis=0)
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    if np.any(area <= 0):
        raise ValueError("non-positive triangle area")
    # gradient of barycentric i: perpendicular to the opposite edge
    two_area = 2 * area
    grads = np.empty((len(tris), 3, 2))
    for i in range(3):
        a = corners[:, (i + 1) % 3]
        b = corners[:, (i + 2) % 3]
        grads[:, i, 0] = (a[:, 1] - b[:, 1]) / two_area
        grads[:, i, 1] = (b[:, 0] - a[:, 0]) / two_area

    ev = verts.take(edges, axis=0)
    elen = np.linalg.norm(ev[:, 1] - ev[:, 0], axis=1)

    mesh = Mesh(rect=rect, verts=verts, tris=tris, edges=edges,
                edge_tris=edge_tris, boundary_tags=boundary_tags,
                tri_area=area, tri_grads=grads, edge_length=elen, edge_of_tri=edge_of_tri)
    _check_invariants(mesh)
    return mesh


def _grid_topology(nx, ny):
    """`edges`, `edge_tris` and `edge_of_tri` of the (nx x ny)-cell grid.

    A vertex's edges to higher-numbered vertices go right, up and up-right,
    in that key order, so numbering them vertex by vertex gives the pairs in
    lexicographic order.  Slot (iy, ix, d) holds vertex (ix, iy)'s edge in
    direction d, where one exists."""
    exists = np.zeros((ny + 1, nx + 1, 3), dtype=bool)
    exists[:, :nx, 0] = True
    exists[:ny, :, 1] = True
    exists[:ny, :nx, 2] = True
    slots = np.flatnonzero(exists)
    a = slots // 3
    edges = np.column_stack([a, a + np.array([1, nx + 1, nx + 2])[slots % 3]])
    eid = (np.cumsum(exists) - 1).reshape(exists.shape)  # each slot's edge number

    # cell (ix, iy) holds triangles 2c = (v00, v10, v11) and 2c + 1 =
    # (v00, v11, v01), c = iy nx + ix; edge k is opposite vertex k
    eot = np.empty((ny, nx, 2, 3), dtype=np.int64)
    eot[:, :, 0, 0] = eid[:ny, 1:, 1]
    eot[:, :, 0, 1] = eid[:ny, :nx, 2]
    eot[:, :, 0, 2] = eid[:ny, :nx, 0]
    eot[:, :, 1, 0] = eid[1:, :nx, 0]
    eot[:, :, 1, 1] = eid[:ny, :nx, 1]
    eot[:, :, 1, 2] = eid[:ny, :nx, 2]

    # lower triangle first: a right edge's cell below (its 2c + 1) comes
    # before the cell above (2c), an up edge's cell on the left (2c) before
    # the one on the right (2c + 1)
    lo = 2 * np.arange(nx * ny).reshape(ny, nx)
    hi = lo + 1
    tri_of = np.full((ny + 1, nx + 1, 3, 2), -1, dtype=np.int64)
    tri_of[1:, :nx, 0, 0] = hi
    tri_of[1:ny, :nx, 0, 1] = lo[1:]
    tri_of[0, :nx, 0, 0] = lo[0]
    tri_of[:ny, 1:, 1, 0] = lo
    tri_of[:ny, 1:nx, 1, 1] = hi[:, 1:]
    tri_of[:ny, 0, 1, 0] = hi[:, 0]
    tri_of[:ny, :nx, 2, 0] = lo
    tri_of[:ny, :nx, 2, 1] = hi
    return edges, tri_of.reshape(-1, 2).take(slots, axis=0), eot.reshape(2 * nx * ny, 3)


def _tag_boundary(verts, edges, edge_tris, rect, tags):
    boundary_tags = np.full(len(edges), "", dtype="<U9")
    bdry = np.flatnonzero(edge_tris[:, 1] == -1)
    pa, pb = verts[edges[bdry, 0]], verts[edges[bdry, 1]]
    tagged = np.zeros(len(bdry), dtype=bool)
    for side, axis, value in (("left", 0, rect.x0), ("right", 0, rect.x1),
                              ("bottom", 1, rect.y0), ("top", 1, rect.y1)):
        on = (pa[:, axis] == value) & (pb[:, axis] == value)
        boundary_tags[bdry[on]] = tags[side]
        tagged |= on
    if not tagged.all():
        raise ValueError("boundary edge not on any rectangle side")
    return boundary_tags


def _check_invariants(mesh):
    interior = mesh.boundary_tags == ""
    n_incident = (mesh.edge_tris >= 0).sum(axis=1)
    if not np.all(n_incident[interior] == 2):
        raise AssertionError("interior edge without exactly 2 incident triangles")
    if not np.all(n_incident[~interior] == 1):
        raise AssertionError("boundary edge without exactly 1 incident triangle")
    if mesh.n_verts - mesh.n_edges + mesh.n_tris != 1:
        raise AssertionError("Euler relation V - E + T = 1 violated")


@dataclass
class InterfacePairing:
    """Matched interface edges of a Stokes mesh and a Darcy mesh.

    Pairs are ordered by increasing x.  `n_s` is the unit normal pointing
    from the Stokes into the Darcy domain (n_D = -n_S); `tau` is the shared
    unit tangent (+x).  `nodes_s`/`nodes_d` hold, per pair, the two vertex
    ids of each mesh sorted by x, and `lengths` the edge lengths.
    """

    pairs: np.ndarray        # (np, 2) [stokes_edge_id, darcy_edge_id]
    n_s: np.ndarray          # (2,)
    tau: np.ndarray          # (2,)
    length: float
    nodes_s: np.ndarray      # (np, 2) stokes vertex ids, x-sorted
    nodes_d: np.ndarray      # (np, 2) darcy vertex ids, x-sorted
    lengths: np.ndarray      # (np,)

    @property
    def n_pairs(self):
        return len(self.pairs)

    @property
    def n_d(self):
        return -self.n_s


def pair_interface(mesh_s, mesh_d):
    """Pair the INTERFACE-tagged edges of two meshes sharing a horizontal side.

    Fails with "non-matching interface" if the two discretizations do not
    coincide to 1e-12 in the endpoint coordinates.
    """
    es = mesh_s.boundary_edges("INTERFACE")
    ed = mesh_d.boundary_edges("INTERFACE")
    if len(es) == 0 or len(ed) == 0:
        raise ValueError("non-matching interface: a mesh has no INTERFACE edges")
    if len(es) != len(ed):
        raise ValueError(f"non-matching interface: {len(es)} vs {len(ed)} edges")

    def sort_by_x(mesh, eids):
        mids = mesh.verts[mesh.edges[eids]].mean(axis=1)
        order = np.argsort(mids[:, 0], kind="stable")
        return eids[order]

    es = sort_by_x(mesh_s, es)
    ed = sort_by_x(mesh_d, ed)

    def x_sorted_nodes(mesh, eids):
        nodes = mesh.edges[eids].copy()
        xa = mesh.verts[nodes[:, 0], 0]
        xb = mesh.verts[nodes[:, 1], 0]
        swap = xa > xb
        nodes[swap] = nodes[swap][:, ::-1]
        return nodes

    nodes_s = x_sorted_nodes(mesh_s, es)
    nodes_d = x_sorted_nodes(mesh_d, ed)
    ps = mesh_s.verts[nodes_s]  # (np, 2, 2)
    pd = mesh_d.verts[nodes_d]
    if not np.allclose(ps, pd, rtol=0.0, atol=1e-12):
        raise ValueError("non-matching interface: endpoint coordinates differ")

    ys = ps[:, :, 1]
    y = ys.flat[0]
    if not np.all(ys == y):
        raise ValueError("interface must be horizontal")

    stokes_above = mesh_s.rect.y0 == y
    n_s = np.array([0.0, -1.0]) if stokes_above else np.array([0.0, 1.0])
    lengths = ps[:, 1, 0] - ps[:, 0, 0]
    pairs = np.column_stack([es, ed])
    return InterfacePairing(pairs=pairs, n_s=n_s, tau=np.array([1.0, 0.0]),
                            length=float(lengths.sum()), nodes_s=nodes_s,
                            nodes_d=nodes_d, lengths=lengths)
