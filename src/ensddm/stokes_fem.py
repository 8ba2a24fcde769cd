"""MINI-element (P1+bubble velocity, P1 pressure) assembly of the Robin
free-flow subproblem.

The subdomain matrix couples velocity, pressure, and (optionally) a scalar
multiplier that pins the pressure mean; it depends only on the viscosity,
the Robin weight delta_S, and the ensemble-mean slip coefficient, so it is
identical for every sample and iteration.  Per-sample data (forcing, Robin
traces, lagged slip term, Dirichlet values) enters through the right-hand
side only.

Internally the assembled saddle system stores the negative of the pressure
so that the matrix is symmetric with an un-negated continuity block; the
solve helpers flip the sign back.

Right-hand sides, solutions and interface traces of an ensemble travel as
blocks: a dof vector per sample becomes a column of an (n_dofs, k) block,
and the endpoint traces of k samples are (k, n_pairs, 2).
"""

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .sparsela import SparseMatrix, SubdomainOperator, quadratic_form


_EDGE_MASS = np.array([[2.0, 1.0], [1.0, 2.0]])


def edge_mass(length):
    """Exact P1 x P1 mass matrix on an edge of given length."""
    return (length / 6.0) * _EDGE_MASS


def interface_mass(pairing):
    """Block-diagonal edge mass over the endpoint values of all pairs:
    row 2p+i is endpoint i (x-order) of pair p."""
    n_p = pairing.n_pairs
    blocks = (pairing.lengths / 6.0)[:, None, None] * _EDGE_MASS
    idx = np.arange(2 * n_p).reshape(n_p, 2)
    rows = np.repeat(idx, 2, axis=1).ravel()
    cols = np.tile(idx, (1, 2)).ravel()
    return sp.csr_matrix((blocks.ravel(), (rows, cols)), shape=(2 * n_p, 2 * n_p))


def trace_columns(g):
    """Endpoint traces (n_pairs, 2) or (k, n_pairs, 2) as the (2 n_pairs,)
    vector or (2 n_pairs, k) block the interface operators act on."""
    g = np.asarray(g, dtype=np.float64)
    return g.reshape(g.shape[:-2] + (-1,)).T


def trace_values(t, n_pairs):
    """Inverse of trace_columns."""
    return t.T.reshape(t.shape[1:] + (n_pairs, 2))


def mini_basis(bary, tri_grads):
    """MINI basis [l0, l1, l2, 27 l0 l1 l2] at barycentric points `bary`
    (q, 3): values N (q, 4), the same on every triangle, and gradients
    dN (nt, q, 4, 2) from the barycentric gradients (nt, 3, 2)."""
    N = np.empty((len(bary), 4))
    N[:, :3] = bary
    N[:, 3] = 27.0 * bary[:, 0] * bary[:, 1] * bary[:, 2]
    g, l = tri_grads, bary
    dN = np.empty((len(g), len(l), 4, 2))
    dN[:, :, :3, :] = g[:, None, :, :]
    bub = (l[None, :, 1] * l[None, :, 2])[:, :, None] * g[:, None, 0, :] \
        + (l[None, :, 0] * l[None, :, 2])[:, :, None] * g[:, None, 1, :] \
        + (l[None, :, 0] * l[None, :, 1])[:, :, None] * g[:, None, 2, :]
    dN[:, :, 3, :] = 27.0 * bub
    return N, dN


class StokesSpace:
    """Dof bookkeeping and precomputed element data for the MINI pair.

    Velocity dofs: per component, nodal values then one interior bubble per
    triangle (the cubic bubble vanishes on all edges, so bubbles never enter
    boundary or interface integrals).  Pressure dofs: nodal P1.  A trailing
    multiplier dof enforces zero pressure mean when requested.
    """

    def __init__(self, mesh, dirichlet_tags=None, pressure_multiplier=True):
        self.mesh = mesh
        nv, nt = mesh.n_verts, mesh.n_tris
        self.n_comp = nv + nt                     # dofs per velocity component
        self.n_velocity = 2 * self.n_comp
        self.n_pressure = nv
        self.pressure_multiplier = bool(pressure_multiplier)
        self.n_dofs = self.n_velocity + self.n_pressure + (1 if pressure_multiplier else 0)

        present = set(mesh.boundary_tags) - {""}
        if dirichlet_tags is None:
            dirichlet_tags = present - {"INTERFACE"}
        self.dirichlet_tags = frozenset(dirichlet_tags)

        dir_nodes = set()
        for tag in self.dirichlet_tags:
            for e in mesh.boundary_edges(tag):
                dir_nodes.update(mesh.edges[e])
        self.dirichlet_nodes = np.array(sorted(dir_nodes), dtype=np.int64)

        mask = np.zeros(self.n_dofs, dtype=bool)
        mask[self.dirichlet_nodes] = True
        mask[self.n_comp + self.dirichlet_nodes] = True
        self.dirichlet_mask = mask
        self.free = np.where(~mask)[0]
        self.fixed = np.where(mask)[0]

        iface_nodes = set()
        for e in mesh.boundary_edges("INTERFACE"):
            iface_nodes.update(mesh.edges[e])
        self.interface_nodes = np.array(sorted(iface_nodes), dtype=np.int64)
        self.interface_dofs = np.concatenate([self.interface_nodes,
                                              self.n_comp + self.interface_nodes])

        self._precompute()
        self.component_mass = self._component_mass()
        self._interface_info = None

    # dof helpers --------------------------------------------------------

    def vel_dof(self, comp, node):
        return comp * self.n_comp + node

    def bubble_dof(self, comp, tri):
        return comp * self.n_comp + self.mesh.n_verts + tri

    @property
    def pressure_slice(self):
        return slice(self.n_velocity, self.n_velocity + self.n_pressure)

    def _precompute(self):
        mesh = self.mesh
        nt = mesh.n_tris
        bary, w = quadrature.triangle_rule(4)
        self.qw = w
        self.qpoints = quadrature.physical_points(mesh.verts, mesh.tris, bary)
        self.N, self.dN = mini_basis(bary, mesh.tri_grads)

        vd = np.empty((nt, 8), dtype=np.int64)
        vd[:, :3] = mesh.tris
        vd[:, 3] = mesh.n_verts + np.arange(nt)
        vd[:, 4:7] = self.n_comp + mesh.tris
        vd[:, 7] = self.n_comp + mesh.n_verts + np.arange(nt)
        self.vel_elem_dofs = vd
        self.p_elem_dofs = self.n_velocity + mesh.tris

    def _component_mass(self):
        """Single-component L2 mass over nodal+bubble dofs (nvt x nvt)."""
        mesh = self.mesh
        A = mesh.tri_area
        Mloc = np.einsum("q,qi,qj->ij", self.qw, self.N, self.N)   # reference
        Mel = Mloc[None, :, :] * A[:, None, None]
        dofs = np.empty((mesh.n_tris, 4), dtype=np.int64)
        dofs[:, :3] = mesh.tris
        dofs[:, 3] = mesh.n_verts + np.arange(mesh.n_tris)
        rows = np.repeat(dofs, 4, axis=1).ravel()
        cols = np.tile(dofs, (1, 4)).ravel()
        return sp.csr_matrix((Mel.ravel(), (rows, cols)), shape=(self.n_comp, self.n_comp))

    def velocity_sq(self, vec):
        """Squared L2 norm of the velocity part of a dof vector, or of each
        column of an (n, k) block."""
        nc, m = self.n_comp, self.component_mass
        return quadratic_form(m, vec[:nc]) + quadratic_form(m, vec[nc:2 * nc])

    def velocity_l2(self, vec):
        """L2 norm of the velocity part of a full dof vector."""
        return float(np.sqrt(self.velocity_sq(vec)))

    def interface_info(self, pairing):
        """The interface operators of `pairing`, built on first use."""
        info = self._interface_info
        if info is None or info.pairing is not pairing:
            info = self._interface_info = StokesInterfaceInfo(self, pairing)
        return info


def build_stokes_space(mesh, dirichlet_tags=None, pressure_multiplier=True):
    """Construct the MINI space on a tagged mesh.

    By default every tagged side except the interface carries (strongly
    imposed) Dirichlet velocity data; pass `dirichlet_tags` to leave e.g. an
    outflow side natural.
    """
    return StokesSpace(mesh, dirichlet_tags=dirichlet_tags, pressure_multiplier=pressure_multiplier)


class StokesInterfaceInfo:
    """Free-flow side of the interface pairing as two sparse operators.

    `trace` (4 n_pairs, n_dofs) maps dof vectors to the endpoint values of
    u.n_S (rows 0 .. 2 n_pairs - 1) and u.tau (the rest).  `load`
    (n_dofs, 4 n_pairs) maps endpoint traces [g_n; g_tau] to
    -<g_n, v.n_S> - <g_tau, v.tau>; it is minus the transposed trace times
    the edge mass, so the two share one source.
    """

    def __init__(self, space, pairing):
        self.pairing = pairing
        n2 = 2 * pairing.n_pairs
        nodes = pairing.nodes_s.ravel()
        rows, cols, vals = [], [], []
        for block, direction in enumerate((pairing.n_s, pairing.tau)):
            for c in range(2):
                if direction[c] != 0.0:
                    rows.append(block * n2 + np.arange(n2))
                    cols.append(c * space.n_comp + nodes)
                    vals.append(np.full(n2, direction[c]))
        self.trace = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(2 * n2, space.n_dofs))
        mass = interface_mass(pairing)
        self.load = -(self.trace.T @ sp.block_diag((mass, mass))).tocsr()


def deformation_element_matrices(space, nu):
    """Element matrices of 2 nu (D(u), D(v)) over the 8 local velocity dofs."""
    A = space.mesh.tri_area
    w, dN = space.qw, space.dN
    # P[t, i, j, a, b] = int d_a phi_i d_b phi_j
    P = np.einsum("q,tqia,tqjb->tijab", w, dN, dN) * A[:, None, None, None, None]
    K = np.empty((space.mesh.n_tris, 8, 8))
    trace = P[..., 0, 0] + P[..., 1, 1]
    for c in range(2):
        for d in range(2):
            blk = nu * P[:, :, :, d, c]
            if c == d:
                blk = blk + nu * trace
            K[:, 4 * c:4 * c + 4, 4 * d:4 * d + 4] = blk
    return K


def div_element_matrices(space):
    """Element matrices of (q, div v): shape (nt, 3 pressure, 8 velocity)."""
    A = space.mesh.tri_area
    Np = space.N[:, :3]
    Bloc = np.einsum("q,qi,tqjc->tijc", space.qw, Np, space.dN) * A[:, None, None, None]
    return np.concatenate([Bloc[:, :, :, 0], Bloc[:, :, :, 1]], axis=2)


def assemble_stokes_operator(space, nu, delta_s, xi_bar, pairing):
    """Assemble and factorize the Robin free-flow matrix.

    Matrix = viscous deformation block + delta_s <u.n, v.n>_Gamma
    + xi_bar <u.tau, v.tau>_Gamma, with the discrete divergence coupling and
    the optional pressure-mean multiplier.
    """
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    if delta_s <= 0:
        raise ValueError("delta_s must be positive")
    if xi_bar < 0:
        raise ValueError("xi_bar must be nonnegative")

    mesh = space.mesh
    A = mesh.tri_area
    K = deformation_element_matrices(space, nu)

    builder = SparseMatrix.builder(space.n_dofs, space.n_dofs)
    vd = space.vel_elem_dofs
    rows = np.repeat(vd, 8, axis=1).ravel()
    cols = np.tile(vd, (1, 8)).ravel()
    builder.add(rows, cols, K.ravel())

    Bflat = div_element_matrices(space)  # (nt, 3, 8)
    pd = space.p_elem_dofs
    rows = np.repeat(pd, 8, axis=1).ravel()
    cols = np.tile(vd, (1, 3)).ravel()
    builder.add(rows, cols, Bflat.ravel())
    builder.add(cols, rows, Bflat.ravel())

    # interface Robin and tangential-slip terms (P1 traces only)
    trace = space.interface_info(pairing).trace
    mass = interface_mass(pairing)
    robin = (trace.T @ sp.block_diag((delta_s * mass, xi_bar * mass)) @ trace).tocoo()
    builder.add(robin.row, robin.col, robin.data)

    if space.pressure_multiplier:
        mdof = space.n_dofs - 1
        mvals = np.repeat(A / 3.0, 3)
        prow = space.p_elem_dofs.ravel()
        builder.add(prow, np.full_like(prow, mdof), mvals)
        builder.add(np.full_like(prow, mdof), prow, mvals)

    matrix = builder.finalize()
    return SubdomainOperator(matrix, space.free, space.fixed, space.pressure_slice)


def assemble_stokes_volume_rhs(space, f_S):
    """(f_S, v) over all momentum rows; f_S maps (n, 2) points -> (n, 2)."""
    mesh = space.mesh
    pts = space.qpoints.reshape(-1, 2)
    fvals = np.asarray(f_S(pts)).reshape(mesh.n_tris, len(space.qw), 2)
    contrib = np.einsum("q,tqc,qi->tic", space.qw, fvals, space.N) * mesh.tri_area[:, None, None]
    rhs = np.zeros(space.n_dofs)
    np.add.at(rhs, space.vel_elem_dofs[:, :4], contrib[:, :, 0])
    np.add.at(rhs, space.vel_elem_dofs[:, 4:], contrib[:, :, 1])
    return rhs


def add_interface_rhs(rhs, space, pairing, g_n=None, g_tau=None):
    """Accumulate -<g_n, v.n_S> - <g_tau, v.tau> for per-pair linear traces
    given by endpoint values: (n_pairs, 2) into a vector, or (k, n_pairs, 2)
    into the columns of an (n_dofs, k) block."""
    if g_n is None and g_tau is None:
        return rhs
    g_n = np.zeros(np.shape(g_tau)) if g_n is None else g_n
    g_tau = np.zeros(np.shape(g_n)) if g_tau is None else g_tau
    load = space.interface_info(pairing).load
    rhs += load @ np.concatenate([trace_columns(g_n), trace_columns(g_tau)])
    return rhs


def interface_traces(space, pairing, vec):
    """(u.n_S, u.tau) at the x-ordered pair endpoints: (n_pairs, 2) each for
    a dof vector, (k, n_pairs, 2) each for an (n_dofs, k) block."""
    t = space.interface_info(pairing).trace @ vec
    n2 = 2 * pairing.n_pairs
    return trace_values(t[:n2], pairing.n_pairs), trace_values(t[n2:], pairing.n_pairs)
