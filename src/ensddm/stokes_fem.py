"""MINI-element (P1+bubble velocity, P1 pressure) assembly of the Robin
free-flow subproblem.

The subdomain matrix couples velocity, pressure, and (optionally) a scalar
multiplier that pins the pressure mean; it depends only on the viscosity,
the Robin weight delta_S, and the ensemble-mean slip coefficient, so it is
identical for every sample and iteration.  Per-sample data (forcing, Robin
traces, lagged slip term, Dirichlet values) enters through the right-hand
side only.  The two bubbles of each triangle couple only with each other and
the triangle's P1 dofs, so the operator eliminates them (static
condensation) before its one factorization; solutions keep the full MINI
dof layout.

Right-hand sides, solutions and interface traces of an ensemble travel as
column blocks: a dof vector per sample becomes a column of an (n_dofs, k)
block, and the endpoint traces of k samples a (2 n_pairs, k) block.
"""

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .sparsela import SubdomainOperator, quadratic_form


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

        if dirichlet_tags is None:
            dirichlet_tags = set(mesh.boundary_tags) - {"", "INTERFACE"}

        dir_nodes = set()
        for tag in dirichlet_tags:
            for e in mesh.boundary_edges(tag):
                dir_nodes.update(mesh.edges[e])
        self.dirichlet_nodes = np.array(sorted(dir_nodes), dtype=np.int64)

        # x components, then y: the row order of the boundary data blocks
        self.fixed = np.concatenate([self.dirichlet_nodes, self.n_comp + self.dirichlet_nodes])
        free = np.ones(self.n_dofs, dtype=bool)
        free[self.fixed] = False
        self.free = np.flatnonzero(free)

        self._precompute()
        self.component_mass = self._component_mass()

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


def stokes_matrix(space, nu, delta_s, xi, pairing):
    """The Robin free-flow matrix as a CSR matrix: the viscous deformation
    block 2 nu (D(u), D(v)), the momentum coupling -(p, div v), the
    continuity rows (q, div u), when the space has one the pressure-mean
    multiplier (its row -(1, p)), and the interface terms
    delta_s <u.n, v.n>_Gamma + xi <u.tau, v.tau>_Gamma.
    """
    if not (0 < nu < np.inf and 0 < delta_s < np.inf):   # NaN fails this too
        raise ValueError("viscosity and delta_s must be positive and finite")
    if not 0 <= xi < np.inf:
        raise ValueError("the slip coefficient xi must be nonnegative and finite")

    vd, pd = space.vel_elem_dofs, space.p_elem_dofs
    B = div_element_matrices(space).ravel()  # (nt, 3, 8)
    prow = np.repeat(pd, 8, axis=1).ravel()
    vcol = np.tile(vd, (1, 3)).ravel()
    rows = [np.repeat(vd, 8, axis=1).ravel(), prow, vcol]
    cols = [np.tile(vd, (1, 8)).ravel(), vcol, prow]
    vals = [deformation_element_matrices(space, nu).ravel(), B, -B]
    if space.pressure_multiplier:
        mdof = np.full(pd.size, space.n_dofs - 1)
        m = np.repeat(space.mesh.tri_area / 3.0, 3)
        rows += [pd.ravel(), mdof]
        cols += [mdof, pd.ravel()]
        vals += [m, -m]
    # interface Robin and tangential-slip terms (P1 traces only)
    trace = StokesInterfaceInfo(space, pairing).trace
    mass = interface_mass(pairing)
    robin = (trace.T @ sp.block_diag((delta_s * mass, xi * mass)) @ trace).tocoo()
    rows.append(robin.row)
    cols.append(robin.col)
    vals.append(robin.data)
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(space.n_dofs, space.n_dofs))


def assemble_stokes_operator(space, nu, delta_s, xi_bar, pairing):
    """The `stokes_matrix` of the ensemble-mean slip coefficient `xi_bar`,
    with the bubbles condensed out and the rest factorized."""
    # local dofs 3 and 7: the x and y bubble of each triangle
    return SubdomainOperator(stokes_matrix(space, nu, delta_s, xi_bar, pairing),
                             space.free, space.fixed, space.vel_elem_dofs[:, [3, 7]])


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


def add_interface_rhs(rhs, iface, g_n, g_tau):
    """Accumulate -<g_n, v.n_S> - <g_tau, v.tau> for per-pair linear traces
    given by endpoint values, with `iface` the StokesInterfaceInfo:
    (2 n_pairs,) into a vector, or (2 n_pairs, k) into the columns of an
    (n_dofs, k) block."""
    rhs += iface.load @ np.concatenate([g_n, g_tau])
    return rhs


def interface_traces(iface, vec):
    """(u.n_S, u.tau) at the x-ordered pair endpoints: (2 n_pairs,) each for
    a dof vector, (2 n_pairs, k) each for an (n_dofs, k) block."""
    return np.split(iface.trace @ vec, 2)
