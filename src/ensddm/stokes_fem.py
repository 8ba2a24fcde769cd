"""MINI-element (P1+bubble velocity, P1 pressure) assembly of the Robin
free-flow subproblem.

The subdomain matrix couples velocity, pressure, and (optionally) a scalar
multiplier that pins the pressure mean; it depends only on the viscosity,
the Robin weight delta_S, and the ensemble-mean slip coefficient, so it is
identical for every sample and iteration.  Per-sample data (forcing, Robin
traces, lagged slip term, Dirichlet values) enters through the right-hand
side only.  The two bubbles of each triangle couple only with each other and
the triangle's P1 dofs, so the operator eliminates them in each element
block (static condensation) before its one factorization, in the space's
vertex order; solutions keep the full MINI dof layout.  The matrix is
affine in (delta_S, xi), and no interface term touches a bubble, so S is
too: the data of both without interface terms, the interface entries per
unit delta_S and per unit xi (-load trace of the interface operator), and
the condensation maps are made once per run (`StokesElements`), and each
matrix of the run is that data plus delta_S and xi times those entries.

Right-hand sides, solutions and interface traces of an ensemble travel as
column blocks: a dof vector per sample becomes a column of an (n_dofs, k)
block, and the endpoint traces of k samples a (2 n_pairs, k) block.
"""

from functools import partial

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .sparsela import (SubdomainOperator, block_inverse, derived, positions, nested_dissection,
                       pattern, quadratic_form, scatter)


_EDGE_MASS = np.array([[2.0, 1.0], [1.0, 2.0]])


def edge_mass(length):
    """Exact P1 x P1 mass matrix on an edge of given length; an (n, 1, 1)
    array of lengths gives the (n, 2, 2) matrices of n edges."""
    return (length / 6.0) * _EDGE_MASS


def interface_mass(pairing):
    """Block-diagonal edge mass over the endpoint values of all pairs (CSR):
    row 2p+i is endpoint i (x-order) of pair p."""
    n = pairing.n_pairs
    return sp.bsr_matrix((edge_mass(pairing.lengths[:, None, None]), np.arange(n),
                          np.arange(n + 1))).tocsr()


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
    multiplier dof enforces zero pressure mean if `pressure_multiplier`.

    `order` holds the dofs of the condensed unknowns in elimination order:
    vertices in a nested-dissection order, the free velocities and pressure
    of each together, the multiplier last.  `patterns` holds the sparsity
    pattern of each matrix of its operator (`_patterns`).
    """

    def __init__(self, mesh, dirichlet_tags=None, *, pressure_multiplier):
        self.mesh = mesh
        nv, nt = mesh.n_verts, mesh.n_tris
        self.n_comp = nv + nt                     # dofs per velocity component
        self.n_velocity = 2 * self.n_comp
        self.n_pressure = nv
        self.pressure_multiplier = bool(pressure_multiplier)
        self.n_dofs = self.n_velocity + self.n_pressure + (1 if pressure_multiplier else 0)

        if dirichlet_tags is None:
            dirichlet_tags = set(mesh.boundary_tags) - {"", "INTERFACE"}

        self.dirichlet_nodes = np.unique(mesh.edges[np.isin(mesh.boundary_tags,
                                                             list(dirichlet_tags))])
        # x components, then y: the row order of the boundary data blocks
        self.fixed = np.concatenate([self.dirichlet_nodes, self.n_comp + self.dirichlet_nodes])
        self.free = np.delete(np.arange(self.n_dofs), self.fixed)

        self._precompute()
        self.component_mass = self._component_mass()
        verts = nested_dissection(mesh.verts, mesh.edges)
        dofs = np.append(np.column_stack([verts, self.n_comp + verts, self.n_velocity + verts]),
                         self.n_velocity + nv)           # the multiplier, if there is one
        self.order = dofs[np.isin(dofs, self.free)].astype(np.int32)
        self.patterns = _patterns(self)

    def _precompute(self):
        mesh = self.mesh
        bary, self.qw = quadrature.triangle_rule(4)
        self.qpoints = quadrature.physical_points(mesh.verts, mesh.tris, bary)
        self.N, self.dN = mini_basis(bary, mesh.tri_grads)

        x = np.column_stack([mesh.tris, mesh.n_verts + np.arange(mesh.n_tris)])   # nodal, bubble
        self.vel_elem_dofs = np.column_stack([x, self.n_comp + x])
        self.p_elem_dofs = self.n_velocity + mesh.tris
        self.elem_dofs = np.column_stack([self.vel_elem_dofs, self.p_elem_dofs]).astype(np.int32)

    def _component_mass(self):
        """Single-component L2 mass over nodal+bubble dofs (nvt x nvt), exact:
        the bubble squared is of degree 6, beyond the assembly rule."""
        bary, w = quadrature.triangle_rule(6)
        N, _ = mini_basis(bary, self.mesh.tri_grads[:0])   # the values alone
        Mloc = np.einsum("q,qi,qj->ij", w, N, N)   # reference
        Mel = Mloc[None, :, :] * self.mesh.tri_area[:, None, None]
        dofs = self.vel_elem_dofs[:, :4]      # the x component's nodal and bubble dofs
        rows, cols = np.repeat(dofs, 4, axis=1).ravel(), np.tile(dofs, (1, 4)).ravel()
        return sp.csr_matrix((Mel.ravel(), (rows, cols)), shape=(self.n_comp, self.n_comp))

    def evaluate(self, block, bary):
        """The discrete fields of the columns of an (n_dofs, k) block at the
        barycentric points `bary` (q, 3) of every triangle: the velocity
        (nt, q, 2, k), its gradient (nt, q, 2, 2, k), whose [.., i, d, ..]
        is d u_i / d x_d, and the pressure (nt, q, k)."""
        nt, nq, k = self.mesh.n_tris, len(bary), block.shape[1]
        N, dN = mini_basis(bary, self.mesh.tri_grads)
        # coefficients (t, local dof, (component, column))
        c = block[self.vel_elem_dofs.reshape(nt, 2, 4)].transpose(0, 2, 1, 3).reshape(nt, 4, -1)
        u = np.matmul(N, c).reshape(nt, nq, 2, k)
        grad = np.matmul(dN.transpose(0, 1, 3, 2).reshape(nt, 2 * nq, 4), c)
        grad = grad.reshape(nt, nq, 2, 2, k).transpose(0, 1, 3, 2, 4)
        return u, grad, np.matmul(N[:, :3], block[self.p_elem_dofs])

    def velocity_sq(self, vec):
        """Squared L2 norm of the velocity part of a dof vector, or of each
        column of an (n, k) block."""
        nc, m = self.n_comp, self.component_mass
        return quadratic_form(m, vec[:nc]) + quadratic_form(m, vec[nc:2 * nc])


def build_stokes_space(mesh, dirichlet_tags=None, *, pressure_multiplier):
    """Construct the MINI space on a tagged mesh, with the zero-mean
    pressure multiplier if `pressure_multiplier`.

    By default every tagged side except the interface carries (strongly
    imposed) Dirichlet velocity data; pass `dirichlet_tags` to leave e.g. an
    outflow side natural.
    """
    return StokesSpace(mesh, dirichlet_tags=dirichlet_tags, pressure_multiplier=pressure_multiplier)


class StokesInterfaceInfo:
    """Free-flow side of the interface pairing, the one source of every
    Stokes interface term, read off the endpoints' nodal velocity dofs
    (component c of vertex v is dof c n_comp + v).

    `trace` (4 n_pairs, n_dofs) maps dof vectors to the endpoint values of
    u.n_S (rows 0 .. 2 n_pairs - 1) and u.tau (the rest).  `load`
    (n_dofs, 4 n_pairs) maps endpoint traces [g_n; g_tau] to
    -<g_n, v.n_S> - <g_tau, v.tau>; it is minus the transposed trace times
    the edge mass, so the matrix terms <u.n_S, v.n_S> and <u.tau, v.tau>
    are minus each half of `load` times that half of `trace`."""

    def __init__(self, space, pairing):
        # row (block, 2p+i): component c of endpoint i times direction (n_S, tau) c
        n2 = 2 * pairing.n_pairs
        dofs = (pairing.nodes_s[:, :, None] + space.n_comp * np.arange(2)).ravel()
        self.trace = sp.csr_matrix(
            (np.repeat([pairing.n_s, pairing.tau], n2, axis=0).ravel(),
             (np.repeat(np.arange(2 * n2), 2), np.tile(dofs, 2))), shape=(2 * n2, space.n_dofs))
        self.trace.eliminate_zeros()          # a direction along an axis reads one component
        mass = interface_mass(pairing)
        self.load = -(self.trace.T @ sp.block_diag((mass, mass))).tocsr()


def deformation_element_matrices(space, nu):
    """Element matrices of 2 nu (D(u), D(v)) over the 8 local velocity dofs."""
    nt, nq = space.mesh.n_tris, len(space.qw)
    dN = space.dN.reshape(nt, nq, 8)          # columns (i, a): d_a phi_i
    # P[t, (i, a), (j, b)] = int d_a phi_i d_b phi_j, one matmul over the quadrature axis
    P = np.matmul((dN * space.qw[:, None]).transpose(0, 2, 1), dN)
    P *= space.mesh.tri_area[:, None, None]
    P = P.reshape(nt, 4, 2, 4, 2)               # [t, i, a, j, b]
    # K[t, (c, i), (d, j)] = nu P[t, i, d, j, c], plus nu (P_00 + P_11) on c = d
    K = np.multiply(nu, P.transpose(0, 4, 1, 2, 3), order="C").reshape(nt, 8, 8)
    trace = nu * (P[:, :, 0, :, 0] + P[:, :, 1, :, 1])
    K[:, :4, :4] += trace
    K[:, 4:, 4:] += trace
    return K


def div_element_matrices(space):
    """Element matrices of (q, div v): shape (nt, 3 pressure, 8 velocity),
    one matmul over the quadrature axis."""
    nt, nq = space.mesh.n_tris, len(space.qw)
    dN = space.dN.reshape(nt, nq, 8)          # columns (i, c): d_c phi_i
    B = np.matmul((space.N[:, :3] * space.qw[:, None]).T, dN)
    B *= space.mesh.tri_area[:, None, None]
    # columns (c, i): the x components, then the y
    return B.reshape(nt, 3, 4, 2).transpose(0, 1, 3, 2).reshape(nt, 3, 8)


# the bubbles of an element block and its other local dofs
_BUBBLES, _REST = np.array([3, 7]), np.array([0, 1, 2, 4, 5, 6, 8, 9, 10])


class StokesElements:
    """The element data of the Stokes matrices of a space, a viscosity `nu`
    and the StokesInterfaceInfo `iface`, made once per run and read by every
    `stokes_matrix` and `assemble_stokes_operator` of it.

    Every such matrix is affine in the Robin weight delta_S and the slip
    coefficient xi: the data without interface terms plus delta_S <u.n,
    v.n> + xi <u.tau, v.tau>.  The interface terms never touch a bubble (it
    vanishes on every edge), so the bubble rows and columns of each element
    block are those of every matrix of the run, `condense`, `direct` and
    `recover` are the condensation maps of every operator, and S is affine
    in the same two terms.  `data` holds the data of the matrix and of S
    without interface terms, and `interface[name]` the (entries, values)
    in `name` ("matrix" or "S") of the normal term per unit delta_S and of
    the tangential term per unit xi, each -load trace on its half of `iface`.
    """

    def __init__(self, space, nu, iface):
        if not 0 < nu < np.inf:                  # NaN fails this too
            raise ValueError("the viscosity must be positive and finite")
        self.space, self.nu, self.iface = space, nu, iface
        E = np.zeros((space.mesh.n_tris, 11, 11))
        E[:, :8, :8] = deformation_element_matrices(space, nu)
        E[:, 8:, :8] = B = div_element_matrices(space)
        E[:, :8, 8:] = -B.transpose(0, 2, 1)
        m = np.repeat(space.mesh.tri_area / 3.0, 3)      # the multiplier's weights
        br = E[:, _BUBBLES[:, None], _REST]
        inv = block_inverse(E[:, _BUBBLES[:, None], _BUBBLES])
        up = E[:, _REST[:, None], _BUBBLES] @ inv                 # E_rb E_bb^-1
        P = space.patterns
        self.condense = scatter(P["condense"], -up, 1.0)
        self.direct = scatter(P["direct"], inv)
        self.recover = scatter(P["recover"], -(inv @ br), 1.0)
        rest = E[:, _REST[:, None], _REST] - up @ br        # E_rr - E_rb E_bb^-1 E_br
        self.data = {"matrix": scatter(P["matrix"], E, m, -m).data,
                     "S": scatter(P["S"], rest, m, -m).data}
        # each interface term's entries in a pattern, found in a matrix of
        # the pattern whose data are the entry numbers; S's restriction to
        # the order drops the Dirichlet endpoints
        n2, o = iface.trace.shape[0] // 2, space.order
        units = [-(iface.load[:, k] @ iface.trace[k]) for k in (slice(n2), slice(n2, None))]
        self.interface = {}
        for name, terms in (("matrix", units), ("S", [u[o][:, o] for u in units])):
            number = sp.csr_matrix((np.arange(len(P[name][2])), *P[name][2:]), P[name][0])
            self.interface[name] = tuple((np.asarray(number[t.row, t.col]).ravel(), t.data)
                                         for t in map(sp.coo_matrix, terms))


def _affine(elements, name, delta_s, xi):
    """The matrix `name` ("matrix" or "S") of `elements` with the interface
    terms delta_s <u.n, v.n> + xi <u.tau, v.tau>: delta_s and xi times each
    term's values added at its entries."""
    if not 0 < delta_s < np.inf:                 # NaN fails this too
        raise ValueError("delta_s must be positive and finite")
    if not 0 <= xi < np.inf:
        raise ValueError("the slip coefficient xi must be nonnegative and finite")
    data = elements.data[name].copy()
    for (entries, values), weight in zip(elements.interface[name], (delta_s, xi)):
        data[entries] += weight * values
    shape, _, indices, indptr = elements.space.patterns[name]
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def stokes_matrix(elements, delta_s, xi):
    """The Robin free-flow matrix of the StokesElements `elements` as a CSR
    matrix: 2 nu (D(u), D(v)), the momentum coupling -(p, div v), the
    continuity rows (q, div u), the pressure-mean multiplier's row -(1, p)
    when the space has one, and delta_s <u.n, v.n>_Gamma + xi <u.tau,
    v.tau>_Gamma from its interface operator."""
    return _affine(elements, "matrix", delta_s, xi)


def _patterns(space):
    """The patterns of the Stokes matrix, of the condensed system S (the matrix
    restricted to the space's order) and of its maps (the identity plus bubble
    blocks; `recover` transposes `condense`)."""
    d, n, order, k = space.elem_dofs, space.n_dofs, space.order, np.arange(len(space.order))
    md = n - 1 if space.pressure_multiplier else -1
    r, b, pd = positions(n, order)[d[:, _REST]], d[:, _BUBBLES], d[:, 8:].ravel()
    matrix = pattern((n, n), (d[:, :, None], d[:, None, :]), (pd, md), (md, pd))
    condense = pattern((len(order), n), (r[:, :, None], b[:, None, :]), (k, order))
    (el, pm, mp), (rb, ko) = matrix[1], condense[1]
    return {"matrix": matrix, "condense": condense,
            "S": derived(matrix, lambda a: a[order][:, order], el[:, _REST][:, :, _REST], pm, mp),
            "direct": pattern((n, n), (b[:, :, None], b[:, None, :])),
            "recover": derived(condense, lambda a: a.T, rb.swapaxes(1, 2), ko)}


def _condensed(elements, delta_s, xi):
    """The condensed system of `SubdomainOperator`: S with the interface
    terms delta_s and xi, and the maps of `elements`."""
    S = _affine(elements, "S", delta_s, xi)
    return S, elements.condense, elements.direct, elements.recover


def assemble_stokes_operator(elements, delta_s, xi_bar):
    """The `stokes_matrix` of the StokesElements `elements` and the
    ensemble-mean slip coefficient `xi_bar`, with the bubbles condensed out
    of each element block and the rest factorized in the space's order."""
    space = elements.space
    return SubdomainOperator(stokes_matrix(elements, delta_s, xi_bar), space.free, space.fixed,
                             partial(_condensed, elements, delta_s, xi_bar))


def assemble_stokes_volume_rhs(space, f_S):
    """(f_S, v) over all momentum rows; f_S maps (n, 2) points -> (n, 2)."""
    mesh = space.mesh
    pts = space.qpoints.reshape(-1, 2)
    fvals = np.asarray(f_S(pts)).reshape(mesh.n_tris, len(space.qw), 2)
    # (4, q) times (nt, q, c): the x then the y rows of each triangle
    contrib = np.matmul((space.N * space.qw[:, None]).T, fvals)
    contrib *= mesh.tri_area[:, None, None]
    rhs = np.bincount(space.vel_elem_dofs.ravel(), weights=contrib.transpose(0, 2, 1).ravel(),
                      minlength=space.n_dofs)
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
