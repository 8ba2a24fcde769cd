"""BDM1-P0 mixed assembly of the Robin porous-medium subproblem.

The velocity space is the lowest-order Brezzi-Douglas-Marini space: on each
triangle the local space is the full set of linear vector fields, and the
two dofs per edge are the values of the normal trace at the edge endpoints,
taken against a globally oriented edge normal (edge direction runs from the
lower to the higher vertex index) so shared edges are single-valued and the
normal trace is continuous.  The divergence of every discrete velocity is
piecewise constant, exactly.

The subdomain matrix uses ensemble means only (mean inverse conductivity in
the mass term, mean minimal eigenvalue in the grad-div term), so it is
shared by all samples; per-sample deviations are lagged into the right-hand
side as volume terms against the previous iterate.  Conductivity tensors
are diagonal (see `fields`), so a sample's deviation is two weights per
quadrature point, applied through the shared quadrature-evaluation and
divergence operators of the space.
"""

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .sparsela import SubdomainOperator, quadratic_form
from .stokes_fem import interface_mass


class DarcySpace:
    """Dof bookkeeping and precomputed BDM1 element data."""

    RULE = quadrature.triangle_rule(2)  # of every volume integral and conductivity evaluation

    def __init__(self, mesh, essential_tags=None):
        self.mesh = mesh
        ne, nt = mesh.n_edges, mesh.n_tris
        self.n_velocity = 2 * ne
        self.n_head = nt
        self.n_dofs = self.n_velocity + self.n_head

        if essential_tags is None:
            essential_tags = set(mesh.boundary_tags) - {"", "INTERFACE"}

        ess_edges = []
        for tag in essential_tags:
            ess_edges.extend(mesh.boundary_edges(tag))
        self.essential_edges = np.array(sorted(ess_edges), dtype=np.int64)

        mask = np.zeros(self.n_dofs, dtype=bool)
        mask[2 * self.essential_edges] = True
        mask[2 * self.essential_edges + 1] = True
        self.free = np.where(~mask)[0]
        self.fixed = np.where(mask)[0]

        self._build_basis()
        self._precompute_quadrature()
        self.velocity_mass = darcy_form(self, 1.0, 1.0, 0.0)

    @property
    def head_slice(self):
        return slice(self.n_velocity, self.n_velocity + self.n_head)

    def _build_basis(self):
        """Per-triangle linear basis with unit normal-trace endpoint dofs.

        vertex_values[t, ldof, m, :] is the field value of local dof `ldof`
        at local vertex m; local dof 2k+p lives on the edge opposite local
        vertex k (p = 0 for the lower-index endpoint).
        """
        mesh = self.mesh
        nt = mesh.n_tris
        verts, edges, tris = mesh.verts, mesh.edges, mesh.tris

        ev = verts[edges]
        tvec = ev[:, 1] - ev[:, 0]
        tvec = tvec / np.linalg.norm(tvec, axis=1)[:, None]
        self.edge_normal = np.column_stack([tvec[:, 1], -tvec[:, 0]])

        self.elem_dofs = np.empty((nt, 6), dtype=np.int64)
        eot = mesh.edge_of_tri
        self.elem_dofs[:, 0::2] = 2 * eot
        self.elem_dofs[:, 1::2] = 2 * eot + 1

        vv = np.zeros((nt, 6, 3, 2))
        for m in range(3):
            gm = tris[:, m]
            # the two local edges incident to vertex m
            inc = [k for k in range(3) if k != m]
            n1 = self.edge_normal[eot[:, inc[0]]]
            n2 = self.edge_normal[eot[:, inc[1]]]
            det = n1[:, 0] * n2[:, 1] - n1[:, 1] * n2[:, 0]
            inv = np.empty((nt, 2, 2))
            inv[:, 0, 0] = n2[:, 1] / det
            inv[:, 0, 1] = -n1[:, 1] / det
            inv[:, 1, 0] = -n2[:, 0] / det
            inv[:, 1, 1] = n1[:, 0] / det
            for which, k in enumerate(inc):
                e = eot[:, k]
                endpoint = (edges[e, 1] == gm).astype(np.float64)  # 0 if gm is lower endpoint
                rhs = np.zeros((nt, 2))
                rhs[:, which] = 1.0
                val = np.einsum("tij,tj->ti", inv, rhs)
                # dof (k, p) is nonzero at vertex m only when p matches
                ldof_lower = 2 * k
                sel = endpoint == 0.0
                vv[sel, ldof_lower, m, :] = val[sel]
                vv[~sel, ldof_lower + 1, m, :] = val[~sel]
        self.vertex_values = vv

        g = mesh.tri_grads  # (nt, 3, 2)
        self.div = np.einsum("tmd,tlmd->tl", g, vv)

    def _precompute_quadrature(self):
        mesh = self.mesh
        bary, self.qw = self.RULE
        self.qpoints = quadrature.physical_points(mesh.verts, mesh.tris, bary)
        # eval_op at the assembly rule; quad_weight: w_q |T| per row
        self.eval_op = self.evaluation_operator(bary)
        self.quad_weight = np.repeat((self.qw[None, :] * mesh.tri_area[:, None]).ravel(), 2)
        # div_op: velocity dofs -> the constant divergence on each triangle
        nt = mesh.n_tris
        self.div_op = sp.csr_matrix((self.div.ravel(),
                                     (np.repeat(np.arange(nt), 6), self.elem_dofs.ravel())),
                                    shape=(nt, self.n_velocity))

    def evaluation_operator(self, bary):
        """Sparse map from velocity dofs to both field components at the
        barycentric points `bary` (q, 3) of every triangle, row (t, q, c)
        in C order."""
        nt, nq = self.mesh.n_tris, len(bary)
        vals = np.einsum("qm,tlmc->tqcl", bary, self.vertex_values)
        rows = np.broadcast_to(np.arange(nt * nq * 2).reshape(nt, nq, 2, 1), vals.shape)
        cols = np.broadcast_to(self.elem_dofs[:, None, None, :], vals.shape)
        return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(nt * nq * 2, self.n_velocity))

    def velocity_sq(self, vec):
        """Squared L2 norm of the velocity part of a dof vector, or of each
        column of an (n, k) block."""
        return quadratic_form(self.velocity_mass, vec[:self.n_velocity])

    def velocity_l2(self, vec):
        return float(np.sqrt(self.velocity_sq(vec)))

    def elementwise_div(self, vec):
        """Exact per-triangle divergence of a velocity dof vector."""
        coeffs = vec[self.elem_dofs]
        return np.einsum("tl,tl->t", self.div, coeffs)


def build_darcy_space(mesh, essential_tags=None):
    """Construct the BDM1-P0 space; edges tagged `essential_tags` carry
    strongly imposed normal-flux values (default: every tagged side except
    the interface)."""
    return DarcySpace(mesh, essential_tags=essential_tags)


class DarcyInterfaceInfo:
    """Darcy-side view of the interface pairing as sparse operators on whole
    dof vectors (empty head columns and rows), built from the x-ordered edge
    dofs, the sign relating the global edge normal to the outward normal
    n_D and the element-sided tangential trace map (row 2p+i is endpoint i
    of pair p):

    normal      (2 n_pairs, n_dofs)  u -> u.n_D at the endpoints
    tangential  (2 n_pairs, n_dofs)  u -> element-sided u.tau
    load        (n_dofs, 2 n_pairs)  g_D -> -<g_D, v.n_D>, i.e. minus the
                                     transposed normal trace times the edge mass
    """

    def __init__(self, space, pairing):
        mesh = space.mesh
        e = pairing.pairs[:, 1]
        lower_first = mesh.edges[e, 0] == pairing.nodes_d[:, 0]
        dofs_x = 2 * e[:, None] + np.where(lower_first[:, None], [0, 1], [1, 0])
        sign = space.edge_normal[e] @ pairing.n_d
        tri = mesh.edge_tris[e, 0]
        # local vertex of each x-ordered endpoint in the adjacent triangle
        m = np.argmax(mesh.tris[tri][:, None, :] == pairing.nodes_d[:, :, None], axis=2)
        tau_mat = space.vertex_values[tri[:, None], :, m, :] @ pairing.tau

        n2 = 2 * pairing.n_pairs
        shape = (n2, space.n_dofs)
        self.normal = sp.csr_matrix((np.repeat(sign, 2),
                                     (np.arange(n2), dofs_x.ravel())), shape=shape)
        self.tangential = sp.csr_matrix(
            (tau_mat.ravel(),
             (np.repeat(np.arange(n2), 6), np.repeat(space.elem_dofs[tri], 2, axis=0).ravel())),
            shape=shape)
        self.load = -(self.normal.T @ interface_mass(pairing)).tocsr()

    def normal_trace(self, vec):
        """u . n_D at the x-sorted endpoints of every pair: (2 n_pairs,) for
        a dof vector, (2 n_pairs, k) for an (n_dofs, k) block."""
        return self.normal @ vec

    def tangential_trace(self, vec):
        """Element-sided u . tau at the x-sorted endpoints, shaped as
        normal_trace."""
        return self.tangential @ vec


def darcy_form(space, g, weight, k_min):
    """The velocity block g (W u, v) + g k_min (div u, div v), i.e.
    g P^T diag(w |T| W) P + g k_min D^T diag(|T|) D with P the
    quadrature-evaluation operator, w |T| the quadrature weights and D the
    divergence operator of the space.

    `weight` is the diagonal of the tensor W per row of P (see
    inverse_diagonal), or a scalar for W = weight I.
    """
    W = g * space.quad_weight * weight
    if not np.all((W > 0) & (W < np.inf)):     # NaN fails this too
        raise ValueError("coefficient tensor not SPD and finite at a quadrature point")
    P, D = space.eval_op, space.div_op
    form = P.T @ sp.diags(W) @ P
    if k_min:
        form = form + D.T @ sp.diags(g * k_min * space.mesh.tri_area) @ D
    return form.tocsr()


def darcy_matrix(space, g, weight, k_min, delta_d, pairing):
    """The Robin porous-medium matrix as a CSR matrix: the velocity block
    of darcy_form, the momentum coupling -g (phi, div v), the continuity
    rows g (psi, div u) and delta_d <u.n_D, v.n_D>_Gamma.

    `weight` is the diagonal of the mass-term coefficient tensor per row of
    space.eval_op, as in darcy_form; `k_min` weights the grad-div
    augmentation.
    """
    if not (0 < g < np.inf and 0 < delta_d < np.inf and 0 < k_min < np.inf):
        raise ValueError("g, delta_d and k_min must be positive and finite")

    form = darcy_form(space, g, weight, k_min).tocoo()
    B = (g * space.div * space.mesh.tri_area[:, None]).ravel()
    heads = np.repeat(space.n_velocity + np.arange(space.n_head), 6)
    vel = space.elem_dofs.ravel()
    iface = DarcyInterfaceInfo(space, pairing)
    robin = (iface.normal.T @ (delta_d * interface_mass(pairing)) @ iface.normal).tocoo()
    rows = np.concatenate([form.row, heads, vel, robin.row])
    cols = np.concatenate([form.col, vel, heads, robin.col])
    vals = np.concatenate([form.data, B, -B, robin.data])
    return sp.csr_matrix((vals, (rows, cols)), shape=(space.n_dofs, space.n_dofs))


def assemble_darcy_operator(space, g, weight, kbar_min, delta_d, pairing):
    """Factorize the shared porous-medium matrix: the `darcy_matrix` of
    the ensemble means (for an ensemble, `weight` is inverse_diagonal of
    the mean of the sample inverse tensors and `kbar_min` the mean minimal
    eigenvalue)."""
    return SubdomainOperator(darcy_matrix(space, g, weight, kbar_min, delta_d, pairing),
                             space.free, space.fixed, np.empty((0, 2), dtype=np.int64))


def assemble_darcy_volume_rhs(space, f_D, k_min, g):
    """k_min g (f_D, div v) momentum rows plus g (f_D, psi) continuity rows."""
    mesh = space.mesh
    pts = space.qpoints.reshape(-1, 2)
    fvals = np.asarray(f_D(pts)).reshape(mesh.n_tris, len(space.qw))
    f_int = np.einsum("q,tq->t", space.qw, fvals) * mesh.tri_area
    rhs = np.zeros(space.n_dofs)
    np.add.at(rhs, space.elem_dofs, k_min * g * space.div * f_int[:, None])
    rhs[space.head_slice] += g * f_int
    return rhs


def add_darcy_interface_rhs(rhs, iface, g_D):
    """Accumulate -<g_D, v.n_D> for per-pair linear traces: (2 n_pairs,)
    into a vector, or (2 n_pairs, k) into the columns of an (n_dofs, k)
    block."""
    rhs += iface.load @ g_D
    return rhs


def add_darcy_natural_head_rhs(rhs, space, tags, head_fn, g):
    """Accumulate -g <head, v.n_out> over the edges carrying the given tags.

    Prescribing the head on an exterior side is the natural boundary
    condition of the mixed form; it pins the head level through the data.
    Edge integrals use 3-point Gauss against the analytic head values.
    """
    from .quadrature import EDGE_GAUSS_PTS, EDGE_GAUSS_W

    mesh = space.mesh
    if not tags:
        return rhs
    edges = np.concatenate([mesh.boundary_edges(t) for t in tags])
    pa, pb = mesh.verts[mesh.edges[edges, 0]], mesh.verts[mesh.edges[edges, 1]]
    centroid = mesh.verts[mesh.tris[mesh.edge_tris[edges, 0]]].mean(axis=1)
    s_out = np.sign(np.einsum("ec,ec->e", 0.5 * (pa + pb) - centroid, space.edge_normal[edges]))
    pts = pa[:, None, :] + EDGE_GAUSS_PTS[None, :, None] * (pb - pa)[:, None, :]
    head = np.asarray(head_fn(pts.reshape(-1, 2))).reshape(len(edges), -1)
    ell = mesh.edge_length[edges]
    # linear normal-trace basis on the edge: (1 - s) at a, s at b
    w0 = ell * (EDGE_GAUSS_W * head * (1.0 - EDGE_GAUSS_PTS)).sum(axis=1)
    w1 = ell * (EDGE_GAUSS_W * head * EDGE_GAUSS_PTS).sum(axis=1)
    rhs[2 * edges] -= g * s_out * w0
    rhs[2 * edges + 1] -= g * s_out * w1
    return rhs


def inverse_diagonal(space, coeff):
    """Diagonal of coeff's inverse tensor at the quadrature points, one
    value per row (t, q, c) of space.eval_op."""
    i11, i22 = coeff.inv_diag(space.qpoints[:, :, 1].ravel())
    return np.column_stack([i11, i22]).ravel()


def add_darcy_lag_rhs(rhs, space, dW, dk_min, u_prev, g):
    """Accumulate the lagged sample-deviation volume terms against the
    previous iterate: g (dW u_prev, v) + g dk_min (div u_prev, div v),
    i.e. P^T (g w dW * P u) + D^T (g |T| dk_min * D u) with P the
    quadrature-evaluation operator, w the quadrature weights and D the
    divergence operator of the space.

    dW is the diagonal of the deviation tensor per row of P (see
    inverse_diagonal) and dk_min the matching grad-div weight; for a block
    of k samples u_prev is (n, k), dW (rows of P, k) and dk_min (k,).  With
    the mean-minus-sample orientation the stationary iterate solves the
    per-sample equations.
    """
    nv = space.n_velocity
    u = u_prev[:nv]
    col = (slice(None),) + (None,) * (u.ndim - 1)
    pu = space.eval_op @ u
    pu *= dW
    pu *= (g * space.quad_weight)[col]
    lag = space.eval_op.T @ pu
    del pu
    du = space.div_op @ u
    du *= np.multiply.outer(g * space.mesh.tri_area, dk_min)
    lag += space.div_op.T @ du
    rhs[:nv] += lag
    return rhs
