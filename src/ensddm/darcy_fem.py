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
quadrature point, applied through the space's one stacked
quadrature-evaluation and divergence operator.

A dof vector holds the velocity dofs first, then one head per triangle.
The volume and interface operators act on whole dof vectors, with empty
head columns, so callers pass whole (n_dofs, k) blocks and never slice
the velocity rows out.

Every term of the subdomain matrix is local to one triangle (the Robin
term too: an interface edge has one triangle), so the matrix is assembled
from 7 x 7 element blocks over each triangle's six velocity dofs and its
head.  The shared operator is its hybridized form (Arnold-Brezzi): the
velocity is broken into element copies tied together by multipliers, the
element blocks are condensed out, and only the symmetric positive definite
multiplier system is factorized, in a nested-dissection order of the mesh
edges.  Right-hand sides and solutions stay on the conforming dofs.
"""

from functools import partial

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .sparsela import (SubdomainOperator, block_inverse, derived, positions, nested_dissection,
                       pattern, quadratic_form, scatter)
from .stokes_fem import interface_mass


class DarcySpace:
    """Dof bookkeeping and precomputed BDM1 element data."""

    RULE = quadrature.triangle_rule(2)  # of every volume integral and conductivity evaluation

    def __init__(self, mesh, essential_tags=None):
        self.mesh = mesh
        self.n_velocity, self.n_head = 2 * mesh.n_edges, mesh.n_tris
        self.n_dofs = self.n_velocity + self.n_head

        if essential_tags is None:
            essential_tags = set(mesh.boundary_tags) - {"", "INTERFACE"}

        self.essential_edges = np.flatnonzero(np.isin(mesh.boundary_tags, list(essential_tags)))
        self.fixed = np.sort(np.r_[2 * self.essential_edges, 2 * self.essential_edges + 1])
        self.free = np.delete(np.arange(self.n_dofs), self.fixed)

        self._build_basis()
        self._precompute_quadrature()
        self._build_hybrid_maps()
        mass = scatter(self.patterns["matrix"], _velocity_blocks(self, 1.0, 1.0, 0.0))
        self.velocity_mass = mass[:self.n_velocity, :self.n_velocity]

    @property
    def head_slice(self):
        return slice(self.n_velocity, self.n_velocity + self.n_head)

    def _build_basis(self):
        """Per-triangle linear basis with unit normal-trace endpoint dofs.

        vertex_values[t, ldof, m, :] is the field value of local dof `ldof`
        at local vertex m; local dof 2k+p lives on the edge opposite local
        vertex k (p = 0 for the lower-index endpoint).
        """
        mesh, nt = self.mesh, self.mesh.n_tris
        verts, edges, tris = mesh.verts, mesh.edges, mesh.tris

        tvec = verts[edges[:, 1]] - verts[edges[:, 0]]
        tvec = tvec / np.linalg.norm(tvec, axis=1)[:, None]
        self.edge_normal = np.column_stack([tvec[:, 1], -tvec[:, 0]])

        eot = mesh.edge_of_tri
        self.elem_dofs = (2 * eot[:, :, None] + np.arange(2)).reshape(nt, 6)

        vv = np.zeros((nt, 6, 3, 2))
        t = np.arange(nt)
        for m in range(3):
            # the two local edges incident to vertex m
            k1, k2 = (k for k in range(3) if k != m)
            n1 = self.edge_normal[eot[:, k1]]
            n2 = self.edge_normal[eot[:, k2]]
            det = n1[:, 0] * n2[:, 1] - n1[:, 1] * n2[:, 0]
            # the columns of [n1; n2]^-1: unit normal trace on one edge and
            # none on the other
            for k, col in ((k1, np.column_stack([n2[:, 1], -n2[:, 0]])),
                           (k2, np.column_stack([-n1[:, 1], n1[:, 0]]))):
                # dof (k, p) is nonzero at vertex m only when p matches
                p = edges[eot[:, k], 1] == tris[:, m]
                vv[t, 2 * k + p, m] = col / det[:, None]
        self.vertex_values = vv

        g = mesh.tri_grads  # (nt, 3, 2)
        self.div = np.einsum("tmd,tlmd->tl", g, vv)

    def _precompute_quadrature(self):
        mesh, nt = self.mesh, self.mesh.n_tris
        bary, self.qw = self.RULE
        self.qpoints = quadrature.physical_points(mesh.verts, mesh.tris, bary)
        # every conductivity is a function of y alone, so the set-up
        # evaluates it at the distinct heights (increasing) and gathers each
        # point's value by `height_of`
        self.heights, self.height_of = np.unique(self.qpoints[:, :, 1].ravel(),
                                                   return_inverse=True)
        # rule_values: the basis at the assembly rule (nt, q, 2, 6);
        # quad_weight: w_q |T| per row (t, q, c) of that evaluation;
        # volume_op: the evaluation, rows (t, q, c) in C order, stacked on
        # the constant divergence of each triangle
        self.rule_values = self.basis_values(bary)
        self.quad_weight = np.repeat((self.qw[None, :] * mesh.tri_area[:, None]).ravel(), 2)
        n_eval = len(self.quad_weight)
        rows = np.r_[np.arange(n_eval), n_eval + np.arange(nt)].repeat(6)
        cols = np.r_[np.broadcast_to(self.elem_dofs[:, None, None], self.rule_values.shape).ravel(),
                     self.elem_dofs.ravel()]
        self.volume_op = sp.csr_matrix((np.r_[self.rule_values.ravel(), self.div.ravel()],
                                        (rows, cols)), shape=(n_eval + nt, self.n_dofs))

    def _build_hybrid_maps(self):
        """The broken space: triangle t holds copies 7t + l of its dofs
        `hybrid_dofs` (nt, 7), and `copy_of` (n_dofs,) is each dof's first
        copy.  A multiplier ties the copies of an interior-edge dof (`sign`
        +1 on the first, -1 on the other) or holds an essential dof's copy
        at zero; `order` holds their dofs, edges in a nested-dissection
        order.  `patterns` holds the sparsity patterns of the Darcy matrix
        and of S = C K^-1 C^T and its maps (`_condensed`)."""
        mesh, nt, n = self.mesh, self.mesh.n_tris, self.n_dofs
        self.hybrid_dofs = np.column_stack([self.elem_dofs, np.arange(self.n_velocity, n)])
        flat = self.hybrid_dofs.ravel()
        self.copy_of = np.unique(flat, return_index=True)[1]
        first = (self.copy_of[flat] == np.arange(len(flat))).reshape(nt, 7)
        eot = mesh.edge_of_tri
        edges = nested_dissection(mesh.verts[mesh.edges].mean(axis=1),
                                  np.concatenate([eot[:, :2], eot[:, 1:], eot[:, ::2]]))
        dofs = (2 * edges[:, None] + np.arange(2)).ravel()
        tied = np.bincount(flat, minlength=n) > 1
        self.order = dofs[tied[dofs] | np.isin(dofs, self.fixed)].astype(np.int32)
        self.sign = np.where(first, 1.0, -1.0)
        # per copy, or -1: its multiplier's position and the free dof it
        # carries (as its first copy)
        h = self.hybrid_dofs.astype(np.int32)
        m = positions(n, self.order)[h]
        c = np.where(first & ~np.isin(h, self.fixed), h, -1)
        matrix = pattern((n, n), (h[:, :, None], h[:, None, :]))
        condense = pattern((len(self.order), n), (m[:, :, None], c[:, None, :]))
        self.patterns = {"matrix": matrix, "condense": condense,
                         "S": derived(matrix, lambda a: a[self.order][:, self.order], *matrix[1]),
                         "direct": pattern((n, n), (c[:, :, None], c[:, None, :])),
                         "recover": derived(condense, lambda a: a.T, condense[1][0].swapaxes(1, 2))}

    def basis_values(self, bary):
        """Both velocity components of the six local basis fields at the
        barycentric points `bary` (q, 3) of every triangle: (nt, q, 2, 6)."""
        nt = self.mesh.n_tris
        vv = self.vertex_values.transpose(0, 2, 3, 1).reshape(nt, 3, 12)   # (t, m, (c, l))
        return np.matmul(bary, vv).reshape(nt, len(bary), 2, 6)

    def evaluate(self, block, bary):
        """The discrete fields of the columns of an (n_dofs, k) block: the
        velocity at the barycentric points `bary` (q, 3) of every triangle
        (nt, q, 2, k), and its divergence and the head, (nt, k) each."""
        nt, nq, k = self.mesh.n_tris, len(bary), block.shape[1]
        u = np.matmul(self.basis_values(bary).reshape(nt, 2 * nq, 6), block[self.elem_dofs])
        return u.reshape(nt, nq, 2, k), self.elementwise_div(block), block[self.head_slice]

    def velocity_sq(self, vec):
        """Squared L2 norm of the velocity part of a dof vector, or of each
        column of an (n, k) block."""
        return quadratic_form(self.velocity_mass, vec[:self.n_velocity])

    def velocity_l2(self, vec):
        return float(np.sqrt(self.velocity_sq(vec)))

    def elementwise_div(self, vec):
        """Exact per-triangle divergence of a velocity dof vector (nt,), or
        of each column of an (n, k) block (nt, k)."""
        return np.einsum("tl,tl...->t...", self.div, vec[self.elem_dofs])


def build_darcy_space(mesh, essential_tags=None):
    """Construct the BDM1-P0 space; edges tagged `essential_tags` carry
    strongly imposed normal-flux values (default: every tagged side except
    the interface)."""
    return DarcySpace(mesh, essential_tags=essential_tags)


class DarcyInterfaceInfo:
    """Darcy-side view of the interface pairing, the one source of every
    Darcy interface term: sparse operators on whole dof vectors (empty head
    columns and rows), built from the x-ordered edge dofs, the sign relating
    the global edge normal to the outward normal n_D and the element-sided
    tangential trace map (row 2p+i is endpoint i of pair p):

    normal      (2 n_pairs, n_dofs)  u -> u.n_D at the endpoints
    tangential  (2 n_pairs, n_dofs)  u -> element-sided u.tau
    load        (n_dofs, 2 n_pairs)  g_D -> -<g_D, v.n_D>, i.e. minus the
                                     transposed normal trace times the edge mass
    robin       <u.n_D, v.n_D> = -load normal at the element-block `slots`
                (triangle, local dof, local dof): an interface dof has one copy
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
        mass = interface_mass(pairing)
        self.load = -(self.normal.T @ mass).tocsr()
        robin = -(self.load @ self.normal).tocoo()
        row, col = space.copy_of[robin.row], space.copy_of[robin.col]
        self.slots = (row // 7, row % 7, col % 7)
        self.robin = robin.data

    def normal_trace(self, vec):
        """u . n_D at the x-sorted endpoints of every pair: (2 n_pairs,) for
        a dof vector, (2 n_pairs, k) for an (n_dofs, k) block."""
        return self.normal @ vec

    def tangential_trace(self, vec):
        """Element-sided u . tau at the x-sorted endpoints, shaped as
        normal_trace."""
        return self.tangential @ vec


def _velocity_blocks(space, g, weight, k_min):
    """The (nt, 7, 7) element matrices on `space.hybrid_dofs` (zero head rows
    and columns) of g (W u, v) + g k_min (div u, div v) = g P^T diag(w |T| W)
    P + g k_min D^T diag(|T|) D: P the quadrature evaluation, w |T| its
    weights, D the divergence; `weight` is the diagonal of W per row of P
    (see inverse_diagonal), or a scalar."""
    W = g * space.quad_weight * weight
    if not np.all((W > 0) & (W < np.inf)):     # NaN fails this too
        raise ValueError("coefficient tensor not SPD and finite at a quadrature point")
    mesh = space.mesh
    V = space.rule_values.reshape(mesh.n_tris, -1, 6)
    blocks = np.zeros((mesh.n_tris, 7, 7))
    blocks[:, :6, :6] = np.matmul((V * W.reshape(mesh.n_tris, -1, 1)).transpose(0, 2, 1), V)
    if k_min:
        blocks[:, :6, :6] += (g * k_min * mesh.tri_area)[:, None, None] * space.div[:, :, None] \
            * space.div[:, None, :]
    return blocks


def darcy_element_blocks(space, g, weight, k_min, delta_d, iface):
    """Each triangle's (7, 7) block of `darcy_matrix` over its local dofs
    `space.hybrid_dofs` (six velocity dofs, then the head): the element
    velocity form, the momentum coupling -g (phi, div v), the continuity
    row g (psi, div u) and delta_d <u.n_D, v.n_D> at the slots of the
    DarcyInterfaceInfo `iface`.  Every term is local to one triangle, so
    these blocks are the whole matrix."""
    if not (0 < g < np.inf and 0 < delta_d < np.inf and 0 < k_min < np.inf):
        raise ValueError("g, delta_d and k_min must be positive and finite")
    blocks = _velocity_blocks(space, g, weight, k_min)
    B = g * space.div * space.mesh.tri_area[:, None]
    blocks[:, 6, :6] = B
    blocks[:, :6, 6] = -B
    np.add.at(blocks, iface.slots, delta_d * iface.robin)
    return blocks


def darcy_matrix(space, g, weight, k_min, delta_d, iface):
    """The Robin porous-medium matrix (CSR) of `darcy_element_blocks`;
    `weight` is the diagonal of the mass-term tensor per evaluation row of
    space.volume_op, and `k_min` weights the grad-div augmentation."""
    blocks = darcy_element_blocks(space, g, weight, k_min, delta_d, iface)
    return scatter(space.patterns["matrix"], blocks)


def assemble_darcy_operator(space, g, weight, kbar_min, delta_d, iface):
    """Factorize the shared porous-medium matrix, the `darcy_matrix` of the
    ensemble means (for an ensemble, `weight` is inverse_diagonal of the
    mean of the sample inverse tensors and `kbar_min` the mean minimal
    eigenvalue) and the DarcyInterfaceInfo `iface`, in hybridized form:
    with K the block diagonal of the element blocks and C the multipliers
    of the space, the system [K, -C^T; C, 0] [x; lam] = [P b; 0], P putting
    each free row on the copy that carries it, has the conforming solution
    on every copy, and only C K^-1 C^T is factorized, which is symmetric
    positive definite: the interface edges carry no multiplier, so no head
    can float."""
    blocks = darcy_element_blocks(space, g, weight, kbar_min, delta_d, iface)
    return SubdomainOperator(scatter(space.patterns["matrix"], blocks), space.free, space.fixed,
                             partial(_condensed, space, blocks))


def _condensed(space, blocks):
    """The condensed system of `SubdomainOperator`: S = C K^-1 C^T, its
    right-hand side -C K^-1 P b and the solution K^-1 (P b + C^T lam) are
    signed scatters of K^-1's blocks into the space's patterns."""
    inv, s, P = block_inverse(blocks), space.sign, space.patterns
    right = inv * s[:, None, :]                                 # K^-1 C^T
    return (scatter(P["S"], s[:, :, None] * right), scatter(P["condense"], -s[:, :, None] * inv),
            scatter(P["direct"], inv), scatter(P["recover"], right))


def assemble_darcy_volume_rhs(space, f_D, k_min, g):
    """k_min g (f_D, div v) momentum rows plus g (f_D, psi) continuity rows."""
    mesh = space.mesh
    pts = space.qpoints.reshape(-1, 2)
    fvals = np.asarray(f_D(pts)).reshape(mesh.n_tris, len(space.qw))
    f_int = (fvals @ space.qw) * mesh.tri_area
    momentum = k_min * g * space.div * f_int[:, None]
    rhs = np.bincount(space.elem_dofs.ravel(), weights=momentum.ravel(), minlength=space.n_dofs)
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
    value per evaluation row (t, q, c) of space.volume_op.  The field is
    evaluated once per distinct height `space.heights` and gathered by
    `space.height_of`; a field evaluates elementwise in y, so each value is
    bitwise the one taken at the point itself."""
    return np.column_stack(coeff.inv_diag(space.heights))[space.height_of].ravel()


def lag_weights(space, g, dW, dk_min):
    """The lag weights of k samples premultiplied into one (rows of
    space.volume_op, k) block: g w |T| dW on the evaluation rows (w |T| the
    quadrature weights, dW the (rows, k) diagonals of the deviation tensors,
    see inverse_diagonal), then g |T| dk_min on the divergence rows."""
    n_eval = len(space.quad_weight)
    out = np.empty((space.volume_op.shape[0], dW.shape[1]))
    np.multiply(dW, (g * space.quad_weight)[:, None], out=out[:n_eval])
    np.multiply.outer(g * space.mesh.tri_area, dk_min, out=out[n_eval:])
    return out


def add_darcy_lag_rhs(rhs, space, lag_w, u_prev):
    """Accumulate the lagged sample-deviation volume terms against the
    previous iterates: g (dW u_prev, v) + g dk_min (div u_prev, div v),
    i.e. V^T (lag_w * V u_prev) with V the stacked volume operator of the
    space (quadrature evaluation, then divergence) and `lag_w` the
    premultiplied weights of `lag_weights`.

    For k samples, u_prev and rhs are whole (n_dofs, k) blocks and lag_w is
    (rows of V, k).  V has empty head columns, so the head rows of rhs are
    left as they are.  With the mean-minus-sample orientation the
    stationary iterate solves the per-sample equations.
    """
    vu = space.volume_op @ u_prev
    vu *= lag_w
    rhs += space.volume_op.T @ vu
    return rhs
