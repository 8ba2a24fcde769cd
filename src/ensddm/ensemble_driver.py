"""The full ensemble iteration: build and factorize the two subdomain
matrices once, then per iteration assemble the right-hand sides of all
active samples as the columns of one block per subdomain, solve each block
in one call against the shared factorization, and apply the Robin trace
updates to all of them at once.

A traditional (per-sample) variant runs the identical iteration with one
operator pair per sample; with J = 1 both variants follow the same code
path, so their iterates coincide bitwise.
"""

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .fields import MeanInverseField
from .sparsela import SparseMatrix, factorization_count
from .stokes_fem import (build_stokes_space, assemble_stokes_operator,
                         assemble_stokes_volume_rhs, add_interface_rhs,
                         interface_traces, deformation_element_matrices,
                         div_element_matrices, edge_mass)
from .darcy_fem import (build_darcy_space, assemble_darcy_operator,
                        assemble_darcy_volume_rhs, add_darcy_interface_rhs,
                        add_darcy_natural_head_rhs, add_darcy_lag_rhs,
                        inverse_diagonal, darcy_form)
from .interface_state import init_state, update_robin, stopping_norm


@dataclass
class SampleParams:
    """One conductivity/forcing realization with its derived constants."""

    K: object                    # ConductivityField
    f_S: object                  # callable (n,2) points -> (n,2)
    f_D: object                  # callable (n,2) points -> (n,)
    xi: float                    # alpha / sqrt(tau . K tau) on the interface
    k_min: float                 # min eigenvalue of K^{-1} over the domain
    k_max: float                 # max eigenvalue of K^{-1} over the domain
    scan_points: np.ndarray = None   # points used to derive k_min/k_max


def zero_vector_field(points):
    pts = np.atleast_2d(points)
    return np.zeros((len(pts), 2))


def zero_scalar_field(points):
    pts = np.atleast_2d(points)
    return np.zeros(len(pts))


def make_sample(K, f_S=None, f_D=None, alpha=1.0, interface_y=0.0, scan_points=None):
    """Derive the per-sample constants (slip coefficient, inverse-tensor
    eigenvalue extremes) from a conductivity field.

    `scan_points` should cover the porous subdomain (e.g. the assembly
    quadrature points); eigenvalue extremes are taken over that scan.
    """
    if scan_points is None:
        scan_points = np.array([[0.0, interface_y]])
    scan_points = np.atleast_2d(scan_points)
    K.check_spd(scan_points)
    i11, i22 = K.inv_diag(scan_points[:, 1])
    k_min = float(min(i11.min(), i22.min()))
    k_max = float(max(i11.max(), i22.max()))
    k_tau, _ = K.diag(np.asarray([interface_y]))
    xi = float(alpha / np.sqrt(k_tau[0]))
    return SampleParams(K=K, f_S=f_S or zero_vector_field, f_D=f_D or zero_scalar_field,
                        xi=xi, k_min=k_min, k_max=k_max, scan_points=scan_points)


@dataclass
class EnsembleDiagnostics:
    """Spread of the sample coefficients against the ensemble means; the
    iteration theory assumes the means dominate the spread."""

    E_xi_max: float
    E_k_max: float
    small_perturbation_ok: bool


@dataclass
class EnsembleContext:
    samples: list
    xi_bar: float
    kbar_min: float
    kbar_max: float
    kbar_field: MeanInverseField
    nu: float
    g: float
    z: float
    alpha: float
    delta_s: float
    delta_d: float
    tol: float
    max_iters: int

    @property
    def J(self):
        return len(self.samples)

    @property
    def xi(self):
        """(J,) per-sample slip coefficients."""
        return np.array([s.xi for s in self.samples])


def make_context(samples, nu=1.0, g=1.0, z=0.0, alpha=1.0,
                 delta_s=1.0, delta_d=2.0, tol=1e-6, max_iters=500):
    """Build the ensemble context (means) and its perturbation diagnostics.

    Emits a warning, not an error, when the sample spread exceeds the means.
    """
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    if delta_s <= 0 or delta_d <= 0:
        raise ValueError("Robin parameters must be positive")
    J = len(samples)
    xi_bar = sum(s.xi for s in samples) / J
    kbar_min = sum(s.k_min for s in samples) / J
    kbar_max = sum(s.k_max for s in samples) / J
    kbar_field = MeanInverseField([s.K for s in samples])

    E_xi = max(abs(s.xi - xi_bar) for s in samples)
    E_k = 0.0
    for s in samples:
        pts = s.scan_points
        i11, i22 = s.K.inv_diag(pts[:, 1])
        m11, m22 = kbar_field.inv_diag(pts[:, 1])
        tilde = max(np.abs(i11 - m11).max(), np.abs(i22 - m22).max())
        E_k = max(E_k, tilde, abs(s.k_min - kbar_min))
    ok = bool(xi_bar > E_xi and kbar_min > E_k)
    if not ok:
        warnings.warn("sample spread exceeds ensemble means; the shared-matrix "
                      "iteration may converge slowly or diverge", RuntimeWarning)
    ctx = EnsembleContext(samples=list(samples), xi_bar=xi_bar, kbar_min=kbar_min,
                          kbar_max=kbar_max, kbar_field=kbar_field, nu=nu, g=g, z=z,
                          alpha=alpha, delta_s=delta_s, delta_d=delta_d,
                          tol=tol, max_iters=max_iters)
    return ctx, EnsembleDiagnostics(E_xi_max=E_xi, E_k_max=E_k, small_perturbation_ok=ok)


@dataclass
class BoundaryConditions:
    """Scenario boundary data and space options.

    `stokes_values(j, points)` returns Dirichlet velocity data for sample j
    (None means homogeneous); `darcy_values(j, points)` returns the velocity
    whose normal component is imposed on essential porous edges;
    `darcy_natural_head(j, points)` returns head values integrated as the
    natural condition on `darcy_natural_tags` (pins the head level through
    the data, so no mean constraint is needed).
    """

    stokes_dirichlet_tags: frozenset = None
    darcy_essential_tags: frozenset = None
    stokes_pressure_multiplier: bool = False
    darcy_head_multiplier: bool = False
    stokes_values: object = None
    darcy_values: object = None
    darcy_natural_tags: frozenset = frozenset()
    darcy_natural_head: object = None

    def sample_view(self, j):
        sv = self.stokes_values
        dv = self.darcy_values
        nh = self.darcy_natural_head
        return BoundaryConditions(
            stokes_dirichlet_tags=self.stokes_dirichlet_tags,
            darcy_essential_tags=self.darcy_essential_tags,
            stokes_pressure_multiplier=self.stokes_pressure_multiplier,
            darcy_head_multiplier=self.darcy_head_multiplier,
            stokes_values=None if sv is None else (lambda jj, pts, _j=j: sv(_j, pts)),
            darcy_values=None if dv is None else (lambda jj, pts, _j=j: dv(_j, pts)),
            darcy_natural_tags=self.darcy_natural_tags,
            darcy_natural_head=None if nh is None else (lambda jj, pts, _j=j: nh(_j, pts)),
        )


@dataclass
class SolveReport:
    """Everything a caller needs after a run: per-sample solutions, the
    iteration record, and the wall-time split.

    t_solve is the wall time of the iteration loop; t_rhs, t_trisolve,
    t_trace and t_norm are its phases (right-hand sides, block solves with
    the scatter to full dof vectors, trace updates, stopping norms and
    convergence bookkeeping), and their sum stays below t_solve.
    """

    us: np.ndarray               # (J, n_stokes_dofs), physical pressure sign
    ud: np.ndarray               # (J, n_darcy_dofs), physical head sign
    iterations: np.ndarray       # (J,) first iteration with norm <= tol
    final_norms: np.ndarray      # (J,)
    converged: np.ndarray        # (J,) bool
    norm_history: list           # list over samples of per-iteration norms
    t_assembly: float
    t_factor: float
    t_solve: float
    t_rhs: float
    t_trisolve: float
    t_trace: float
    t_norm: float
    n_factorizations: int
    space_s: object = None
    space_d: object = None
    pairing: object = None
    state: object = None

    @property
    def all_converged(self):
        return bool(self.converged.all())


def stokes_dirichlet_vector(space, data_fn):
    vec = np.zeros(space.n_dofs)
    if data_fn is not None and len(space.dirichlet_nodes) > 0:
        pts = space.mesh.verts[space.dirichlet_nodes]
        vals = np.asarray(data_fn(pts))
        vec[space.dirichlet_nodes] = vals[:, 0]
        vec[space.n_comp + space.dirichlet_nodes] = vals[:, 1]
    return vec


def darcy_essential_vector(space, data_fn):
    vec = np.zeros(space.n_dofs)
    edges = space.essential_edges
    if data_fn is not None and len(edges) > 0:
        mesh = space.mesh
        a = mesh.edges[edges, 0]
        b = mesh.edges[edges, 1]
        n_e = space.edge_normal[edges]
        vec[2 * edges] = np.einsum("ij,ij->i", np.asarray(data_fn(mesh.verts[a])), n_e)
        vec[2 * edges + 1] = np.einsum("ij,ij->i", np.asarray(data_fn(mesh.verts[b])), n_e)
    return vec


def _columns(vectors, J):
    """The J vectors yielded, one per sample, as the columns of an (n, J)
    block."""
    block = None
    for j, vec in enumerate(vectors):
        if block is None:
            block = np.empty((len(vec), J))
        block[:, j] = vec
    return block


def run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc,
                     per_sample_stop=False, record_history=True):
    """Run the shared-matrix iteration for all samples of `ctx`.

    Exactly two factorizations happen per call (one per subdomain).  Sample
    j is column j of every (n_dofs, J) block, so each iteration assembles
    the right-hand sides of all active samples together and makes one
    block solve per subdomain.  The iteration stops when every sample's
    velocity-increment norm falls below ctx.tol; with `per_sample_stop`,
    converged samples are frozen and only the other columns are solved.
    """
    nfact0 = factorization_count()
    t0 = time.perf_counter()
    space_s = build_stokes_space(mesh_s, dirichlet_tags=bc.stokes_dirichlet_tags,
                                 pressure_multiplier=bc.stokes_pressure_multiplier)
    space_d = build_darcy_space(mesh_d, essential_tags=bc.darcy_essential_tags,
                                head_multiplier=bc.darcy_head_multiplier)
    op_s = assemble_stokes_operator(space_s, ctx.nu, ctx.delta_s, ctx.xi_bar, pairing)
    op_d = assemble_darcy_operator(space_d, ctx.g, ctx.kbar_field, ctx.kbar_min,
                                   ctx.delta_d, pairing)
    t_factor = op_s.factor_seconds + op_d.factor_seconds

    J = ctx.J

    def sample_fn(fn, j):
        return None if fn is None else (lambda p: fn(j, p))

    def darcy_volume(j, s):
        vd = assemble_darcy_volume_rhs(space_d, s.f_D, s.k_min, ctx.g)
        if bc.darcy_natural_head is not None and bc.darcy_natural_tags:
            add_darcy_natural_head_rhs(vd, space_d, bc.darcy_natural_tags,
                                       sample_fn(bc.darcy_natural_head, j), ctx.g)
        return vd

    # the iteration-independent part of every sample's right-hand side
    # (forcing plus natural data minus the boundary lift), and the boundary
    # values of the fixed rows
    dir_s = _columns((stokes_dirichlet_vector(space_s, sample_fn(bc.stokes_values, j))
                      for j in range(J)), J)
    base_s = _columns((assemble_stokes_volume_rhs(space_s, s.f_S) for s in ctx.samples), J)
    base_s[space_s.free] -= op_s.lift(dir_s)
    fixed_s = dir_s[space_s.fixed]
    dir_d = _columns((darcy_essential_vector(space_d, sample_fn(bc.darcy_values, j))
                      for j in range(J)), J)
    base_d = _columns((darcy_volume(j, s) for j, s in enumerate(ctx.samples)), J)
    base_d[space_d.free] -= op_d.lift(dir_d)
    fixed_d = dir_d[space_d.fixed]
    del dir_s, dir_d
    # deviation weights of the lagged correction, mean minus sample: the
    # stationary state then solves the per-sample equations exactly
    # (mirrors the slip-coefficient lag on the free-flow side)
    kbar_w = inverse_diagonal(space_d, ctx.kbar_field)
    dW = _columns((kbar_w - inverse_diagonal(space_d, s.K) for s in ctx.samples), J)
    dk = ctx.kbar_min - np.array([s.k_min for s in ctx.samples])
    xi_lag = ctx.xi_bar - ctx.xi
    t_assembly = time.perf_counter() - t0 - t_factor

    state = init_state(ctx, pairing, n_darcy_vel=space_d.n_velocity)
    iface = space_d.interface_info(pairing)
    us = np.zeros((space_s.n_dofs, J), order="F")
    ud = np.zeros((space_d.n_dofs, J), order="F")
    iterations = np.zeros(J, dtype=np.int64)
    final_norms = np.full(J, np.inf)
    converged = np.zeros(J, dtype=bool)
    history = [[] for _ in range(J)]
    t_rhs = t_trisolve = t_trace = t_norm = 0.0
    ids = np.arange(J)          # the samples held by the per-sample data blocks

    t1 = time.perf_counter()
    for n in range(1, ctx.max_iters + 1):
        if per_sample_stop and converged[ids].any():
            # drop frozen samples from the per-sample data once, so these
            # blocks hold exactly the active columns
            keep = ~converged[ids]
            ids = ids[keep]
            base_s = base_s[:, keep]
            base_d = base_d[:, keep]
            fixed_s = fixed_s[:, keep]
            fixed_d = fixed_d[:, keep]
            dW = dW[:, keep]
            dk, xi_lag = dk[keep], xi_lag[keep]
        # state and solutions span all samples: a plain slice while every
        # sample is active keeps their blocks views
        act = ids if len(ids) < J else slice(None)

        ta = time.perf_counter()
        rhs = base_s.copy()
        g_tau = state.g_S_tau[act] - xi_lag[:, None, None] * state.us_tau[act]
        add_interface_rhs(rhs, space_s, pairing, g_n=state.g_S[act], g_tau=g_tau)
        b = op_s.reduce_rhs(rhs)
        del rhs, g_tau
        tb = time.perf_counter()
        us_new = op_s.expand(op_s.factorization.solve(b))
        us_new[space_s.fixed] = fixed_s
        del b
        tc = time.perf_counter()
        rhs = base_d.copy()
        add_darcy_interface_rhs(rhs, iface, state.g_D[act])
        add_darcy_lag_rhs(rhs, space_d, dW, dk, state.ud_prev[act].T, ctx.g)
        b = op_d.reduce_rhs(rhs)
        del rhs
        td = time.perf_counter()
        ud_new = op_d.expand(op_d.factorization.solve(b))
        ud_new[space_d.fixed] = fixed_d
        del b
        te = time.perf_counter()

        us_n, us_tau = interface_traces(space_s, pairing, us_new)
        ud_vel = ud_new[:space_d.n_velocity]
        update_robin(state, act, us_n, us_tau, iface.normal_trace(ud_vel),
                     iface.tangential_trace(ud_vel), ctx, ud_vec=ud_vel.T)
        del ud_vel
        tf = time.perf_counter()

        norms = stopping_norm(space_s, space_d, us[:, act], us_new, ud[:, act], ud_new)
        us[:, act] = us_new
        ud[:, act] = ud_new
        del us_new, ud_new
        final_norms[ids] = norms
        if record_history:
            for j, norm in zip(ids.tolist(), norms.tolist()):
                history[j].append(norm)
        hit = ids[(norms <= ctx.tol) & ~converged[ids]]
        converged[hit] = True
        iterations[hit] = n
        t_rhs += (tb - ta) + (td - tc)
        t_trisolve += (tc - tb) + (te - td)
        t_trace += tf - te
        t_norm += time.perf_counter() - tf
        if converged.all():
            break
    t_solve = time.perf_counter() - t1
    iterations[~converged] = ctx.max_iters

    return SolveReport(us=us.T, ud=ud.T,
                       iterations=iterations, final_norms=final_norms,
                       converged=converged, norm_history=history,
                       t_assembly=t_assembly, t_factor=t_factor, t_solve=t_solve,
                       t_rhs=t_rhs, t_trisolve=t_trisolve, t_trace=t_trace, t_norm=t_norm,
                       n_factorizations=factorization_count() - nfact0,
                       space_s=space_s, space_d=space_d, pairing=pairing, state=state)


def run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc,
                        per_sample_stop=False, record_history=True):
    """Per-sample baseline: the identical iteration, but each sample gets
    its own operator pair (2J factorizations in total).  The spaces and
    state of the first sample's run stand for all samples."""
    reports = []
    for j, s in enumerate(ctx.samples):
        ctx_j, _ = make_context([s], nu=ctx.nu, g=ctx.g, z=ctx.z, alpha=ctx.alpha,
                                delta_s=ctx.delta_s, delta_d=ctx.delta_d,
                                tol=ctx.tol, max_iters=ctx.max_iters)
        rep = run_ensemble_ddm(ctx_j, mesh_s, mesh_d, pairing, bc.sample_view(j),
                               per_sample_stop=per_sample_stop,
                               record_history=record_history)
        # identical spaces need not be held once per sample
        reports.append(replace(rep, space_s=None, space_d=None, state=None) if j else rep)
        del rep
    first = reports[0]

    def total(name):
        return sum(getattr(r, name) for r in reports)

    return SolveReport(
        us=np.concatenate([r.us for r in reports]),
        ud=np.concatenate([r.ud for r in reports]),
        iterations=np.concatenate([r.iterations for r in reports]),
        final_norms=np.concatenate([r.final_norms for r in reports]),
        converged=np.concatenate([r.converged for r in reports]),
        norm_history=[r.norm_history[0] for r in reports],
        t_assembly=total("t_assembly"), t_factor=total("t_factor"),
        t_solve=total("t_solve"), t_rhs=total("t_rhs"), t_trisolve=total("t_trisolve"),
        t_trace=total("t_trace"), t_norm=total("t_norm"),
        n_factorizations=total("n_factorizations"),
        space_s=first.space_s, space_d=first.space_d, pairing=first.pairing,
        state=first.state)


def _monolithic_system(report, ctx, bc, j):
    """Assemble the coupled fixed-point system for sample j.

    Unknowns: [stokes dofs | darcy dofs | g_S endpoints | g_D endpoints].
    The subdomain rows carry the per-sample coefficients (xi_j, K_j^{-1},
    k_j^{min}) with the Robin traces as explicit unknowns; the trace rows
    are the two affine interface updates at their fixed point.  Dirichlet
    and essential rows are identity rows with the boundary data.
    """
    space_s, space_d, pairing = report.space_s, report.space_d, report.pairing
    sample = ctx.samples[j]
    nS, nD = space_s.n_dofs, space_d.n_dofs
    n_p = pairing.n_pairs
    n_tot = nS + nD + 4 * n_p
    gS_off = nS + nD
    gD_off = nS + nD + 2 * n_p

    b = np.zeros(n_tot)
    builder = SparseMatrix.builder(n_tot, n_tot)

    # --- free-flow momentum rows (natural signs) ---
    K = deformation_element_matrices(space_s, ctx.nu)
    vd = space_s.vel_elem_dofs
    builder.add(np.repeat(vd, 8, axis=1).ravel(), np.tile(vd, (1, 8)).ravel(), K.ravel())
    Bflat = div_element_matrices(space_s)
    pd = space_s.p_elem_dofs
    rows_p = np.repeat(pd, 8, axis=1).ravel()
    cols_v = np.tile(vd, (1, 3)).ravel()
    builder.add(cols_v, rows_p, -Bflat.ravel())     # momentum: -(p, div v)
    builder.add(rows_p, cols_v, Bflat.ravel())      # continuity: (q, div u)
    if space_s.pressure_multiplier:
        mdof = nS - 1
        mvals = np.repeat(space_s.mesh.tri_area / 3.0, 3)
        prow = space_s.p_elem_dofs.ravel()
        builder.add(prow, np.full_like(prow, mdof), mvals)   # continuity + m lambda
        builder.add(np.full_like(prow, mdof), prow, mvals)   # mean row

    n, tau = pairing.n_s, pairing.tau
    iface = space_d.interface_info(pairing)
    dsum = ctx.delta_s + ctx.delta_d
    for p in range(n_p):
        Me = edge_mass(pairing.lengths[p])
        nodes = pairing.nodes_s[p]
        sdofs = np.array([[space_s.vel_dof(c, nodes[0]), space_s.vel_dof(c, nodes[1])]
                          for c in range(2)])
        ddofs_x = iface.dofs_x[p] + nS
        for c in range(2):
            for d in range(2):
                coef = ctx.delta_s * n[c] * n[d] + sample.xi * tau[c] * tau[d]
                if coef != 0.0:
                    builder.add(np.repeat(sdofs[c], 2), np.tile(sdofs[d], 2),
                                coef * Me.ravel())
            # - xi_j <u_D.tau, v.tau>
            if tau[c] != 0.0:
                blk = -sample.xi * tau[c] * (Me @ iface.tau_mat[p])   # (2, 6)
                builder.add(np.repeat(sdofs[c], 6), np.tile(iface.loc_dofs[p] + nS, 2),
                            blk.ravel())
            # + <g_S, v.n_S>
            if n[c] != 0.0:
                gcols = gS_off + 2 * p + np.arange(2)
                builder.add(np.repeat(sdofs[c], 2), np.tile(gcols, 2),
                            n[c] * Me.ravel())

        # --- porous momentum interface terms ---
        builder.add(np.repeat(ddofs_x, 2), np.tile(ddofs_x, 2), ctx.delta_d * Me.ravel())
        gcols = gD_off + 2 * p + np.arange(2)
        builder.add(np.repeat(ddofs_x, 2), np.tile(gcols, 2),
                    iface.sign[p] * Me.ravel())

        # --- trace update rows at their fixed point ---
        for i in range(2):
            r = gS_off + 2 * p + i
            builder.add([r, r], [r, gD_off + 2 * p + i], [1.0, -1.0])
            builder.add([r], [ddofs_x[i]], [-dsum * iface.sign[p]])
            b[r] = -ctx.g * ctx.z
            r = gD_off + 2 * p + i
            builder.add([r, r], [r, gS_off + 2 * p + i], [1.0, -1.0])
            for c in range(2):
                if n[c] != 0.0:
                    builder.add([r], [space_s.vel_dof(c, nodes[i])], [-dsum * n[c]])
            b[r] = ctx.g * ctx.z

    # --- porous momentum volume + continuity rows (per-sample coefficients) ---
    form = darcy_form(space_d, ctx.g, inverse_diagonal(space_d, sample.K), sample.k_min).tocoo()
    builder.add(form.row + nS, form.col + nS, form.data)
    ed = space_d.elem_dofs + nS
    Bel = ctx.g * space_d.div * space_d.mesh.tri_area[:, None]
    hd = nS + space_d.n_velocity + np.arange(space_d.n_head)
    builder.add(ed.ravel(), np.repeat(hd, 6), -Bel.ravel())   # momentum: -(phi, div v)
    builder.add(np.repeat(hd, 6), ed.ravel(), Bel.ravel())    # continuity: (psi, div u)

    # --- volume forcing and natural boundary data ---
    b[:nS] += assemble_stokes_volume_rhs(space_s, sample.f_S)
    rhs_d = assemble_darcy_volume_rhs(space_d, sample.f_D, sample.k_min, ctx.g)
    if bc.darcy_natural_head is not None and bc.darcy_natural_tags:
        add_darcy_natural_head_rhs(rhs_d, space_d, bc.darcy_natural_tags,
                                   (lambda p: bc.darcy_natural_head(j, p)), ctx.g)
    b[nS:nS + nD] += rhs_d

    # --- boundary rows become identity rows with their data ---
    gs = stokes_dirichlet_vector(space_s, None if bc.stokes_values is None
                                 else (lambda p: bc.stokes_values(j, p)))
    gd = darcy_essential_vector(space_d, None if bc.darcy_values is None
                                else (lambda p: bc.darcy_values(j, p)))
    A = builder.finalize().csr.tolil()
    for idx in space_s.fixed:
        A.rows[idx] = [idx]
        A.data[idx] = [1.0]
        b[idx] = gs[idx]
    for idx in space_d.fixed:
        r = nS + idx
        A.rows[r] = [r]
        A.data[r] = [1.0]
        b[r] = gd[idx]
    return A.tocsr(), b


def check_converged_residual(report, ctx, bc):
    """Relative residual of each sample's converged solution in the coupled
    fixed-point system; tightening the iteration tolerance tightens this."""
    out = np.empty(ctx.J)
    for j in range(ctx.J):
        A, b = _monolithic_system(report, ctx, bc, j)
        x = np.concatenate([report.us[j], report.ud[j],
                            report.state.g_S[j].ravel(), report.state.g_D[j].ravel()])
        r = A @ x - b
        nb = np.linalg.norm(b)
        out[j] = np.linalg.norm(r) / nb if nb > 0 else np.linalg.norm(r)
    return out
