"""The full ensemble iteration: a set-up that factorizes the two subdomain
matrices and assembles the per-sample right-hand-side columns once, then a
loop of sweeps.  A sweep solves the active samples as the columns of one
block per subdomain against the shared factorization and forms their next
trace state at once; the loop takes the stopping norm and freezes samples.

The traditional (per-sample) variant runs the same loop over one-sample
groups, each with its own operator pair, on the spaces of the run; a
sample's iterates are bitwise those of its single-sample ensemble run.
"""

import numbers
import time
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.sparse as sp

from .sparsela import factorization_count
from .stokes_fem import (build_stokes_space, assemble_stokes_operator,
                         assemble_stokes_volume_rhs, add_interface_rhs,
                         interface_traces, stokes_matrix, StokesInterfaceInfo)
from .darcy_fem import (build_darcy_space, assemble_darcy_operator,
                        assemble_darcy_volume_rhs, add_darcy_interface_rhs,
                        add_darcy_natural_head_rhs, add_darcy_lag_rhs,
                        inverse_diagonal, darcy_matrix, DarcyInterfaceInfo)
from .interface_state import RobinTraceState, init_state, update_robin, stopping_norm


@dataclass
class SampleParams:
    """One conductivity/forcing realization with its derived constants."""

    K: object                    # ConductivityField
    f_S: object                  # callable (n,2) points -> (n,2)
    f_D: object                  # callable (n,2) points -> (n,)
    xi: float                    # alpha / sqrt(tau . K tau) on the interface
    k_min: float                 # min eigenvalue of K^{-1} over the scan points


def zero_vector_field(points):
    pts = np.atleast_2d(points)
    return np.zeros((len(pts), 2))


def zero_scalar_field(points):
    pts = np.atleast_2d(points)
    return np.zeros(len(pts))


def make_sample(K, f_S=None, f_D=None, alpha=1.0, interface_y=0.0, scan_points=None):
    """Derive the per-sample constants (slip coefficient, smallest
    inverse-tensor eigenvalue) from a conductivity field.

    `scan_points` should cover the porous subdomain (e.g. the assembly
    quadrature points); the smallest eigenvalue is taken over that scan.
    """
    if not 0 <= alpha < np.inf:     # NaN fails this too
        raise ValueError("alpha must be non-negative and finite")
    if scan_points is None:
        scan_points = np.array([[0.0, interface_y]])
    scan_points = np.atleast_2d(scan_points)
    # one evaluation: the scan heights, then the interface height last
    k11, k22 = K.diag(np.append(scan_points[:, 1], interface_y))
    if not (np.all(k11 > 0) and np.all(k22 > 0)):    # NaN fails this too
        raise ValueError("conductivity tensor not SPD at a scan point or on the interface")
    k_tau = k11[-1]
    k11, k22 = k11[:-1], k22[:-1]
    k_min = float(min((1.0 / k11).min(), (1.0 / k22).min()))
    xi = float(alpha / np.sqrt(k_tau))
    return SampleParams(K=K, f_S=f_S or zero_vector_field, f_D=f_D or zero_scalar_field,
                        xi=xi, k_min=k_min)


@dataclass
class EnsembleDiagnostics:
    """The ensemble means over all samples.  Each group's set-up compares
    its samples with its own means (`SolveReport.lag_ratio`)."""

    xi_bar: float                # mean slip coefficient
    kbar_min: float              # mean smallest inverse-tensor eigenvalue


@dataclass
class EnsembleContext:
    """The samples and the settings of a run; the set-up of each group of
    samples derives the group's means from its own samples."""

    samples: list
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


def make_context(samples, nu=1.0, g=1.0, z=0.0, alpha=1.0,
                 delta_s=1.0, delta_d=2.0, tol=1e-6, max_iters=500):
    """Validate the settings and build the ensemble context and its means.
    It evaluates no conductivity field: a run compares each sample with
    its group's means and warns when a sample's lag ratio reaches 1."""
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    # NaN fails these too
    if not (all(0 < v < np.inf for v in (nu, g, delta_s, delta_d)) and np.isfinite(z)):
        raise ValueError("nu, g, delta_s and delta_d must be positive and finite, and z finite")
    if not (0 < tol < np.inf) or not isinstance(max_iters, numbers.Integral) or max_iters < 1:
        raise ValueError("tol must be positive and finite and max_iters an integer of at least 1")
    J = len(samples)
    ctx = EnsembleContext(samples=list(samples), nu=nu, g=g, z=z, alpha=alpha,
                          delta_s=delta_s, delta_d=delta_d, tol=tol, max_iters=max_iters)
    return ctx, EnsembleDiagnostics(xi_bar=sum(s.xi for s in samples) / J,
                                    kbar_min=sum(s.k_min for s in samples) / J)


@dataclass
class BoundaryConditions:
    """Scenario boundary data and space options.

    `stokes_values(j, points)` returns Dirichlet velocity data for sample j
    (None means homogeneous); the porous edges of `darcy_essential_tags`
    carry zero normal flux; `darcy_natural_head(j, points)` returns head
    values integrated as the natural condition on `darcy_natural_tags`
    (pins the head level through the data, so no mean constraint is
    needed).
    """

    stokes_dirichlet_tags: frozenset = None
    darcy_essential_tags: frozenset = None
    stokes_pressure_multiplier: bool = False
    stokes_values: object = None
    darcy_natural_tags: frozenset = frozenset()
    darcy_natural_head: object = None


@dataclass
class SolveReport:
    """Everything a caller needs after a run: per-sample solutions, the
    iteration record, and the wall-time split.

    t_factor is the time of the two factorizations, with the forming of
    the condensed Stokes matrix.  t_solve is the wall time of the iteration
    loop; t_rhs, t_trisolve, t_trace and t_norm are its phases (right-hand
    sides, block solves with the gather of the free rows, the bubble
    condensation and recovery and the scatter to full dof vectors, trace
    updates, stopping norms and convergence bookkeeping), and their sum
    stays below t_solve.

    lu_nnz is the fill of the factors: the entries SuperLU stores for L and
    U (its `nnz`), summed over both factors, and over all samples for the
    per-sample baseline; the times are sums over its samples too.  A
    sample's last stopping norm is the last entry of its `norm_history`.

    lag_ratio is each sample's largest lag weight over its group's mean,
    the contraction factor of the lagged terms alone; a run warns when it
    reaches 1, and it is 0 in a one-sample group (the per-sample baseline).
    """

    us: np.ndarray               # (J, n_stokes_dofs)
    ud: np.ndarray               # (J, n_darcy_dofs)
    iterations: np.ndarray       # (J,) first iteration with norm <= tol
    converged: np.ndarray        # (J,) bool
    lag_ratio: np.ndarray        # (J,) lag weight over group mean, largest term
    norm_history: list           # list over samples of per-iteration norms
    t_assembly: float
    t_factor: float
    t_solve: float
    t_rhs: float
    t_trisolve: float
    t_trace: float
    t_norm: float
    n_factorizations: int
    lu_nnz: int
    space_s: object = None
    space_d: object = None
    pairing: object = None
    state: object = None


def stokes_dirichlet_values(space, data_fn, j):
    """Sample j's Dirichlet velocity data `data_fn(j, points)` on the fixed
    rows `space.fixed` (x components, then y), as an (n_fixed,) vector; all
    zero when `data_fn` is None."""
    if data_fn is None or len(space.dirichlet_nodes) == 0:
        return np.zeros(len(space.fixed))
    vals = np.asarray(data_fn(j, space.mesh.verts[space.dirichlet_nodes]))
    return np.concatenate([vals[:, 0], vals[:, 1]])


def _darcy_sample_rhs(space, sample, bc, j, g):
    """Porous volume forcing plus sample j's natural head data."""
    rhs = assemble_darcy_volume_rhs(space, sample.f_D, sample.k_min, g)
    if bc.darcy_natural_head is not None:
        add_darcy_natural_head_rhs(rhs, space, bc.darcy_natural_tags,
                                   partial(bc.darcy_natural_head, j), g)
    return rhs


def run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc, per_sample_stop=False):
    """Run the shared-matrix iteration for all samples of `ctx`.

    Exactly two factorizations happen per call (one per subdomain).  Sample
    j is column j of every (n_dofs, J) block, so each iteration assembles
    the right-hand sides of all active samples together and makes one
    block solve per subdomain.  The iteration stops when every sample's
    velocity-increment norm falls below ctx.tol; with `per_sample_stop`,
    converged samples are frozen and only the other columns are solved.
    """
    return _run(ctx, ctx.J, mesh_s, mesh_d, pairing, bc, per_sample_stop)


def run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc, per_sample_stop=False):
    """Per-sample baseline: the identical iteration, but each sample is a
    group of its own with its own operator pair (2J factorizations in
    total), run one after the other on the shared spaces."""
    return _run(ctx, 1, mesh_s, mesh_d, pairing, bc, per_sample_stop)


@dataclass
class IterationSetup:
    """Everything a sweep of a group of samples reads; sample i of the sweep
    is column (entry) i of each per-sample block."""

    ctx: EnsembleContext
    space_s: object
    space_d: object
    iface_s: object              # StokesInterfaceInfo of the run's pairing
    iface_d: object              # DarcyInterfaceInfo of the run's pairing
    op_s: object
    op_d: object
    base_s: np.ndarray           # (n_stokes_dofs, k) forcing minus boundary lift
    base_d: np.ndarray           # (n_darcy_dofs, k) forcing plus natural data
    fixed_s: np.ndarray          # (n_fixed, k) Stokes boundary values
    dW: np.ndarray               # (rows of eval_op, k) inverse-tensor lag weights
    dk: np.ndarray               # (k,) grad-div lag weights
    xi: np.ndarray               # (k,) slip coefficients
    dxi: np.ndarray              # (k,) slip lag weights, mean minus sample


def _setup(ctx, samples, space_s, space_d, pairing, bc, js):
    """The `IterationSetup` of the group `samples` with the settings of
    `ctx` on the given spaces, and the samples' lag ratios (k,); js[i] is
    the index into the boundary data `bc` of sample i.  The operators use
    the group's own means; it warns when a sample's lag ratio reaches 1."""
    k = len(samples)
    # one inverse-tensor evaluation per sample gives the group mean (summed
    # in sample order, as MeanInverseField.inv_diag sums) and, overwritten
    # in place, the lag weights
    w = np.column_stack([inverse_diagonal(space_d, s.K) for s in samples])
    kbar_w = sum(w.T) / k
    dW = np.subtract(kbar_w[:, None], w, out=w)
    xi_bar = sum(s.xi for s in samples) / k
    kbar_min = sum(s.k_min for s in samples) / k
    # every lag weight is mean minus sample: the stationary state then
    # solves the per-sample equations exactly
    dk = kbar_min - np.array([s.k_min for s in samples])
    xi = np.array([s.xi for s in samples])
    dxi = xi_bar - xi
    # each lag weight relative to its mean, one column of dW at a time; xi_bar
    # is 0 only when every xi is
    ratio = np.maximum.reduce([[np.abs(dW[:, i] / kbar_w).max() for i in range(k)],
                               np.abs(dk) / kbar_min, np.abs(dxi) / (xi_bar or 1.0)])
    worst = int(np.argmax(ratio))
    if ratio[worst] >= 1.0:
        warnings.warn(f"sample {js[worst]} has lag ratio {ratio[worst]:.3g} >= 1: its spread "
                      "exceeds the group's means, so the shared-matrix iteration may "
                      "converge slowly or diverge", RuntimeWarning)
    op_s = assemble_stokes_operator(space_s, ctx.nu, ctx.delta_s, xi_bar, pairing)
    op_d = assemble_darcy_operator(space_d, ctx.g, kbar_w, kbar_min, ctx.delta_d, pairing)
    # the iteration-independent part of every sample's right-hand side
    # (forcing plus natural data minus the boundary lift), and the boundary
    # values of the fixed rows; the Darcy essential rows are homogeneous
    fixed_s = np.column_stack([stokes_dirichlet_values(space_s, bc.stokes_values, j) for j in js])
    base_s = np.column_stack([assemble_stokes_volume_rhs(space_s, s.f_S) for s in samples])
    base_s[space_s.free] -= op_s.lift(fixed_s)
    base_d = np.column_stack([_darcy_sample_rhs(space_d, s, bc, j, ctx.g)
                              for j, s in zip(js, samples)])
    return IterationSetup(ctx, space_s, space_d, StokesInterfaceInfo(space_s, pairing),
                          DarcyInterfaceInfo(space_d, pairing), op_s, op_d,
                          base_s, base_d, fixed_s, dW, dk, xi, dxi), ratio


def sweep(su, state, ud_lag):
    """One iteration of the samples of `su` from their trace `state` and
    previous Darcy velocity rows `ud_lag`: the next state, the new Stokes
    and Darcy blocks, and the seconds of right-hand sides, block solves and
    trace updates.  Both solves read the previous traces (Jacobi-like); per
    sample the sweep is an affine map of (state, ud_lag)."""
    ta = time.perf_counter()
    rhs = su.base_s.copy()
    add_interface_rhs(rhs, su.iface_s, state.g_S, state.g_tau)
    tb = time.perf_counter()
    rhs = rhs[su.space_s.free]     # drops the full-length block before the solve
    us = su.op_s.solve(rhs, su.fixed_s)
    del rhs
    tc = time.perf_counter()
    rhs = su.base_d.copy()
    add_darcy_interface_rhs(rhs, su.iface_d, state.g_D)
    add_darcy_lag_rhs(rhs, su.space_d, su.dW, su.dk, ud_lag, su.ctx.g)
    td = time.perf_counter()
    rhs = rhs[su.space_d.free]
    ud = su.op_d.solve(rhs, 0.0)
    del rhs
    te = time.perf_counter()
    us_n, us_tau = interface_traces(su.iface_s, us)
    state = update_robin(state, us_n, us_tau, su.iface_d.normal_trace(ud),
                         su.iface_d.tangential_trace(ud), su.xi, su.dxi, su.ctx)
    tf = time.perf_counter()
    return state, us, ud, ((tb - ta) + (td - tc), (tc - tb) + (te - td), tf - te)


def _run(ctx, size, mesh_s, mesh_d, pairing, bc, per_sample_stop):
    """The spaces, then per group of `size` consecutive samples of `ctx`
    its set-up and sweeps of its active samples; one report for all."""
    nfact0 = factorization_count()
    t0 = time.perf_counter()
    space_s = build_stokes_space(mesh_s, dirichlet_tags=bc.stokes_dirichlet_tags,
                                 pressure_multiplier=bc.stokes_pressure_multiplier)
    space_d = build_darcy_space(mesh_d, essential_tags=bc.darcy_essential_tags)
    t_assembly = time.perf_counter() - t0

    J = ctx.J
    state = init_state(ctx, pairing)
    us = np.zeros((space_s.n_dofs, J), order="F")
    ud = np.zeros((space_d.n_dofs, J), order="F")
    iterations = np.zeros(J, dtype=np.int64)
    converged = np.zeros(J, dtype=bool)
    lag_ratio = np.zeros(J)
    history = [[] for _ in range(J)]
    t_factor = t_solve = t_norm = 0.0
    t_phases = np.zeros(3)      # right-hand sides, block solves, trace updates
    lu_nnz = 0
    for start in range(0, J, size):
        stop = min(start + size, J)
        t0 = time.perf_counter()
        su, lag_ratio[start:stop] = _setup(ctx, ctx.samples[start:stop], space_s, space_d,
                                           pairing, bc, range(start, stop))
        dt_factor = su.op_s.factor_seconds + su.op_d.factor_seconds
        t_assembly += time.perf_counter() - t0 - dt_factor
        t_factor += dt_factor
        lu_nnz += su.op_s.factorization.nnz + su.op_d.factorization.nnz
        ids = np.arange(start, stop)    # the samples held by the per-sample columns of su

        t1 = time.perf_counter()
        for n in range(1, ctx.max_iters + 1):
            if per_sample_stop and converged[ids].any():
                # drop frozen samples from the per-sample columns once, so
                # these blocks hold exactly the active columns
                keep = ~converged[ids]
                ids = ids[keep]
                su = replace(su, base_s=su.base_s[:, keep], base_d=su.base_d[:, keep],
                             fixed_s=su.fixed_s[:, keep], dW=su.dW[:, keep],
                             dk=su.dk[keep], xi=su.xi[keep], dxi=su.dxi[keep])
            # state and solutions span all samples: a plain slice while every
            # sample of the group is active keeps their blocks views
            act = ids if len(ids) < stop - start else slice(start, stop)

            new, us_new, ud_new, dt = sweep(su, RobinTraceState(*(b[:, act] for b in state)),
                                            ud[:space_d.n_velocity, act])
            t_phases += dt
            tf = time.perf_counter()
            for block, col in zip(state, new):
                block[:, act] = col
            norms = stopping_norm(space_s, space_d, us[:, act], us_new, ud[:, act], ud_new)
            us[:, act] = us_new
            ud[:, act] = ud_new
            del us_new, ud_new
            for j, norm in zip(ids.tolist(), norms.tolist()):
                history[j].append(norm)
            hit = ids[(norms <= ctx.tol) & ~converged[ids]]
            converged[hit] = True
            iterations[hit] = n
            t_norm += time.perf_counter() - tf
            if converged[start:stop].all():
                break
        t_solve += time.perf_counter() - t1
        del su          # the group's factors go before the next group's are made
    iterations[~converged] = ctx.max_iters

    t_rhs, t_trisolve, t_trace = t_phases.tolist()
    return SolveReport(us=us.T, ud=ud.T, iterations=iterations,
                       converged=converged, lag_ratio=lag_ratio, norm_history=history,
                       t_assembly=t_assembly, t_factor=t_factor, t_solve=t_solve,
                       t_rhs=t_rhs, t_trisolve=t_trisolve, t_trace=t_trace, t_norm=t_norm,
                       n_factorizations=factorization_count() - nfact0, lu_nnz=lu_nnz,
                       space_s=space_s, space_d=space_d, pairing=pairing, state=state)


def _monolithic_system(report, ctx, bc, j):
    """The coupled fixed-point system of sample j as (CSR matrix, vector).

    Unknowns: [stokes dofs | darcy dofs | g_S endpoints | g_D endpoints].
    The diagonal blocks are `stokes_matrix` and `darcy_matrix` with sample
    j's coefficients (xi_j, K_j^{-1}, k_j^{min}) in place of the ensemble
    means.  The couplings are the interface operators of the iteration: the
    traces enter the subdomain rows through the `load` operators, the
    Darcy tangential velocity through xi_j times the Stokes slip load, and
    the trace rows are the two affine interface updates at their fixed
    point.  Dirichlet and essential rows are identity rows with the
    boundary data (zero on the essential rows).
    """
    space_s, space_d, pairing = report.space_s, report.space_d, report.pairing
    sample = ctx.samples[j]
    nS = space_s.n_dofs
    n2 = 2 * pairing.n_pairs
    info_s = StokesInterfaceInfo(space_s, pairing)
    info_d = DarcyInterfaceInfo(space_d, pairing)

    dsum = ctx.delta_s + ctx.delta_d
    eye = sp.identity(n2)
    A = sp.bmat([
        [stokes_matrix(space_s, ctx.nu, ctx.delta_s, sample.xi, pairing),
         sample.xi * info_s.load[:, n2:] @ info_d.tangential, -info_s.load[:, :n2], None],
        [None, darcy_matrix(space_d, ctx.g, inverse_diagonal(space_d, sample.K),
                            sample.k_min, ctx.delta_d, pairing), None, -info_d.load],
        [None, -dsum * info_d.normal, eye, -eye],
        [-dsum * info_s.trace[:n2], None, -eye, eye],
    ], format="csr")
    b = np.concatenate([assemble_stokes_volume_rhs(space_s, sample.f_S),
                        _darcy_sample_rhs(space_d, sample, bc, j, ctx.g),
                        np.full(n2, -ctx.g * ctx.z), np.full(n2, ctx.g * ctx.z)])

    # boundary rows become identity rows with their data
    fixed = np.concatenate([space_s.fixed, nS + space_d.fixed])
    keep = np.ones(len(b))
    keep[fixed] = 0.0
    A = (sp.diags(keep) @ A + sp.diags(1.0 - keep)).tocsr()
    b[space_s.fixed] = stokes_dirichlet_values(space_s, bc.stokes_values, j)
    b[nS + space_d.fixed] = 0.0
    return A, b


def check_converged_residual(report, ctx, bc):
    """Relative residual of each sample's converged solution in the coupled
    fixed-point system; tightening the iteration tolerance tightens this."""
    out = np.empty(ctx.J)
    for j in range(ctx.J):
        A, b = _monolithic_system(report, ctx, bc, j)
        x = np.concatenate([report.us[j], report.ud[j],
                            report.state.g_S[:, j], report.state.g_D[:, j]])
        r = A @ x - b
        nb = np.linalg.norm(b)
        out[j] = np.linalg.norm(r) / nb if nb > 0 else np.linalg.norm(r)
    return out
