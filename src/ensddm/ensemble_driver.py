"""The full ensemble iteration: a set-up that factorizes the two subdomain
matrices and assembles the per-sample right-hand-side columns once, then a
loop of sweeps.  A sweep maps the active samples' iterate block [g_S; g_D;
g_tau; ud] to the next: it solves them as the columns of one block per
subdomain against the shared factorization and forms their next traces at
once; the loop takes the stopping norm and freezes samples.

A group of more than `CHUNK` samples sweeps in turn over near-even chunks
of at most `CHUNK` columns (`_chunk_cuts`), each with its own copy of the
group's right-hand-side columns, against the group's one pair of
factorizations: so every temporary of a sweep is at most `CHUNK` columns
wide and stays in cache, and only the iterate and the right-hand-side
columns grow with the group.  A block solve rounds a column by its place
in the block, so the chunk width moves values at the rounding level only
(where per-sample stop drops columns), and an iteration count only for a
norm within rounding of the tolerance.

The traditional (per-sample) variant runs the same loop over one-sample
groups, each with its own operator pair, on the spaces and the Stokes
element data of the run; a sample's iterates are bitwise those of its
single-sample ensemble run.
"""

import numbers
import time
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .sparsela import factorization_count
from .stokes_fem import (build_stokes_space, assemble_stokes_operator,
                         assemble_stokes_volume_rhs, add_interface_rhs,
                         interface_traces, stokes_matrix, StokesElements, StokesInterfaceInfo)
from .darcy_fem import (build_darcy_space, assemble_darcy_operator,
                        assemble_darcy_volume_rhs, add_darcy_interface_rhs,
                        add_darcy_natural_head_rhs, add_darcy_lag_rhs, lag_weights,
                        inverse_diagonal, darcy_matrix, DarcyInterfaceInfo)
from .interface_state import split_block, update_robin, stopping_norm

# the most columns a sweep solves at once, a multiple of 8 (`_chunk_cuts`);
# 32-40 were the fastest widths at J=160, and wider blocks leave the cache
CHUNK = 32


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


def make_sample(K, f_S=None, f_D=None, alpha=1.0, interface_y=0.0, *, scan_points):
    """Derive the per-sample constants (slip coefficient, smallest
    inverse-tensor eigenvalue) from a conductivity field.

    `scan_points` must cover the porous subdomain (e.g. the assembly
    quadrature points); the smallest eigenvalue is taken over that scan.
    Only the heights of the scan are read, since a field varies in y alone,
    so one scan point per distinct height suffices.
    """
    if not 0 <= alpha < np.inf:     # NaN fails this too
        raise ValueError("alpha must be non-negative and finite")
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
    if (not (0 < tol < np.inf) or not isinstance(max_iters, numbers.Integral)
            or isinstance(max_iters, bool) or max_iters < 1):
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

    t_assembly holds the spaces (with their nested-dissection orders and
    interface operators), the run's Stokes element data (`StokesElements`,
    with its bubble condensation) and each group's element blocks and
    matrices; t_factor each operator's condensed system (the Darcy element
    condensation, the Stokes S from the run's data and its interface
    terms), factorization and probe solve.  t_solve is the
    wall time of the loop; t_rhs, t_trisolve, t_trace and t_norm are its
    phases (right-hand sides; block solves with the Stokes boundary lift,
    the condensation and recovery maps and a refinement step where a probe
    asked for one; trace updates; stopping norms and convergence
    bookkeeping), summing below it.

    lu_nnz is the fill of the factors: the entries SuperLU stores for L and
    U (its `nnz`), summed over both factors, and over all samples for the
    per-sample baseline; the times are sums over its samples too.  A
    sample's last stopping norm is the last entry of its `norm_history`.

    lag_ratio is each sample's largest lag weight over its group's mean,
    the contraction factor of the lagged terms alone; a run warns when it
    reaches 1, and it is 0 in a one-sample group (the per-sample baseline),
    whose sweeps then add no Darcy lag term.

    state holds the final traces (g_S, g_D, g_tau); they and ud.T are row
    views of the run's final iterate block.
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
    iface_s: object = None       # the run's StokesInterfaceInfo
    iface_d: object = None       # the run's DarcyInterfaceInfo
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

    Exactly two factorizations happen per call (one per subdomain).  Each
    sample is a column of the blocks of its chunk of at most `CHUNK`
    samples, so each iteration assembles the right-hand sides of a chunk's
    active samples together and makes one block solve per subdomain and
    chunk; the chunk width moves values at the rounding level only.  The
    iteration stops when every sample's velocity-increment norm falls below
    ctx.tol; with `per_sample_stop`, converged samples are frozen and only
    the other columns are solved.
    """
    return _run(ctx, ctx.J, mesh_s, mesh_d, pairing, bc, per_sample_stop)


def run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc, per_sample_stop=False):
    """Per-sample baseline: the identical iteration, but each sample is a
    group of its own with its own operator pair (2J factorizations in
    total), run one after the other on the spaces, interface operators and
    Stokes element data of the run.  Per sample it builds what its
    coefficients change: the Darcy blocks, the Stokes matrix and S from the
    run's data plus the sample's slip term on the interface entries, and
    the two factorizations."""
    return _run(ctx, 1, mesh_s, mesh_d, pairing, bc, per_sample_stop)


@dataclass
class IterationSetup:
    """Everything a sweep of a group of samples reads; sample i of the sweep
    is column (entry) i of each per-sample block.  The Darcy lag weights
    come premultiplied by their quadrature and area factors
    (`lag_weights`); `has_lag` is False when every one of them is 0 (a
    one-sample group, or a group of identical samples), and the sweeps then
    add no lag term."""

    ctx: EnsembleContext
    space_d: object
    iface_s: object              # StokesInterfaceInfo of the run's pairing
    iface_d: object              # DarcyInterfaceInfo of the run's pairing
    op_s: object
    op_d: object
    base_s: np.ndarray           # (n_stokes_dofs, k) forcing
    base_d: np.ndarray           # (n_darcy_dofs, k) forcing plus natural data
    fixed_s: np.ndarray          # (n_fixed, k) Stokes boundary values
    lag_w: np.ndarray            # (rows of space_d.volume_op, k) premultiplied lag weights
    has_lag: bool                # any lag weight nonzero; else sweeps skip the lag term
    xi: np.ndarray               # (k,) slip coefficients
    dxi: np.ndarray              # (k,) slip lag weights, mean minus sample


def _column_block(columns, k):
    """The k vectors `columns` yields as the columns of one (n, k) block,
    each written into it as it is made, so none is held beside it."""
    for i, col in enumerate(columns):
        if i == 0:
            block = np.empty((len(col), k))
        block[:, i] = col
    return block


def _columns(su, keep):
    """The `IterationSetup` of the columns `keep` (a mask or indices) of su:
    its per-sample blocks are copies, so su's can go."""
    return replace(su, base_s=su.base_s[:, keep], base_d=su.base_d[:, keep],
                   fixed_s=su.fixed_s[:, keep], lag_w=su.lag_w[:, keep],
                   xi=su.xi[keep], dxi=su.dxi[keep])


def _chunk_cuts(k):
    """The column bounds of k columns split near evenly into ceil(k / CHUNK)
    chunks whose widths, but the last's, are multiples of 8.  The block
    solve's BLAS kernels round a column by its place in their panels of up
    to 8 columns, so each column keeps the place it has in one k-wide block,
    and a lockstep run the values of one block."""
    n = -(-k // CHUNK)
    return [min(k, 8 * -(-k * i // (8 * n))) for i in range(n + 1)]


def _setup(ctx, samples, elements, space_d, iface_d, bc, js):
    """The `IterationSetup` of the group `samples` with the settings of
    `ctx` on the Stokes space and interface operator of the StokesElements
    `elements`, the Darcy space and its interface operator, and the
    samples' lag ratios (k,); js[i] is the index into the boundary data `bc`
    of sample i.  The operators use the group's own means; it warns when a
    sample's lag ratio reaches 1."""
    k, space_s, iface_s = len(samples), elements.space, elements.iface
    # one inverse-tensor evaluation per sample, at the space's distinct
    # heights, gives the group mean (summed in sample order, as
    # MeanInverseField.inv_diag sums) and, overwritten in place, the lag
    # weights
    w = _column_block((inverse_diagonal(space_d, s.K) for s in samples), k)
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
    lag_w = lag_weights(space_d, ctx.g, dW, dk)
    del w, dW       # before the operators are built
    op_s = assemble_stokes_operator(elements, ctx.delta_s, xi_bar)
    op_d = assemble_darcy_operator(space_d, ctx.g, kbar_w, kbar_min, ctx.delta_d, iface_d)
    # the iteration-independent part of every sample's right-hand side
    # (forcing plus natural data), and the boundary values of the fixed rows,
    # which the Stokes solves lift; the Darcy essential rows are homogeneous
    fixed_s = _column_block((stokes_dirichlet_values(space_s, bc.stokes_values, j) for j in js), k)
    base_s = _column_block((assemble_stokes_volume_rhs(space_s, s.f_S) for s in samples), k)
    base_d = _column_block((_darcy_sample_rhs(space_d, s, bc, j, ctx.g)
                            for j, s in zip(js, samples)), k)
    return IterationSetup(ctx, space_d, iface_s, iface_d, op_s, op_d,
                          base_s, base_d, fixed_s, lag_w, bool(lag_w.any()), xi, dxi), ratio


def sweep(su, x):
    """One iteration of the samples of `su` from their iterate block `x`
    (m, k), [g_S; g_D; g_tau; ud]: the next block, the new Stokes block and
    the seconds of right-hand sides, block solves and trace updates.  Both
    solves read the previous traces (Jacobi-like) and the Darcy solve lags
    the previous ud; per sample the sweep is an affine map of x."""
    g_S, g_D, g_tau, ud_lag = split_block(x, su.iface_d.normal.shape[0])
    ta = time.perf_counter()
    rhs = su.base_s.copy()
    add_interface_rhs(rhs, su.iface_s, g_S, g_tau)
    tb = time.perf_counter()
    us = su.op_s.solve(rhs, su.fixed_s)
    del rhs
    tc = time.perf_counter()
    rhs = su.base_d.copy()
    add_darcy_interface_rhs(rhs, su.iface_d, g_D)
    if su.has_lag:
        add_darcy_lag_rhs(rhs, su.space_d, su.lag_w, ud_lag)
    td = time.perf_counter()
    ud = su.op_d.solve(rhs, 0.0)
    del rhs
    te = time.perf_counter()
    us_n, us_tau = interface_traces(su.iface_s, us)
    x = np.concatenate([*update_robin(x, us_n, us_tau, su.iface_d.normal_trace(ud),
                                      su.iface_d.tangential_trace(ud), su.xi, su.dxi, su.ctx),
                        ud])
    tf = time.perf_counter()
    return x, us, ((tb - ta) + (td - tc), (tc - tb) + (te - td), tf - te)


def _run(ctx, size, mesh_s, mesh_d, pairing, bc, per_sample_stop):
    """The spaces, their interface operators and the Stokes element data,
    then per group of `size` consecutive samples of `ctx` its set-up and
    sweeps of its active samples; one report for all."""
    nfact0 = factorization_count()
    t0 = time.perf_counter()
    space_s = build_stokes_space(mesh_s, dirichlet_tags=bc.stokes_dirichlet_tags,
                                 pressure_multiplier=bc.stokes_pressure_multiplier)
    space_d = build_darcy_space(mesh_d, essential_tags=bc.darcy_essential_tags)
    iface_s, iface_d = StokesInterfaceInfo(space_s, pairing), DarcyInterfaceInfo(space_d, pairing)
    elements = StokesElements(space_s, ctx.nu, iface_s)
    t_assembly = time.perf_counter() - t0

    J, n2 = ctx.J, 2 * pairing.n_pairs
    m = 3 * n2 + space_d.n_dofs
    done = []       # (samples, iterate block, Stokes block) of columns frozen or at a group's end
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
        su, lag_ratio[start:stop] = _setup(ctx, ctx.samples[start:stop], elements, space_d,
                                           iface_d, bc, range(start, stop))
        if stop == J:
            del elements    # the last group's operator keeps the maps it solves with
        dt_factor = su.op_s.factor_seconds + su.op_d.factor_seconds
        t_assembly += time.perf_counter() - t0 - dt_factor
        t_factor += dt_factor
        lu_nnz += su.op_s.factorization.nnz + su.op_d.factorization.nnz
        # its chunks, each [samples, set-up, iterate block, Stokes block]; a
        # single chunk keeps su uncopied
        cuts = _chunk_cuts(stop - start)
        chunks = [[np.arange(start + a, start + b),
                   su if len(cuts) == 2 else _columns(su, np.arange(a, b)),
                   np.zeros((m, b - a)), np.zeros((space_s.n_dofs, b - a))]
                  for a, b in zip(cuts[:-1], cuts[1:])]
        del su          # so each per-sample block is held once, by its chunk

        t1 = time.perf_counter()
        for n in range(1, ctx.max_iters + 1):
            for chunk in chunks:
                ids, su, xa, usa = chunk
                if per_sample_stop and converged[ids].any():
                    # set the frozen samples aside and drop their columns once,
                    # so the chunk's blocks hold exactly the active columns
                    keep = ~converged[ids]
                    done.append((ids[~keep], xa[:, ~keep], usa[:, ~keep]))
                    chunk[:] = ids[keep], _columns(su, keep), xa[:, keep], usa[:, keep]
                    ids, su, xa, usa = chunk
                if len(ids):
                    new, us_new, dt = sweep(su, xa)
                    t_phases += dt
                    tf = time.perf_counter()
                    norms = stopping_norm(space_s, space_d, usa, us_new, xa[3 * n2:],
                                          new[3 * n2:])
                    chunk[2:] = new, us_new
                    for j, norm in zip(ids.tolist(), norms.tolist()):
                        history[j].append(norm)
                    hit = ids[(norms <= ctx.tol) & ~converged[ids]]
                    converged[hit] = True
                    iterations[hit] = n
                    t_norm += time.perf_counter() - tf
            if converged[start:stop].all():
                break
        t_solve += time.perf_counter() - t1
        done.extend((ids, xa, usa) for ids, _, xa, usa in chunks)
        # the group's factors go before the next group's are made, and only
        # `done` holds its blocks
        del chunks, chunk, su, xa, usa, new, us_new
    iterations[~converged] = ctx.max_iters
    x, us = np.empty((m, J)), np.empty((space_s.n_dofs, J))
    while done:         # each piece goes once it is written
        ids, xa, usa = done.pop()
        x[:, ids], us[:, ids] = xa, usa

    t_rhs, t_trisolve, t_trace = t_phases.tolist()
    g_S, g_D, g_tau, ud = split_block(x, n2)
    return SolveReport(us=us.T, ud=ud.T, iterations=iterations,
                       converged=converged, lag_ratio=lag_ratio, norm_history=history,
                       t_assembly=t_assembly, t_factor=t_factor, t_solve=t_solve,
                       t_rhs=t_rhs, t_trisolve=t_trisolve, t_trace=t_trace, t_norm=t_norm,
                       n_factorizations=factorization_count() - nfact0, lu_nnz=lu_nnz,
                       space_s=space_s, space_d=space_d, iface_s=iface_s, iface_d=iface_d,
                       state=(g_S, g_D, g_tau))


def check_converged_residual(report, ctx, bc):
    """Each sample's residual in the coupled fixed-point system of its own
    coefficients (xi_j, K_j^-1, k_j^min), formed equation by equation from
    the report's solutions and traces and its interface operators:

        Stokes rows   stokes_matrix(delta_S, 0) u_S - load_n g_S - b_S
                      + xi_j load_tau (tangential u_D - trace_tau u_S)
        Darcy rows    darcy_matrix(K_j^-1, k_j^min) u_D - load_D g_D - b_D
        trace rows    g_S - g_D - (delta_S + delta_D) u_D.n_D + g z
                      g_D - g_S - (delta_S + delta_D) u_S.n_S - g z

    with b_S, b_D the forcing and natural head data.  The slip term
    xi_j <u.tau, v.tau> of each sample's Stokes matrix is -xi_j load_tau
    trace_tau, so the Stokes rows of all samples share one matrix; the
    per-sample Darcy matrices keep the check independent of the iteration's
    lag terms.  The Stokes Dirichlet
    and Darcy essential rows are x - data instead (zero data on the
    essential rows).  Returns ||r_j|| / ||b_j|| per sample, b_j the
    right-hand side of all these rows (the trace rows' -g z and g z, the
    boundary data on the fixed rows), or ||r_j|| where b_j = 0.  At a fixed
    point of the iteration every r_j is 0, so tightening the iteration
    tolerance tightens this."""
    space_s, space_d = report.space_s, report.space_d
    info_s, info_d = report.iface_s, report.iface_d
    samples, J = ctx.samples, ctx.J
    us, ud = report.us.T, report.ud.T                  # (n_dofs, J) blocks
    g_S, g_D, _ = report.state
    xi = np.array([s.xi for s in samples])
    dsum, gz = ctx.delta_s + ctx.delta_d, ctx.g * ctx.z

    b_s = np.column_stack([assemble_stokes_volume_rhs(space_s, s.f_S) for s in samples])
    b_d = np.column_stack([_darcy_sample_rhs(space_d, s, bc, j, ctx.g)
                           for j, s in enumerate(samples)])
    n2 = len(g_S)
    slip = xi * (info_d.tangential @ ud - info_s.trace[n2:] @ us)
    r_s = (stokes_matrix(StokesElements(space_s, ctx.nu, info_s), ctx.delta_s, 0.0) @ us
           + info_s.load @ np.concatenate([-g_S, slip]) - b_s)
    r_d = -(info_d.load @ g_D) - b_d
    for j, s in enumerate(samples):
        r_d[:, j] += darcy_matrix(space_d, ctx.g, inverse_diagonal(space_d, s.K), s.k_min,
                                  ctx.delta_d, info_d) @ report.ud[j]
    b_s[space_s.fixed] = np.column_stack([stokes_dirichlet_values(space_s, bc.stokes_values, j)
                                          for j in range(J)])
    b_d[space_d.fixed] = 0.0
    r_s[space_s.fixed] = us[space_s.fixed] - b_s[space_s.fixed]
    r_d[space_d.fixed] = ud[space_d.fixed]
    jump = g_S - g_D
    r = np.linalg.norm(np.vstack([r_s, r_d, jump - dsum * (info_d.normal @ ud) + gz,
                                  -jump - dsum * (info_s.trace[:n2] @ us) - gz]), axis=0)
    b = np.linalg.norm(np.vstack([b_s, b_d, np.full((2 * n2, J), gz)]), axis=0)
    return np.divide(r, b, out=r.copy(), where=b > 0)
