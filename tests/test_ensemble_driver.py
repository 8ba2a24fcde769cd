import gc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from ensddm import fields
from ensddm.bench_cli import (manufactured_meshes, manufactured_samples,
                              manufactured_bc, resolve_delta_d, ScenarioConfig,
                              channel_meshes, channel_samples, channel_bc,
                              scenario_context)
from ensddm.fields import ConstantConductivity, MeanInverseField
from ensddm.ensemble_driver import (make_sample, make_context, BoundaryConditions,
                                    EnsembleDiagnostics,
                                    run_ensemble_ddm, run_traditional_ddm,
                                    check_converged_residual, _setup, sweep,
                                    stokes_dirichlet_values, _darcy_sample_rhs)
from ensddm.stokes_fem import (build_stokes_space, StokesElements, StokesInterfaceInfo,
                               assemble_stokes_volume_rhs, stokes_matrix)
from ensddm.darcy_fem import (build_darcy_space, DarcyInterfaceInfo, darcy_matrix,
                              inverse_diagonal)
from ensddm.mesh import Rect, build_rect_mesh, pair_interface
from ensddm.norms import error_norms


def run_data(ctx, mesh_s, mesh_d, pairing, bc):
    """What a run of `ctx` builds for `bc` before its groups: the Stokes
    element data (with its space and interface operator), the Darcy space
    and its interface operator."""
    space_s = build_stokes_space(mesh_s, dirichlet_tags=bc.stokes_dirichlet_tags,
                                 pressure_multiplier=bc.stokes_pressure_multiplier)
    space_d = build_darcy_space(mesh_d, essential_tags=bc.darcy_essential_tags)
    return (StokesElements(space_s, ctx.nu, StokesInterfaceInfo(space_s, pairing)), space_d,
            DarcyInterfaceInfo(space_d, pairing))


def _monolithic_system(report, ctx, bc, j):
    """The coupled fixed-point system of sample j as (CSR matrix, vector).

    Unknowns: [stokes dofs | darcy dofs | g_S endpoints | g_D endpoints].
    The diagonal blocks are `stokes_matrix` and `darcy_matrix` with sample
    j's coefficients (xi_j, K_j^{-1}, k_j^{min}) in place of the ensemble
    means.  The couplings are the run's interface operators (`report.iface_s`,
    `iface_d`; the diagonal blocks read them too): the traces enter the
    subdomain rows through the `load` operators, the
    Darcy tangential velocity through xi_j times the Stokes slip load, and
    the trace rows are the two affine interface updates at their fixed
    point.  Dirichlet and essential rows are identity rows with the
    boundary data (zero on the essential rows).
    """
    space_s, space_d = report.space_s, report.space_d
    info_s, info_d = report.iface_s, report.iface_d
    sample = ctx.samples[j]
    nS = space_s.n_dofs
    n2 = info_d.normal.shape[0]

    dsum = ctx.delta_s + ctx.delta_d
    eye = sp.identity(n2)
    A = sp.bmat([
        [stokes_matrix(StokesElements(space_s, ctx.nu, info_s), ctx.delta_s, sample.xi),
         sample.xi * info_s.load[:, n2:] @ info_d.tangential, -info_s.load[:, :n2], None],
        [None, darcy_matrix(space_d, ctx.g, inverse_diagonal(space_d, sample.K),
                            sample.k_min, ctx.delta_d, info_d), None, -info_d.load],
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


def small_setup(k_list=(2.21,), h=1 / 8, tol=1e-6, max_iters=200, delta_s=1.0):
    cfg = ScenarioConfig(k_list=k_list)
    mesh_s, mesh_d, pairing = manufactured_meshes(h)
    samples, exacts = manufactured_samples(cfg, mesh_d)
    delta_d = resolve_delta_d(cfg, pairing.length, h)
    ctx, diag = make_context(samples, delta_s=delta_s, delta_d=delta_d,
                             tol=tol, max_iters=max_iters)
    bc = manufactured_bc(exacts)
    return ctx, diag, mesh_s, mesh_d, pairing, bc, exacts


def test_make_context_single_sample():
    s = make_sample(ConstantConductivity(2.21), alpha=1.0)
    ctx, diag = make_context([s])
    assert diag == EnsembleDiagnostics(xi_bar=s.xi, kbar_min=s.k_min)


def test_make_context_reference_means():
    samples = [make_sample(ConstantConductivity(k)) for k in (2.21, 4.11, 6.21)]
    ctx, diag = make_context(samples)
    expect = (1 / 2.21 + 1 / 4.11 + 1 / 6.21) / 3
    assert diag.kbar_min == pytest.approx(expect, rel=1e-12)
    assert diag.kbar_min == pytest.approx(0.28561, abs=5e-6)
    assert samples[0].xi == pytest.approx(1 / np.sqrt(2.21), rel=1e-12)
    assert samples[0].xi == pytest.approx(0.67267, abs=5e-6)


def test_make_context_rejects_empty_and_bad_settings():
    with pytest.raises(ValueError):
        make_context([])
    # a run with these would spin to max_iters or return unswept zeros
    one = [make_sample(ConstantConductivity(2.21))]
    for bad in (dict(tol=np.nan), dict(tol=-1.0), dict(tol=0.0), dict(tol=np.inf),
                dict(max_iters=0), dict(max_iters=2.5), dict(max_iters=3.0), dict(max_iters=True),
                dict(delta_s=np.nan), dict(delta_d=np.nan), dict(delta_s=np.inf),
                dict(z=np.nan), dict(z=np.inf), dict(nu=0.0), dict(g=np.inf)):
        with pytest.raises(ValueError):
            make_context(one, **bad)
    ctx, _ = make_context(one, max_iters=np.int64(3))
    assert ctx.max_iters == 3


def _spread_run(run, k_list=(1.0, 1.0, 0.1), alpha=1.0):
    """A one-iteration zero-data run of constant-conductivity samples."""
    mesh_s, mesh_d, pairing = manufactured_meshes(1 / 4)
    samples = [make_sample(ConstantConductivity(k), alpha=alpha) for k in k_list]
    ctx, _ = make_context(samples, max_iters=1)
    return run(ctx, mesh_s, mesh_d, pairing, BoundaryConditions())


def test_large_spread_warns_from_the_run_not_the_context():
    # inverse tensors {1, 1, 10}: the mean is 4, so the lag weights are
    # 3/4, 3/4 and 6/4 of it; the slip coefficients {1, 1, 10^0.5} lag less
    samples = [make_sample(ConstantConductivity(k)) for k in (1.0, 1.0, 0.1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_context(samples)
    with pytest.warns(RuntimeWarning, match="sample 2 has lag ratio 1.5 >= 1"):
        rep = _spread_run(run_ensemble_ddm)
    assert rep.lag_ratio == pytest.approx([0.75, 0.75, 1.5], rel=1e-12)


def test_baseline_lag_ratio_is_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = _spread_run(run_traditional_ddm)
    assert rep.lag_ratio.shape == (3,) and not rep.lag_ratio.any()


def test_lag_ratio_without_slip():
    # alpha = 0: every slip coefficient and their mean are 0
    rep = _spread_run(run_ensemble_ddm, k_list=(2.21, 4.11), alpha=0.0)
    assert np.isfinite(rep.lag_ratio).all() and rep.lag_ratio.min() > 0


def test_lag_ratio_bounds_the_measured_rate_from_above():
    # KL sigma 0.15, seed 11: the draws span lag ratios 0.2-1.03; where the
    # ratio exceeds the Robin part's rate (about 0.45 here), a sample's
    # rate over its last 10 iterations is just below its ratio
    cfg = ScenarioConfig(J=64, seed=11, field_sigma=0.15, max_iters=60)
    mesh_s, mesh_d, pairing = channel_meshes(1 / 8)
    samples, _, _ = channel_samples(cfg, mesh_d)
    ctx, _ = scenario_context(cfg, samples, resolve_delta_d(cfg, pairing.length, 1 / 8))
    with pytest.warns(RuntimeWarning, match="lag ratio 1.03"):
        rep = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, channel_bc(),
                               per_sample_stop=True)
    high = np.flatnonzero(rep.lag_ratio > 0.6)
    assert len(high) == 4
    for j in high:
        norms = rep.norm_history[j]
        rate = (norms[-1] / norms[-11]) ** 0.1
        assert rep.lag_ratio[j] - 0.05 <= rate <= rep.lag_ratio[j]


@pytest.mark.parametrize("J", [8, 32])
def test_channel_setup_field_evaluations_grow_linearly(monkeypatch, J):
    # each sample's field once at its distinct heights and the interface
    # (make_sample) and once for its inverse at the distinct heights of the
    # quadrature points (the run's set-up); make_context evaluates no field
    calls = []      # the number of heights of each call
    evaluate_k = fields.evaluate_k
    monkeypatch.setattr(fields, "evaluate_k",
                        lambda spec, draw, y: calls.append(np.size(y)) or evaluate_k(spec, draw, y))
    mean_calls = [_count_calls(monkeypatch, MeanInverseField, name)
                  for name in ("__init__", "inv_diag", "inv_tensor")]
    mesh_s, mesh_d, pairing = channel_meshes(1 / 8)
    samples, _, _ = channel_samples(ScenarioConfig(J=J), mesh_d)
    assert len(calls) == J
    ctx, _ = make_context(samples, max_iters=1)
    assert len(calls) == J
    report = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, channel_bc())
    assert len(calls) == 2 * J
    assert not any(mean_calls)
    assert max(calls) <= len(report.space_d.heights) + 1


class _NegativeOnInterface(fields.ConductivityField):
    """-1 at y = 0, 1 elsewhere."""

    def diag(self, y):
        k = np.where(np.asarray(y) == 0.0, -1.0, 1.0)
        return k, k.copy()


def test_make_sample_rejects_non_spd():
    # a negative alpha gives a negative slip coefficient; NaN and inf fail
    # only later, in the assembly
    for alpha in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            make_sample(ConstantConductivity(2.21), alpha=alpha)
    with pytest.raises(ValueError):
        make_sample(ConstantConductivity(1.0, -1.0))
    with pytest.raises(ValueError, match="not SPD"):
        make_sample(ConstantConductivity(-1.0), scan_points=np.array([[0.5, -0.5], [1.0, -1.0]]))
    # positive at every scan point, but not at the interface height that
    # gives the slip coefficient
    with pytest.raises(ValueError, match="not SPD"):
        make_sample(_NegativeOnInterface(), interface_y=0.0,
                    scan_points=np.array([[0.5, -0.5], [1.0, -0.25]]))
    with pytest.raises(ValueError, match="not SPD"):
        make_sample(ConstantConductivity(np.nan))


def _zero_problem_ctx(h=1 / 8):
    mesh_s, mesh_d, pairing = manufactured_meshes(h)
    samples = [make_sample(ConstantConductivity(2.21))]  # zero forcing fields
    ctx, _ = make_context(samples, delta_s=1.0, delta_d=2.0, tol=1e-6)
    return ctx, mesh_s, mesh_d, pairing


def test_zero_problem_converges_first_sweep_to_zero():
    ctx, mesh_s, mesh_d, pairing = _zero_problem_ctx()
    bc = BoundaryConditions()  # zero data everywhere, no natural head
    report = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert list(report.iterations) == [1]
    assert report.converged.all()
    assert not report.us.any()
    assert not report.ud.any()


def test_exactly_two_factorizations_per_ensemble_run():
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11, 6.21))
    report = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert report.n_factorizations == 2
    trad = run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert trad.n_factorizations == 2 * ctx.J


def test_lu_nnz_counts_both_factors_and_sums_over_baseline_samples():
    from ensddm.darcy_fem import assemble_darcy_operator, inverse_diagonal
    from ensddm.stokes_fem import assemble_stokes_operator

    ctx, diag, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11))
    rep = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    kbar_w = inverse_diagonal(rep.space_d, MeanInverseField([s.K for s in ctx.samples]))
    op_s = assemble_stokes_operator(StokesElements(rep.space_s, ctx.nu, rep.iface_s),
                                    ctx.delta_s, diag.xi_bar)
    op_d = assemble_darcy_operator(rep.space_d, ctx.g, kbar_w, diag.kbar_min, ctx.delta_d,
                                   rep.iface_d)
    assert rep.lu_nnz == op_s.factorization.nnz + op_d.factorization.nnz > 0
    trad = run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    singles = [make_context([s], nu=ctx.nu, g=ctx.g, z=ctx.z, alpha=ctx.alpha,
                            delta_s=ctx.delta_s, delta_d=ctx.delta_d, tol=ctx.tol,
                            max_iters=ctx.max_iters)[0] for s in ctx.samples]
    assert trad.lu_nnz == sum(run_ensemble_ddm(c, mesh_s, mesh_d, pairing, bc).lu_nnz
                              for c in singles)


@pytest.mark.parametrize("per_sample_stop", [False, True])
def test_baseline_is_its_single_sample_ensemble_runs_bitwise(per_sample_stop):
    ctx, _, mesh_s, mesh_d, pairing, bc, exacts = small_setup(k_list=(2.21, 4.11, 6.21))
    trad = run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc, per_sample_stop)
    assert trad.n_factorizations == 2 * ctx.J
    lu_nnz = 0
    for j, (s, exact) in enumerate(zip(ctx.samples, exacts)):
        single, _ = make_context([s], nu=ctx.nu, g=ctx.g, z=ctx.z, alpha=ctx.alpha,
                                 delta_s=ctx.delta_s, delta_d=ctx.delta_d, tol=ctx.tol,
                                 max_iters=ctx.max_iters)
        ens = run_ensemble_ddm(single, mesh_s, mesh_d, pairing, manufactured_bc([exact]),
                               per_sample_stop)
        lu_nnz += ens.lu_nnz
        assert np.array_equal(trad.us[j], ens.us[0])
        assert np.array_equal(trad.ud[j], ens.ud[0])
        assert trad.iterations[j] == ens.iterations[0]
        assert trad.converged[j] == ens.converged[0]
        assert trad.norm_history[j] == ens.norm_history[0]
        for got, want in zip(trad.state, ens.state):
            assert np.array_equal(got[:, j], want[:, 0])
    assert trad.lu_nnz == lu_nnz


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(1) or fn(*a, **kw))
    return calls


def test_baseline_builds_each_space_once(monkeypatch):
    from ensddm import ensemble_driver
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11, 6.21))
    calls = [_count_calls(monkeypatch, ensemble_driver, name)
             for name in ("build_stokes_space", "build_darcy_space")]
    run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert [len(c) for c in calls] == [1, 1]


@pytest.mark.parametrize("run", [run_ensemble_ddm, run_traditional_ddm])
def test_each_interface_operator_is_built_once_per_run(monkeypatch, run):
    # every group's operators and the residual check read the run's two
    # interface operators; the baseline runs one group per sample
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11, 6.21), h=1 / 4)
    calls = [_count_calls(monkeypatch, cls, "__init__")
             for cls in (StokesInterfaceInfo, DarcyInterfaceInfo)]
    report = run(ctx, mesh_s, mesh_d, pairing, bc)
    assert [len(c) for c in calls] == [1, 1]
    check_converged_residual(report, ctx, bc)
    assert [len(c) for c in calls] == [1, 1]


@pytest.mark.parametrize("k_list", [(2.21,), (2.21, 4.11, 6.21, 8.5)])
def test_baseline_builds_the_stokes_element_blocks_once(monkeypatch, k_list):
    # the run's StokesElements serves every group, and the residual check
    # makes its own once for all samples
    from ensddm import stokes_fem
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=k_list, h=1 / 4)
    calls = [_count_calls(monkeypatch, stokes_fem, name)
             for name in ("deformation_element_matrices", "div_element_matrices")]
    report = run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert [len(c) for c in calls] == [1, 1]
    check_converged_residual(report, ctx, bc)
    assert [len(c) for c in calls] == [2, 2]


@pytest.mark.parametrize("run", [run_ensemble_ddm, run_traditional_ddm])
def test_last_group_sweeps_without_the_stokes_element_data(monkeypatch, run):
    # the run drops its StokesElements once the last group is set up, so
    # the ensemble's one group never sweeps with it alive
    from ensddm import ensemble_driver
    made, alive = [], []

    class Recorded(StokesElements):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    def watched(*args):
        alive.append(made[0]() is not None)
        return sweep(*args)

    monkeypatch.setattr(ensemble_driver, "StokesElements", Recorded)
    monkeypatch.setattr(ensemble_driver, "sweep", watched)
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11, 6.21), h=1 / 4)
    report = run(ctx, mesh_s, mesh_d, pairing, bc)
    assert len(made) == 1 and not alive[-1]
    last = report.iterations[-1] if run is run_traditional_ddm else len(alive)
    assert alive == [True] * (len(alive) - last) + [False] * last


def test_inverse_diagonal_evaluated_once_per_sample(monkeypatch):
    # the group means and the lag weights share each sample's evaluation
    from ensddm import ensemble_driver
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11, 6.21))
    calls = _count_calls(monkeypatch, ensemble_driver, "inverse_diagonal")
    for run in (run_ensemble_ddm, run_traditional_ddm):
        calls.clear()
        run(ctx, mesh_s, mesh_d, pairing, bc)
        assert len(calls) == ctx.J


def test_baseline_makes_no_context(monkeypatch):
    from ensddm import ensemble_driver
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11))
    calls = _count_calls(monkeypatch, ensemble_driver, "make_context")
    run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert not calls


def test_lag_term_runs_only_for_nonzero_lag_weights(monkeypatch):
    # one-sample groups have zero lag weights and skip the term; a group of
    # distinct samples adds it on every sweep
    from ensddm import ensemble_driver
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11))
    calls = _count_calls(monkeypatch, ensemble_driver, "add_darcy_lag_rhs")
    run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert not calls
    report = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert len(calls) == max(len(h) for h in report.norm_history) > 1


def test_one_sample_group_has_zero_lag_weights():
    # a one-sample group's means are the sample's own coefficients
    mesh_s, mesh_d, pairing = channel_meshes(1 / 4)
    samples, _, _ = channel_samples(ScenarioConfig(J=3), mesh_d)
    ctx, _ = make_context(samples)
    bc = channel_bc()
    su, ratio = _setup(ctx, ctx.samples[1:2], *run_data(ctx, mesh_s, mesh_d, pairing, bc), bc,
                       range(1, 2))
    assert su.lag_w.shape[1] == su.dxi.size == ratio.size == 1
    assert not su.lag_w.any() and not su.dxi.any() and not ratio.any()
    assert not su.has_lag


def test_single_sample_reduction_is_bitwise():
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(4.11,))
    ens = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    trad = run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert np.array_equal(ens.us, trad.us)
    assert np.array_equal(ens.ud, trad.ud)
    assert np.array_equal(ens.iterations, trad.iterations)
    assert ens.norm_history[0] == trad.norm_history[0]


def test_degenerate_ensemble_identical_across_samples():
    # two identical samples: exact means, identically-zero lag coefficients
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 2.21))
    report = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert np.array_equal(report.us[0], report.us[1])
    assert np.array_equal(report.ud[0], report.ud[1])
    assert report.norm_history[0] == report.norm_history[1]


def test_degenerate_ensemble_matches_traditional_bitwise():
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 2.21))
    ens = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    trad = run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert np.array_equal(ens.us, trad.us)
    assert np.array_equal(ens.ud, trad.ud)


def test_ensemble_and_traditional_agree_at_convergence():
    ctx, _, mesh_s, mesh_d, pairing, bc, exacts = small_setup(
        k_list=(2.21, 4.11, 6.21), tol=1e-8, max_iters=300)
    ens = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    trad = run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert ens.converged.all() and trad.converged.all()
    for j in range(3):
        du = ens.space_s.velocity_l2(ens.us[j] - trad.us[j])
        dd = ens.space_d.velocity_l2(ens.ud[j] - trad.ud[j])
        assert np.hypot(du, dd) <= 10 * ctx.tol


def test_geometric_decay_of_stopping_norms():
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(
        k_list=(2.21, 4.11, 6.21), tol=1e-6, max_iters=300)
    report = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    for hist in report.norm_history:
        tail = np.log(np.array(hist[-10:]))
        slope = np.polyfit(np.arange(10), tail, 1)[0]
        assert slope < 0


def test_monolithic_residual_tracks_tolerance():
    ctx6, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(
        k_list=(2.21, 4.11), tol=1e-6, max_iters=300)
    rep6 = run_ensemble_ddm(ctx6, mesh_s, mesh_d, pairing, bc)
    res6 = check_converged_residual(rep6, ctx6, bc)
    assert np.all(res6 <= 1e-4)
    ctx10, _, *_ = small_setup(k_list=(2.21, 4.11), tol=1e-10, max_iters=400)
    rep10 = run_ensemble_ddm(ctx10, mesh_s, mesh_d, pairing, bc)
    res10 = check_converged_residual(rep10, ctx10, bc)
    assert np.all(res10 <= res6 / 100.0)


def converged_run(scenario, tol):
    """An ensemble run of two samples converged to `tol`: manufactured
    (Dirichlet lift, natural head data) or channel (Darcy essential rows,
    z = 0.3), with its context and boundary data."""
    if scenario == "manufactured":
        ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(
            k_list=(2.21, 4.11), tol=tol, max_iters=400)
    else:
        mesh_s, mesh_d, pairing = channel_meshes(1 / 8)
        samples, _, _ = channel_samples(ScenarioConfig(J=2), mesh_d)
        ctx, _ = make_context(samples, delta_s=1.0, delta_d=2.0, z=0.3,
                              tol=tol, max_iters=400)
        bc = channel_bc()
    report = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert report.converged.all()
    return ctx, bc, report


@pytest.mark.parametrize("scenario", ["manufactured", "channel"])
def test_coupled_system_solution_is_the_converged_iterate(scenario):
    # the residual check must use the system the iteration converges to:
    # its direct solution reproduces a tightly converged ensemble run
    ctx, bc, report = converged_run(scenario, 1e-10)
    n_s, n_d = report.space_s.n_dofs, report.space_d.n_dofs
    for j in range(ctx.J):
        A, b = _monolithic_system(report, ctx, bc, j)
        x = spsolve(A.tocsc(), b)
        du = report.space_s.velocity_l2(x[:n_s] - report.us[j])
        dd = report.space_d.velocity_l2(x[n_s:n_s + n_d] - report.ud[j])
        assert np.hypot(du, dd) <= 1e-8


@pytest.mark.parametrize("scenario", ["manufactured", "channel"])
def test_residual_check_equals_coupled_system_away_from_convergence(scenario):
    # near convergence every residual is about the tolerance, where a dropped
    # term or a wrong sign hides; on a moved state each term counts
    ctx, bc, report = converged_run(scenario, 1e-6)
    rng = np.random.default_rng(3)
    moved = replace(report, us=report.us + 1e-3 * rng.standard_normal(report.us.shape),
                    ud=report.ud + 1e-3 * rng.standard_normal(report.ud.shape),
                    state=tuple(b + 1e-3 * rng.standard_normal(b.shape) for b in report.state))
    expect = np.empty(ctx.J)
    for j in range(ctx.J):
        A, b = _monolithic_system(moved, ctx, bc, j)
        x = np.concatenate([moved.us[j], moved.ud[j], moved.state[0][:, j],
                            moved.state[1][:, j]])
        expect[j] = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
    assert np.all(expect > 1e-3)
    np.testing.assert_allclose(check_converged_residual(moved, ctx, bc), expect, rtol=1e-12)


def test_baseline_report_residual_covers_every_sample():
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(
        k_list=(2.21, 4.11, 6.21), tol=1e-8, max_iters=300)
    trad = run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    for trace in trad.state:
        assert trace.shape == (2 * pairing.n_pairs, 3)
    res = check_converged_residual(trad, ctx, bc)
    assert res.shape == (3,) and np.all(res <= 1e-6)


def test_monolithic_residual_zero_problem():
    ctx, mesh_s, mesh_d, pairing = _zero_problem_ctx()
    bc = BoundaryConditions()
    report = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    res = check_converged_residual(report, ctx, bc)
    assert np.all(res == 0.0)


def test_interface_state_shapes_and_report_fields():
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11))
    report = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    assert report.us.shape == (2, report.space_s.n_dofs)
    assert report.ud.shape == (2, report.space_d.n_dofs)
    for trace in report.state:
        assert trace.shape == (2 * pairing.n_pairs, 2)
        # row views of the run's one iterate block, which ends in ud
        assert trace.base is not None and trace.base is report.ud.base
    assert report.t_assembly > 0 and report.t_factor > 0 and report.t_solve > 0
    assert report.converged.all()


@pytest.mark.parametrize("run", [lambda *a: run_ensemble_ddm(*a, per_sample_stop=True),
                                 run_traditional_ddm], ids=["ensemble", "traditional"])
def test_stokes_fixed_rows_hold_each_samples_exact_velocity(run):
    ctx, _, mesh_s, mesh_d, pairing, bc, exacts = small_setup(k_list=(2.21, 4.11, 6.21))
    report = run(ctx, mesh_s, mesh_d, pairing, bc)
    space = report.space_s
    pts = mesh_s.verts[space.dirichlet_nodes]
    assert len(space.fixed) == 2 * len(pts) > 0
    for j, ms in enumerate(exacts):
        u = ms.u_S(pts)
        assert np.array_equal(report.us[j][space.dirichlet_nodes], u[:, 0])
        assert np.array_equal(report.us[j][space.n_comp + space.dirichlet_nodes], u[:, 1])


def test_channel_darcy_fixed_rows_are_zero():
    mesh_s, mesh_d, pairing = channel_meshes(1 / 8)
    samples, _, _ = channel_samples(ScenarioConfig(J=3), mesh_d)
    ctx, _ = make_context(samples, delta_s=1.0, delta_d=2.0, tol=1e-6, max_iters=50)
    report = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, channel_bc())
    fixed = report.space_d.fixed
    assert len(fixed) > 0
    assert not report.ud[:, fixed].any()


def test_per_sample_stop_freezes_converged_samples():
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(
        k_list=(2.21, 4.11, 6.21), tol=1e-6)
    rep = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc, per_sample_stop=True)
    assert rep.converged.all()
    lengths = [len(h) for h in rep.norm_history]
    assert lengths == [int(i) for i in rep.iterations]


def test_rerun_is_bitwise_deterministic():
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11, 6.21))
    for stop in (False, True):
        a = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc, per_sample_stop=stop)
        b = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc, per_sample_stop=stop)
        assert np.array_equal(a.us, b.us)
        assert np.array_equal(a.ud, b.ud)
        assert np.array_equal(a.iterations, b.iterations)
        assert a.norm_history == b.norm_history


def test_loop_phase_timers():
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11))
    for run in (run_ensemble_ddm, run_traditional_ddm):
        rep = run(ctx, mesh_s, mesh_d, pairing, bc)
        phases = (rep.t_rhs, rep.t_trisolve, rep.t_trace, rep.t_norm)
        assert all(t >= 0.0 for t in phases)
        assert sum(phases) <= rep.t_solve


def test_per_sample_stop_leaves_frozen_columns_bitwise():
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(
        k_list=(2.21, 4.11, 6.21), tol=1e-6)
    full = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc, per_sample_stop=True)
    first = int(full.iterations.min())
    assert first < full.iterations.max()      # some columns go on after it
    # the same run cut off at the first convergence: the iterations up to
    # there are the same, so a frozen column must not have moved since
    ctx_cut, _ = make_context(ctx.samples, delta_s=ctx.delta_s, delta_d=ctx.delta_d,
                              tol=ctx.tol, max_iters=first)
    cut = run_ensemble_ddm(ctx_cut, mesh_s, mesh_d, pairing, bc, per_sample_stop=True)
    frozen = np.flatnonzero(full.iterations == first)
    for j in frozen:
        assert np.array_equal(full.us[j], cut.us[j])
        assert np.array_equal(full.ud[j], cut.ud[j])
        for got, want in zip(full.state, cut.state):
            assert np.array_equal(got[:, j], want[:, j])
        assert full.norm_history[j] == cut.norm_history[j]


def final_block(report):
    """A run's final iterate block [g_S; g_D; g_tau; ud], (m, J)."""
    return np.concatenate([*report.state, report.ud.T])


def test_sweep_continues_a_cut_run_bitwise():
    # lockstep runs of n and n + 1 iterations: one sweep from the first
    # run's final block gives the second run's block and Stokes solutions
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11, 6.21))
    n = 5
    cut, full = (run_ensemble_ddm(replace(ctx, max_iters=m), mesh_s, mesh_d, pairing, bc)
                 for m in (n, n + 1))
    assert not full.converged.any()
    su, _ = _setup(ctx, ctx.samples, *run_data(ctx, mesh_s, mesh_d, pairing, bc), bc,
                   range(ctx.J))
    x, us, _ = sweep(su, final_block(cut))
    assert x.shape == (6 * pairing.n_pairs + su.space_d.n_dofs, ctx.J) and x.flags.c_contiguous
    assert np.array_equal(x, final_block(full))
    assert np.array_equal(us, full.us.T)


def test_sweep_is_affine():
    mesh_s, mesh_d, pairing = channel_meshes(1 / 8)
    samples, _, _ = channel_samples(ScenarioConfig(J=2), mesh_d)
    ctx, _ = make_context(samples, delta_s=1.0, delta_d=2.0)
    bc = channel_bc()
    su, _ = _setup(ctx, ctx.samples, *run_data(ctx, mesh_s, mesh_d, pairing, bc), bc,
                   range(ctx.J))
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((2, 6 * pairing.n_pairs + su.space_d.n_dofs, ctx.J))
    a = 0.3
    (nx, ux, _), (ny, uy, _), (nz, uz, _) = (sweep(su, b) for b in (x, y, a * x + (1 - a) * y))
    # the next block and the Stokes block, each affine in the block
    for got, p, q in ((nz, nx, ny), (uz, ux, uy)):
        want = a * p + (1 - a) * q
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(p - q) > 0.1 * np.linalg.norm(want)    # not constant


@pytest.mark.parametrize("per_sample_stop", [False, True])
def test_each_group_drops_its_factors_before_the_next_set_up(monkeypatch, per_sample_stop):
    # the per-sample baseline holds one group's operators at a time: when a
    # group is set up, both operators of the one before are unreachable
    from ensddm import ensemble_driver
    made, alive = [], []

    def watched(*args):
        gc.collect()
        alive.append([op() is not None for op in made])
        su, ratio = _setup(*args)
        made[:] = [weakref.ref(su.op_s), weakref.ref(su.op_d)]
        return su, ratio

    monkeypatch.setattr(ensemble_driver, "_setup", watched)
    ctx, _, mesh_s, mesh_d, pairing, bc, _ = small_setup(k_list=(2.21, 4.11, 6.21), h=1 / 4)
    run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc, per_sample_stop)
    assert alive == [[]] + [[False, False]] * (ctx.J - 1)
