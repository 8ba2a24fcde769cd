"""One benchmark workload in its own process (started by run.py).

A closed loop with one caller: each repetition builds the inputs from the
seed (timed as set-up), makes the single call into the ensemble driver
(timed as solve) and checks the outputs (untimed).  Repetitions continue
until the time budget is spent; end-to-end values are medians over them.
Each repetition is bracketed by runs of a fixed reference kernel
(calibrate.py) and its times are scaled to the kernel's reference speed,
which takes out the drift in speed of the shared host.  A first, untimed
repetition warms caches and gives the peak RSS.
With tracing on, untraced and traced repetitions alternate, so the per-layer
numbers and the tracing overhead come from the same inputs.

Prints one JSON object as the last line of standard output.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

from ensddm import (bench_cli, ensemble_driver, fields, manufactured, norms,
                    random_field, robin_params)

import calibrate
import tracing


@dataclasses.dataclass(frozen=True)
class Workload:
    geometry: str          # "manufactured" or "channel"
    per_sample: bool       # run_traditional_ddm (2J factorizations) instead of the ensemble
    per_sample_stop: bool
    h: float
    J: int
    err_bound: float       # largest accepted err_rel_max, fixed from the seed code


# J is scaled down from the ROADMAP's 40, 160 and 8 so that a repetition
# takes 3-5 s on one core and a run holds several; each workload keeps its
# dominant layer.  manufactured_shared stops samples one by one: in lockstep
# the run lasts as long as its slowest sample, which moves solve_s by up to
# 20% from seed to seed.  err_bound is about 1.1x (manufactured) and 2.3x
# (channel residual) the largest value seen at the seed code over 20 seeds.
WORKLOADS = {
    "manufactured_shared": Workload("manufactured", False, True, 1 / 32, 12, 5.5e-4),
    "channel_mc": Workload("channel", False, True, 1 / 8, 48, 2e-5),
    "per_sample_baseline": Workload("manufactured", True, False, 1 / 32, 4, 5.5e-4),
}
# The smoke-test size, with the err_rel_max bound of its coarse mesh.
TINY = dict(h=1 / 4, J=2)
TINY_ERR_BOUND = {"manufactured": 3.5e-2, "channel": 2e-5}
# KL amplitude of the conductivity draws.  At the package default 0.15 about
# 0.3% of channel draws reach k_min < 0.5, where the shared-mean iteration
# needs 80+ iterations or never converges, so a random seed fails the run;
# at 0.10 the smallest k_min in 2e6 draws is 0.585.
FIELD_SIGMA = 0.10
MIN_REPS = 3               # set-up is timed at least this often
MAX_WALL_S = 150.0         # never start a repetition after this


@dataclasses.dataclass
class Case:
    ctx: object
    mesh_s: object
    mesh_d: object
    pairing: object
    bc: object
    exacts: list


def setup(w, seed):
    """Meshes, draws, samples, delta_D and the ensemble context."""
    cfg = bench_cli.ScenarioConfig(seed=seed, J=w.J, field_sigma=FIELD_SIGMA)
    exacts = None
    if w.geometry == "manufactured":
        # constant conductivities k_j = k(0; Y_j) with their closed-form
        # solutions, as in bench_cli.run_timing_comparison
        mesh_s, mesh_d, pairing = bench_cli.manufactured_meshes(w.h)
        spec = random_field.RandomFieldSpec(a0=cfg.field_a0, sigma=cfg.field_sigma,
                                            L_c=cfg.field_lc, n_f=cfg.field_nf)
        scan = bench_cli.darcy_scan_points(mesh_d)
        samples, exacts = [], []
        for d in random_field.draw_samples(spec, w.J, seed):
            k = float(random_field.evaluate_k(spec, d, 0.0)) * cfg.field_scale
            ms = manufactured.ManufacturedSolution(k, k, nu=cfg.nu, g=cfg.g)
            samples.append(ensemble_driver.make_sample(
                fields.ConstantConductivity(k), f_S=ms.f_S, f_D=ms.f_D,
                alpha=cfg.alpha, scan_points=scan))
            exacts.append(ms)
        bc = bench_cli.manufactured_bc(exacts)
    else:
        mesh_s, mesh_d, pairing = bench_cli.channel_meshes(w.h)
        samples, _, _ = bench_cli.channel_samples(cfg, mesh_d)
        bc = bench_cli.channel_bc()
    delta_d = bench_cli.resolve_delta_d(cfg, pairing.length, w.h)
    ctx, _ = ensemble_driver.make_context(samples, nu=cfg.nu, g=cfg.g, z=cfg.z,
                                          alpha=cfg.alpha, delta_s=cfg.delta_s,
                                          delta_d=delta_d, tol=cfg.tol,
                                          max_iters=cfg.max_iters)
    return Case(ctx, mesh_s, mesh_d, pairing, bc, exacts)


def solve(w, case):
    run = ensemble_driver.run_traditional_ddm if w.per_sample else ensemble_driver.run_ensemble_ddm
    return run(case.ctx, case.mesh_s, case.mesh_d, case.pairing, case.bc,
               per_sample_stop=w.per_sample_stop)


def check(w, case, report, errors=True):
    """(err_rel_max or None, failed sample count, problems).

    A sample fails when it did not converge or its error exceeds the bound;
    a wrong factorization count fails every sample (2 for the ensemble and
    2J per sample is the paper's cost invariant).  `errors=False` skips the
    error norms, for repetitions whose outputs equal a checked one bitwise."""
    J = case.ctx.J
    problems = []
    bad = ~np.asarray(report.converged, dtype=bool)
    if bad.any():
        problems.append(f"{int(bad.sum())} samples did not converge")
    err = None
    if errors:
        if case.exacts is not None:
            errs = np.empty(J)
            for j in range(J):
                row = norms.error_norms(report.space_s, report.space_d, report.us[j],
                                        report.ud[j], case.exacts[j], w.h)
                errs[j] = max(row.err_us_l2, row.err_ud_l2)
        else:
            errs = ensemble_driver.check_converged_residual(report, case.ctx, case.bc)
        over = errs > w.err_bound
        if over.any():
            problems.append(f"{int(over.sum())} samples exceed err bound {w.err_bound:g}")
        bad |= over
        err = float(errs.max())
    expected = 2 * J if w.per_sample else 2
    if report.n_factorizations != expected:
        problems.append(f"n_factorizations {report.n_factorizations} != {expected}")
        bad[:] = True
    return err, int(bad.sum()), problems


def fingerprint(report):
    h = hashlib.sha256(np.ascontiguousarray(report.us).tobytes())
    h.update(np.ascontiguousarray(report.ud).tobytes())
    h.update(np.asarray(report.iterations).tobytes())
    return h.hexdigest()


def convergence_metrics(w, case, report):
    """Sample-iterations executed, useful fraction, measured and predicted
    contraction; None where the report no longer carries the data."""
    hist = getattr(report, "norm_history", None)
    out = {}
    if hist:
        executed = sum(len(hs) for hs in hist)
        out["ensemble_driver.sample_iterations"] = executed
        out["ensemble_driver.useful_frac"] = float(np.sum(report.iterations)) / executed
        logs = [math.log(b / a) for hs in hist for a, b in zip(hs, hs[1:]) if a > 0 and b > 0]
        out["ensemble_driver.rho_measured"] = math.exp(sum(logs) / len(logs)) if logs else None
    ctx = case.ctx
    try:
        band = robin_params.frequency_band(case.pairing.length, w.h)
        out["robin_params.rho_predicted"] = float(
            robin_params.worst_case_rho(ctx.delta_s, ctx.delta_d, ctx.nu, band))
    except AttributeError:
        pass
    return out


def one_rep(w, seed, tracer=None, errors=True):
    """One repetition; its times are in wall seconds."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = time.perf_counter()
        case = setup(w, seed)
        t1 = time.perf_counter()
        report = solve(w, case)
        t2 = time.perf_counter()
        err, failed, problems = check(w, case, report, errors)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rep = dict(setup_s=t1 - t0, solve_s=t2 - t1, J=case.ctx.J, err=err, failed=failed,
               problems=problems, fingerprint=fingerprint(report),
               iterations=int(np.sum(report.iterations)))
    if tracer is not None:
        tracer.settle_fill()
        rep["layers"] = {**tracer.metrics(), **convergence_metrics(w, case, report)}
        rep["spans"] = tracer.spans
    return rep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", help="file for the spans of a traced run")
    ap.add_argument("--run-id", default="", help="run id stored with each span")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.tiny:
        w = dataclasses.replace(w, err_bound=TINY_ERR_BOUND[w.geometry], **TINY)
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    # warm-up: outputs must repeat bitwise, so only this repetition (and
    # the traced ones, for norms.error_norms_s) computes error norms.  Peak
    # RSS is read after it: later repetitions reuse a fragmented heap and
    # add a varying 0-20 MB.
    warm = one_rep(w, args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal = calibrate.Calibration()
    cal.run()                  # the kernel's own warm-up pass
    kernel = [cal.run()]

    def timed(tr=None, errors=False):
        rep = one_rep(w, args.seed, tr, errors)
        kernel.append(cal.run())
        rep["kernel_s"] = (kernel[-2] + kernel[-1]) / 2
        rep["scale"] = calibrate.REF_S / rep["kernel_s"]
        return rep

    plain, traced = [], []
    while True:
        cycle0 = time.perf_counter()
        plain.append(timed())
        if tracer is not None:
            traced.append(timed(tracer, errors=True))
        elapsed = time.perf_counter() - start
        cycle = time.perf_counter() - cycle0
        enough = len(plain) >= (1 if tracer else MIN_REPS)
        if (enough and elapsed + cycle > args.seconds) or elapsed + cycle > MAX_WALL_S:
            break

    reps = [warm] + plain + traced
    problems = sorted({p for r in reps for p in r["problems"]})
    if len({r["fingerprint"] for r in reps}) > 1:
        problems.append("outputs differ between repetitions of the same seed")
    attempted = sum(r["J"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    end_to_end = {
        "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in plain),
        "solve_s": statistics.median(r["solve_s"] * r["scale"] for r in plain),
        "samples_per_s": statistics.median(
            r["J"] / ((r["setup_s"] + r["solve_s"]) * r["scale"]) for r in plain),
        "peak_rss_mb": peak_rss_mb,
        "err_rel_max": max(r["err"] for r in reps if r["err"] is not None),
        "failed_frac": failed / attempted,
    }
    result = dict(workload=args.workload, seed=args.seed, h=w.h, J=w.J,
                  reps=len(plain), traced_reps=len(traced), attempted=attempted,
                  iterations=plain[0]["iterations"],
                  rep_setup_s=[r["setup_s"] for r in plain],
                  rep_solve_s=[r["solve_s"] for r in plain],
                  rep_kernel_s=[r["kernel_s"] for r in plain],
                  failed=failed, problems=problems, end_to_end=end_to_end,
                  versions=dict(python=platform.python_version(), numpy=np.__version__,
                                scipy=scipy.__version__),
                  thread_env={k: v for k, v in sorted(os.environ.items())
                              if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))})
    if traced:
        layers = {}
        for key in traced[0]["layers"]:
            vals = [r["layers"].get(key) for r in traced]
            if key.endswith("_s"):
                layers[key] = statistics.median(v * r["scale"] for v, r in zip(vals, traced))
            else:
                layers[key] = vals[0]
                if any(v != vals[0] for v in vals):
                    problems.append(f"count {key} differs between traced repetitions")
        wall = statistics.median((r["setup_s"] + r["solve_s"]) * r["scale"] for r in traced)
        base = statistics.median((r["setup_s"] + r["solve_s"]) * r["scale"] for r in plain)
        layers["trace.overhead_frac"] = (wall - base) / base
        layers["wall.setup_s"] = statistics.median(r["setup_s"] for r in plain)
        layers["wall.solve_s"] = statistics.median(r["solve_s"] for r in plain)
        layers["calibrate.kernel_s"] = statistics.median(r["kernel_s"] for r in plain)
        result["per_layer"] = layers
        result["absent_hooks"] = tracer.absent
        if args.spans:
            tracing.write_spans(args.spans, [r["spans"] for r in traced], args.workload,
                                args.run_id)
            result["spans_file"] = args.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
