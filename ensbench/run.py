"""Ensemble DDM benchmark: end-to-end and per-layer metrics of ensddm.

Run from the root of a checkout:

    python3 ensbench/run.py --workload manufactured_shared --seed 20240901 \
        --seconds 20 --trace 0
    python3 ensbench/run.py --workload all        # every workload, plus shared_speedup

Each workload runs in its own process (ensbench/workload.py) with
OpenMP/OpenBLAS/MKL threads set to 1.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Times are scaled to the speed of a fixed reference kernel run between
repetitions (calibrate.py); wall.* per-layer metrics are unscaled.
The lines before it print every metric by name and unit, and the run record
(git sha, versions, nproc, load average, thread environment) is also
written to ensbench/out/.  The exit code is non-zero when a run fails or an
output check fails.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("manufactured_shared", "channel_mc", "per_sample_baseline")
DEFAULT_SEED = 20240901
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None       # an exported checkout: source_sha256 identifies the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256(root):
    """Digest of the package sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "ensddm", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_workload(root, workload, seed, seconds, trace, tiny):
    """Run one workload process; returns (result dict, run record)."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{uuid.uuid4().hex[:6]}"
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    if trace:
        cmd += ["--spans", os.path.join(out_dir, f"spans-{workload}.jsonl"),
                "--run-id", run_id]
    load_before = loadavg()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from None
    load_after = loadavg()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: workload process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    record = dict(run_id=run_id, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  tiny=tiny, git_sha=git_sha(root), source_sha256=source_sha256(root),
                  nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                  loadavg_before=load_before, loadavg_after=load_after, result=result)
    with open(os.path.join(out_dir, f"run-{run_id}-{workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def print_run(result, record, e2e_units, layer_units):
    w = result["workload"]
    print(f"== {w}  seed={result['seed']}  h={result['h']:.6g}  J={result['J']}  "
          f"reps={result['reps']} (+{result['traced_reps']} traced)")
    print(f"   git={record['git_sha']}  src={record['source_sha256'][:12]}  "
          f"nproc={record['nproc']}  loadavg {record['loadavg_before']} -> "
          f"{record['loadavg_after']}")
    print(f"   versions={result['versions']}  env={result['thread_env']}")
    print(f"   iterations summed over samples={result['iterations']}  per repetition: "
          f"setup_s={[round(t, 4) for t in result['rep_setup_s']]} "
          f"solve_s={[round(t, 4) for t in result['rep_solve_s']]} "
          f"reference kernel_s={[round(t, 4) for t in result['rep_kernel_s']]}")
    print("   times below are seconds at the reference kernel's speed, except wall.*")
    for name, value in result["end_to_end"].items():
        print(f"   {name:<34} {value:>14.6g} {e2e_units.get(name, '1')}")
    for name, value in result.get("per_layer", {}).items():
        shown = "absent" if value is None else f"{value:>14.6g}"
        print(f"   {name:<34} {shown:>14} {layer_units.get(name, '?')}")
    if result.get("absent_hooks"):
        print(f"   absent hooks: {', '.join(result['absent_hooks'])}")
    for p in result["problems"]:
        print(f"   CHECK FAILED: {p}")


def compare_reference(result):
    """Information only: the traced counts against ensbench/reference.json,
    recorded at the seed code with the default seed."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    if result["seed"] != ref["seed"]:
        return
    expected = ref["counts"][result["workload"]]
    diffs = [f"{k}={result['per_layer'].get(k)} (reference {v})"
             for k, v in expected.items() if result["per_layer"].get(k) != v]
    print("   reference counts: " + ("; ".join(diffs) if diffs
                                      else f"all {len(expected)} match"))


def metrics_json(values, units):
    return {name: {"value": float(values.get(name) or 0.0), "unit": unit}
            for name, unit in units.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description="ensddm benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="h=1/4, J=2: the smoke-test size")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ensddm", "__init__.py")):
        print("error: run from the root of an ensddm checkout (src/ensddm missing)",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = load_spec()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in names:
            result, record = run_workload(root, w, args.seed, args.seconds, args.trace,
                                          args.tiny)
            print_run(result, record, e2e_units, layer_units)
            if args.trace and not args.tiny:
                compare_reference(result)
            results[w] = result
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = not any(r["problems"] for r in results.values())
    if args.workload == "all":
        shared = results["manufactured_shared"]
        base = results["per_sample_baseline"]
        speedup = ((base["end_to_end"]["solve_s"] / base["J"])
                   / (shared["end_to_end"]["solve_s"] / shared["J"]))
        print(f"shared_speedup (information only) {speedup:.4g}x per sample: "
              f"per_sample_baseline solve_s/{base['J']} over manufactured_shared "
              f"solve_s/{shared['J']}; factorizations 2 vs 2J={2 * base['J']}")
        metrics = {f"{w}.{k}": {"value": v, "unit": e2e_units.get(k, "1")}
                   for w, r in results.items() for k, v in r["end_to_end"].items()}
        metrics["shared_speedup"] = {"value": speedup, "unit": "x"}
    else:
        r = results[args.workload]
        metrics = (metrics_json(r["per_layer"], layer_units) if args.trace
                   else metrics_json(r["end_to_end"], e2e_units))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
