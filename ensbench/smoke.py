"""Smoke test of the benchmark itself, at the tiny size h=1/4, J=2.

Run from the root of a checkout:

    python3 ensbench/smoke.py

Checks that every hook of the traced run binds to the package, that a hook
whose target is gone is reported as absent without failing, and that every
workload, untraced and traced, exits 0 with a correct result that carries
every metric of BENCHMARK.json with its unit, also on the printed lines.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def check_hooks(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import tracing

    tracer = tracing.Tracer().install()
    tracer.uninstall()
    if tracer.absent:
        raise AssertionError(f"hooks that do not bind: {tracer.absent}")
    hooks = tracing.HOOKS
    tracing.HOOKS = hooks + (("ensddm.sparsela:no_such_function", "gone", "span"),
                             ("ensddm.no_such_module:f", "gone", "span"))
    try:
        tracer = tracing.Tracer().install()
        tracer.uninstall()
    finally:
        tracing.HOOKS = hooks
    if len(tracer.absent) != 2:
        raise AssertionError(f"missing targets not reported as absent: {tracer.absent}")


def check_run(root, workload, trace, e2e_units, layer_units):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{where}: incorrect result {result}")
    units = layer_units if trace else e2e_units
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        raise AssertionError(f"{where}: metrics {got} != {units}")
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if line.startswith("   ") and len(line.split()) == 3}
    for name, unit in units.items():
        if printed.get(name) != unit:
            raise AssertionError(f"{where}: {name} not printed with unit {unit}")
    if any("absent hooks" in line for line in lines):
        raise AssertionError(f"{where}: hooks reported absent")


def main():
    root = os.getcwd()
    e2e_units, layer_units = run.load_spec()
    try:
        check_hooks(root)
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                check_run(root, workload, trace, e2e_units, layer_units)
                print(f"ok  {workload} trace={trace}")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
