"""Bitwise fingerprints of the benchmark runs, for comparing two commits.

Run from the root of a checkout:

    python3 tools/fingerprints.py --seeds 20240901 7 > fingerprints.txt

For every seed it builds the inputs of each workload of ensbench/workload.py
(through its `setup`; the module is loaded from its file and writes no
bytecode) and runs both drivers in both stop modes on them.  Each run prints
one line with two 16-hex sha256 digests and the LU fill: the first digest
over the solutions, the iteration counts and convergence flags, the three
trace-state blocks, the stopping-norm histories, the factorization count
and the LU fill, and over what the set-up derives from the conductivity
fields: the lag ratios and each sample's (k_min, xi); the second
(`counts=`) over the counts alone: the iteration counts, the convergence
flags and the factorization count; and `fill=` the LU fill (`lu_nnz`), so a
change of fill reads by value from the `diff` of two printouts.  One more
line per workload and seed holds the digest of its residual-check values
(`check_converged_residual`), from the run the benchmark itself times, and
`max=` the largest of them to 4 significant digits.  Each workload with
closed-form solutions adds an `errors` line for that run: the digest of
the six error columns of every sample (`norms.error_norms`, one sample per
call) and `max=` the largest error.  One more line per workload and seed
(`patterns`) holds the digest of that run's two spaces: each space's
elimination `order`, then its sparsity patterns by name, each with its
shape, every term's slots and its index arrays; and one more (`mesh`) the
digest of the workload's two meshes, Stokes then Darcy, each by its
vertices, triangles, edges, incidences, boundary tags and geometry.
Two checkouts give bitwise equal outputs on these inputs when their
outputs `diff` equal; a change that moves values only at the rounding
level keeps every `counts=` digest, and a rounding-level change of the
check or of the error norms keeps every `max=`.
Digests depend on this file too, so compare two commits by running one
version of it in both checkouts (it loads the package of its working
directory).

`--tiny` uses the benchmark's smoke-test size (h=1/4, J=2).
"""

import argparse
import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

STOP_MODES = (("lockstep", False), ("per_sample", True))


def load_workload(root):
    """ensbench/workload.py of the checkout at `root`, with the checkout's
    package first on the path."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "ensbench")]
    spec = importlib.util.spec_from_file_location("ensbench_workload",
                                                  root / "ensbench" / "workload.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(arrays):
    """16 hex digits of the sha256 over dtype, shape and bytes of each array."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def count_arrays(report):
    yield np.asarray(report.iterations)
    yield np.asarray(report.converged)
    yield np.array([report.n_factorizations], dtype=np.int64)


def report_arrays(report, samples):
    yield report.us
    yield report.ud
    yield np.asarray(report.iterations)
    yield np.asarray(report.converged)
    yield from report.state
    for hist in report.norm_history:
        yield np.array(hist, dtype=np.float64)
    yield np.array([report.n_factorizations, report.lu_nnz], dtype=np.int64)
    yield np.asarray(report.lag_ratio)
    yield np.array([(s.k_min, s.xi) for s in samples])


def error_table(norms, report, exacts, h):
    """(J, 6) error columns of a run, one `error_norms` call per sample;
    each row drops the table row's leading h, j and iteration count."""
    rows = [norms.error_norms(report.space_s, report.space_d, report.us[j], report.ud[j],
                              exact, h) for j, exact in enumerate(exacts)]
    return np.array([dataclasses.astuple(row)[3:] for row in rows])


def pattern_arrays(report):
    for space in (report.space_s, report.space_d):
        yield space.order
        for key in sorted(space.patterns):
            shape, slots, indices, indptr = space.patterns[key]
            yield np.array(shape, dtype=np.int64)
            yield from slots
            yield indices
            yield indptr


MESH_FIELDS = ("verts", "tris", "edges", "edge_tris", "edge_of_tri", "boundary_tags",
               "tri_area", "tri_grads", "edge_length")


def mesh_arrays(*meshes):
    for mesh in meshes:
        for name in MESH_FIELDS:
            yield getattr(mesh, name)


def fingerprint_lines(wl, seed, tiny=False):
    ensemble_driver = wl.ensemble_driver
    drivers = (("ensemble", ensemble_driver.run_ensemble_ddm),
               ("traditional", ensemble_driver.run_traditional_ddm))
    for name in sorted(wl.WORKLOADS):
        w = wl.WORKLOADS[name]
        if tiny:
            w = dataclasses.replace(w, **wl.TINY)
        case = wl.setup(w, seed)
        checked = None
        for driver, run in drivers:
            for mode, stop in STOP_MODES:
                report = run(case.ctx, case.mesh_s, case.mesh_d, case.pairing, case.bc,
                             per_sample_stop=stop)
                yield (f"{name} seed={seed} {driver} {mode}"
                       f" {digest(report_arrays(report, case.ctx.samples))}"
                       f" counts={digest(count_arrays(report))} fill={report.lu_nnz}")
                if (driver == "traditional") == w.per_sample and stop == w.per_sample_stop:
                    checked = report
        res = ensemble_driver.check_converged_residual(checked, case.ctx, case.bc)
        yield f"{name} seed={seed} residual {digest([res])} max={res.max():.3e}"
        if case.exacts is not None:
            errs = error_table(wl.norms, checked, case.exacts, w.h)
            yield f"{name} seed={seed} errors {digest([errs])} max={errs.max():.3e}"
        yield f"{name} seed={seed} patterns {digest(pattern_arrays(checked))}"
        yield f"{name} seed={seed} mesh {digest(mesh_arrays(case.mesh_s, case.mesh_d))}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[20240901])
    ap.add_argument("--tiny", action="store_true", help="smoke-test size h=1/4, J=2")
    args = ap.parse_args(argv)
    wl = load_workload(Path.cwd())
    for seed in args.seeds:
        for line in fingerprint_lines(wl, seed, args.tiny):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
