"""The benchmark's calls into ensddm still bind and give correct results.

ensbench/workload.py builds each workload through `make_context` and the
`run_*` drivers and reads the fields of their report; this test runs every
workload once at the benchmark's smoke-test size, so a renamed keyword or
report field fails here.  The module is loaded read-only from its file.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

ENSBENCH = Path(__file__).resolve().parents[1] / "ensbench"
WORKLOADS = ("manufactured_shared", "channel_mc", "per_sample_baseline")


def load_workload(monkeypatch):
    # workload.py imports its sibling modules by their plain names; leave
    # no bytecode cache in the benchmark's directory
    monkeypatch.syspath_prepend(str(ENSBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("ensbench_workload", ENSBENCH / "workload.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_at_tiny_size(monkeypatch, name):
    wl = load_workload(monkeypatch)
    assert set(WORKLOADS) == set(wl.WORKLOADS)
    w = wl.WORKLOADS[name]
    w = dataclasses.replace(w, err_bound=wl.TINY_ERR_BOUND[w.geometry], **wl.TINY)
    case = wl.setup(w, 20240901)
    report = wl.solve(w, case)
    err, failed, problems = wl.check(w, case, report)
    assert problems == [] and failed == 0
    assert 0.0 <= err <= w.err_bound
    assert len(wl.fingerprint(report)) == 64
