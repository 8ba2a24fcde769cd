"""Every layer the benchmark's tracer hooks must still exist.

ensbench/tracing.py lists its targets in HOOKS and skips absent ones at run
time; this test turns a dropped or renamed target into a test failure.
The module is loaded read-only from its file.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "ensbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("ensbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves_to_a_callable():
    tracing = load_tracing()
    missing = [target for target, _, _ in tracing.HOOKS if tracing._resolve(target) is None]
    assert not missing, f"trace hooks without a target: {missing}"
