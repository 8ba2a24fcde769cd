"""tools/fingerprints.py runs from the checkout root and prints one line per
benchmark run, with its digest, the digest of its counts and its LU fill,
plus per workload one residual-check line, with the digest of its values
and the largest value to 4 significant digits, per workload with
closed-form solutions one error-norm line of the same form, one line with
the digest of its spaces' orders and sparsity patterns, and one with the
digest of its two meshes."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"(\w+) seed=(\d+) (?:(ensemble|traditional) (lockstep|per_sample)"
                  r" [0-9a-f]{16} counts=[0-9a-f]{16} fill=\d+"
                  r"|(?:residual|errors) [0-9a-f]{16} max=\d\.\d{3}e[+-]\d{2}"
                  r"|(?:patterns|mesh) [0-9a-f]{16})")


def test_fingerprints_at_smoke_size():
    out = subprocess.run([sys.executable, "tools/fingerprints.py", "--seeds", "7", "--tiny"],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    # 3 workloads x (2 drivers x 2 stop modes, the residual check, the patterns,
    # the meshes), plus the error norms of the 2 manufactured workloads
    assert len(lines) == 23
    assert all(LINE.fullmatch(line) for line in lines), lines
    assert {LINE.fullmatch(line)[1] for line in lines} == {
        "manufactured_shared", "channel_mc", "per_sample_baseline"}
    assert all(LINE.fullmatch(line)[2] == "7" for line in lines)
    assert sum("residual" in line for line in lines) == 3
    assert {line.split()[0] for line in lines if " errors " in line} == {
        "manufactured_shared", "per_sample_baseline"}
    assert sum("patterns" in line for line in lines) == 3
    assert sum(" mesh " in line for line in lines) == 3
