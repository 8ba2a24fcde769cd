"""The README's "Library quick start" block runs as written, and every
`report.<a>.<b>` chain the README names resolves on its report.

The block is read from README.md and executed, so a change to the API it
shows fails here.
"""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.fixture(scope="module")
def quick_start():
    """The quick start's namespace and what it printed."""
    namespace, out = {}, io.StringIO()
    with redirect_stdout(out):
        exec(compile(quick_start_code(), str(README), "exec"), namespace)
    return namespace, out.getvalue()


def test_library_quick_start_runs(quick_start):
    namespace, out = quick_start
    report, ctx = namespace["report"], namespace["ctx"]
    assert report.converged.all()
    assert report.lag_ratio.shape == (ctx.J,)
    assert out.strip()


def test_readme_report_chains_resolve(quick_start):
    report = quick_start[0]["report"]
    chains = set(re.findall(r"\breport((?:\.[A-Za-z_]\w*){2,})",
                            README.read_text(encoding="utf-8")))
    assert chains
    missing = []
    for chain in sorted(chains):
        obj = report
        for name in chain.split(".")[1:]:
            if not hasattr(obj, name):
                missing.append("report" + chain)
                break
            obj = getattr(obj, name)
    assert not missing, f"README names attributes a report lacks: {missing}"
