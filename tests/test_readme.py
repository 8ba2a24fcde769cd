"""The README's "Library quick start" block runs as written.

The block is read from README.md and executed, so a change to the API it
shows fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    namespace = {}
    exec(compile(quick_start_code(), str(README), "exec"), namespace)
    report, ctx = namespace["report"], namespace["ctx"]
    assert report.converged.all()
    assert report.lag_ratio.shape == (ctx.J,)
    assert capsys.readouterr().out.strip()
