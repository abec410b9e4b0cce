"""README's code runs as written, so API drift breaks a test, not a reader."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Quick start)", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # Two stars, then the round-trip fidelity, which the block says is 1.0.
    assert abs(float(out[2]) - 1.0) <= 1e-10, out
