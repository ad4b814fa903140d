"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "uniformly-h-convex"
    assert float(lines[1]) > 0.0
    assert lines[-1].startswith("converged ")
