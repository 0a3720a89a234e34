"""The README's Python quick start runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(block, str(README), "exec"), {})
    *values, label = capsys.readouterr().out.split()
    simulated, exact, corollary1, mg11 = map(float, values)
    assert abs(simulated - exact) < 0.05 * exact
    assert exact <= corollary1
    assert label == "RequiresDMRLandNBUE" and mg11 >= exact
