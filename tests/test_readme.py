"""The README's Python quick start runs against the library as it is."""

import re
from pathlib import Path

from aoi.analytic import RECORDS

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


def test_readme_path_table_names_every_record():
    # The Record column of the path table, row by row, is the table of
    # named records in ``aoi.analytic``, in the order it tries them.
    section = README.read_text(encoding="utf-8").split(
        "Which record serves which pair", 1)[1].split("\n|", 1)[1]
    table = ("|" + section).split("\n\n", 1)[0].splitlines()
    header, _, *rows = (line.split(" | ") for line in table)
    column = header.index("Record")
    names = [name for row in rows
             for name in re.findall(r"`(\w+)`", row[column])]
    assert names == [name for records in RECORDS.values() for name in records]
