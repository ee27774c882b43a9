"""README's "Library in one minute" examples run as written, and its
scenario table lists the columns the runners write."""

import re
from pathlib import Path

from selreg.experiments import _COLUMNS, SCENARIOS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_blocks():
    """The ```python blocks of the "Library in one minute" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library in one minute\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


def test_library_examples_run_in_order_in_one_namespace():
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["accepted"].shape == namespace["excess"].shape == (81,)
    assert namespace["accepted_by_z"].shape == (2, 81)


def readme_scenario_columns() -> dict:
    """{scenario: "col,col,..."} from the table of "### Experiment configs"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Experiment configs\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `(\w+)` \| `([\w,]+)` \|$", section, re.M))


def test_readme_scenario_table_is_the_runners_columns_table():
    table = readme_scenario_columns()
    assert list(table) == list(SCENARIOS)
    assert table == {s: ",".join(columns) for s, columns in _COLUMNS.items()}


def test_committed_csvs_have_their_scenarios_columns():
    # the coverage sweep's header among them; the CSVs are rebuilt byte for
    # byte by test_reproduction.py
    csvs = sorted((ROOT / "results").glob("*/*.csv"))
    assert sorted(p.stem for p in csvs) == sorted(SCENARIOS)
    for path in csvs:
        header = path.read_text(encoding="utf-8").split("\n", 1)[0]
        assert header == ",".join(_COLUMNS[path.stem]), path.name
