"""README's "Library in one minute" examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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
