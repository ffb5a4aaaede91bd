"""Every fenced ``python`` block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _blocks():
    """(first line number, source) of each fenced python block."""
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in BLOCK.finditer(text)]


def test_readme_has_a_python_example():
    assert _blocks()


# ids count the blocks in order, so prose edits above a block keep its id
@pytest.mark.parametrize("line, source",
                         [pytest.param(*block, id=f"block{k}") for k, block in enumerate(_blocks())])
def test_readme_python_block_runs(line, source):
    exec(compile(source, f"{README.name}:{line}", "exec"), {"__name__": "__readme__"})
