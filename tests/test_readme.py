"""Every Python block of README.md runs as written.

``python tests/test_readme.py`` runs the same blocks against whichever
``mvsubspace`` the interpreter imports, such as an installed copy.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def run_block(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    run_block(BLOCKS[index])


if __name__ == "__main__":
    for block in BLOCKS:
        run_block(block)
