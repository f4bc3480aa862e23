"""``tools/code_lines.py``: blank, comment and docstring lines are skipped,
and a statement over several lines counts each of them."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

PLANTED = '''"""Module docstring,
on two lines."""

# a comment line
import os  # a trailing comment


def f(x):
    """One-line docstring."""

    # another comment
    total = (x +
             1)
    text = """a string, not a docstring,
over two lines"""
    return total, text


class C:
    """Class docstring."""

    value = os.sep
'''

# import os; def f; total (2); text (2); return; class C; value
PLANTED_CODE_LINES = 9


@pytest.fixture()
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("code_lines")


def test_planted_source_counts_code_lines_only(tool):
    assert tool.code_lines(PLANTED) == PLANTED_CODE_LINES


def test_each_module_and_the_total(tool, tmp_path):
    package = tmp_path / "src" / "refinable"
    package.mkdir(parents=True)
    (package / "planted.py").write_text(PLANTED)
    (package / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    counts = tool.module_lines(tmp_path)
    assert counts == {"empty.py": 0, "planted.py": PLANTED_CODE_LINES}
    assert tool.report(counts).splitlines() == [
        "     0  empty.py",
        f"     {PLANTED_CODE_LINES}  planted.py",
        f"     {PLANTED_CODE_LINES}  total",
    ]


def test_runs_on_the_working_tree():
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "code_lines.py")],
        capture_output=True, text=True, check=True,
    )
    *modules, total = proc.stdout.splitlines()
    assert total.split() == [str(sum(int(line.split()[0]) for line in modules)), "total"]
    package = TOOLS.parent / "src" / "refinable"
    assert [line.split()[1] for line in modules] == sorted(p.name for p in package.glob("*.py"))
