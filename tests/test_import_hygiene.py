"""Every name a source module imports is read somewhere in that module, and
every third-party module the package imports is a declared dependency.

``__init__.py`` is skipped by the first check, since its imports are the
package's re-exports, and so are ``from __future__`` imports.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "refinable"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "from typing import Mapping, Sequence\nimport numpy as np\nx: Sequence = np.zeros(1)\n"
    assert unused_imports(source) == ["line 1: Mapping"]


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports in ``source``, wherever they
    stand, less the standard library and the package itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "refinable"}


def test_every_third_party_import_is_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # a requirement's distribution name, normalized; each declared
    # distribution imports under that name
    declared = {
        re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
        for req in project["dependencies"]
    }
    used = set().union(*(third_party_imports(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert sorted(used - declared) == []


def test_scan_finds_third_party_imports():
    source = (
        "import json\nimport numpy.linalg\nfrom . import cascade\n"
        "from refinable.mask import Mask\ndef f():\n    import orjson\n"
    )
    assert third_party_imports(source) == {"numpy", "orjson"}


def test_only_the_dump_writer_imports_orjson():
    # analyze, bound, values and check write no dump, so they skip the import
    problem = str(ROOT / "demos" / "problems" / "skew3.json")
    calls = [["analyze", problem], ["bound", problem],
             ["values", problem, "--left-closed"], ["check", problem]]
    script = (
        f"import sys\nfrom refinable import cli\nfor args in {calls!r}:\n"
        "    cli.main(args)\nprint('orjson' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.stdout.splitlines()[-1] == "False"
