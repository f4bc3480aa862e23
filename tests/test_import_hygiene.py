"""Every name a source module imports is read somewhere in that module, and
every third-party module the package imports is a declared dependency.

``__init__.py`` is skipped by the first check, since its imports are the
package's re-exports, and so are ``from __future__`` imports.  Each of those
re-exports must in turn be read by a package module outside its own
definition, by a demo, or be named in a code span of README.md; a name only
the tests read needs an entry, with its reason, in the allow-list below.
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
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# re-exported names that only the tests read -> why the package exports them
TEST_ONLY_EXPORTS = {
    "serialize_problem": "writes the canonical document parse_problem reads; "
                         "the tests round-trip problems through it",
}


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


def reexports(source: str) -> list[str]:
    """The names ``__init__.py`` binds by its relative imports."""
    return [
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def _module_aliases(tree: ast.AST) -> set[str]:
    """Local names bound to package modules (``from . import bounds as b``,
    ``from refinable import cascade``)."""
    stems = {p.stem for p in MODULES}
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and ((node.level == 1 and node.module is None) or node.module == "refinable")
        for alias in node.names
        if alias.name in stems
    }


def private_reads(source: str) -> list[str]:
    """``<module alias>._name`` reads in ``source`` of another package
    module's private names.  A wrapper installed on a module's public names
    sees no call that goes through such a read."""
    tree = ast.parse(source)
    modules = _module_aliases(tree)
    return [
        f"line {node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_read_through_a_module(path):
    assert private_reads(path.read_text()) == []


def test_scan_finds_a_private_read():
    source = (
        "from . import pointwise as pw\nfrom .cascade import _row_keys\n"
        "def f(p, x):\n    return pw._eigenspace(p), pw.resolve_values(p, True), x._cache\n"
    )
    assert private_reads(source) == ["line 4: pw._eigenspace"]


def names_read(source: str) -> set[str]:
    """Names ``source`` reads: bare, as an attribute of a package module
    (``bounds_mod.best_bound``), or as a module it imports from, except where
    a top-level definition reads its own name.  ``x.determinant`` on any
    other object reads a member, not the package's name."""
    tree = ast.parse(source)
    modules = _module_aliases(tree)
    read = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        read |= names
    return read


def names_in_code_spans(markdown: str) -> set[str]:
    """Identifiers inside the fenced blocks (less their ``#`` comments) and
    code spans of ``markdown`` that do not follow a dot:
    ``DilationMatrix.power`` names ``DilationMatrix`` only."""
    fence = re.compile(r"```.*?```", re.DOTALL)
    blocks = [re.sub(r"#.*", "", block) for block in fence.findall(markdown)]
    spans = blocks + re.findall(r"`([^`]+)`", fence.sub("", markdown))
    return {word for span in spans for word in re.findall(r"(?<![\w.])[A-Za-z_]\w*", span)}


def unread_reexports() -> list[str]:
    read = set().union(*(names_read(p.read_text()) for p in MODULES + DEMOS))
    read |= names_in_code_spans((ROOT / "README.md").read_text())
    return [name for name in reexports((PACKAGE / "__init__.py").read_text()) if name not in read]


def test_every_reexport_is_used_outside_the_tests():
    assert sorted(set(unread_reexports()) - set(TEST_ONLY_EXPORTS)) == []


def test_every_test_only_export_is_still_needed():
    assert sorted(set(TEST_ONLY_EXPORTS) - set(unread_reexports())) == []


def test_scans_on_a_planted_source():
    source = (
        "from .linalg import IntMatrix as M\n"
        "class Box:\n"
        "    def grow(self) -> Box:\n"
        "        return Box()\n"
        "def run(problem):\n"
        "    from . import bounds as b\n"
        "    from refinable.errors import ParseError\n"
        "    return b.best_bound(problem).extents(M), problem.matrix.determinant\n"
    )
    assert reexports(source) == ["M"]
    assert names_read(source) == {
        "linalg", "refinable", "errors", "b", "best_bound", "problem", "M"}
    markdown = "one `DilationMatrix.power(n)` call\n```\nrun_cascade(p)  # eigenvalues\n```\n"
    assert names_in_code_spans(markdown) == {"DilationMatrix", "n", "run_cascade", "p"}
