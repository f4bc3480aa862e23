"""The per-level modules reduce row arrays one column at a time.

numpy reduces an ``(n, d)`` array with small d along ``axis=0`` or
``axis=1`` in inner loops of length d, one call per row, which is 8-20x
slower than one pass over each contiguous column; ``np.lexsort`` of rows and
``np.unique(..., axis=0)`` sort rows the same slow way.  An AST scan of
``cascade.py``, ``pointwise.py`` and ``bounds.py`` fails on every such call
that the allow-list below does not name with its reason.

The dump writer finds runs of equal cells by comparing neighbours in the
sorted rows, so its functions call no ``unique``, ``sort``, ``sorted``,
``argsort`` or ``lexsort`` at all, with any arguments.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "refinable"
HOT_MODULES = ("cascade.py", "pointwise.py", "bounds.py")
# reductions that are slow per row when given an axis
AXIS_REDUCTIONS = {"min", "max", "amin", "amax", "all", "any", "norm", "unique"}
ROW_SORTS = {"lexsort"}
WRITER_FUNCTIONS = ("_formatted", "_cells", "_chunk_text", "write_rows")
SORTS = {"unique", "sort", "sorted", "argsort", "lexsort"}

# (module, enclosing function, called name) -> why the call may stay
ALLOWED = {
    ("bounds.py", "_row_norms", "norm"):
        "rows of eight or more coordinates, whose pairwise sum numpy defines",
}


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


class _Scan(ast.NodeVisitor):
    """Collects (enclosing function, called name, line) of every call that
    ``flagged(call)`` accepts."""

    def __init__(self, flagged):
        self.flagged = flagged
        self.functions: list[str] = ["<module>"]
        self.found: list[tuple[str, str, int]] = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Call(self, node):
        if self.flagged(node):
            self.found.append((self.functions[-1], _called_name(node), node.lineno))
        self.generic_visit(node)


def _scan(source: str, flagged) -> list[tuple[str, str, int]]:
    scan = _Scan(flagged)
    scan.visit(ast.parse(source))
    return scan.found


def _row_reduction(call: ast.Call) -> bool:
    name = _called_name(call)
    has_axis = any(k.arg == "axis" for k in call.keywords)
    return name in ROW_SORTS or (name in AXIS_REDUCTIONS and has_axis)


def row_reductions(source: str) -> list[tuple[str, str, int]]:
    """(enclosing function, called name, line) of every row-wise reduction
    or row sort in ``source``."""
    return _scan(source, _row_reduction)


def writer_sorts(source: str) -> list[tuple[str, str, int]]:
    """(writer function, called name, line) of every sort or ``unique`` call
    inside a writer function of ``source``."""
    found = _scan(source, lambda call: _called_name(call) in SORTS)
    return [entry for entry in found if entry[0] in WRITER_FUNCTIONS]


@pytest.mark.parametrize("module", HOT_MODULES)
def test_no_row_reductions_outside_the_allow_list(module):
    found = row_reductions((PACKAGE / module).read_text())
    assert [
        f"{module}:{line} {func}: {name}"
        for func, name, line in found
        if (module, func, name) not in ALLOWED
    ] == []


def test_every_allow_list_entry_is_used():
    used = {
        (module, func, name)
        for module in HOT_MODULES
        for func, name, _ in row_reductions((PACKAGE / module).read_text())
    }
    assert sorted(set(ALLOWED) - used) == []


def test_scan_catches_planted_row_reductions():
    source = (
        "import numpy as np\n"
        "class Box:\n"
        "    def hull(self, x):\n"
        "        return x.min(axis=0), x.max()\n"
        "def order(x):\n"
        "    return np.lexsort(x.T[::-1]), np.linalg.norm(x, axis=1)\n"
        "def fine(x):\n"
        "    return x[:, 0].min(), np.all(x), np.compress(x[:, 0] > 0, x, axis=0)\n"
    )
    assert row_reductions(source) == [("hull", "min", 4), ("order", "lexsort", 6),
                                      ("order", "norm", 6)]


def test_writer_functions_do_not_sort():
    source = (PACKAGE / "cascade.py").read_text()
    defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert set(WRITER_FUNCTIONS) <= defined
    assert writer_sorts(source) == []


def test_scan_catches_planted_writer_sorts():
    source = (
        "import numpy as np\n"
        "def _formatted(column):\n"
        "    return np.unique(column, return_inverse=True), sorted(column)\n"
        "def _chunk_text(columns):\n"
        "    columns.sort()\n"
        "    return np.argsort(columns[0], kind='stable')\n"
        "def write_rows(rows):\n"
        "    return np.lexsort(rows.T)\n"
        "def _merge_runs(keys):\n"
        "    return np.argsort(keys)\n"
    )
    assert writer_sorts(source) == [
        ("_formatted", "unique", 3), ("_formatted", "sorted", 3), ("_chunk_text", "sort", 5),
        ("_chunk_text", "argsort", 6), ("write_rows", "lexsort", 8),
    ]
