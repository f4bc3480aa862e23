"""Count the code lines of each ``src/refinable`` module.

Usage (from anywhere inside a checkout)::

    python3 tools/code_lines.py [REV]

A code line holds part of a statement: blank lines, comment lines and
docstring lines do not count, and a statement that spans several lines
counts each of them.  Reads the working tree, or the revision REV exported
with ``git archive``.  Prints each module's count and the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tempfile
import tokenize
from pathlib import Path

from fingerprint_diff import ROOT, export

# tokens that are never code: layout, comments and the stream's ends
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token of a statement
    other than a docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def module_lines(tree: Path) -> dict[str, int]:
    """The code lines of each module under ``tree``'s ``src/refinable``,
    keyed by file name."""
    modules = sorted((tree / "src" / "refinable").glob("*.py"))
    return {path.name: code_lines(path.read_text()) for path in modules}


def report(counts: dict[str, int]) -> str:
    """One line per module and a closing total line."""
    lines = [f"{n:6d}  {name}" for name, n in counts.items()]
    return "\n".join(lines + [f"{sum(counts.values()):6d}  total"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="revision to count (default: the working tree)")
    args = parser.parse_args()
    if args.rev is None:
        print(report(module_lines(ROOT)))
        return 0
    with tempfile.TemporaryDirectory(prefix="code-lines-") as tmp:
        print(report(module_lines(export(args.rev, Path(tmp)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
