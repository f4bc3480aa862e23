"""Compare the CLI fingerprints of two revisions.

Usage (from anywhere inside a checkout)::

    python3 tools/fingerprint_diff.py BASE [CHANGE]

Runs ``bench/fingerprint.py`` in a ``git archive`` copy of the revision
BASE and in CHANGE, a second revision exported the same way or, by default,
the working tree.  Prints every command whose output differs, with the two
digests, and exits 1 on any difference and 0 when every command prints the
same bytes.  The closing ``all`` line only hashes the others and is not
compared.  A command that only one side runs counts as a difference.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(revision: str, dest: Path) -> Path:
    """Extract ``revision`` of this repository into ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def fingerprints(checkout: Path) -> dict[str, str]:
    """The digest of each command that ``bench/fingerprint.py`` prints in
    ``checkout``, keyed by the command line."""
    proc = subprocess.run(
        [sys.executable, "bench/fingerprint.py"],
        cwd=checkout, check=True, capture_output=True, text=True,
    )
    lines = (line.split("  ", 1) for line in proc.stdout.splitlines())
    return {command: digest for digest, command in lines if command != "all"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="revision to compare against")
    parser.add_argument("change", nargs="?", help="second revision (default: the working tree)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="fingerprint-diff-") as tmp:
        base = fingerprints(export(args.base, Path(tmp) / "base"))
        change = fingerprints(export(args.change, Path(tmp) / "change") if args.change else ROOT)
    differ = [c for c in sorted(base.keys() | change.keys()) if base.get(c) != change.get(c)]
    for command in differ:
        print(f"{base.get(command, '-')[:12]} {change.get(command, '-')[:12]}  {command}")
    print(f"{len(differ)} of {len(base.keys() | change.keys())} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
