"""SHA-256 of every CLI output on the five bundled problems.

Usage (from the root of a checkout)::

    python3 bench/fingerprint.py > fingerprints.txt

Runs each subcommand, in each output format and with its main flags, on
every problem in ``demos/problems/`` through ``refinable.cli.main``, and
prints one line per call: the SHA-256 of its exit outcome, stdout, stderr
and every dump file it wrote, then the call.  The last line hashes all of
them.  Two commits produce identical CLI bytes on the bundled problems
exactly when their outputs of this command are identical, so a refactor can
be checked by running it on both checkouts and comparing with ``diff``.
Paths inside outputs are relative to the checkout, so they match too.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys

import prepare
import run

FORMATS = ("table", "delimited", "structured")


def commands(problem: str, outdir: str) -> list[list[str]]:
    cmds = []
    for fmt in FORMATS:
        cmds.append(["analyze", problem, "--format", fmt])
        cmds.append(["bound", problem, "--format", fmt])
        cmds.append(["values", problem, "--format", fmt])
        cmds.append(["values", problem, "--left-closed", "--format", fmt])
    for initial in ("box", "hat"):
        cmds.append(["cascade", problem, "--iters", "6", "--initial", initial, "--outdir", outdir])
    cmds.append(["refine", problem, "--levels", "4", "--outdir", outdir])
    cmds.append(["refine", problem, "--left-closed", "--levels", "4", "--outdir", outdir])
    cmds.append(["check", problem])
    return cmds


def main() -> int:
    refinable = prepare.import_refinable()
    os.chdir(prepare.ROOT)
    bundled = prepare.ROOT / "demos" / "problems"
    problems = sorted(os.path.relpath(p, prepare.ROOT) for p in bundled.glob("*.json"))
    if len(problems) != 5:
        raise SystemExit(f"fingerprint: expected the 5 bundled problems, found {len(problems)}")
    outdir = prepare.OUT.relative_to(prepare.ROOT) / "fingerprint"
    overall = hashlib.sha256()
    try:
        for problem in problems:
            for argv in commands(problem, str(outdir)):
                shutil.rmtree(outdir, ignore_errors=True)
                res = run.run_op(refinable.cli, (problem, 0), argv, outdir)
                digest = run.fingerprint(res)
                overall.update(digest.encode())
                print(f"{digest}  {' '.join(argv)}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(f"{overall.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
