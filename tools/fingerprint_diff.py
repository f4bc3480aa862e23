"""Compare the CLI fingerprints and demo outputs of two revisions.

Usage (from anywhere inside a checkout)::

    python3 tools/fingerprint_diff.py BASE [CHANGE]

Runs ``bench/fingerprint.py`` in a ``git archive`` copy of the revision
BASE and in CHANGE, a second revision exported the same way or, by default,
the working tree.  Prints every command whose output differs, with the two
digests.  The closing ``all`` line only hashes the others and is not
compared.  A command that only one side runs counts as a difference.

Then runs the four demos of each tree against that tree's ``src/``, each in
a fresh temporary working directory (demo 03 writes its dumps there), and
prints the differing lines of every demo whose exit code, stdout or stderr
differs; a demo that only one side has counts as a difference too.

Last, runs every operation of the benchmark's ``many-small`` workload for
seeds 17 and 1 in each tree: the documents come from that tree's
``bench/workloads.py`` and each operation goes through that tree's
``refinable.cli.main``, with dumps in a temporary work directory.  The bundled
problems never reach d = 3, a size-2 Jordan block or the iterated-norm ball;
these do.  Prints every operation whose exit outcome, stdout, stderr or dump
bytes differ once the work directory is masked out.  Exits 1 on any
difference and 0 when every command, demo and operation prints the same
bytes.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import os
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


def demo_outputs(checkout: Path) -> dict[str, tuple[str, str, str]]:
    """The exit code, stdout and stderr of each demo in ``checkout``, run
    against its ``src/`` in a working directory of its own, keyed by the
    demo's file name."""
    paths = [str(checkout / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    outputs = {}
    for demo in sorted((checkout / "demos").glob("0[1-4]_*.py")):
        with tempfile.TemporaryDirectory(prefix="fingerprint-demo-") as cwd:
            proc = subprocess.run(
                [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, text=True,
            )
        outputs[demo.name] = (f"exit {proc.returncode}\n", proc.stdout, proc.stderr)
    return outputs


def many_small_worker(work: str) -> None:
    """Print, as one JSON object, the masked outcome, stdout, stderr and
    dumps of every ``many-small`` operation for seeds 17 and 1, keyed by
    seed, problem and command.  Runs with the checkout's ``bench/`` as the
    working directory, so that its modules are the ones imported."""
    import prepare
    import run

    refinable = prepare.import_refinable()
    outputs = {}
    for seed in (17, 1):
        workdir = Path(work) / f"seed{seed}"
        problems, paths, _ = prepare.prepare(refinable, "many-small", seed, workdir)
        for problem, path in zip(problems, paths):
            for i, template in enumerate(problem.ops):
                outdir = workdir / "out" / problem.name / f"{i}-{template[0]}"
                argv = [a.replace("{doc}", str(path)).replace("{out}", str(outdir))
                        for a in template]
                res = run.run_op(refinable.cli, (problem.name, i), argv, outdir)
                parts = {"outcome": res.outcome, "stdout": res.stdout, "stderr": res.stderr}
                if outdir.is_dir():
                    parts.update((f"dump {f.name}", f.read_text()) for f in sorted(outdir.iterdir()))
                key = f"seed {seed} {problem.name}: {' '.join(template)}"
                outputs[key] = {name: text.replace(work, "{work}") for name, text in parts.items()}
    print(json.dumps(outputs))


def many_small_outputs(checkout: Path) -> dict[str, dict[str, str]]:
    """:func:`many_small_worker`'s records for ``checkout``, run in a fresh
    interpreter that imports that checkout's ``bench/`` and ``src/`` only."""
    script = (
        f"import sys; sys.path[:0] = [{str(Path(__file__).parent)!r}]; "
        "from fingerprint_diff import many_small_worker; many_small_worker(sys.argv[1])"
    )
    with tempfile.TemporaryDirectory(prefix="fingerprint-many-small-") as work:
        proc = subprocess.run(
            [sys.executable, "-c", script, work],
            cwd=checkout / "bench", check=True, capture_output=True, text=True,
        )
    return json.loads(proc.stdout)


def compare(base: Path, change: Path) -> int:
    """Print the differences between the two trees; return their count."""
    base_prints, change_prints = fingerprints(base), fingerprints(change)
    commands = sorted(base_prints.keys() | change_prints.keys())
    differ = [c for c in commands if base_prints.get(c) != change_prints.get(c)]
    for command in differ:
        print(f"{base_prints.get(command, '-')[:12]} "
              f"{change_prints.get(command, '-')[:12]}  {command}")
    print(f"{len(differ)} of {len(commands)} commands differ")

    base_demos, change_demos = demo_outputs(base), demo_outputs(change)
    demos = sorted(base_demos.keys() | change_demos.keys())
    differ_demos = [d for d in demos if base_demos.get(d) != change_demos.get(d)]
    for demo in differ_demos:
        print(f"demo {demo}:")
        for stream, old, new in zip(
            ("exit", "stdout", "stderr"),
            base_demos.get(demo, ("",) * 3),
            change_demos.get(demo, ("",) * 3),
        ):
            diff = difflib.unified_diff(
                old.splitlines(), new.splitlines(), f"base {stream}", f"change {stream}",
                n=0, lineterm="",
            )
            for line in diff:
                print(f"  {line}")
    print(f"{len(differ_demos)} of {len(demos)} demos differ")

    base_ops, change_ops = many_small_outputs(base), many_small_outputs(change)
    ops = sorted(base_ops.keys() | change_ops.keys())
    differ_ops = [op for op in ops if base_ops.get(op) != change_ops.get(op)]
    for op in differ_ops:
        old, new = base_ops.get(op, {}), change_ops.get(op, {})
        parts = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
        print(f"{op}: {', '.join(parts)}")
    print(f"{len(differ_ops)} of {len(ops)} many-small operations differ")
    return len(differ) + len(differ_demos) + len(differ_ops)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="revision to compare against")
    parser.add_argument("change", nargs="?", help="second revision (default: the working tree)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="fingerprint-diff-") as tmp:
        base = export(args.base, Path(tmp) / "base")
        change = export(args.change, Path(tmp) / "change") if args.change else ROOT
        return 1 if compare(base, change) else 0


if __name__ == "__main__":
    sys.exit(main())
