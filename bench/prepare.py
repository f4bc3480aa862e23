"""Set-up shared by every run: import ``refinable`` and build the workload.

Run as a script it is the set-up probe of run.py: a fresh interpreter that
imports ``refinable``, prepares one workload and prints, as one JSON line,
how long the import and the parsing took::

    python3 bench/prepare.py --workload many-small --seed 1

It imports nothing heavy before ``refinable``, so ``import_s`` includes
numpy's import, as a CLI call pays it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def import_refinable():
    """Import ``refinable`` from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import refinable
        import refinable.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import refinable from {SRC}: {exc}")
    if not Path(refinable.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: refinable was imported from {refinable.__file__}, not {SRC}")
    return refinable


def prepare(refinable, workload: str, seed: int, workdir: Path):
    """Build the workload's documents, write them and parse each one.

    Returns the problems, their document paths and the parse seconds."""
    problems = workloads.build(workload, seed)
    docdir = workdir / "problems"
    docdir.mkdir(parents=True, exist_ok=True)
    paths, texts = [], []
    for p in problems:
        path = docdir / f"{p.name}.json"
        texts.append(json.dumps(p.doc, indent=2))
        path.write_text(texts[-1])
        paths.append(path)
    t0 = time.perf_counter()
    for text in texts:
        refinable.parse_problem(text)
    return problems, paths, time.perf_counter() - t0


def main() -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description="set-up probe of bench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    refinable = import_refinable()
    t1 = time.perf_counter()
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        _, _, parse_s = prepare(refinable, args.workload, args.seed, workdir)
        t2 = time.perf_counter()
        print(json.dumps({"import_s": t1 - t0, "parse_s": parse_s, "prepare_s": t2 - t1}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
