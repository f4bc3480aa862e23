"""Reproduce the ROADMAP baseline rows with the benchmark's own tools.

Usage (from the root of a checkout; takes about two minutes)::

    python3 bench/baseline.py

Each row is one call, made once, through the same in-process runner and
tracer as run.py.  The figures are single measurements meant for the
README's reference table, not for comparing commits; use run.py for that.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time

import prepare
import run
import tracing
import workloads


def _traced(tracer, cli, argv, outdir):
    first = len(tracer.spans)
    tracer.install()
    try:
        res = run.run_op(cli, ("baseline", 0), argv, outdir)
    finally:
        tracer.uninstall()
    return res, tracer.spans[first:]


def _share(spans, name, total) -> float:
    return run.outermost_seconds(spans, lambda s: s.name == name) / total


def main() -> int:
    refinable = prepare.import_refinable()
    cli = refinable.cli
    tracer = tracing.Tracer()
    work = prepare.OUT / "baseline"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    docs = {
        "shear2d": workloads.BUNDLED / "shear2d.json",
        "skew3": workloads.BUNDLED / "skew3.json",
    }
    d4 = workloads.d4_coefficients()
    tensor3 = {
        "dimension": 3,
        "matrix": [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
        "coefficients": [
            {"q": [i, j, k], "c": d4[i] * d4[j] * d4[k]}
            for i in range(4) for j in range(4) for k in range(4)
        ],
    }
    docs["d4x3"] = work / "d4x3.json"
    docs["d4x3"].write_text(json.dumps(tensor3))
    docs["huge"] = work / "huge.json"
    docs["huge"].write_text(json.dumps({
        "dimension": 1, "matrix": [[100000]],
        "coefficients": [{"q": [0], "c": "1/2"}, {"q": [1], "c": "1/2"}],
    }))
    rows = []
    try:
        shear2d = refinable.parse_problem(docs["shear2d"].read_text())
        t0 = time.perf_counter()
        iterates = refinable.run_cascade(shear2d, levels=10)
        rows.append(("run_cascade(shear2d, levels=10)",
                     f"{time.perf_counter() - t0:.2f} s, {len(iterates[-1].values)} samples"))

        argv = ["cascade", str(docs["shear2d"]), "--iters", "10", "--outdir", str(work / "c")]
        res = run.run_op(cli, ("baseline", 0), argv, work / "c")
        rows.append(("CLI cascade shear2d --iters 10", f"{res.seconds:.1f} s wall, {res.outcome}"))
        res, spans = _traced(tracer, cli, argv, work / "c")
        rows.append(("  same, traced: share in write_samples / cascade_step",
                     f"{_share(spans, 'cascade.write_samples', res.seconds):.0%} / "
                     f"{_share(spans, 'cascade.cascade_step', res.seconds):.0%}"))

        argv = ["refine", str(docs["shear2d"]), "--left-closed", "--levels", "6",
                "--outdir", str(work / "r")]
        res, spans = _traced(tracer, cli, argv, work / "r")
        rows.append(("CLI refine shear2d --left-closed --levels 6, traced",
                     f"{res.seconds:.1f} s; export_values {_share(spans, 'pointwise.export_values', res.seconds):.0%}, "
                     f"lattice_points_in_bound "
                     f"{_share(spans, 'pointwise.lattice_points_in_bound', res.seconds):.0%}"))

        problem = refinable.parse_problem(docs["d4x3"].read_text())
        t0 = time.perf_counter()
        points = refinable.candidate_points(problem)
        t1 = time.perf_counter()
        transfer = refinable.build_transfer_matrix(problem, points)
        t2 = time.perf_counter()
        refinable.integer_values(transfer)
        t3 = time.perf_counter()
        rows.append(("3-D tensor D4 (M = 2I, 64 taps): candidate_points",
                     f"{len(points)} points, {t1 - t0:.2f} s"))
        rows.append(("  same: build_transfer_matrix / integer_values",
                     f"{t2 - t1:.2f} s / {t3 - t2:.2f} s"))

        for label, argv in (
            ("CLI refine 3-D tensor D4 --levels 4",
             ["refine", str(docs["d4x3"]), "--levels", "4", "--outdir", str(work / "t")]),
            ("CLI refine skew3 --left-closed --levels 9",
             ["refine", str(docs["skew3"]), "--left-closed", "--levels", "9",
              "--outdir", str(work / "s")]),
            ("CLI cascade M = [[100000]] --iters 5",
             ["cascade", str(docs["huge"]), "--iters", "5", "--outdir", str(work / "h")]),
        ):
            res = run.run_op(cli, ("baseline", 0), argv, work / "x")
            rows.append((label, f"{res.outcome} after {res.seconds:.2f} s"))

        probes = run.measure_setup("cascade-deep", 0)
        rows.append(("import refinable (numpy included), fresh interpreter",
                     f"{statistics.median(p['import_s'] for p in probes):.2f} s; "
                     f"interpreter start to cascade-deep documents parsed "
                     f"{statistics.median(p['setup_s'] for p in probes):.2f} s"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
