"""End-to-end and per-layer benchmark for ``refinable``.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload cascade-deep --seed 1 --seconds 30 --trace 0

Workloads are ``cascade-deep``, ``refine-fine`` and ``many-small`` (see
workloads.py and README.md).  One run imports ``refinable`` from this
checkout's ``src/`` and calls ``refinable.cli.main`` in-process for every
operation of the workload, in whole rounds, until ``--seconds`` would be
exceeded; stdout and stderr are captured and dumps go to a scratch directory
under ``.bench_out/``.  The first round's outputs are checked by checks.py;
every later round must reproduce them byte for byte.

With ``--trace 0`` the run reports the end-to-end metrics, with times at
the reference speed of calibrate.py (the measured figures are printed
beside them).  With ``--trace 1`` it alternates untraced and traced rounds,
reports the per-layer metrics, and writes the spans of the first traced
round to ``.bench_out/trace-<workload>-seed<seed>.json``.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: the dense eigen work is small, and extra threads only add
# run-to-run noise.  Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import ctypes


def steady_memory() -> dict:
    """Keep this process's memory path the same in every round.

    The cascade kernel allocates and frees arrays of several MB per level.
    numpy asks for transparent huge pages on such arrays, and a huge-page
    fault may compact memory first; glibc returns freed blocks to the
    kernel, and a virtual machine with free page reporting hands them to
    its host, so the next round faults them in again.  Both costs depend on
    the state of the machine, not on the program.  So: no transparent huge
    pages for this process (and the set-up probes, which inherit it), and
    freed heap blocks up to 32 MB stay in the process.  Returns which
    settings took effect (0 where the platform refused or lacks them)."""
    try:
        libc = ctypes.CDLL(None)
        return {
            "thp_disabled": int(libc.prctl(41, 1, 0, 0, 0) == 0),  # PR_SET_THP_DISABLE
            "malloc_mmap_threshold": int(libc.mallopt(-3, 32 << 20)),  # M_MMAP_THRESHOLD
            "malloc_trim_threshold": int(libc.mallopt(-1, 1 << 30)),  # M_TRIM_THRESHOLD
        }
    except (OSError, AttributeError):
        return {"thp_disabled": 0, "malloc_mmap_threshold": 0, "malloc_trim_threshold": 0}


MEMORY_SETTINGS = steady_memory()

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
import checks
import tracing
import workloads
from prepare import BENCH, OUT, ROOT, import_refinable, prepare

SETUP_PROBES = 21
_ERROR_LINE = re.compile(r"^error: ([A-Za-z][\w-]*):", re.MULTILINE)


def measure_setup(workload: str, seed: int, speed: list[float]) -> list[dict]:
    """Start fresh interpreters that set the workload up; time each from
    process start until it reports the documents parsed.  Three
    calibration samples before each probe go to ``speed``."""
    samples = []
    for _ in range(SETUP_PROBES):
        speed += [calibrate.sample() for _ in range(3)]
        cmd = [sys.executable, str(BENCH / "prepare.py"), "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()  # the with block waits for it
                raise SystemExit("bench: set-up probe did not exit within 60 s")
        if proc.returncode != 0 or not line:
            raise SystemExit(f"bench: set-up probe failed with exit code {proc.returncode}")
        samples.append({"setup_s": elapsed, **json.loads(line)})
    return samples


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    key: tuple[str, int]
    argv: list[str]
    outcome: str
    seconds: float
    stdout: str
    stderr: str
    outdir: Path
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


def run_op(cli, key, argv: list[str], outdir: Path) -> OpResult:
    """Run one CLI call in-process and classify it: ok, a typed error
    (exit 2 or 3 with an ``error: <Code>:`` line), another exit code, or an
    uncaught exception named by its type."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        # a fresh warnings context per call, as in a fresh CLI process
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code
    except Exception as exc:  # an uncaught exception is a counted outcome
        rc = None
        outcome = f"exception:{type(exc).__name__}"
        err.write(f"{type(exc).__name__}: {exc}\n")
    seconds = time.perf_counter() - t0
    typed = _ERROR_LINE.search(err.getvalue())
    if rc == 0:
        outcome = "ok"
    elif rc in (2, 3) and typed:
        outcome = f"error:{typed.group(1)}"
    elif rc is not None:
        outcome = f"exit:{rc}"
    return OpResult(key, argv, outcome, seconds, out.getvalue(), err.getvalue(), outdir)


def fingerprint(res: OpResult) -> str:
    h = hashlib.sha256()
    for part in (res.outcome, res.stdout, res.stderr):
        h.update(part.encode() + b"\0")
    if res.outdir.is_dir():
        for path in sorted(res.outdir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# correctness of one round
# ---------------------------------------------------------------------------

def check_round(problems, results: list[OpResult]) -> tuple[list[str], int]:
    """Check every successful operation; return failures and the number of
    nonzero lattice values the round emitted."""
    by_problem: dict[str, list[OpResult]] = {}
    for res in results:
        by_problem.setdefault(res.key[0], []).append(res)
    # the tensor-D4 refine check compares with the 1-D D4 refined in the round
    d4 = [r for r in by_problem.get("daubechies4", []) if r.ok]
    try:
        d4_dumps = checks.read_dumps(d4[0].outdir) if d4 else None
    except ValueError:
        d4_dumps = None  # reported by the daubechies4 check itself
    errors, samples = [], 0
    for problem in problems:
        for res in by_problem[problem.name]:
            if res.ok:
                try:
                    found, emitted = _check_op(problem, res, d4_dumps)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    # output the checks cannot even read is wrong output
                    found, emitted = [f"unreadable output ({type(exc).__name__}: {exc})"], 0
                samples += emitted
                errors += [f"{problem.name} {res.argv[0]}: {e}" for e in found]
    return errors, samples


def _check_op(problem, res: OpResult, d4_dumps) -> tuple[list[str], int]:
    """Failures found in one operation's output, and its nonzero values."""
    expect = problem.expect
    cmd = res.argv[0]
    found: list[str] = []
    samples = 0
    if cmd in ("cascade", "refine"):
        dumps = checks.read_dumps(res.outdir)
        samples += sum(d.nonzero for d in dumps.values())
    if cmd == "cascade":
        found += checks.cascade_mass(problem.doc, dumps, res.stdout)
        if expect.get("tile"):
            found += checks.tile_cascade(problem.doc, dumps)
        if expect.get("tensor_d4"):
            found += checks.tensor_d4_cascade(workloads.d4_coefficients(), dumps)
    elif cmd == "refine":
        levels = int(res.argv[res.argv.index("--levels") + 1])
        found += checks.refine_levels(problem.doc, dumps, levels)
        if expect.get("d4"):
            found += checks.d4_values(dumps[0].values)
        if expect.get("tensor_d4"):
            found += checks.tensor_d4_values(dumps, d4_dumps)
        if expect.get("haar"):
            found += checks.haar_values(dumps)
    elif cmd == "values":
        found += checks.values_report(problem.doc, res.stdout)
        samples += sum(1 for v in json.loads(res.stdout)["values"] if v != 0.0)
    elif cmd == "bound":
        found += checks.bound_report(problem.doc, res.stdout)
    elif cmd == "analyze":
        found += checks.analyze_report(problem.doc, res.stdout)
    elif cmd == "check":
        found += checks.check_report(res.stdout)
    return found, samples


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced round
# ---------------------------------------------------------------------------

def outermost(spans: list[tracing.Span], pred) -> list[tracing.Span]:
    """The spans matching ``pred`` that have no matching ancestor (spans are
    in call order, so parents come first)."""
    covered: dict[int, bool] = {}
    found = []
    for s in spans:
        above = covered.get(s.parent, False)
        if pred(s) and not above:
            found.append(s)
        covered[s.id] = above or pred(s)
    return found


def outermost_seconds(spans: list[tracing.Span], pred) -> float:
    return sum(s.seconds for s in outermost(spans, pred))


def _named(*names):
    return lambda s: s.name in names


def _depth(kernel_span: tracing.Span) -> int:
    """Lattice level a kernel call produced (0 for a call that raised)."""
    return kernel_span.sizes.get("level", kernel_span.sizes.get("step", 0))


def round_layer_metrics(spans: list[tracing.Span]) -> dict[str, float]:
    """The span-based per-layer metrics of one traced round."""

    def total(name, key, pred=None):
        """Sum of a size over the calls of ``name`` that returned."""
        return sum(
            s.sizes.get(key, 0) for s in spans
            if s.name == name and s.error is None and (pred is None or pred(s))
        )

    kernel = _named("cascade.cascade_step", "cascade.refinement_step")
    # the deepest kernel call of every operation
    last: dict[int, tracing.Span] = {}
    for s in outermost(spans, kernel):
        if s.op not in last or _depth(s) >= _depth(last[s.op]):
            last[s.op] = s
    enum = "pointwise.lattice_points_in_bound"
    scatter = sum(
        s.sizes["taps"] * s.sizes["input"] for s in spans
        if s.name == "cascade.refinement_step" and s.error is None
    )
    write_s = outermost_seconds(spans, _named("cascade.write_rows"))
    volume0 = total(enum, "volume", lambda s: s.sizes["level"] == 0)
    volume_refine = total(enum, "volume", lambda s: s.sizes["level"] > 0)
    return {
        "linalg.analysis_s": outermost_seconds(
            spans, _named(*(f"linalg.DilationMatrix.{a}" for a in tracing.ANALYTICS))
        ),
        "linalg.power_s": outermost_seconds(
            spans, _named(*(f"linalg.DilationMatrix.{a}" for a in tracing.POWERS))
        ),
        "bounds.select_s": outermost_seconds(
            spans, _named("bounds.applicable_bounds", "bounds.best_bound")
        ),
        "bounds.iterated_k": max(
            (s.sizes["k"] for s in spans if s.name == "bounds.general_ball_bound" and s.error is None),
            default=0,
        ),
        "pointwise.candidates_s": outermost_seconds(spans, _named("pointwise.candidate_points")),
        "pointwise.candidates_n": total("pointwise.candidate_points", "n"),
        "pointwise.enum_kept_ratio": (
            total(enum, "kept", lambda s: s.sizes["level"] == 0) / volume0 if volume0 else 0.0
        ),
        "pointwise.enum_kept_ratio_refine": (
            total(enum, "kept", lambda s: s.sizes["level"] > 0) / volume_refine
            if volume_refine else 0.0
        ),
        "pointwise.transfer_s": outermost_seconds(spans, _named("pointwise.build_transfer_matrix")),
        "pointwise.transfer_nnz": total("pointwise.build_transfer_matrix", "nnz"),
        "pointwise.eigen_s": outermost_seconds(spans, _named("pointwise.integer_values")),
        "pointwise.left_closed_s": outermost_seconds(
            spans, _named("pointwise.converged_integer_values")
        ),
        "pointwise.enumerate_s": outermost_seconds(
            spans, lambda s: s.name == enum and s.sizes["level"] > 0
        ),
        "pointwise.refine_s": outermost_seconds(spans, _named("pointwise.refine_values")),
        "pointwise.refine_points": total("pointwise.refine_values", "points"),
        "pointwise.export_s": outermost_seconds(spans, _named("pointwise.export_values")),
        "pointwise.export_bytes": total("pointwise.export_values", "bytes"),
        "cascade.step_s": outermost_seconds(spans, kernel),
        "cascade.step_last_s": sum(s.seconds for s in last.values()),
        "cascade.scatter_rows": scatter,
        "cascade.merge_ratio": (
            total("cascade.refinement_step", "output") / scatter if scatter else 0.0
        ),
        "cascade.write_s": write_s,
        "cascade.write_bytes": total("cascade.write_rows", "bytes"),
        "cascade.write_rows_per_s": (
            (total("cascade.write_samples", "rows") + total("pointwise.export_values", "rows"))
            / write_s if write_s else 0.0
        ),
        "cascade.diag_s": outermost_seconds(
            spans, _named("cascade.empirical_support", "cascade.discrete_mass")
        ),
    }


def enum_ratio_by_level(spans: list[tracing.Span]) -> dict[int, dict]:
    """Enumeration sizes per lattice level; refused boxes are listed apart."""
    levels: dict[int, dict] = {}
    for s in spans:
        if s.name == "pointwise.lattice_points_in_bound":
            entry = levels.setdefault(
                s.sizes["level"], {"kept": 0, "volume": 0, "calls": 0, "refused_volume": 0}
            )
            if s.error is None:
                entry["kept"] += s.sizes["kept"]
                entry["volume"] += s.sizes["volume"]
                entry["calls"] += 1
            else:
                entry["refused_volume"] += s.sizes["volume"]
    for entry in levels.values():
        entry["ratio"] = entry["kept"] / entry["volume"] if entry["volume"] else None
    return dict(sorted(levels.items()))


# units and directions of the per-layer metrics; BENCHMARK.json lists the same
LAYER_UNITS = {
    "setup.import_s": "s", "mask.parse_s": "s", "mask.taps": "count",
    "linalg.analysis_s": "s", "linalg.power_s": "s",
    "bounds.select_s": "s", "bounds.iterated_k": "count",
    "pointwise.candidates_s": "s", "pointwise.candidates_n": "count",
    "pointwise.enum_kept_ratio": "ratio", "pointwise.enum_kept_ratio_refine": "ratio",
    "pointwise.transfer_s": "s", "pointwise.transfer_nnz": "count",
    "pointwise.eigen_s": "s", "pointwise.left_closed_s": "s",
    "pointwise.enumerate_s": "s", "pointwise.refine_s": "s", "pointwise.refine_points": "count",
    "pointwise.export_s": "s", "pointwise.export_bytes": "B",
    "cascade.step_s": "s", "cascade.step_last_s": "s", "cascade.scatter_rows": "count",
    "cascade.merge_ratio": "ratio", "cascade.write_s": "s", "cascade.write_bytes": "B",
    "cascade.write_rows_per_s": "rows/s", "cascade.diag_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "samples_per_s": "samples/s",
    "problem_p50_s": "s", "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_facts() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "memory_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "blas_threads": int(BLAS_THREADS),
        **MEMORY_SETTINGS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    refinable = import_refinable()
    workdir = OUT / f"run-{os.getpid()}"
    try:
        return _run(refinable, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(refinable, args, workdir: Path) -> int:
    problems, paths, _ = prepare(refinable, args.workload, args.seed, workdir)
    setup_speed: list[float] = []  # calibration samples beside the probes
    probes = measure_setup(args.workload, args.seed, setup_speed)
    cli = refinable.cli
    tracer = tracing.Tracer()

    rounds: list[tuple[bool, list[OpResult], int, int]] = []  # traced, results, span range
    errors: list[str] = []
    samples = 0
    reference: dict[tuple[str, int], str] = {}
    speed: list[float] = []  # calibration samples taken in untraced rounds
    # time spent running rounds; the untimed first-round checks do not count
    measured = longest = 0.0
    while not rounds or measured + longest <= args.seconds:
        plan = (False, True) if args.trace else (False,)
        for traced in plan:
            gc.collect()  # start every round from the same heap state
            t0 = time.perf_counter()
            first_span = len(tracer.spans)
            if traced:
                tracer.install()
            try:
                results = run_round(
                    cli, problems, paths, workdir, tracer if traced else None, speed
                )
            finally:
                tracer.uninstall()
            took = time.perf_counter() - t0
            measured += took
            longest = max(longest, took * len(plan))
            if not rounds:
                errors, samples = check_round(problems, results)
                reference = {r.key: r.fingerprint for r in results}
            else:
                errors += [
                    f"{r.key[0]} {r.argv[0]}: output differs from the first round"
                    for r in results if r.fingerprint != reference[r.key]
                ]
            for r in results:
                # checked or compared: drop the text, so that peak_rss_mb
                # does not grow with the number of rounds a run fits
                r.stdout = r.stderr = ""
            rounds.append((traced, results, first_span, len(tracer.spans)))
    return report(args, problems, probes, rounds, speed, setup_speed, tracer, errors, samples)


def run_round(cli, problems, paths, workdir: Path, tracer, speed: list[float]) -> list[OpResult]:
    """Run every operation of the workload once, in order.  An untraced
    round adds a calibration sample before each problem to ``speed``."""
    results = []
    op_index = 0
    for problem, path in zip(problems, paths):
        if tracer is None:
            speed.append(calibrate.sample())
        for i, template in enumerate(problem.ops):
            outdir = workdir / "out" / problem.name / f"{i}-{template[0]}"
            shutil.rmtree(outdir, ignore_errors=True)
            argv = [a.replace("{doc}", str(path)).replace("{out}", str(outdir)) for a in template]
            if tracer is not None:
                tracer.op = op_index
            res = run_op(cli, (problem.name, i), argv, outdir)
            res.fingerprint = fingerprint(res)
            results.append(res)
            op_index += 1
    return results


def report(args, problems, probes, rounds, speed, setup_speed, tracer, errors, samples) -> int:
    plain = [results for traced, results, _, _ in rounds if not traced]
    attempted = sum(len(results) for _, results, _, _ in rounds)
    failed = sum(1 for _, results, _, _ in rounds for r in results if not r.ok)
    outcomes: dict[str, int] = {}
    for r in plain[0]:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1

    walls = [sum(r.seconds for r in results) for results in plain]
    per_problem: dict[str, list[float]] = {}
    for results in plain:
        for p in problems:
            per_problem.setdefault(p.name, []).append(
                sum(r.seconds for r in results if r.key[0] == p.name)
            )
    problem_medians = [statistics.median(v) for v in per_problem.values()]
    wall = statistics.median(walls)
    setup_raw = statistics.median(p["setup_s"] for p in probes)
    # end-to-end times at the reference speed (calibrate.py)
    factor = calibrate.speed_factor(speed)
    setup_factor = calibrate.speed_factor(setup_speed)

    print(f"workload {args.workload}, seed {args.seed}, {len(problems)} problems, "
          f"{len(plain[0])} operations per round, {len(rounds)} rounds "
          f"({len(plain)} untraced), BLAS threads {BLAS_THREADS}, memory {MEMORY_SETTINGS}")
    print("outcomes per round: " + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())))
    print(f"operations attempted {attempted}, failed {failed}")
    for r in plain[0]:
        if not r.ok:
            print(f"  failed: {' '.join(r.argv[:1] + [Path(r.argv[1]).stem] + r.argv[2:])}: "
                  f"{r.outcome}")
    for e in errors:
        print(f"CHECK FAILED: {e}")

    if args.trace:
        metrics = layer_report(args, problems, probes, rounds, tracer)
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": setup_raw * setup_factor,
            "wall_s": wall * factor,
            "samples_per_s": samples / (wall * factor),
            "problem_p50_s": statistics.median(problem_medians) * factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        notes = {
            "setup_s": f"median of {len(probes)} fresh interpreters; measured {setup_raw:.6g} s",
            "wall_s": f"median of {len(walls)} rounds; measured {wall:.6g} s",
            "samples_per_s": f"{samples} nonzero values per round; measured {samples / wall:.6g}",
            "problem_p50_s": (
                f"median of {len(problem_medians)} problems, each a median of {len(walls)} "
                f"rounds; measured {statistics.median(problem_medians):.6g} s"
            ),
            "peak_rss_mb": "ru_maxrss of this process",
        }
        print(f"speed factor {factor:.4f} (calibrate.py, median of {len(speed)} samples); "
              f"set-up {setup_factor:.4f} (median of {len(setup_speed)})")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]} ({notes[name]})")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def layer_report(args, problems, probes, rounds, tracer) -> dict[str, float]:
    traced_rounds = [(results, tracer.spans[a:b]) for traced, results, a, b in rounds if traced]
    plain = [results for traced, results, _, _ in rounds if not traced]
    per_round = [round_layer_metrics(spans) for _, spans in traced_rounds]
    metrics = {
        name: (statistics.median(m[name] for m in per_round) if name.endswith("_s")
               else per_round[0][name])
        for name in per_round[0]
    }
    # cli.self_s: untraced operation time minus the library spans it traced
    untraced_op = {}
    for results in plain:
        for r in results:
            untraced_op.setdefault(r.key, []).append(r.seconds)
    library = {}
    for results, spans in traced_rounds:
        keys = [r.key for r in results]
        lib: dict[tuple[str, int], float] = {}
        for s in spans:
            if s.parent is None:
                lib[keys[s.op]] = lib.get(keys[s.op], 0.0) + s.seconds
        for key in keys:
            library.setdefault(key, []).append(lib.get(key, 0.0))
    metrics["cli.self_s"] = sum(
        statistics.median(untraced_op[k]) - statistics.median(library[k]) for k in untraced_op
    )
    metrics["trace.overhead_s"] = statistics.median(
        sum(r.seconds for r in results) for results, _ in traced_rounds
    ) - statistics.median(sum(r.seconds for r in results) for results in plain)
    metrics["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    metrics["mask.parse_s"] = statistics.median(p["parse_s"] for p in probes)
    metrics["mask.taps"] = sum(len(p.doc["coefficients"]) for p in problems)
    metrics = {name: metrics[name] for name in LAYER_UNITS}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {LAYER_UNITS[name]}")

    first_results, first_spans = traced_rounds[0]
    keys = [r.key for r in first_results]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "git_sha": git_sha(),
        "machine": machine_facts(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced_rounds": len(traced_rounds),
        "untraced_rounds": len(plain),
        "per_layer": metrics,
        "enum_kept_ratio_by_level": enum_ratio_by_level(first_spans),
        "setup_probes": probes,
        "operations": [
            {"op": i, "problem": r.key[0], "argv": r.argv[:1] + r.argv[2:],
             "outcome": r.outcome, "seconds": r.seconds}
            for i, r in enumerate(first_results)
        ],
        "spans": [
            {"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
             "problem": keys[s.op][0] if s.op is not None else None,
             "start": s.start, "end": s.end, "sizes": s.sizes, "error": s.error}
            for s in first_spans
        ],
    }, indent=1))
    print(f"trace written to {path.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
