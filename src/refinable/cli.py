"""Command-line front end.

Subcommands::

    analyze  PROBLEM [--format table|delimited|structured]
    bound    PROBLEM [--format ...]
    cascade  PROBLEM [--iters N --initial box|hat --eps E --outdir DIR]
    values   PROBLEM [--left-closed --format ...]
    refine   PROBLEM [--levels J --left-closed --outdir DIR]
    check    PROBLEM [--iters N --levels J]

Exit codes: 0 success, 1 usage error or stdout closed early, 2 invalid
input, 3 numerical outcome.
Errors print one machine-parsable line ``error: <Code>: <message>`` on
stderr.  Output is deterministic: identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import cascade as cascade_mod
from . import checks as checks_mod
from . import pointwise as pointwise_mod
from .errors import (
    ComplexSpectrum,
    IllConditionedTransform,
    InputError,
    NonUniqueValues,
    NormNotContractive,
    ParseError,
    RefinableError,
)
from .mask import Problem, coset_sum_report, parse_problem

LEVEL_CAP = cascade_mod.DEFAULT_LEVEL_CAP


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems via exit code 1."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        print(f"error: Usage: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_problem(path: str) -> Problem:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_problem(text)


def _open_dump(args, level: int, make_dir: bool):
    """Open level ``level``'s dump in ``--outdir``, named after the problem
    file, first creating the directory when ``make_dir`` is set (for the first
    file); a path that cannot be used is refused like an unreadable one."""
    path = Path(args.outdir) / f"{Path(args.problem).stem}.level{level}.tsv"
    try:
        if make_dir:
            path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _require_range(flag: str, value: float, low: int, cap: int | None = None) -> None:
    """Refuse a flag value below ``low`` (or NaN) or above the level ``cap``."""
    if not value >= low:
        raise ParseError(f"{flag} must be at least {low}, got {value}")
    if cap is not None and value > cap:
        raise ParseError(f"{flag} above the level cap {cap}")


def _emit(data: dict, table_lines: list[str], output_format: str) -> None:
    """Render a report as a human table, tab-delimited pairs, or JSON."""
    if output_format == "table":
        for line in table_lines:
            print(line)
    elif output_format == "delimited":
        for key, value in data.items():
            print(f"{key}\t{json.dumps(value, sort_keys=True)}")
    else:
        print(json.dumps(data, indent=2, sort_keys=True))


def _bound_lines(problem: Problem, records: list[dict]) -> list[str]:
    lines = []
    for rec in records:
        if "radius" in rec:
            shape = f"radius {_fmt(rec['radius'])}"
        else:
            widths = ", ".join(_fmt(h) for h in rec["half_widths"])
            shape = f"{'P ' if 'transform' in rec else ''}half-widths ({widths})"
        lines.append(f"{rec['provenance']}: {shape}")
        lines.extend(
            "  transform row: " + ", ".join(_fmt(x) for x in row)
            for row in rec.get("transform", ())
        )
    try:
        bounds_mod.ball_bound(problem)
    except NormNotContractive as exc:
        lines.append(f"norm-ball: not applicable ({exc})")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(problem: Problem, args) -> int:
    mat = problem.matrix
    verdict = mat.dilation_check
    report = coset_sum_report(problem)
    data = {
        "dimension": mat.dim,
        "determinant": mat.determinant,
        "m": mat.m,
        "eigenvalues": [[z.real, z.imag] for z in mat.spectrum.eigenvalues],
        "matrix_norm": mat.norm,
        "inverse_norm": mat.inverse_norm,
        "dilation": bool(verdict),
        "dilation_reason": verdict.reason,
        "mask_radius": problem.mask.radius,
        "coset_sums": [
            {"representative": list(rep), "sum": s}
            for rep, s in zip(report.representatives, report.sums)
        ],
        "coset_uniform": report.uniform,
    }
    lines = [
        f"dimension: {mat.dim}",
        f"determinant: {mat.determinant}",
        f"m: {mat.m}",
        "eigenvalues: "
        + ", ".join(
            _fmt(z.real) if z.imag == 0 else f"{_fmt(z.real)}{z.imag:+g}i"
            for z in mat.spectrum.eigenvalues
        ),
        f"matrix-norm: {_fmt(mat.norm)}",
        f"inverse-norm: {_fmt(mat.inverse_norm)}",
        f"dilation: {'yes' if verdict else 'no (' + verdict.reason + ')'}",
        f"mask-radius: {_fmt(problem.mask.radius)}",
        "coset-sums: "
        + ", ".join(
            f"{list(rep)}: {_fmt(s)}"
            for rep, s in zip(report.representatives, report.sums)
        )
        + f" (uniform: {'yes' if report.uniform else 'no'})",
    ]
    try:
        blocks = mat.jordan_structure.blocks
        data["jordan_blocks"] = [[lam, size] for lam, size in blocks]
        summary = ", ".join(f"({_fmt(lam)}, size {s})" for lam, s in blocks)
    except ComplexSpectrum:
        data["jordan_blocks"], summary = None, "not real (complex eigenvalues)"
    except IllConditionedTransform as exc:
        data["jordan_blocks"], summary = None, f"not available ({exc})"
    lines.append(f"jordan-blocks: {summary}")
    _emit(data, lines, args.format)
    return 0


def _cmd_bound(problem: Problem, args) -> int:
    best = bounds_mod.best_bound(problem)
    box = bounds_mod.enclosing_integer_box(best)
    records = [b.record() for b in bounds_mod.applicable_bounds(problem)]
    data = {
        "bounds": records,
        "selected": best.provenance,
        "integer_box_half_widths": [int(h) for h in box.half_widths],
    }
    widths = ", ".join(str(int(h)) for h in box.half_widths)
    lines = _bound_lines(problem, records) + [
        f"selected: {best.provenance}",
        f"integer-box: half-widths ({widths})",
    ]
    _emit(data, lines, args.format)
    return 0


def _cmd_cascade(problem: Problem, args) -> int:
    _require_range("--iters", args.iters, 0, LEVEL_CAP)
    _require_range("--eps", args.eps, 0)
    iterates = cascade_mod.run_cascade(problem, levels=args.iters)
    for i, sampled in enumerate(iterates):
        with _open_dump(args, sampled.level, i == 0) as handle:
            cascade_mod.write_samples(problem, [sampled], handle)
        box = cascade_mod.empirical_support(problem, sampled, args.eps)
        mass = cascade_mod.discrete_mass(problem, sampled)
        if box is None:
            support = "empty"
        else:
            support = "; ".join(
                f"[{_fmt(lo)}, {_fmt(hi)}]" for lo, hi in zip(box.lo, box.hi)
            )
        print(
            f"level {sampled.level}: samples {len(sampled.values)}, "
            f"mass {_fmt(mass)}, support {support}"
        )
    return 0


def _cmd_values(problem: Problem, args) -> int:
    result, notes, values = pointwise_mod.resolve_values(problem, args.left_closed)
    points = result.points.tolist()
    zeros = result.structural_zeros.tolist()
    data = {
        "eigenspace_dimension": result.eigenspace_dimension,
        "points": points,
        "warnings": notes,
        "values": values.values.tolist() if values is not None else None,
        "basis": None if values is not None else result.basis.tolist(),
        "structural_zeros": zeros,
    }
    lines = [f"warning: NonUnique: {note}" for note in notes]
    lines.append(f"eigenspace-dimension: {result.eigenspace_dimension}")
    if values is not None:
        lines.extend(
            f"phi{point}: {_fmt(value)}" for point, value in zip(points, data["values"])
        )
        if zeros:
            lines.append(f"structural-zeros: {', '.join(map(str, zeros))}")
    else:
        lines.extend(
            "basis[{}]: {}".format(
                i, ", ".join(f"{p}: {_fmt(v)}" for p, v in zip(points, row))
            )
            for i, row in enumerate(data["basis"])
        )
    _emit(data, lines, args.format)
    return 0


def _cmd_refine(problem: Problem, args) -> int:
    _require_range("--levels", args.levels, 1, LEVEL_CAP)
    result, notes, values = pointwise_mod.resolve_values(problem, args.left_closed)
    try:
        # without the tie-break, the eigenspace's own values refuse a larger one
        level0 = result.values if values is None else values
    except NonUniqueValues as exc:
        raise NonUniqueValues(f"{exc}; rerun with --left-closed") from None
    for note in notes:
        print(f"warning: NonUnique: {note}")
    table = pointwise_mod.refine_values(problem, level0, args.levels)
    for i, (level, sampled) in enumerate(sorted(table.samples.items())):
        single = cascade_mod.ValueTable({level: sampled})
        with _open_dump(args, level, i == 0) as handle:
            pointwise_mod.export_values(problem, single, handle)
        print(f"level {level}: {len(sampled.values)} lattice points -> {handle.name}")
    return 0


def _cmd_check(problem: Problem, args) -> int:
    _require_range("--iters", args.iters, 0, LEVEL_CAP)
    _require_range("--levels", args.levels, 1, LEVEL_CAP)
    _require_range("--eps", args.eps, 0)
    checks = checks_mod.run_checks(problem, args.iters, args.levels, args.eps)
    for check in checks:
        suffix = f" ({check.detail})" if check.detail else ""
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}{suffix}")
    return 0 if all(check.passed for check in checks) else 3


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="refinable",
        description="Support bounds, cascade iteration, and lattice values "
        "for refinable functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem", help="path to a problem document (JSON)")
        p.set_defaults(func=func)
        return p

    def add_format(p):
        p.add_argument(
            "--format", choices=("table", "delimited", "structured"),
            default="table", help="report rendering (default table)",
        )

    add_format(add("analyze", _cmd_analyze, "matrix analytics and dilation verdict"))
    add_format(add("bound", _cmd_bound, "every applicable support bound"))

    p = add("cascade", _cmd_cascade, "run the cascade iteration")
    p.add_argument("--iters", type=int, default=6, help="number of levels (default 6)")
    p.add_argument(
        "--initial", choices=("box", "hat"), default="box",
        help="initial function (default box); both kinds give the same "
             "output, since the cascade reads it only at integer points",
    )
    p.add_argument("--eps", type=float, default=cascade_mod.DEFAULT_SUPPORT_EPS,
                   help="support threshold (default 1e-12)")
    p.add_argument("--outdir", default=".", help="directory for sample dumps")

    p = add("values", _cmd_values, "integer-point values via the transfer matrix")
    p.add_argument("--left-closed", action="store_true",
                   help="tie-break a non-unique eigenspace toward the "
                        "half-open box indicator limit")
    add_format(p)

    p = add("refine", _cmd_refine, "refine values onto finer lattices")
    p.add_argument("--levels", type=int, default=4, help="levels to refine (default 4)")
    p.add_argument("--left-closed", action="store_true",
                   help="tie-break a non-unique eigenspace")
    p.add_argument("--outdir", default=".", help="directory for the value table")

    p = add("check", _cmd_check, "run the invariant suite")
    p.add_argument("--iters", type=int, default=4, help="cascade levels (default 4)")
    p.add_argument("--levels", type=int, default=3, help="refinement levels (default 3)")
    p.add_argument("--eps", type=float, default=cascade_mod.DEFAULT_SUPPORT_EPS)

    return parser


# Built on the first call and reused: parsing keeps no state in the parser,
# and building it costs more than many a subcommand.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(_load_problem(args.problem), args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at the null device so
        # the interpreter's final flush cannot raise again, and end quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except RefinableError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3
    except MemoryError as exc:
        # numpy raises a subclass; the line names the builtin
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
