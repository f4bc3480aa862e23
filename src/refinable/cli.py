"""Command-line front end.

Subcommands::

    analyze  PROBLEM [--format table|delimited|structured]
    bound    PROBLEM [--format ...]
    cascade  PROBLEM [--iters N --initial box|hat --eps E --outdir DIR]
    values   PROBLEM [--left-closed --format ...]
    refine   PROBLEM [--levels J --left-closed --outdir DIR]
    check    PROBLEM [--iters N --levels J]

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 numerical outcome.
Errors print one machine-parsable line ``error: <Code>: <message>`` on
stderr.  Output is deterministic: identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import cascade as cascade_mod
from . import pointwise as pointwise_mod
from .errors import (
    ComplexSpectrum,
    ContractionSearchExhausted,
    DimensionMismatch,
    DomainTooSmall,
    EmptyMask,
    IllConditionedTransform,
    MaskSumViolation,
    NoBoundAvailable,
    NonUniqueWarning,
    NormNotContractive,
    NormalizationImpossible,
    NotDilation,
    NoUnitEigenvalue,
    ParseError,
    RefinableError,
    RootFindingFailure,
)
from .mask import Problem, coset_sum_report, parse_problem

_INPUT_ERRORS = (
    ParseError,
    DimensionMismatch,
    NotDilation,
    MaskSumViolation,
    EmptyMask,
)
_NUMERICAL_ERRORS = (
    NoUnitEigenvalue,
    ComplexSpectrum,
    IllConditionedTransform,
    NormNotContractive,
    ContractionSearchExhausted,
    NormalizationImpossible,
    DomainTooSmall,
    NoBoundAvailable,
    RootFindingFailure,
)

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
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_problem(text)


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


def _bound_lines(problem: Problem, applicable: list) -> list[str]:
    lines = []
    for bound in applicable:
        if isinstance(bound, bounds_mod.Ball):
            lines.append(f"{bound.provenance}: radius {_fmt(bound.radius)}")
        elif isinstance(bound, bounds_mod.Box):
            widths = ", ".join(_fmt(h) for h in bound.half_widths)
            lines.append(f"{bound.provenance}: half-widths ({widths})")
        else:
            widths = ", ".join(_fmt(h) for h in bound.half_widths)
            lines.append(f"{bound.provenance}: P half-widths ({widths})")
            for row in bound.transform:
                lines.append(
                    "  transform row: " + ", ".join(_fmt(x) for x in row)
                )
    try:
        bounds_mod.ball_bound(problem)
    except NormNotContractive as exc:
        lines.append(f"norm-ball: not applicable ({exc})")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    problem = _load_problem(args.problem)
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
    if mat.spectrum.all_real:
        structure = mat.jordan_structure
        data["jordan_blocks"] = [[lam, size] for lam, size in structure.blocks]
        lines.append(
            "jordan-blocks: "
            + ", ".join(f"({_fmt(lam)}, size {s})" for lam, s in structure.blocks)
        )
    else:
        data["jordan_blocks"] = None
        lines.append("jordan-blocks: not real (complex eigenvalues)")
    _emit(data, lines, args.format)
    return 0


def _bound_record(bound) -> dict:
    if isinstance(bound, bounds_mod.Ball):
        return {"provenance": bound.provenance, "kind": "ball", "radius": bound.radius}
    if isinstance(bound, bounds_mod.Box):
        return {
            "provenance": bound.provenance,
            "kind": "box",
            "half_widths": list(bound.half_widths),
        }
    return {
        "provenance": bound.provenance,
        "kind": "transformed-box",
        "half_widths": list(bound.half_widths),
        "transform": [list(map(float, row)) for row in bound.transform],
    }


def _cmd_bound(args) -> int:
    problem = _load_problem(args.problem)
    best = bounds_mod.best_bound(problem)
    box = bounds_mod.enclosing_integer_box(best)
    applicable = bounds_mod.applicable_bounds(problem)
    data = {
        "bounds": [_bound_record(b) for b in applicable],
        "selected": best.provenance,
        "integer_box_half_widths": [int(h) for h in box.half_widths],
    }
    widths = ", ".join(str(int(h)) for h in box.half_widths)
    lines = _bound_lines(problem, applicable) + [
        f"selected: {best.provenance}",
        f"integer-box: half-widths ({widths})",
    ]
    _emit(data, lines, args.format)
    return 0


def _cmd_cascade(args) -> int:
    problem = _load_problem(args.problem)
    if args.iters > LEVEL_CAP:
        raise ParseError(f"--iters above the level cap {LEVEL_CAP}")
    kind = (
        cascade_mod.InitialFunctionKind.INDICATOR_BOX
        if args.initial == "box"
        else cascade_mod.InitialFunctionKind.TENSOR_HAT
    )
    iterates = cascade_mod.run_cascade(problem, kind, args.iters)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.problem).stem
    for sampled in iterates:
        path = outdir / f"{stem}.level{sampled.level}.tsv"
        with open(path, "w") as handle:
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


def _resolve_values(problem: Problem, left_closed: bool):
    transfer = pointwise_mod.transfer_matrix(problem)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = pointwise_mod.integer_values(transfer)
    notes = [str(w.message) for w in caught if issubclass(w.category, NonUniqueWarning)]
    if result.normalized or not left_closed:
        return result, notes, result.values if result.normalized else None
    converged = pointwise_mod.converged_integer_values(problem)
    # project the converged iterate onto the eigenspace, then normalize
    vec = np.asarray([converged[p] for p in result.points])
    basis = result.basis
    coords, *_ = np.linalg.lstsq(basis.T, vec, rcond=None)
    projected = basis.T @ coords
    total = projected.sum()
    if abs(total) <= 1e-12:
        raise NormalizationImpossible("left-closed selection has zero sum")
    projected = projected / total
    values = {p: float(v) for p, v in zip(result.points, projected)}
    notes.append("left-closed tie-break applied")
    return result, notes, values


def _cmd_values(args) -> int:
    problem = _load_problem(args.problem)
    result, notes, values = _resolve_values(problem, args.left_closed)
    data = {
        "eigenspace_dimension": result.eigenspace_dimension,
        "points": [list(p) for p in result.points],
        "warnings": notes,
        "values": [values[p] for p in result.points] if values is not None else None,
        "basis": None if values is not None else [list(map(float, row)) for row in result.basis],
        "structural_zeros": [list(p) for p in result.structural_zeros],
    }
    lines = [f"warning: NonUnique: {note}" for note in notes]
    lines.append(f"eigenspace-dimension: {result.eigenspace_dimension}")
    if values is not None:
        lines.extend(
            f"phi{list(point)}: {_fmt(values[point])}" for point in result.points
        )
        if result.normalized and result.structural_zeros:
            zeros = ", ".join(str(list(p)) for p in result.structural_zeros)
            lines.append(f"structural-zeros: {zeros}")
    else:
        lines.extend(
            "basis[{}]: {}".format(
                i,
                ", ".join(f"{list(p)}: {_fmt(v)}" for p, v in zip(result.points, row)),
            )
            for i, row in enumerate(result.basis)
        )
    _emit(data, lines, args.format)
    return 0


def _cmd_refine(args) -> int:
    problem = _load_problem(args.problem)
    if args.levels > LEVEL_CAP:
        raise ParseError(f"--levels above the level cap {LEVEL_CAP}")
    _, notes, values = _resolve_values(problem, args.left_closed)
    if values is None:
        print(
            "error: NoUnitEigenvalue-ambiguity: transfer eigenspace is not "
            "one-dimensional; rerun with --left-closed",
            file=sys.stderr,
        )
        return 3
    for note in notes:
        print(f"warning: NonUnique: {note}")
    table = pointwise_mod.refine_values(problem, values, args.levels)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.problem).stem
    for level, sampled in sorted(table.samples.items()):
        single = pointwise_mod.ValueTable({level: sampled}, table.normalized)
        path = outdir / f"{stem}.level{level}.tsv"
        with open(path, "w") as handle:
            pointwise_mod.export_values(problem, single, handle)
        print(f"level {level}: {len(sampled.values)} lattice points -> {path}")
    return 0


def _cmd_check(args) -> int:
    problem = _load_problem(args.problem)
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        suffix = f" ({detail})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")

    coeff_sum = sum(problem.mask.coefficients.values())
    report("mask-sum", abs(coeff_sum - 1.0) <= 1e-10, f"sum {_fmt(coeff_sum)}")
    report("dilation", bool(problem.matrix.dilation_check))
    report(
        "coset-uniformity",
        True,
        "uniform" if coset_sum_report(problem).uniform else "not uniform (reported only)",
    )

    best = bounds_mod.best_bound(problem)
    report("bound-contains-origin", best.contains((0.0,) * problem.dim))
    try:
        ball = bounds_mod.ball_bound(problem)
        general = bounds_mod.general_ball_bound(problem)
        report(
            "bound-consistency",
            abs(ball.radius - general.radius) <= 1e-12 * max(1.0, ball.radius),
        )
    except NormNotContractive:
        report("bound-consistency", True, "not contractive; skipped")

    iterates = cascade_mod.run_cascade(
        problem, cascade_mod.InitialFunctionKind.INDICATOR_BOX, args.iters
    )
    masses = [cascade_mod.discrete_mass(problem, f) for f in iterates]
    drift = max(abs(x - masses[0]) for x in masses)
    report("cascade-mass", drift <= 1e-12 * max(1.0, abs(masses[0])), f"drift {drift:.3g}")

    box = bounds_mod.enclosing_integer_box(best)
    final = iterates[-1]
    support = cascade_mod.empirical_support(problem, final, args.eps)
    if support is None:
        report("cascade-containment", True, "no samples above eps")
    else:
        inv_power = problem.matrix.inverse_power_array(final.level)
        cell = np.abs(inv_power).sum(axis=1)
        ok = all(
            lo >= -(h + c) and hi <= h + c
            for lo, hi, h, c in zip(support.lo, support.hi, box.half_widths, cell)
        )
        report("cascade-containment", ok)

    transfer = pointwise_mod.transfer_matrix(problem)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = pointwise_mod.integer_values(transfer)
    except (NoUnitEigenvalue, NormalizationImpossible) as exc:
        report("transfer-eigen-residual", False, type(exc).__name__)
        result = None
    if result is not None:
        residual = max(
            float(np.max(np.abs(transfer.matrix @ row - row)))
            / max(float(np.max(np.abs(row))), 1e-300)
            for row in result.basis
        )
        report("transfer-eigen-residual", residual <= 1e-8, f"residual {residual:.3g}")

    if result is not None and result.normalized:
        table = pointwise_mod.refine_values(problem, result.values, args.levels)
        worst = pointwise_mod.refine_consistency(problem, table)
        report("refine-consistency", worst <= 1e-12, f"max deviation {worst:.3g}")
        probes = [tuple(float(x) for x in p) for p in transfer.points]
        deviations = pointwise_mod.periodization_check(problem, table, 0, probes)
        worst_dev = max(d for _, _, d in deviations)
        report("partition-of-unity", worst_dev <= 1e-8, f"max deviation {worst_dev:.3g}")
    else:
        report("refine-consistency", True, "non-unique values; skipped")
        report("partition-of-unity", True, "non-unique values; skipped")

    return 3 if failures else 0


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
        help="initial function (default box)",
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
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except RefinableError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
