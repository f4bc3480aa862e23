"""The invariant suite behind ``refinable check``: one record per check.

The library is called through its module attributes, so a wrapper installed
on ``refinable.bounds``, ``refinable.cascade`` or ``refinable.pointwise``
sees every call made here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import cascade as cascade_mod
from . import pointwise as pointwise_mod
from .errors import NoLeftClosedLimit, NormalizationImpossible, NoUnitEigenvalue
from .mask import Problem


@dataclass(frozen=True)
class Check:
    """The outcome of one invariant; ``detail`` is empty when there is
    nothing to add to the verdict."""

    name: str
    passed: bool
    detail: str = ""


def run_checks(problem: Problem, iters: int, levels: int, eps: float) -> list[Check]:
    """Run the invariant suite: a cascade of ``iters`` levels, the transfer
    eigenspace, and ``levels`` refinement levels of the level-0 values that
    ``values --left-closed`` prints.  Returns the five records in a fixed
    order; ``eps`` is the support threshold of the cascade containment check.
    The value records are skipped, naming the error, when there are no such
    values."""
    checks: list[Check] = []

    def record(name: str, passed, detail: str = "") -> None:
        checks.append(Check(name, bool(passed), detail))

    # the bound first: one that cannot be built is refused before the cascade
    best = bounds_mod.best_bound(problem)
    iterates = cascade_mod.run_cascade(problem, levels=iters)
    masses = [cascade_mod.discrete_mass(problem, f) for f in iterates]
    drift = max(abs(x - masses[0]) for x in masses)
    record("cascade-mass", drift <= 1e-12 * max(1.0, abs(masses[0])), f"drift {drift:.3g}")

    box = bounds_mod.enclosing_integer_box(best)
    final = iterates[-1]
    support = cascade_mod.empirical_support(problem, final, eps)
    if support is None:
        record("cascade-containment", True, "no samples above eps")
    else:
        inv_power = problem.matrix.inverse_power_array(final.level)
        cell = np.abs(inv_power).sum(axis=1)
        record("cascade-containment", all(
            lo >= -(h + c) and hi <= h + c
            for lo, hi, h, c in zip(support.lo, support.hi, box.half_widths, cell)
        ))

    try:
        # no tie-break yet: a refused one still leaves the eigenspace's
        # residual, and the tie-break below reads this same eigensolve
        result = pointwise_mod.resolve_values(problem, False)[0]
    except (NoUnitEigenvalue, NormalizationImpossible) as exc:
        record("transfer-eigen-residual", False, type(exc).__name__)
        return _skipped(checks, type(exc).__name__)
    transfer = pointwise_mod.transfer_matrix(problem)
    residual = max(
        float(np.max(np.abs(transfer.matrix @ row - row)))
        / max(float(np.max(np.abs(row))), 1e-300)
        for row in result.basis
    )
    record("transfer-eigen-residual", residual <= 1e-8, f"residual {residual:.3g}")
    try:
        level0 = pointwise_mod.resolve_values(problem, True)[2]
    except (NoLeftClosedLimit, NormalizationImpossible) as exc:
        return _skipped(checks, type(exc).__name__)

    table = pointwise_mod.refine_values(problem, level0, levels)
    worst = pointwise_mod.refine_consistency(problem, table)
    record("refine-consistency", worst <= 1e-12, f"max deviation {worst:.3g}")
    top = table.samples[levels].indices
    rows = top[:: math.ceil(len(top) / 50)]
    deviations = pointwise_mod.periodization_check(problem, table, levels, rows)
    worst_dev = max(d for _, _, d in deviations)
    record("partition-of-unity", worst_dev <= 1e-8, f"max deviation {worst_dev:.3g}")
    return checks


def _skipped(checks: list[Check], reason: str) -> list[Check]:
    """The records so far and the two value records, skipped for ``reason``."""
    detail = f"{reason}; skipped"
    return checks + [Check("refine-consistency", True, detail),
                     Check("partition-of-unity", True, detail)]
