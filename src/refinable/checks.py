"""The invariant suite behind ``refinable check``: one record per check.

The library is called through its module attributes, so a wrapper installed
on ``refinable.bounds``, ``refinable.cascade``, ``refinable.mask`` or
``refinable.pointwise`` sees every call made here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import cascade as cascade_mod
from . import mask as mask_mod
from . import pointwise as pointwise_mod
from .errors import NormalizationImpossible, NormNotContractive, NoUnitEigenvalue
from .mask import Problem


@dataclass(frozen=True)
class Check:
    """The outcome of one invariant; ``detail`` is empty when there is
    nothing to add to the verdict."""

    name: str
    passed: bool
    detail: str = ""


def run_checks(problem: Problem, iters: int, levels: int, eps: float) -> list[Check]:
    """Run the invariant suite: mask, dilation and bounds, a cascade of
    ``iters`` levels, the transfer eigenvector and ``levels`` refinement
    levels.  Returns the ten records in a fixed order; ``eps`` is the
    support threshold of the cascade containment check."""
    checks: list[Check] = []

    def record(name: str, passed, detail: str = "") -> None:
        checks.append(Check(name, bool(passed), detail))

    coeff_sum = sum(problem.mask.coefficients.values())
    record("mask-sum", abs(coeff_sum - 1.0) <= 1e-10, f"sum {float(coeff_sum)!r}")
    record("dilation", problem.matrix.dilation_check)
    uniform = mask_mod.coset_sum_report(problem).uniform
    record("coset-uniformity", True, "uniform" if uniform else "not uniform (reported only)")

    best = bounds_mod.best_bound(problem)
    record("bound-contains-origin", best.contains_many(np.zeros((1, problem.dim)))[0])
    try:
        ball = bounds_mod.ball_bound(problem)
        general = bounds_mod.general_ball_bound(problem)
        record(
            "bound-consistency",
            abs(ball.radius - general.radius) <= 1e-12 * max(1.0, ball.radius),
        )
    except NormNotContractive:
        record("bound-consistency", True, "not contractive; skipped")

    iterates = cascade_mod.run_cascade(
        problem, cascade_mod.InitialFunctionKind.INDICATOR_BOX, iters
    )
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

    transfer = pointwise_mod.transfer_matrix(problem)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = pointwise_mod.integer_values(transfer)
    except (NoUnitEigenvalue, NormalizationImpossible) as exc:
        record("transfer-eigen-residual", False, type(exc).__name__)
        result = None
    if result is not None:
        residual = max(
            float(np.max(np.abs(transfer.matrix @ row - row)))
            / max(float(np.max(np.abs(row))), 1e-300)
            for row in result.basis
        )
        record("transfer-eigen-residual", residual <= 1e-8, f"residual {residual:.3g}")

    if result is not None and result.normalized:
        table = pointwise_mod.refine_values(problem, result.values, levels)
        worst = pointwise_mod.refine_consistency(problem, table)
        record("refine-consistency", worst <= 1e-12, f"max deviation {worst:.3g}")
        deviations = pointwise_mod.periodization_check(problem, table, 0, transfer.points)
        worst_dev = max(d for _, _, d in deviations)
        record("partition-of-unity", worst_dev <= 1e-8, f"max deviation {worst_dev:.3g}")
    else:
        record("refine-consistency", True, "non-unique values; skipped")
        record("partition-of-unity", True, "non-unique values; skipped")
    return checks
