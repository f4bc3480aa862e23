#!/usr/bin/env python3
"""Evaluate a limit function exactly on the dense lattice {M^-j k}.

Integer-point values are the eigenvalue-1 eigenvector of the transfer
matrix, normalized to sum one; the two-scale relation then determines the
values on every finer lattice with no approximation beyond float roundoff.
The unit indicator shows the non-unique case: its transfer matrix fixes
two independent vectors, and the half-open convention picks one of them.
"""

import warnings
from pathlib import Path

import numpy as np

from refinable import (
    build_transfer_matrix,
    candidate_points,
    converged_integer_values,
    integer_values,
    parse_problem,
    periodization_check,
    refine_values,
)
from refinable.errors import NonUniqueWarning

PROBLEM_DIR = Path(__file__).parent / "problems"


def four_tap() -> None:
    problem = parse_problem((PROBLEM_DIR / "daubechies4.json").read_text())
    points = candidate_points(problem)
    print(f"== daubechies4: candidate integer points {points[:, 0].tolist()}")
    transfer = build_transfer_matrix(problem, points)
    result = integer_values(transfer)
    print(f"   eigenspace dimension {result.eigenspace_dimension}")
    zeros = result.structural_zeros[:, 0].tolist()
    for k, value in zip(points[:, 0].tolist(), result.values.values.tolist()):
        marker = "   (structural zero)" if k in zeros else ""
        print(f"   phi({k:+d}) = {value:+.12f}{marker}")
    table = refine_values(problem, result.values, 4)
    print("   values on the quarter-integer lattice:")
    for k in range(0, 13):
        print(f"   phi({k}/4) = {table.levels[2][(k,)]:+.12f}")
    # the quarter points 1/4, 2/4 and 3/4 are the level-2 index rows 1, 2, 3
    checks = periodization_check(problem, table, 2, np.array([[1], [2], [3]]))
    worst = max(dev for _, _, dev in checks)
    print(f"   partition-of-unity deviation at quarter probes: {worst:.3g}\n")


def unit_indicator() -> None:
    problem = parse_problem((PROBLEM_DIR / "haar.json").read_text())
    points = candidate_points(problem)
    transfer = build_transfer_matrix(problem, points)
    print("== haar: the transfer matrix fixes a two-dimensional eigenspace")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUniqueWarning)
        result = integer_values(transfer)
    for row in result.basis:
        entries = ", ".join(f"phi({k:+d})={v:+.1f}" for k, v in zip(points[:, 0].tolist(), row))
        print(f"   basis vector: {entries}")
    print("   iterating the transfer matrix on the box-indicator samples")
    print("   selects the half-open convention:")
    converged = converged_integer_values(problem)
    for k, value in zip(converged.indices[:, 0].tolist(), converged.values.tolist()):
        print(f"   phi({k:+d}) = {value:+.1f}")


def main() -> None:
    four_tap()
    unit_indicator()


if __name__ == "__main__":
    main()
