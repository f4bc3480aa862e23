#!/usr/bin/env python3
"""Compute every support bound for the bundled problem documents.

Each bound is a region guaranteed to contain the support of the limit
function of the refinement scheme.  The norm ball needs a contractive
inverse; the per-coordinate boxes need diagonal or real-spectrum structure;
the iterated-norm ball works for every dilation matrix.
"""

import json
from pathlib import Path

from refinable import (
    applicable_bounds,
    best_bound,
    enclosing_integer_box,
    jordan_block_bound,
    jordan_recurrence_table,
    parse_problem,
)

PROBLEM_DIR = Path(__file__).parent / "problems"


def show_bounds(name: str) -> None:
    problem = parse_problem((PROBLEM_DIR / f"{name}.json").read_text())
    print(f"== {name} (dimension {problem.dim}, m = {problem.m}, "
          f"mask radius {problem.mask.radius:.5f})")
    for bound in applicable_bounds(problem):
        if hasattr(bound, "radius"):
            print(f"   {bound.provenance}: |x| <= {bound.radius:.6f}")
        else:
            widths = ", ".join(f"{h:.6f}" for h in bound.half_widths)
            print(f"   {bound.provenance}: half-widths ({widths})")
    chosen = best_bound(problem)
    box = enclosing_integer_box(chosen)
    widths = ", ".join(str(int(h)) for h in box.half_widths)
    print(f"   selected {chosen.provenance}; integer box half-widths ({widths})")
    print()


def main() -> None:
    for name in ("haar", "daubechies4", "quincunx", "shear2d", "skew3"):
        show_bounds(name)

    print("Coupled coordinates of a defective eigenvalue:")
    print("  limit half-widths for a 3x3 block at eigenvalue 3, mask radius 1:")
    print("   ", jordan_block_bound(3.0, 3, 1.0))
    print("  and the finite-level recursion converging to them:")
    table = jordan_recurrence_table(3.0, 3, 1.0, 1.0, 40)
    for n in (1, 2, 5, 10, 40):
        row = ", ".join(f"{x:.8f}" for x in table[n - 1])
        print(f"    level {n:2d}: {row}")
    print("  at eigenvalue exactly 2 each step of the recurrence is exact, so h_k = Q*k:")
    print("   ", jordan_block_bound(2.0, 3, 1.0))


if __name__ == "__main__":
    main()
