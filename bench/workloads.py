"""The benchmark's workloads: problem documents and the CLI operations run on them.

A workload is a list of :class:`Problem` entries.  Each names a problem
document and the ``refinable`` subcommands a round runs on it, in order.  The
documents are JSON dicts; :func:`build` writes them into the run's work
directory (bundled problems are copied so every path is the run's own).

``cascade-deep`` and ``refine-fine`` use fixed problems in a fixed order
(the order sets the heap history, and so ``peak_rss_mb``); they ignore the
seed.  ``many-small`` draws its
problems from the seed as isometric copies of a fixed catalog, so every seed
poses the same amount of work (see README.md).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

from exact import matmul, matmul_vec, shortest_residues

BUNDLED = Path(__file__).resolve().parent.parent / "demos" / "problems"


@dataclass
class Problem:
    """One problem document and the operations a round runs on it.

    ``ops`` holds CLI argument lists; the token ``{doc}`` is replaced by the
    document path and ``{out}`` by the operation's own dump directory.
    ``expect`` carries facts the correctness checks need (see checks.py).
    """

    name: str
    doc: dict
    ops: list[list[str]]
    expect: dict = field(default_factory=dict)


def _bundled(name: str) -> dict:
    return json.loads((BUNDLED / f"{name}.json").read_text())


def d4_coefficients() -> list[float]:
    """The bundled Daubechies-4 mask, as floats indexed 0..3."""
    doc = _bundled("daubechies4")
    return [float(rec["c"]) for rec in sorted(doc["coefficients"], key=lambda r: r["q"])]


def tensor_d4() -> dict:
    """2-D tensor-product D4: M = 2I and c_(i,j) = c_i c_j (16 float taps)."""
    c = d4_coefficients()
    return {
        "dimension": 2,
        "matrix": [[2, 0], [0, 2]],
        "coefficients": [
            {"q": [i, j], "c": c[i] * c[j]} for i in range(4) for j in range(4)
        ],
    }


def _cascade(iters: int) -> list[list[str]]:
    return [["cascade", "{doc}", "--iters", str(iters), "--outdir", "{out}"]]


def _refine(levels: int, left_closed: bool) -> list[list[str]]:
    args = ["refine", "{doc}", "--levels", str(levels), "--outdir", "{out}"]
    if left_closed:
        args.insert(2, "--left-closed")
    return [args]


def cascade_deep() -> list[Problem]:
    # Depths are chosen so each cascade takes about a second on a 2-core
    # desk machine and a round of all three fits several times in a run.
    # The shallow refine (about 1 % of a round) keeps the analysis, bound
    # and pointwise layers near zero rather than absent in the trace.
    return [
        Problem("shear2d", _bundled("shear2d"), _cascade(7), {"tile": True}),
        Problem(
            "skew3", _bundled("skew3"), _cascade(9) + _refine(2, True), {"tile": True}
        ),
        Problem("d4x2", tensor_d4(), _cascade(5), {"tensor_d4": True}),
    ]


def refine_fine() -> list[Problem]:
    return [
        Problem("daubechies4", _bundled("daubechies4"), _refine(11, False), {"d4": True}),
        Problem("d4x2", tensor_d4(), _refine(3, False), {"tensor_d4": True}),
        # the shallow cascade keeps the cascade diagnostics present in the trace
        Problem(
            "haar", _bundled("haar"), _refine(12, True) + _cascade(4),
            {"haar": True, "tile": True},
        ),
        Problem("quincunx", _bundled("quincunx"), _refine(9, True)),
        Problem("shear2d", _bundled("shear2d"), _refine(4, True)),
        # Fails today: the level-9 enumeration box (5,855,151 points) is
        # refused with an uncaught MemoryError.  Kept so the fault stays
        # counted in `failed` until the enumeration is fixed.
        Problem("skew3", _bundled("skew3"), _refine(9, True)),
    ]


# ---------------------------------------------------------------------------
# many-small: a seeded stream of generated problems
# ---------------------------------------------------------------------------

# Every seed uses every entry of this catalog once.  Each entry is
# (M, convolve): the mask is 1/m on the shortest complete residue digit set
# D of M, or with convolve the self-convolution of that mask.  The seed draws
# a signed permutation P per entry and the problem is (P M P^T, P D): an
# isometric copy, so every seed poses the same amount of work (the same
# candidate counts, bounds and sample counts) in a different orientation and
# the workload's figures do not depend on which seed ran.  The matrices come
# from an enumeration of all dilations with entries in -2..2 (d = 2) and a
# sample with entries in -1..2 (d = 3), keeping every problem at most ~150
# candidate points.
CATALOG = {
    # d = 1: the interval bound and the norm ball
    "d1": [([[2]], True), ([[3]], True), ([[-2]], False), ([[-3]], False),
           ([[4]], True), ([[-4]], False)],
    # ||M^-1|| < 1, so the norm ball is selected
    "d2-ball": [([[1, 1], [-1, 1]], True), ([[0, 2], [-2, 1]], False),
                ([[2, -2], [1, 1]], False), ([[-2, 0], [0, 2]], True)],
    # non-diagonal Jordan structure ([[l, 1], [0, l]] up to conjugation)
    "d2-jordan": [([[2, 1], [0, 2]], True), ([[-2, 1], [0, -2]], False),
                  ([[2, 0], [1, 2]], False)],
    # ||M^-1|| >= 1: the Jordan parallelepiped or the iterated-norm ball
    "d2-noncontractive": [
        ([[0, 1], [2, 0]], True), ([[-2, 1], [-1, 2]], False), ([[-1, 2], [-2, 1]], True),
        ([[0, 2], [-1, 0]], False), ([[-2, -2], [1, 2]], True),
    ],
    # d = 3, ||M^-1|| >= 1, real spectrum: the Jordan parallelepiped
    "d3": [
        ([[0, 0, 1], [-1, 2, 0], [2, 0, 0]], False),
        ([[2, 0, -1], [0, 0, 2], [0, 1, 0]], False),
        ([[0, 0, 2], [0, 2, 0], [1, 0, 0]], False),
    ],
}
MANY_SMALL_OPS = [
    ["analyze", "{doc}", "--format", "structured"],
    ["bound", "{doc}", "--format", "structured"],
    ["values", "{doc}", "--left-closed", "--format", "structured"],
    ["check", "{doc}"],
    ["refine", "{doc}", "--left-closed", "--levels", "2", "--outdir", "{out}"],
]


def _signed_permutation(rng: random.Random, d: int) -> list[list[int]]:
    perm = list(range(d))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(d)] for i in range(d)]


def _digit_mask(digits: list[tuple[int, ...]], convolve: bool) -> dict[tuple[int, ...], Fraction]:
    """Mask 1/m on a complete residue digit set, or its self-convolution."""
    m = len(digits)
    if not convolve:
        return {q: Fraction(1, m) for q in digits}
    mask: dict[tuple[int, ...], Fraction] = {}
    for a, b in product(digits, repeat=2):
        q = tuple(x + y for x, y in zip(a, b))
        mask[q] = mask.get(q, Fraction(0)) + Fraction(1, m * m)
    return mask


def many_small(seed: int) -> list[Problem]:
    rng = random.Random(seed)
    problems = []
    for stratum, entries in CATALOG.items():
        for base, convolve in entries:
            p = _signed_permutation(rng, len(base))
            pt = [list(col) for col in zip(*p)]
            matrix = matmul(matmul(p, base), pt)
            digits = [matmul_vec(p, q) for q in shortest_residues(base)]
            mask = _digit_mask(digits, convolve)
            doc = {
                "dimension": len(matrix),
                "matrix": matrix,
                "coefficients": [
                    {"q": list(q), "c": f"{c.numerator}/{c.denominator}"}
                    for q, c in sorted(mask.items())
                ],
            }
            name = f"p{len(problems):02d}-{stratum}{'-conv' if convolve else ''}"
            problems.append(Problem(name, doc, MANY_SMALL_OPS))
    return problems

WORKLOADS = {
    "cascade-deep": lambda seed: cascade_deep(),
    "refine-fine": lambda seed: refine_fine(),
    "many-small": many_small,
}


def build(workload: str, seed: int) -> list[Problem]:
    """The workload's problems in round order; the seed fixes everything."""
    return WORKLOADS[workload](seed)
