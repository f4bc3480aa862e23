"""Correctness checks on the outputs of one round, computed independently.

Each check returns a list of failure messages; an empty list means the
outputs are right.  Only operations that ended ``ok`` are checked.  The
checks use the benchmark's own arithmetic (exact.py, numpy.convolve and the
closed forms below), never the package under test.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from exact import ResidueKey, attractor_points, determinant, matmul_vec, null_space

SQRT3 = math.sqrt(3.0)
# Daubechies-4 scaling function at the integers (closed form)
D4_INTEGER_VALUES = {0: 0.0, 1: (1 + SQRT3) / 2, 2: (1 - SQRT3) / 2, 3: 0.0}
VALUE_TOL = 1e-9  # float results against exact or closed-form references
MASS_TOL = 1e-12


class Dump:
    """One level file of a cascade or refine dump."""

    def __init__(self, path: Path):
        self.level = int(path.stem.rsplit("level", 1)[1])
        lines = path.read_text().splitlines()
        d = (len(lines[0].split("\t")) - 2) // 2
        self.values: dict[tuple[int, ...], float] = {}
        levels = set()
        for line in lines[1:]:
            parts = line.split("\t")
            levels.add(int(parts[0]))
            self.values[tuple(int(x) for x in parts[1 : 1 + d])] = float(parts[-1])
        if levels - {self.level} or len(self.values) != len(lines) - 1:
            raise ValueError(f"{path.name}: rows of another level or duplicate indices")

    @property
    def nonzero(self) -> int:
        return sum(1 for v in self.values.values() if v != 0.0)


def read_dumps(outdir: Path) -> dict[int, Dump]:
    dumps = [Dump(p) for p in sorted(outdir.glob("*.tsv"))]
    return {d.level: d for d in dumps}


def _scale(values) -> float:
    return max(1.0, max((abs(v) for v in values), default=0.0))


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------

def cascade_mass(doc: dict, dumps: dict[int, Dump], stdout: str) -> list[str]:
    """Mass m^-n sum_k G_n(k) stays 1 on every level, in the dump and in the
    reported summary line; the summary's sample count matches the dump."""
    m = abs(determinant(doc["matrix"]))
    errors = []
    reported = {}
    for line in stdout.splitlines():
        head, rest = line.split(":", 1)
        fields = dict(part.strip().split(" ", 1) for part in rest.split(",")[:2])
        reported[int(head.split()[1])] = (int(fields["samples"]), float(fields["mass"]))
    if sorted(reported) != sorted(dumps):
        errors.append(f"summary levels {sorted(reported)} vs dumps {sorted(dumps)}")
    for level, dump in dumps.items():
        mass = math.fsum(dump.values.values()) / m**level
        if abs(mass - 1.0) > MASS_TOL * max(1, len(dump.values)):
            errors.append(f"level {level}: mass {mass!r} is not 1")
        samples, stated = reported.get(level, (None, None))
        if samples != len(dump.values):
            errors.append(f"level {level}: summary says {samples} samples, dump has {len(dump.values)}")
        if stated is not None and abs(stated - mass) > MASS_TOL * max(1, len(dump.values)):
            errors.append(f"level {level}: summary mass {stated!r} vs dump {mass!r}")
    return errors


def tile_cascade(doc: dict, dumps: dict[int, Dump]) -> list[str]:
    """For a mask 1/m on a complete digit set, level n has exactly m^n
    samples, each exactly 1.0."""
    m = abs(determinant(doc["matrix"]))
    errors = []
    for level, dump in dumps.items():
        if len(dump.values) != m**level:
            errors.append(f"level {level}: {len(dump.values)} samples, expected {m ** level}")
        bad = [v for v in dump.values.values() if v != 1.0]
        if bad:
            errors.append(f"level {level}: {len(bad)} samples differ from 1.0")
    return errors


def d4_cascade_1d(coeffs: list[float], level: int) -> np.ndarray:
    """g_n = g_(n-1) * (c upsampled by 2^(n-1)); the 1-D cascade is 2^n g_n."""
    g = np.ones(1)
    for step in range(1, level + 1):
        up = np.zeros(3 * 2 ** (step - 1) + 1)
        up[:: 2 ** (step - 1)] = coeffs
        g = np.convolve(g, up)
    return g


def tensor_d4_cascade(coeffs: list[float], dumps: dict[int, Dump]) -> list[str]:
    """The 2-D tensor cascade is m^n times the outer product of the 1-D one."""
    errors = []
    for level, dump in dumps.items():
        g = d4_cascade_1d(coeffs, level)
        expected = 4.0**level * np.outer(g, g)
        tol = VALUE_TOL * float(np.abs(expected).max())
        seen = np.zeros(expected.shape, dtype=bool)
        worst = 0.0
        for (k0, k1), v in dump.values.items():
            inside = 0 <= k0 < len(g) and 0 <= k1 < len(g)
            ref = expected[k0, k1] if inside else 0.0
            worst = max(worst, abs(v - ref))
            if inside:
                seen[k0, k1] = True
        missing = int(np.sum((np.abs(expected) > tol) & ~seen))
        if worst > tol or missing:
            errors.append(f"level {level}: deviation {worst:.3g}, {missing} samples missing")
    return errors


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def refine_levels(doc: dict, dumps: dict[int, Dump], levels: int) -> list[str]:
    """Two-scale consistency phi_(j-1)(k) = phi_j(M k), and partition of
    unity: on every level j the values of each class of Z^d modulo M^j Z^d
    sum to one.  Both use integer index arithmetic only."""
    matrix = doc["matrix"]
    m = abs(determinant(matrix))
    errors = []
    if sorted(dumps) != list(range(levels + 1)):
        return [f"dump levels {sorted(dumps)}, expected 0..{levels}"]
    scale = _scale(dumps[0].values.values())
    for level, dump in dumps.items():
        key = ResidueKey(matrix, level)
        sums: dict[tuple[int, ...], float] = {}
        for k, v in dump.values.items():
            c = key(k)
            sums[c] = sums.get(c, 0.0) + v
        if len(sums) != m**level:
            errors.append(f"level {level}: {len(sums)} residue classes present of {m ** level}")
        worst = max(abs(s - 1.0) for s in sums.values())
        if worst > VALUE_TOL:
            errors.append(f"level {level}: partition of unity off by {worst:.3g}")
        if level == 0:
            continue
        finer = dump.values
        worst, missing = 0.0, 0
        for k, v in dumps[level - 1].values.items():
            image = finer.get(matmul_vec(matrix, k))
            if image is None:
                missing += 1
            else:
                worst = max(worst, abs(image - v))
        if worst > VALUE_TOL * scale or missing:
            errors.append(
                f"level {level}: two-scale deviation {worst:.3g}, {missing} images missing"
            )
    return errors


def d4_values(values: dict[tuple[int, ...], float]) -> list[str]:
    worst = max(abs(v - D4_INTEGER_VALUES.get(k[0], 0.0)) for k, v in values.items())
    missing = [k for k in (1, 2) if (k,) not in values]
    if worst > VALUE_TOL or missing:
        return [f"D4 integer values off by {worst:.3g}, missing {missing}"]
    return []


def tensor_d4_values(
    dumps: dict[int, Dump], d4_dumps: dict[int, Dump] | None
) -> list[str]:
    """Level 0 is the product of the D4 closed form; when the same round
    refined D4 itself, every level is the product of the 1-D values."""
    errors = []
    for level, dump in dumps.items():
        if level == 0:
            one_d = {(k,): v for k, v in D4_INTEGER_VALUES.items()}
        elif d4_dumps is not None and level in d4_dumps:
            one_d = d4_dumps[level].values
        else:
            continue
        worst = max(
            abs(v - one_d.get((k0,), 0.0) * one_d.get((k1,), 0.0))
            for (k0, k1), v in dump.values.items()
        )
        if worst > VALUE_TOL:
            errors.append(f"level {level}: tensor D4 off by {worst:.3g}")
    return errors


def haar_values(dumps: dict[int, Dump]) -> list[str]:
    """The left-closed Haar function is exactly 1 on [0, 1) and 0 elsewhere."""
    errors = []
    for level, dump in dumps.items():
        wrong = [
            k for k, v in dump.values.items()
            if v != (1.0 if 0 <= k[0] < 2**level else 0.0)
        ]
        if wrong:
            errors.append(f"level {level}: {len(wrong)} values differ from 1_[0,1)")
    return errors


# ---------------------------------------------------------------------------
# generated problems: analyze, bound, values, check
# ---------------------------------------------------------------------------

def _mask(doc: dict) -> dict[tuple[int, ...], Fraction]:
    return {tuple(r["q"]): Fraction(r["c"]) for r in doc["coefficients"]}


def analyze_report(doc: dict, stdout: str) -> list[str]:
    data = json.loads(stdout)
    det = determinant(doc["matrix"])
    errors = []
    if (data["dimension"], data["determinant"], data["m"]) != (doc["dimension"], det, abs(det)):
        errors.append(f"analyze: dimension/determinant/m {data['dimension']}, "
                      f"{data['determinant']}, {data['m']} vs {doc['dimension']}, {det}")
    if not data["dilation"] or not data["coset_uniform"]:
        errors.append("analyze: digit-set problem not reported as a uniform dilation")
    eigs = [complex(re, im) for re, im in data["eigenvalues"]]
    product = complex(np.prod(eigs)) if eigs else 0j
    if len(eigs) != doc["dimension"] or abs(product - det) > VALUE_TOL * abs(det):
        errors.append(f"analyze: eigenvalue product {product} vs determinant {det}")
    if any(abs(z) <= 1.0 for z in eigs):
        errors.append("analyze: an eigenvalue has modulus <= 1")
    return errors


def _contains(record: dict, x: np.ndarray) -> bool:
    if record["kind"] == "ball":
        r = record["radius"]
        return float(np.linalg.norm(x)) <= r + VALUE_TOL * max(1.0, r)
    h = np.asarray(record["half_widths"])
    if record["kind"] == "transformed-box":
        x = np.linalg.solve(np.asarray(record["transform"]), x)
    return bool(np.all(np.abs(x) <= h + VALUE_TOL * np.maximum(1.0, h)))


def bound_report(doc: dict, stdout: str) -> list[str]:
    """Every reported bound, and the integer box, contains exactly computed
    points of the attractor of x -> M^-1 (x + q), which contains supp phi."""
    data = json.loads(stdout)
    points = attractor_points(doc["matrix"], sorted(_mask(doc)), max_len=3, limit=300)
    records = data["bounds"] + [
        {"kind": "box", "half_widths": data["integer_box_half_widths"], "provenance": "integer box"}
    ]
    errors = []
    for record in records:
        outside = sum(
            1 for p in points if not _contains(record, np.asarray([float(x) for x in p]))
        )
        if outside:
            errors.append(f"bound {record['provenance']}: {outside} attractor points outside")
    if data["selected"] not in {r["provenance"] for r in data["bounds"]}:
        errors.append(f"bound: selected {data['selected']!r} is not among the reported bounds")
    return errors


def values_report(doc: dict, stdout: str) -> list[str]:
    """The reported values r satisfy B r = r for B = m (c_(M k_i - k_j))
    built exactly; with a one-dimensional exact null space of B - I they
    equal its sum-one basis vector."""
    data = json.loads(stdout)
    points = [tuple(p) for p in data["points"]]
    values = data["values"]
    if values is None:
        return ["values: no values reported with --left-closed"]
    matrix = doc["matrix"]
    m = abs(determinant(matrix))
    mask = _mask(doc)
    position = {p: j for j, p in enumerate(points)}
    rows: list[dict[int, Fraction]] = []
    for i, k in enumerate(points):
        mk = matmul_vec(matrix, k)
        row: dict[int, Fraction] = {i: Fraction(-1)}
        for q, c in mask.items():
            j = position.get(tuple(a - b for a, b in zip(mk, q)))
            if j is not None:
                row[j] = row.get(j, 0) + m * c
        rows.append({j: v for j, v in row.items() if v})
    errors = []
    scale = _scale(values)
    residual = max(
        abs(sum(float(v) * values[j] for j, v in row.items())) for row in rows
    )
    if residual > VALUE_TOL * scale:
        errors.append(f"values: |B r - r| = {residual:.3g}")
    if abs(math.fsum(values) - 1.0) > VALUE_TOL:
        errors.append(f"values: sum {math.fsum(values)!r} is not 1")
    basis = null_space(rows, len(points))
    if len(basis) != data["eigenspace_dimension"]:
        errors.append(
            f"values: eigenspace dimension {data['eigenspace_dimension']}, exact {len(basis)}"
        )
    if len(basis) == 1 and sum(basis[0]) != 0:
        total = sum(basis[0])
        worst = max(abs(float(x / total) - v) for x, v in zip(basis[0], values))
        if worst > VALUE_TOL * scale:
            errors.append(f"values: off the exact null vector by {worst:.3g}")
    return errors


def check_report(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if not lines:
        return ["check: no output"]
    return [f"check: {line}" for line in lines if not line.startswith("PASS ")]
