"""Span recording around the calls into each ``refinable`` module.

:class:`Tracer` replaces every public function of the layer modules (mask,
linalg, bounds, cascade, pointwise), wherever a module has bound it, and the
analytics and power methods of ``DilationMatrix``, by a wrapper that records
one span per call: name, start, end, parent span and a few sizes.  Nested
calls between layers become child spans.  :meth:`Tracer.uninstall` puts the
originals back, so untraced rounds run the unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

LAYERS = ("mask", "linalg", "bounds", "cascade", "pointwise")
# modules whose namespaces hold references to layer functions
PATCHED_MODULES = LAYERS + ("cli",)
ANALYTICS = (
    "determinant", "m", "inverse", "spectrum", "norm", "inverse_norm",
    "dilation_check", "jordan_structure",
)
POWERS = ("power", "inverse_power", "inverse_power_array")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    sizes: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def enumeration_volume(problem, bound, level: int) -> int:
    """Number of lattice points in the box that ``lattice_points_in_bound``
    enumerates: the origin-centred box of the seed implementation (the
    integer enclosing box at level 0, the M^level image of the bound plus one
    cell of margin above it).  Computed with numpy only, so no span nests."""
    d = problem.dim
    if level == 0:
        if hasattr(bound, "radius"):
            extents = [bound.radius] * d
        elif hasattr(bound, "transform"):
            extents = np.abs(bound.transform) @ np.asarray(bound.half_widths)
        else:
            extents = list(bound.half_widths)
        halves = [max(0, math.ceil(e - 1e-9)) for e in extents]
    else:
        power = np.linalg.matrix_power(np.asarray(problem.matrix.matrix.rows, dtype=float), level)
        if hasattr(bound, "radius"):
            extents = [bound.radius * float(np.linalg.norm(row)) for row in power]
        elif hasattr(bound, "transform"):
            extents = np.abs(power @ bound.transform) @ np.asarray(bound.half_widths)
        else:
            extents = np.abs(power) @ np.asarray(bound.half_widths)
        halves = [int(math.ceil(e + 1e-6)) + 1 for e in extents]
    return math.prod(2 * h + 1 for h in halves)


def _tell(stream) -> int | None:
    try:
        return stream.tell()
    except (AttributeError, OSError, ValueError):
        return None


# Per-function hooks: before(args) -> (args, state); after(args, result, state) -> sizes
def _stream_before(index):
    def before(args):
        return args, _tell(args[index])
    return before


def _stream_bytes(stream, start) -> dict:
    end = _tell(stream)
    return {} if start is None or end is None else {"bytes": end - start}


def _write_samples_after(args, result, state):
    rows = sum(len(f.values) for f in args[1])
    return {"rows": rows, **_stream_bytes(args[2], state)}


def _export_after(args, result, state):
    table = args[1]
    rows = sum(len(v) for v in table.levels.values())
    return {"rows": rows, **_stream_bytes(args[2], state)}


def _general_ball_after(args, result, state):
    return {"k": int(result.provenance.split("k=")[1].rstrip(")"))}


HOOKS = {
    "mask.parse_problem": (None, lambda a, r, s: {"taps": len(r.mask.coefficients)}),
    "bounds.general_ball_bound": (None, _general_ball_after),
    "pointwise.candidate_points": (None, lambda a, r, s: {"n": len(r)}),
    "pointwise.lattice_points_in_bound": (
        None,
        lambda a, r, s: {
            "level": a[2], "kept": len(r), "volume": enumeration_volume(*a[:3]),
        },
    ),
    "pointwise.build_transfer_matrix": (
        None, lambda a, r, s: {"n": r.size, "nnz": int(np.count_nonzero(r.matrix))}
    ),
    "pointwise.integer_values": (
        None, lambda a, r, s: {"n": len(r.points), "dimension": r.eigenspace_dimension}
    ),
    "pointwise.refine_values": (
        None,
        lambda a, r, s: {
            "levels": a[2], "points": sum(len(r.levels[j]) for j in r.levels if j > 0),
        },
    ),
    "pointwise.export_values": (_stream_before(2), _export_after),
    "cascade.refinement_step": (
        None,
        lambda a, r, s: {
            "step": a[3], "taps": len(a[0].mask.coefficients),
            "input": len(a[1]), "output": len(r[0]),
        },
    ),
    "cascade.cascade_step": (
        None,
        lambda a, r, s: {"level": r.level, "input": len(a[1].values), "output": len(r.values)},
    ),
    "cascade.write_samples": (_stream_before(2), _write_samples_after),
    "cascade.write_rows": (_stream_before(0), lambda a, r, s: _stream_bytes(a[0], s)),
}


# sizes still worth recording when the call raises (a refused enumeration)
SIZED_ON_ERROR = {
    "pointwise.lattice_points_in_bound": lambda a: {
        "level": a[2], "volume": enumeration_volume(*a[:3]),
    },
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _wrap(self, name: str, func):
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(
                len(self.spans), name,
                self._stack[-1].id if self._stack else None, self.op, 0.0,
            )
            self.spans.append(span)
            self._stack.append(span)
            state = None
            if before is not None:
                args, state = before(args)
            span.start = time.perf_counter() - self._t0
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                if name in SIZED_ON_ERROR:
                    span.sizes = SIZED_ON_ERROR[name](args)
                raise
            finally:
                span.end = time.perf_counter() - self._t0
                self._stack.pop()
            if after is not None:
                span.sizes = after(args, result, state)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers = {}
        for modname in PATCHED_MODULES:
            module = importlib.import_module(f"refinable.{modname}")
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", "") or ""
                layer = home.rpartition(".")[2]
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and home.startswith("refinable.")
                    and layer in LAYERS
                ):
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                    self._patch(module, attr, wrappers[obj])
        from refinable.linalg import DilationMatrix

        for attr in ANALYTICS:
            prop = DilationMatrix.__dict__[attr]
            wrapped = cached_property(self._wrap(f"linalg.DilationMatrix.{attr}", prop.func))
            wrapped.__set_name__(DilationMatrix, attr)
            self._patch(DilationMatrix, attr, wrapped)
        for attr in POWERS:
            func = DilationMatrix.__dict__[attr]
            self._patch(DilationMatrix, attr, self._wrap(f"linalg.DilationMatrix.{attr}", func))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
