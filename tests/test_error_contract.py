"""The error contract on generated problems: every subcommand, run in
process, ends with exit 0, 2 or 3, lets no exception escape, and writes
nothing to stderr but, on failure, one ``error: <Code>:`` line; a warning
counts as stderr output.

Problems have d <= 2, matrix entries in -3..3 and |det M| >= 2, with either
a raw rational mask summing to one or a digit-set mask: 1/m on a complete
residue set of Z^d / M Z^d, optionally convolved with itself.
"""

import inspect
import io
import itertools
import json
import math
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from refinable import cli, errors, parse_problem
from refinable.bounds import best_bound
from refinable.errors import InputError, ParseError, RefinableError
from refinable.pointwise import _enumeration_halves

# level-0 enumeration boxes above this many points give candidate sets whose
# dense transfer matrix is too large for a test example
_VOLUME_LIMIT = 500

ERROR_LINE = re.compile(r"^error: [A-Za-z-]+: ", re.MULTILINE)

COMMANDS = [
    ["analyze", "--format", "structured"],
    ["bound", "--format", "structured"],
    ["values"],
    ["values", "--left-closed", "--format", "delimited"],
    ["cascade", "--iters", "3", "--outdir", "{out}"],
    ["cascade", "--iters", "2", "--initial", "hat", "--outdir", "{out}"],
    ["refine", "--levels", "2", "--outdir", "{out}"],
    ["refine", "--left-closed", "--levels", "2", "--outdir", "{out}"],
    ["check", "--iters", "2", "--levels", "2"],
]


def determinant(rows):
    if len(rows) == 1:
        return rows[0][0]
    return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]


def adjugate(rows):
    if len(rows) == 1:
        return [[1]]
    (a, b), (c, d) = rows
    return [[d, -b], [-c, a]]


@st.composite
def matrices(draw):
    d = draw(st.integers(1, 2))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    assume(abs(determinant(rows)) >= 2)
    return rows


@st.composite
def raw_masks(draw, d):
    """Rational coefficients n / den on distinct taps, summing to one."""
    taps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1,
                         max_size=5, unique=True))
    den = draw(st.sampled_from([1, 2, 3, 4, 8]))
    nums = draw(st.lists(st.integers(-2 * den, 2 * den), min_size=len(taps) - 1,
                         max_size=len(taps) - 1))
    nums.append(den - sum(nums))
    return {q: Fraction(n, den) for q, n in zip(taps, nums)}


@st.composite
def digit_masks(draw, rows):
    """1/m on one representative of each class of Z^d / M Z^d, optionally
    convolved with itself.  k and k' share a class exactly when
    adj(M) (k - k') is divisible by det M, since M^-1 = adj(M) / det M."""
    m = abs(determinant(rows))
    adj = adjugate(rows)
    classes = {}
    for k in itertools.product(range(m), repeat=len(rows)):
        key = tuple(sum(a * x for a, x in zip(row, k)) % m for row in adj)
        classes.setdefault(key, []).append(k)
    assert len(classes) == m
    digits = [draw(st.sampled_from(members)) for _, members in sorted(classes.items())]
    mask = {q: Fraction(1, m) for q in digits}
    if draw(st.booleans()):
        event("self-convolved digit mask")
        square = {}
        for (p, a), (q, b) in itertools.product(mask.items(), repeat=2):
            key = tuple(x + y for x, y in zip(p, q))
            square[key] = square.get(key, 0) + a * b
        mask = square
    return mask


@st.composite
def documents(draw):
    rows = draw(matrices())
    d = len(rows)
    if draw(st.booleans()):
        event("raw mask")
        mask = draw(raw_masks(d))
    else:
        event("digit-set mask")
        mask = draw(digit_masks(rows))
    return json.dumps({
        "dimension": d,
        "matrix": rows,
        "coefficients": [
            {"q": list(q), "c": f"{c.numerator}/{c.denominator}"} for q, c in mask.items()
        ],
    })


def small_enough(text):
    """False when the problem's level-0 enumeration box exceeds the test's
    limit; problems the library refuses earlier are kept."""
    try:
        problem = parse_problem(text)
        bound = best_bound(problem)
        halves = _enumeration_halves(problem, bound, 0)
    except RefinableError:
        return True
    return math.prod(2 * h + 1 for h in halves) <= _VOLUME_LIMIT


def run_main(argv):
    """Run the CLI in process.  Every warning raised on the way is recorded
    and shown after its stderr, so neither a once-per-location filter nor
    pytest's own capture of warnings can hide it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


def assert_stderr_contract(argv, code, err):
    """A run that passes writes nothing to stderr; one that fails writes its
    one error line, except ``check``, whose failed invariants are FAIL lines
    on stdout."""
    if code == 0 or (not err and argv[0] == "check"):
        assert err == "", (argv, err)
    else:
        assert ERROR_LINE.match(err) and err.count("\n") == 1, (argv, err)


@settings(
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(documents())
def test_every_subcommand_keeps_the_error_contract(text):
    assume(small_enough(text))
    with tempfile.TemporaryDirectory() as work:
        doc = Path(work) / "problem.json"
        doc.write_text(text)
        for template in COMMANDS:
            argv = [template[0], str(doc)] + [
                a.replace("{out}", str(Path(work) / "out")) for a in template[1:]
            ]
            code, _, err = run_main(argv)
            assert code in (0, 2, 3), (argv, err)
            assert_stderr_contract(argv, code, err)
            if err:
                event(f"{template[0]}: {ERROR_LINE.match(err).group().strip()}")


# Mask indices whose squared norm is beyond float range.  Mask.radius takes
# the square root of that exact integer, and the bounds take the norm of
# each index in floats, so such a problem is refused when it is parsed.
HUGE_INDEX = {
    "radius": (1, [[2]], [[0], [10**160]]),
    "parallelepiped": (2, [[0, 1], [3, 1]], [[10**400, 0]]),
}


@pytest.mark.parametrize(
    "template",
    [["analyze"], ["bound"], ["values"], ["cascade", "--outdir", "{out}"],
     ["refine", "--left-closed", "--outdir", "{out}"], ["check"]],
    ids=lambda t: t[0],
)
@pytest.mark.parametrize("case", sorted(HUGE_INDEX))
def test_index_beyond_float_range_is_a_parse_error(case, template, tmp_path):
    d, matrix, taps = HUGE_INDEX[case]
    coefficients = [{"q": q, "c": f"1/{len(taps)}"} for q in taps]
    doc = tmp_path / "problem.json"
    doc.write_text(json.dumps({"dimension": d, "matrix": matrix, "coefficients": coefficients}))
    argv = [template[0], str(doc)] + [a.replace("{out}", str(tmp_path / "out")) for a in template[1:]]
    code, out, err = run_main(argv)
    assert code == 2
    assert ERROR_LINE.findall(err) == ["error: ParseError: "]
    assert err.count("\n") == 1 and out == ""
    assert not (tmp_path / "out").exists()


def test_largest_representable_index_keeps_the_radius_formula():
    """The largest index whose square converts to a float is accepted with
    the radius sqrt(q^2); one more is refused."""
    limit = math.isqrt(2**1024 - 2**970 - 1)
    problem = parse_problem(json.dumps({
        "dimension": 1, "matrix": [[2]],
        "coefficients": [{"q": [0], "c": "1/2"}, {"q": [limit], "c": "1/2"}],
    }))
    assert problem.mask.radius == math.sqrt(limit * limit)
    with pytest.raises(ParseError):
        parse_problem(json.dumps({
            "dimension": 1, "matrix": [[2]],
            "coefficients": [{"q": [0], "c": "1/2"}, {"q": [limit + 1], "c": "1/2"}],
        }))


SIX_COMMANDS = [
    ["analyze"], ["bound"], ["values"], ["cascade", "--iters", "5", "--outdir", "{out}"],
    ["refine", "--left-closed", "--outdir", "{out}"], ["check"],
]
# Documents whose float arithmetic overflows, and the error line each
# subcommand ends in (None: exit 0).  "parallelepiped": the largest
# translation seen through the Jordan transform has a squared norm beyond
# float range.  "kernel": m c_q stays finite, but the level-2 products of
# the cascade overflow.
OVERFLOWS = {
    "parallelepiped": (
        (2, [[0, 1], [3, 1]], [{"q": [0, 0], "c": "1/2"}, {"q": [10**154, 0], "c": "1/2"}]),
        {"analyze": None, "bound": "NonFiniteArithmetic", "values": "NonFiniteArithmetic",
         "cascade": "IndexOverflow", "refine": "NonFiniteArithmetic",
         "check": "NonFiniteArithmetic"},
    ),
    "kernel": (
        (1, [[2]], [{"q": [0], "c": 1e300}, {"q": [1], "c": -1e300}, {"q": [2], "c": 1}]),
        {"analyze": None, "bound": None, "values": "NoUnitEigenvalue",
         "cascade": "NonFiniteArithmetic", "refine": "NoUnitEigenvalue",
         "check": "NonFiniteArithmetic"},
    ),
}


@pytest.mark.parametrize("template", SIX_COMMANDS, ids=lambda t: t[0])
@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_float_overflow_ends_in_one_error_line_without_warnings(case, template, tmp_path):
    (d, matrix, coefficients), outcomes = OVERFLOWS[case]
    doc = tmp_path / "problem.json"
    doc.write_text(json.dumps({"dimension": d, "matrix": matrix, "coefficients": coefficients}))
    argv = [template[0], str(doc)] + [a.replace("{out}", str(tmp_path / "out")) for a in template[1:]]
    code, _, err = run_main(argv)
    expected = outcomes[template[0]]
    if expected is None:
        assert (code, err) == (0, "")
    else:
        assert code == 3
        assert err.startswith(f"error: {expected}: ") and err.count("\n") == 1, err


# |det M| = 2, but no power of M up to the search cap has a contractive
# inverse, so no support bound exists.  Every subcommand that needs one
# names the same failure.
NO_BOUND = {
    "dimension": 2, "matrix": [[16777216, -1], [281474959933442, -16777215]],
    "coefficients": [{"q": [0, 0], "c": "1/2"}, {"q": [1, 0], "c": "1/2"}],
}


@pytest.mark.parametrize(
    "template",
    [["bound"], ["values"], ["refine", "--left-closed", "--outdir", "{out}"], ["check"]],
    ids=lambda t: t[0],
)
def test_exhausted_bound_search_prints_one_code(template, tmp_path):
    doc = tmp_path / "problem.json"
    doc.write_text(json.dumps(NO_BOUND))
    argv = [template[0], str(doc)] + [a.replace("{out}", str(tmp_path / "out")) for a in template[1:]]
    code, out, err = run_main(argv)
    assert code == 3
    assert ERROR_LINE.findall(err) == ["error: ContractionSearchExhausted: "]
    assert err.count("\n") == 1 and out == ""


# Float coefficients summing to one whose partial sums leave float range:
# the sum cannot be checked in floats, so the mask is refused when parsed.
SUM_BEYOND_FLOAT_RANGE = {
    "dimension": 1, "matrix": [[2]],
    "coefficients": [{"q": [0], "c": 1e308}, {"q": [1], "c": 1e308}, {"q": [2], "c": -1e308},
                     {"q": [3], "c": -1e308}, {"q": [4], "c": 1}],
}


@pytest.mark.parametrize("template", SIX_COMMANDS, ids=lambda t: t[0])
def test_mask_sum_beyond_float_range_is_refused(template, tmp_path):
    doc = tmp_path / "problem.json"
    doc.write_text(json.dumps(SUM_BEYOND_FLOAT_RANGE))
    argv = [template[0], str(doc)] + [a.replace("{out}", str(tmp_path / "out")) for a in template[1:]]
    code, out, err = run_main(argv)
    assert code == 2
    assert ERROR_LINE.findall(err) == ["error: MaskSumViolation: "]
    assert err.count("\n") == 1 and out == ""
    assert not (tmp_path / "out").exists()


# Documents Python cannot decode into a problem: bytes that are not UTF-8,
# nesting past the recursion limit, and integers past the 4,300-digit
# int-conversion limit, as a JSON number and as a "p/q" string.
UNREADABLE = {
    "not-utf8": b'{"dimension": 1, "matrix": [[2]], "coefficients": [{"q": [0], "c": "\xff"}]}',
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "long-number": (
        b'{"dimension": 1, "matrix": [[2]], "coefficients": [{"q": [0], "c": '
        + b"1" * 5000 + b"}]}"
    ),
    "long-rational": (
        b'{"dimension": 1, "matrix": [[2]], "coefficients": [{"q": [0], "c": "'
        + b"1" * 5000 + b'/2"}]}'
    ),
}


@pytest.mark.parametrize("template", SIX_COMMANDS, ids=lambda t: t[0])
@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_undecodable_document_is_a_parse_error(case, template, tmp_path):
    doc = tmp_path / "problem.json"
    doc.write_bytes(UNREADABLE[case])
    argv = [template[0], str(doc)] + [a.replace("{out}", str(tmp_path / "out")) for a in template[1:]]
    code, out, err = run_main(argv)
    assert code == 2
    assert ERROR_LINE.findall(err) == ["error: ParseError: "]
    assert err.count("\n") == 1 and out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("outdir", ["{file}", "{file}/sub"])
@pytest.mark.parametrize(
    "template",
    [["cascade", "haar.json", "--iters", "2"],
     ["refine", "skew3.json", "--left-closed", "--levels", "1"]],
    ids=lambda t: t[0],
)
def test_unusable_outdir_is_a_parse_error(template, outdir, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    problem = Path(__file__).resolve().parent.parent / "demos" / "problems" / template[1]
    argv = [template[0], str(problem), *template[2:], "--outdir", outdir.format(file=blocker)]
    code, _, err = run_main(argv)
    assert code == 2
    assert ERROR_LINE.findall(err) == ["error: ParseError: "]
    assert err.count("\n") == 1, err
    assert blocker.read_text() == ""


BUNDLED = Path(__file__).resolve().parent.parent / "demos" / "problems"
AMBIGUOUS = (
    "error: NonUniqueValues: transfer eigenspace is not one-dimensional; "
    "rerun with --left-closed\n"
)


def fingerprint_commands(problem: str, outdir: str) -> list[list[str]]:
    """The command matrix of ``bench/fingerprint.py``: 17 calls per problem."""
    cmds = []
    for fmt in ("table", "delimited", "structured"):
        cmds.append(["analyze", problem, "--format", fmt])
        cmds.append(["bound", problem, "--format", fmt])
        cmds.append(["values", problem, "--format", fmt])
        cmds.append(["values", problem, "--left-closed", "--format", fmt])
    for initial in ("box", "hat"):
        cmds.append(["cascade", problem, "--iters", "6", "--initial", initial, "--outdir", outdir])
    cmds.append(["refine", problem, "--levels", "4", "--outdir", outdir])
    cmds.append(["refine", problem, "--left-closed", "--levels", "4", "--outdir", outdir])
    cmds.append(["check", problem])
    return cmds


@pytest.mark.parametrize("name", ["daubechies4", "haar", "quincunx", "shear2d", "skew3"])
def test_bundled_command_matrix_keeps_the_error_contract(name, tmp_path):
    """Every call passes with an empty stderr, except ``refine`` without a
    tie-break on a non-unique eigenspace, which is refused before any dump."""
    refused = []
    for i, argv in enumerate(fingerprint_commands(str(BUNDLED / f"{name}.json"), "")):
        outdir = tmp_path / str(i)
        outdir.mkdir()
        if "--outdir" in argv:
            argv[-1] = str(outdir)
        code, _, err = run_main(argv)
        if argv[0] == "refine" and "--left-closed" not in argv and name != "daubechies4":
            assert (code, err) == (3, AMBIGUOUS), argv
            assert list(outdir.iterdir()) == []
            refused.append(argv)
        else:
            assert (code, err) == (0, ""), (argv, err)
    assert len(refused) == (0 if name == "daubechies4" else 1)


ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, RefinableError)
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_class(cls, monkeypatch):
    """Exit 2 exactly for the InputError family, 3 for every other library
    error, with one ``error: <Code>:`` line either way."""

    def load(path):
        raise cls("refused")

    monkeypatch.setattr(cli, "_load_problem", load)
    code, out, err = run_main(["analyze", "problem.json"])
    assert code == (2 if issubclass(cls, InputError) else 3)
    assert (out, err) == ("", f"error: {cls.__name__}: refused\n")


def test_input_errors_are_the_ingestion_family():
    names = {cls.__name__ for cls in ERROR_CLASSES if issubclass(cls, InputError)}
    assert names == {
        "InputError", "ParseError", "DimensionMismatch", "NotDilation",
        "MaskSumViolation", "EmptyMask",
    }

