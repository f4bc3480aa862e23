"""Tests for the cascade iteration, its invariants, and frequency helpers."""

import cmath
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from refinable import (
    InitialFunctionKind,
    cascade_step,
    discrete_mass,
    empirical_support,
    finite_level_ball,
    fourier_truncated_product,
    initial_samples,
    m0_eval,
    parse_problem,
    problem_from_data,
    read_values,
    refinement_step,
    run_cascade,
    write_samples,
)
from refinable import cascade as cascade_mod
from refinable.errors import EnumerationTooLarge

BOX = InitialFunctionKind.INDICATOR_BOX
HAT = InitialFunctionKind.TENSOR_HAT

CONTRACTIVE_FIXTURES = [
    "haar_problem",
    "d4_problem",
    "quincunx_problem",
    "jordan2d_problem",
]

BUNDLED = sorted((Path(__file__).resolve().parent.parent / "demos" / "problems").glob("*.json"))


class TestInitialSamples:
    @pytest.mark.parametrize("kind", [BOX, HAT])
    def test_unit_spike_at_origin(self, quincunx_problem, kind):
        # the cascade reads the start function only at integer points, where
        # both kinds are the unit spike
        (f0,) = run_cascade(quincunx_problem, kind, 0)
        assert f0.as_dict() == initial_samples(quincunx_problem).as_dict() == {(0, 0): 1.0}
        assert f0.level == 0

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_kind_has_no_effect(self, path):
        problem = parse_problem(path.read_text())
        for box, hat in zip(run_cascade(problem, BOX, 5), run_cascade(problem, HAT, 5)):
            assert box.level == hat.level
            assert np.array_equal(box.indices, hat.indices)
            assert np.array_equal(box.values, hat.values)

    @pytest.mark.parametrize("kind", [BOX, HAT])
    def test_total_mass_is_one(self, haar_problem, kind):
        (f0,) = run_cascade(haar_problem, kind, 0)
        assert float(np.sum(f0.values)) == 1.0


class TestCascadeStep:
    def test_haar_single_step_by_hand(self, haar_problem):
        f1 = cascade_step(haar_problem, initial_samples(haar_problem))
        assert f1.as_dict() == {(0,): 1.0, (1,): 1.0}

    def test_single_coefficient_mask_is_growing_spike(self):
        problem = problem_from_data(1, [[2]], [{"q": [0], "c": 1}])
        levels = run_cascade(problem, BOX, 3)
        assert levels[3].as_dict() == {(0,): 8.0}

    def test_summation_identity(self, d4_problem):
        f = initial_samples(d4_problem)
        for _ in range(4):
            nxt = cascade_step(d4_problem, f)
            assert float(np.sum(nxt.values)) == pytest.approx(
                d4_problem.m * float(np.sum(f.values)), rel=1e-14
            )
            f = nxt

    def test_scatter_cap_is_checked_before_the_kernel(self, d4_problem, monkeypatch):
        level3 = run_cascade(d4_problem, BOX, 3)[3]
        samples = len(level3.values)
        scatter = 4 * samples
        monkeypatch.setattr(cascade_mod, "_SCATTER_CAP", scatter)
        assert cascade_step(d4_problem, level3).level == 4

        def no_merge(*args):
            raise AssertionError("the kernel merged before the scatter cap was checked")

        monkeypatch.setattr(cascade_mod, "_SCATTER_CAP", scatter - 1)
        monkeypatch.setattr(cascade_mod, "_merge_runs", no_merge)
        message = re.escape(
            f"level 4 would scatter {scatter} rows (4 taps x {samples} samples), "
            f"above the cap of {scatter - 1}"
        )
        with pytest.raises(EnumerationTooLarge, match=f"^{message}$"):
            cascade_step(d4_problem, level3)
        # the kernel refuses on its own, whoever calls it
        with pytest.raises(EnumerationTooLarge, match=f"^{message}$"):
            refinement_step(d4_problem, level3.indices, level3.values, 4)


class TestMassConservation:
    @pytest.mark.parametrize("fixture", CONTRACTIVE_FIXTURES)
    def test_mass_invariant(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        levels = run_cascade(problem, BOX, 6)
        masses = [discrete_mass(problem, f) for f in levels]
        for mass in masses[1:]:
            assert mass == pytest.approx(masses[0], rel=1e-12)


class TestEmpiricalSupport:
    def test_haar_level_three(self, haar_problem):
        levels = run_cascade(haar_problem, BOX, 3)
        support = empirical_support(haar_problem, levels[3])
        assert support.lo == (0.0,)
        assert support.hi == (0.875,)

    def test_all_zero_gives_none(self, haar_problem):
        f0 = initial_samples(haar_problem)
        zeroed = cascade_step(
            haar_problem,
            type(f0)(0, f0.indices, np.zeros_like(f0.values)),
        )
        assert empirical_support(haar_problem, zeroed) is None

    def test_spike_gives_degenerate_box(self, haar_problem):
        f0 = initial_samples(haar_problem)
        support = empirical_support(haar_problem, f0)
        assert support.lo == support.hi == (0.0,)

    @pytest.mark.parametrize("fixture", CONTRACTIVE_FIXTURES)
    def test_containment_in_finite_level_ball(self, fixture, request):
        # the level-0 spike is supported at the origin, so every nonzero
        # level-n sample lies in the finite-level ball of initial radius 0;
        # on haar and d4 the farthest sample sits on its boundary at every
        # level, so the slack only absorbs roundoff
        problem = request.getfixturevalue(fixture)
        for f in run_cascade(problem, BOX, 9)[1:]:
            radius = finite_level_ball(problem, 0.0, f.level)
            nonzero = f.indices[f.values != 0.0].astype(float)
            coords = nonzero @ problem.matrix.inverse_power_array(f.level).T
            assert np.linalg.norm(coords, axis=1).max() <= radius * (1 + 1e-12)

    def test_haar_stabilizes_within_one_cell(self, haar_problem):
        levels = run_cascade(haar_problem, BOX, 8)
        for f_prev, f_next in zip(levels[6:], levels[7:]):
            prev = empirical_support(haar_problem, f_prev)
            nxt = empirical_support(haar_problem, f_next)
            cell = 2.0 ** -f_next.level
            change = max(
                max(abs(a - b) for a, b in zip(prev.lo, nxt.lo)),
                max(abs(a - b) for a, b in zip(prev.hi, nxt.hi)),
            )
            assert change <= cell + 1e-15

    def test_d4_stabilizes_within_mask_radius_cells(self, d4_problem):
        # the support edge advances by up to Q lattice cells per level, so
        # stabilization is measured in units of Q * cell
        levels = run_cascade(d4_problem, BOX, 8)
        q = d4_problem.mask.radius
        for f_prev, f_next in zip(levels[6:], levels[7:]):
            prev = empirical_support(d4_problem, f_prev)
            nxt = empirical_support(d4_problem, f_next)
            cell = 2.0 ** -f_next.level
            change = max(
                max(abs(a - b) for a, b in zip(prev.lo, nxt.lo)),
                max(abs(a - b) for a, b in zip(prev.hi, nxt.hi)),
            )
            assert change <= q * cell + 1e-15


class TestFrequencyDomain:
    @pytest.mark.parametrize("fixture", CONTRACTIVE_FIXTURES)
    def test_symbol_is_one_at_zero(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        value = m0_eval(problem.mask, (0.0,) * problem.dim)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_haar_symbol_at_half(self, haar_problem):
        # (1 + e^{-i pi}) / 2 by hand
        assert abs(m0_eval(haar_problem.mask, [0.5])) <= 1e-15

    def test_symbol_periodicity(self, quincunx_problem):
        rng = np.random.RandomState(7)
        for u in rng.randn(5, 2):
            base = m0_eval(quincunx_problem.mask, u)
            for shift in ((1, 0), (0, 1)):
                shifted = m0_eval(quincunx_problem.mask, u + np.asarray(shift))
                assert shifted == pytest.approx(base, abs=1e-12)

    def test_product_is_one_at_zero(self, d4_problem):
        for terms in (1, 5, 20):
            assert fourier_truncated_product(d4_problem, [0.0], terms) == 1.0

    def test_haar_product_vanishes_at_integers(self, haar_problem):
        assert abs(fourier_truncated_product(haar_problem, [1.0], 20)) <= 1e-8

    def test_haar_product_matches_closed_form(self, haar_problem):
        # hand transform of the unit indicator: e^{-i pi u} sin(pi u)/(pi u)
        for u in (0.3, 0.5, 1.7):
            expected = cmath.exp(-1j * math.pi * u) * math.sin(math.pi * u) / (math.pi * u)
            got = fourier_truncated_product(haar_problem, [u], 40)
            assert got == pytest.approx(expected, abs=1e-8)

    def test_uniform_convergence_of_truncations(self, quincunx_problem):
        # the tail decays like ||(M^T)^-J|| = 2^(-J/2), so truncations deep
        # enough for 1e-8 agreement need J around 60
        grid = [(-0.8, 0.3), (0.1, 0.1), (0.5, -0.25), (1.0, 1.0)]
        for u in grid:
            coarse = abs(
                fourier_truncated_product(quincunx_problem, u, 10)
                - fourier_truncated_product(quincunx_problem, u, 20)
            )
            fine = abs(
                fourier_truncated_product(quincunx_problem, u, 70)
                - fourier_truncated_product(quincunx_problem, u, 90)
            )
            assert fine <= 1e-8
            assert fine <= coarse + 1e-15


class TestSharedKernel:
    def test_cascade_step_uses_refinement_step_bitwise(self, d4_problem):
        f1 = cascade_step(d4_problem, initial_samples(d4_problem))
        f2 = cascade_step(d4_problem, f1)
        idx, val = refinement_step(d4_problem, f1.indices, f1.values, 2)
        assert np.array_equal(idx, f2.indices)
        assert np.array_equal(val, f2.values)


class TestSampleDumps:
    def test_round_trip(self, d4_problem):
        levels = run_cascade(d4_problem, BOX, 2)
        buffer = io.StringIO()
        write_samples(d4_problem, levels, buffer)
        buffer.seek(0)
        table = read_values(buffer)
        assert sorted(table.samples) == [f.level for f in levels]
        for f in levels:
            assert table.samples[f.level].as_dict() == f.as_dict()

    def test_header_and_determinism(self, quincunx_problem):
        levels = run_cascade(quincunx_problem, BOX, 2)
        first, second = io.StringIO(), io.StringIO()
        write_samples(quincunx_problem, levels, first)
        write_samples(quincunx_problem, levels, second)
        assert first.getvalue() == second.getvalue()
        assert first.getvalue().startswith("level\tk0\tk1\tx0\tx1\tvalue\n")
