import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport.errors import InfeasibleSpectrum, NoPartition, PhaseFactorsNotFound
from qteleport.phases import (
    PhaseMatrix,
    canonicalize,
    find_partition,
    phases_from_partition,
    solve_d2,
    solve_general,
)
from qteleport.spectrum import SchmidtSpectrum

from conftest import feasible_spectrum

GOLDEN = SchmidtSpectrum.from_rationals(["1/2", "1/3", "1/6"])


def phasor_sum(probs, theta_row) -> float:
    """|sum_k p_k exp(i theta_k)|, evaluated directly."""
    return abs(sum(p * np.exp(1j * t) for p, t in zip(probs, theta_row)))


class TestSchmidtSpectrum:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SchmidtSpectrum.from_probs([0.5, 0.5, 0.0])
        with pytest.raises(ValueError):
            SchmidtSpectrum.from_probs([1.5, -0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SchmidtSpectrum.from_probs([0.5, 0.4])

    def test_rejects_nan(self):
        # NaN passes both a `p <= 0` and a `|sum - 1| > tol` check
        with pytest.raises(ValueError):
            SchmidtSpectrum.from_probs([float("nan"), 0.5])

    def test_exact_sum_must_be_one(self):
        with pytest.raises(ValueError):
            SchmidtSpectrum.from_rationals(["1/2", "1/3"])

    def test_exact_images(self):
        s = SchmidtSpectrum.from_rationals(["1/2", "1/3", "1/6"])
        assert s.exact == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        assert s.probs == (0.5, float(Fraction(1, 3)), float(Fraction(1, 6)))
        assert s.p_max_exact == Fraction(1, 2)

    def test_uniformity(self):
        assert SchmidtSpectrum.from_rationals(["1/3"] * 3).is_uniform()
        assert not GOLDEN.is_uniform()


class TestSolveD2:
    def test_two_term_resource(self):
        theta = solve_d2(SchmidtSpectrum.from_rationals(["1/2", "1/2"]))
        np.testing.assert_allclose(theta.theta[0], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(theta.theta[1], [0.0, np.pi], atol=1e-15)

    def test_worked_example(self):
        theta = solve_d2(GOLDEN)
        np.testing.assert_allclose(theta.theta[1], [0.0, np.pi, np.pi], atol=1e-15)
        assert phasor_sum(GOLDEN.probs, theta.theta[1]) < 1e-12

    def test_generic_spectrum(self):
        s = SchmidtSpectrum.from_probs([0.4, 0.3, 0.3])
        theta = solve_d2(s)
        assert phasor_sum(s.probs, theta.theta[1]) < 1e-9

    def test_infeasible(self):
        with pytest.raises(InfeasibleSpectrum):
            solve_d2(SchmidtSpectrum.from_probs([0.6, 0.4]))

    def test_thousand_random_spectra(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            s = SchmidtSpectrum.from_probs(feasible_spectrum(rng, n, 0.5))
            theta = solve_d2(s)
            assert phasor_sum(s.probs, theta.theta[1]) < 1e-9
            assert theta.constraint_residual(s) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
    def test_arbitrary_weights(self, weights):
        p = np.asarray(weights) / sum(weights)
        if p.max() > 0.5:
            t = (p.max() - 0.5) / (p.max() - 1.0 / p.size)
            p = (1 - t) * p + t / p.size
        s = SchmidtSpectrum.from_probs(p / p.sum())
        theta = solve_d2(s)
        assert phasor_sum(s.probs, theta.theta[1]) < 1e-9


class TestFindPartition:
    def test_symmetric_split(self):
        s = SchmidtSpectrum.from_rationals(["1/4"] * 4)
        part = find_partition(s, 2)
        sums = part.subgroup_sums(s)
        assert sums == [Fraction(1, 2), Fraction(1, 2)]

    def test_worked_example_grouping(self):
        part = find_partition(GOLDEN, 2)
        assert part.assignment == (1, 2, 2)

    def test_three_way_split(self):
        s = SchmidtSpectrum.from_rationals(["1/3", "1/3", "1/6", "1/6"])
        part = find_partition(s, 3)
        assert part.assignment == (1, 2, 3, 3)
        assert part.subgroup_sums(s) == [Fraction(1, 3)] * 3
        # exhaustive oracle: some assignment with equal subgroup sums exists
        found = [
            labels
            for labels in itertools.product(range(1, 4), repeat=4)
            if all(
                sum(f for f, g in zip(s.exact, labels) if g == target) == Fraction(1, 3)
                for target in (1, 2, 3)
            )
        ]
        assert part.assignment in found

    def test_no_partition(self):
        with pytest.raises(NoPartition):
            find_partition(SchmidtSpectrum.from_probs([0.35, 0.35, 0.30]), 3)

    def test_fewer_terms_than_subgroups(self):
        with pytest.raises(NoPartition):
            find_partition(SchmidtSpectrum.from_rationals(["1/2", "1/2"]), 3)

    def test_deterministic_first_fit(self):
        s = SchmidtSpectrum.from_rationals(["1/4"] * 4)
        assert find_partition(s, 2).assignment == find_partition(s, 2).assignment == (1, 1, 2, 2)

    def test_float_path(self):
        s = SchmidtSpectrum.from_probs([0.25, 0.25, 0.25, 0.25])
        part = find_partition(s, 4)
        assert sorted(part.assignment) == [1, 2, 3, 4]


class TestPhasesFromPartition:
    def test_uniform_identity_partition_is_fourier(self):
        d = 3
        s = SchmidtSpectrum.from_rationals([Fraction(1, d)] * d)
        part = find_partition(s, d)
        assert part.assignment == (1, 2, 3)
        theta = phases_from_partition(part, d, d)
        np.testing.assert_array_equal(theta.theta[0], np.zeros(d))
        expected_row = np.mod(2 * np.pi / d * np.arange(1, d + 1), 2 * np.pi)
        np.testing.assert_allclose(theta.theta[1], expected_row, atol=1e-12)
        assert theta.constraint_residual(s) < 1e-12

    def test_worked_example_row(self):
        part = find_partition(GOLDEN, 2)
        theta = phases_from_partition(part, 2, 3)
        np.testing.assert_allclose(theta.theta[1], [np.pi, 0.0, 0.0], atol=1e-12)
        assert phasor_sum(GOLDEN.probs, theta.theta[1]) < 1e-12

    def test_quarter_spectrum(self):
        s = SchmidtSpectrum.from_rationals(["1/4"] * 4)
        theta = phases_from_partition(find_partition(s, 2), 2, 4)
        assert theta.constraint_residual(s) < 1e-12


class TestSolveGeneral:
    def test_d2_route(self):
        s = SchmidtSpectrum.from_rationals(["1/2", "1/2"])
        theta = solve_general(s, 2)
        np.testing.assert_allclose(theta.row_differences(), [0.0, np.pi], atol=1e-15)

    @pytest.mark.parametrize("d,n", [(3, 3), (3, 6), (4, 4), (4, 8)])
    def test_uniform_spectra_via_partition(self, d, n):
        s = SchmidtSpectrum.from_rationals([Fraction(1, n)] * n)
        theta = solve_general(s, d)
        assert theta.constraint_residual(s) < 1e-12

    def test_numerical_stage_regression(self):
        # no equal-weight partition exists here; the search stage must run,
        # and it finds a solution (frozen outcome)
        s = SchmidtSpectrum.from_probs([0.3, 0.3, 0.2, 0.2])
        with pytest.raises(NoPartition):
            find_partition(s, 3)
        theta = solve_general(s, 3)
        assert theta.constraint_residual(s) < 1e-9

    def test_honest_failure_regression(self):
        # feasible (p_max = 1/3 exactly) but no partition, and the search
        # stalls far from a solution at the full budget (frozen outcome)
        s = SchmidtSpectrum.from_rationals(["1/3", "3/10", "4/15", "1/10"])
        with pytest.raises(PhaseFactorsNotFound) as err:
            solve_general(s, 3)
        assert err.value.best_residual > 1e-3

    def test_gate_infeasible(self):
        with pytest.raises(InfeasibleSpectrum):
            solve_general(SchmidtSpectrum.from_rationals(["1/2", "1/3", "1/6"]), 3)

    def test_gate_feasible_never_raises_infeasible(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            s = SchmidtSpectrum.from_probs(feasible_spectrum(rng, n, 1 / 3))
            try:
                theta = solve_general(s, 3, restarts=4, max_nfev=800)
            except PhaseFactorsNotFound:
                continue
            assert theta.constraint_residual(s) < 1e-9


class TestPhaseMatrix:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PhaseMatrix(np.array([[0.0, -0.1], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            PhaseMatrix(np.array([[0.0, 2 * np.pi], [0.0, 0.0]]))

    def test_row_shift_equivalence(self):
        theta = solve_general(GOLDEN, 2)
        base = theta.constraint_residual(GOLDEN)
        rng = np.random.default_rng(3)
        for _ in range(20):
            shifts = rng.uniform(0, 2 * np.pi, size=(2, 1))
            shifted = PhaseMatrix(np.mod(theta.theta + shifts, 2 * np.pi))
            assert shifted.constraint_residual(GOLDEN) < max(1e-9, 10 * base + 1e-12)

    def test_canonicalize_preserves_residual(self):
        rng = np.random.default_rng(4)
        s = SchmidtSpectrum.from_rationals([Fraction(1, 4)] * 4)
        theta = solve_general(s, 4)
        shifted = np.mod(theta.theta + rng.uniform(0, 2 * np.pi, size=(4, 1)), 2 * np.pi)
        canon = PhaseMatrix(canonicalize(shifted))
        np.testing.assert_array_equal(canon.theta[0], np.zeros(4))
        assert canon.constraint_residual(s) < 1e-9
