import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qteleport.bounds import (
    Bits,
    build_bounds_report,
    concentrate_and_teleport_bound,
    concentration_bounds,
    entanglement_of_teleportation,
    locc_ccc_bound,
    residual_cap,
    residual_cap_integer,
    schmidt_entanglement,
    teleport_ccc_bound,
    teleport_feasible,
)
from qteleport.errors import InfeasibleSpectrum, PhaseFactorsNotFound, RankOrder
from qteleport.protocol import synthesize_auto
from qteleport.spectrum import SchmidtSpectrum

from conftest import feasible_spectrum

GOLDEN = SchmidtSpectrum.from_rationals(["1/2", "1/3", "1/6"])


class TestEntanglementOfTeleportation:
    def test_uniform_pair(self):
        bits = entanglement_of_teleportation(SchmidtSpectrum.from_rationals(["1/2", "1/2"]))
        assert bits.value == 1.0
        assert (bits.coefficient, bits.argument) == (Fraction(1), Fraction(2))

    def test_worked_example(self):
        assert entanglement_of_teleportation(GOLDEN).value == 1.0

    def test_generic(self):
        bits = entanglement_of_teleportation(SchmidtSpectrum.from_probs([0.7, 0.3]))
        assert abs(bits.value - (-math.log2(0.7))) < 1e-15
        assert not bits.is_exact

    def test_never_exceeds_schmidt_entanglement(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            p = rng.random(n)
            s = SchmidtSpectrum.from_probs(p / p.sum())
            et = entanglement_of_teleportation(s).value
            e_sch = schmidt_entanglement(s).value
            assert et <= e_sch + 1e-12
            if s.is_uniform(1e-12):
                assert abs(et - e_sch) < 1e-12

    def test_equality_only_for_uniform(self):
        uniform = SchmidtSpectrum.from_rationals(["1/4"] * 4)
        assert entanglement_of_teleportation(uniform).value == schmidt_entanglement(uniform).value
        skew = SchmidtSpectrum.from_probs([0.26, 0.26, 0.24, 0.24])
        assert entanglement_of_teleportation(skew).value < schmidt_entanglement(skew).value - 1e-3


class TestFeasibility:
    def test_worked_example(self):
        assert teleport_feasible(GOLDEN, 2)
        assert not teleport_feasible(GOLDEN, 3)

    def test_uniform_qutrits(self):
        assert teleport_feasible(SchmidtSpectrum.from_rationals(["1/3"] * 3), 3)

    def test_monotone_in_d(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            p = rng.random(n)
            s = SchmidtSpectrum.from_probs(p / p.sum())
            feasibles = [teleport_feasible(s, d) for d in range(2, 6)]
            for earlier, later in zip(feasibles, feasibles[1:]):
                assert earlier or not later  # feasible at d implies feasible at d' < d

    def test_implies_rank_at_least_d(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            p = rng.random(n)
            s = SchmidtSpectrum.from_probs(p / p.sum())
            for d in (2, 3, 4):
                if teleport_feasible(s, d):
                    assert s.n >= d

    def test_exact_boundary(self):
        exact_third = SchmidtSpectrum.from_rationals(["1/3", "1/3", "1/3"])
        assert teleport_feasible(exact_third, 3)


class TestLoccBound:
    def test_halving(self):
        assert locc_ccc_bound(4, 2).value == 1.0

    def test_no_change(self):
        assert locc_ccc_bound(5, 5).value == 0.0

    def test_totals_with_bennett_cost(self):
        for n, d in [(3, 2), (4, 2), (6, 3)]:
            total = locc_ccc_bound(n, d).value + 2 * math.log2(d)
            assert abs(total - math.log2(n * d)) < 1e-12

    def test_rank_order(self):
        with pytest.raises(RankOrder):
            locc_ccc_bound(2, 4)


class TestTeleportCccBound:
    def test_double_bell_zero_residual(self):
        bound = teleport_ccc_bound(4, 2, assume_zero_residual=True)
        assert bound.bits.value == 3.0
        assert bound.assumption == "zero-residual"

    def test_small_resource_is_unconditional(self):
        bound = teleport_ccc_bound(3, 2, assume_zero_residual=False)
        assert abs(bound.bits.value - math.log2(6)) < 1e-15
        assert bound.assumption == "d>n/2"

    def test_double_bell_with_residual_allowed(self):
        bound = teleport_ccc_bound(4, 2, assume_zero_residual=False)
        assert bound.bits.value == 2.0
        assert bound.assumption == "not-tight"

    def test_concentrate_and_teleport(self):
        bound = concentrate_and_teleport_bound(4, 2)
        assert bound.bits.value == 3.0
        assert bound.assumption == "concentrate-and-teleport"

    def test_square_case_matches_bennett(self):
        assert teleport_ccc_bound(3, 3, True).bits.value == 2 * math.log2(3)


class TestResidualCap:
    def test_double_bell(self):
        assert residual_cap(4, 2).value == 1.0

    def test_square(self):
        assert residual_cap(5, 5).value == 0.0

    def test_integer_constraint_beats_raw_cap(self):
        # the raw ratio log2(3/2) is unreachable: n_s*d <= n forces n_s = 1
        assert residual_cap(3, 2).value == 0.0
        assert residual_cap_integer(3, 2).value == 0.0

    def test_raw_vs_integer(self):
        assert abs(residual_cap(5, 2).value - math.log2(2.5)) < 1e-15
        assert residual_cap_integer(5, 2).value == 1.0


class TestConcentration:
    def test_uniform_needs_no_extra_bits(self):
        s = SchmidtSpectrum.from_rationals(["1/2", "1/2"])
        for copies in (1, 3, 5):
            conc = concentration_bounds(s, copies, copies)
            assert conc.feasible
            assert conc.c1_lower_bound.value == 0.0
            assert conc.m_max == copies

    def test_worked_example_budget(self):
        conc = concentration_bounds(GOLDEN, 4, 4)
        assert conc.feasible
        assert abs(conc.c1_lower_bound.value - (4 * math.log2(3) - 4)) < 1e-12
        assert conc.c1_lower_bound.argument == Fraction(81, 16)
        assert conc.c2.value == 8.0

    def test_infeasible_above_budget(self):
        conc = concentration_bounds(GOLDEN, 4, 5)  # 4 * E_t = 4 < 5
        assert not conc.feasible
        assert conc.m_max == 4

    def test_floor_matches_minimum_bound(self, rng):
        for _ in range(50):
            n_items = int(rng.integers(2, 6))
            p = rng.random(n_items)
            s = SchmidtSpectrum.from_probs(p / p.sum())
            copies = int(rng.integers(1, 6))
            et = entanglement_of_teleportation(s).value
            e_sch = schmidt_entanglement(s).value
            m = concentration_bounds(s, copies, 0).m_max
            assert m <= copies * et + 1e-12
            c1 = concentration_bounds(s, copies, m).c1_lower_bound.value
            floor_bound = copies * (e_sch - et)
            assert c1 >= floor_bound - 1e-9
            assert c1 - floor_bound < 1.0 + 1e-9  # flooring loses less than one bit

    def test_exact_m_max_brackets_the_budget(self):
        for values in (["1/2", "1/3", "1/6"], ["3/5", "2/5"], ["7/10", "3/10"], ["1/1"]):
            s = SchmidtSpectrum.from_rationals(values)
            p = s.p_max_exact
            for copies in (1, 2, 3, 7, 50, 137, 500):
                conc = concentration_bounds(s, copies, 1)
                m = conc.m_max
                assert 2**m * p**copies <= 1 < 2 ** (m + 1) * p**copies
                assert conc.feasible == (1 <= m)

    def test_million_copies_return(self):
        conc = concentration_bounds(GOLDEN, 10**6, 10**6)
        assert conc.m_max == 10**6
        assert conc.feasible

    def test_exact_feasibility_at_boundary(self):
        s = SchmidtSpectrum.from_rationals(["1/2", "1/4", "1/8", "1/8"])  # E_t = 1 exactly
        assert concentration_bounds(s, 3, 3).feasible
        assert not concentration_bounds(s, 3, 4).feasible

    def test_nielsen_majorization_cross_check(self, rng):
        # Nielsen (PRL 83, 436, 1999): n copies convert to m Bell pairs by LOCC
        # exactly when the n-fold product spectrum is majorized by the uniform
        # spectrum on 2^m, i.e. every top-k partial sum is at most min(k, 2^m)/2^m
        def majorized_by_uniform(partial: list[Fraction], m: int) -> bool:
            return all(total <= Fraction(min(k, 2**m), 2**m) for k, total in enumerate(partial, 1))

        spectra = [["1/1"], ["1/2", "1/2"], ["3/5", "2/5"], ["1/2", "1/3", "1/6"],
                   ["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"], ["7/10", "1/5", "1/10"]]
        for _ in range(6):
            weights = rng.integers(1, 20, int(rng.integers(2, 4)))
            spectra.append([Fraction(int(w), int(weights.sum())) for w in weights])
        for values in spectra:
            s = SchmidtSpectrum.from_rationals(values)
            for copies in range(1, 7):
                product = [math.prod(t) for t in itertools.product(s.exact, repeat=copies)]
                partial = list(itertools.accumulate(sorted(product, reverse=True)))
                m_nielsen = 0
                while majorized_by_uniform(partial, m_nielsen + 1):
                    m_nielsen += 1
                assert concentration_bounds(s, copies, 0).m_max == m_nielsen, (values, copies)
                for m in range(m_nielsen + 3):
                    conc = concentration_bounds(s, copies, m)
                    assert conc.feasible == majorized_by_uniform(partial, m), (values, copies, m)


class TestBits:
    def test_log2_value_matches_math(self):
        assert Bits.log2(1, 6).value == math.log2(6)
        assert Bits.log2(2, 3).value == 2 * math.log2(3)
        assert Bits.log2(1, Fraction(3, 2)).value == math.log2(3) - 1.0

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            Bits.log2(1, 0)


class TestReportConsistency:
    def test_report_fields(self):
        report = build_bounds_report(GOLDEN, 2)
        assert report.et.value == 1.0
        assert report.teleport_feasible
        assert report.ccc_lower_bound.assumption == "d>n/2"  # n = 3, d = 2
        assert abs(report.ccc_lower_bound.bits.value - math.log2(6)) < 1e-15
        assert report.residual_cap.value == 0.0

    def test_report_when_rank_below_d(self):
        report = build_bounds_report(SchmidtSpectrum.from_rationals(["1/2", "1/2"]), 3)
        assert not report.teleport_feasible
        assert report.ccc_lower_bound is None

    def test_synthesis_agrees_with_feasibility(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            p = rng.random(n)
            s = SchmidtSpectrum.from_probs(p / p.sum())
            d = int(rng.integers(2, 4))
            if not teleport_feasible(s, d):
                with pytest.raises(InfeasibleSpectrum):
                    synthesize_auto(s, d, restarts=2, max_nfev=500)
            else:
                try:
                    _, table = synthesize_auto(s, d, restarts=4, max_nfev=1000)
                except PhaseFactorsNotFound:
                    continue
                # the trace's classical bits equal the zero-residual bound exactly
                bound = teleport_ccc_bound(s.n, d, assume_zero_residual=True)
                assert math.log2(table.s) == bound.bits.value

    def test_faithful_protocols_use_feasible_spectra(self):
        rng = np.random.default_rng(43)
        for d in (2, 3):
            s = SchmidtSpectrum.from_probs(feasible_spectrum(rng, 5, 1 / d))
            assert teleport_feasible(s, d)
