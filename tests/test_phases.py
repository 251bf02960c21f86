import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport import phases
from qteleport.errors import InfeasibleSpectrum, NoPartition, PhaseFactorsNotFound
from qteleport.phases import (
    CONDITION_TOL,
    DEFAULT_MAX_NFEV,
    DEFAULT_RESTARTS,
    PhaseMatrix,
    canonicalize,
    decide_three_by_four,
    find_partition,
    phase_obstruction,
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


def reference_first_fit(spectrum: SchmidtSpectrum, d: int):
    """Frozen recursive first-fit search, the reference for find_partition.

    Unpruned, unbounded backtracking on Fractions (exact spectra) or on float
    sums within CONDITION_TOL; returns the assignment, or None.
    """
    if spectrum.exact is not None:
        values = list(spectrum.exact)
        target = Fraction(1, d)
        fits = lambda acc, v: acc + v <= target
        full = lambda acc: acc == target
    else:
        values = list(spectrum.probs)
        target = 1.0 / d
        fits = lambda acc, v: acc + v <= target + CONDITION_TOL
        full = lambda acc: abs(acc - target) <= CONDITION_TOL
    n = len(values)
    order = sorted(range(n), key=lambda i: (-values[i], i))
    assignment = [0] * n
    sums = [values[0] * 0] * d

    def place(pos: int) -> bool:
        if pos == n:
            return all(full(s) for s in sums)
        idx = order[pos]
        v = values[idx]
        seen_empty = False
        for g in range(d):
            if sums[g] == 0 * v:
                if seen_empty:
                    break
                seen_empty = True
            if fits(sums[g], v):
                sums[g] = sums[g] + v
                assignment[idx] = g + 1
                if place(pos + 1):
                    return True
                sums[g] = sums[g] - v
                assignment[idx] = 0
        return False

    return tuple(assignment) if n >= d and place(0) else None


def brute_force_splits(spectrum: SchmidtSpectrum, d: int) -> bool:
    """Whether any of the d**n labelings gives d subgroups of weight 1/d."""
    labels = np.array(list(itertools.product(range(d), repeat=spectrum.n)))
    members = np.stack([labels == g for g in range(d)])  # (d, labelings, n)
    if spectrum.exact is not None:
        scale = np.lcm.reduce([f.denominator for f in spectrum.exact] + [d])
        weights = np.array([int(f * scale) for f in spectrum.exact], dtype=np.int64)
        return bool((members @ weights == scale // d).all(axis=0).any())
    sums = members @ spectrum.as_array()
    return bool((np.abs(sums - 1.0 / d) <= CONDITION_TOL).all(axis=0).any())


def random_weights(rng, n: int, d: int) -> list[int]:
    """Positive integer weights; half the time with a planted split into d parts of 24."""
    if rng.random() < 0.5:
        return [int(w) for w in rng.integers(1, 10, n)]
    cuts = np.sort(rng.choice(np.arange(1, n), d - 1, replace=False))
    weights = []
    for k in np.diff(np.concatenate([[0], cuts, [n]])):
        parts = np.sort(rng.choice(np.arange(1, 24), k - 1, replace=False))
        weights += np.diff(np.concatenate([[0], parts, [24]])).tolist()
    return [int(w) for w in rng.permutation(weights)]


def random_spectra(seed: int, count: int, max_n: int):
    """(spectrum, d) pairs: exact and float images of random integer weights."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d, max_n + 1))
        weights = random_weights(rng, n, d)
        total = sum(weights)
        exact = SchmidtSpectrum.from_rationals([Fraction(w, total) for w in weights])
        out += [(exact, d), (SchmidtSpectrum.from_probs(exact.probs), d)]
    return out


def near_uniform(n: int, seed: int) -> SchmidtSpectrum:
    p = np.random.default_rng(seed).dirichlet(np.full(n, 30.0))
    return SchmidtSpectrum.from_probs(p / p.sum())


class TestPartitionSearch:
    """find_partition against brute force and the frozen recursive search."""

    @pytest.mark.parametrize("subset_sum_after", [phases.SUBSET_SUM_AFTER, 1])
    def test_succeeds_exactly_when_brute_force_does(self, monkeypatch, subset_sum_after):
        # with SUBSET_SUM_AFTER = 1 the subset-sum test runs on every search
        monkeypatch.setattr(phases, "SUBSET_SUM_AFTER", subset_sum_after)
        outcomes = set()
        for spectrum, d in random_spectra(seed=17, count=40, max_n=9):
            if d == 4 and spectrum.n > 8:
                continue
            try:
                find_partition(spectrum, d)
                found = True
            except NoPartition:
                found = False
            assert found == brute_force_splits(spectrum, d), (spectrum.probs, d)
            outcomes.add(found)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("subset_sum_after", [phases.SUBSET_SUM_AFTER, 1])
    def test_same_first_partition_as_reference(self, monkeypatch, subset_sum_after):
        monkeypatch.setattr(phases, "SUBSET_SUM_AFTER", subset_sum_after)
        for spectrum, d in random_spectra(seed=29, count=60, max_n=12):
            try:
                got = find_partition(spectrum, d).assignment
            except NoPartition:
                got = None
            assert got == reference_first_fit(spectrum, d), (spectrum.probs, d)

    def test_large_denominators_use_python_integers(self, monkeypatch):
        # common denominator beyond int64: the subset-sum test falls back to
        # Python integers and still decides exactly
        monkeypatch.setattr(phases, "SUBSET_SUM_AFTER", 1)
        big = 10**19 + 7
        split = [Fraction(k, 3 * big) for k in (big - 5, 5, big // 2, big - big // 2, big)]
        assert find_partition(SchmidtSpectrum.from_rationals(split), 3).assignment == (
            reference_first_fit(SchmidtSpectrum.from_rationals(split), 3)
        )
        # three entries of 1/3 - 9/(3*big) and small ones 5, 11, 11: no subset sums to 9
        skewed = [Fraction(k, 3 * big) for k in (big - 9, big - 9, big - 9, 5, 11, 11)]
        with pytest.raises(NoPartition, match="no subset"):
            find_partition(SchmidtSpectrum.from_rationals(skewed), 3)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_float_margin_keeps_grouped_spectra(self, monkeypatch, d):
        # the subset-sum test must never reject a split first fit accepts,
        # even when subgroup sums sit on the last floats first fit accepts
        monkeypatch.setattr(phases, "SUBSET_SUM_AFTER", 1)
        target = 1.0 / d
        full = lambda acc: abs(acc - target) <= CONDITION_TOL

        def edge_entry(k: int, sign: int) -> float:
            """Entry w whose k-fold running sum is the last full one on the sign side."""
            running = lambda w: sum([w] * k)
            w = (target + sign * CONDITION_TOL) / k
            while full(running(np.nextafter(w, sign * np.inf))):
                w = np.nextafter(w, sign * np.inf)
            while not full(running(w)):
                w = np.nextafter(w, -sign * np.inf)
            return float(w)

        rng = np.random.default_rng(d)
        for n in (8, 16, 24, 32):
            cuts = np.sort(rng.choice(np.arange(1, n), d - 1, replace=False))
            sizes = np.diff(np.concatenate([[0], cuts, [n]])).tolist()
            entries = [edge_entry(sizes[0], 1), edge_entry(sizes[1], -1)]
            entries += [target / k for k in sizes[2:]]
            values = [w for w, k in zip(entries, sizes) for _ in range(k)]
            spectrum = SchmidtSpectrum.from_probs(rng.permutation(values))
            sums = find_partition(spectrum, d).subgroup_sums(spectrum)
            assert max(abs(x - target) for x in sums) <= CONDITION_TOL

    def test_float_margin_at_the_tolerance_edge(self, monkeypatch):
        # d = 2 with random entries: the only subsets near 1/2 are the two
        # planted halves, whose descending running sums are the last floats
        # first fit accepts; without SUBSET_SUM_MARGIN some are rejected
        monkeypatch.setattr(phases, "SUBSET_SUM_AFTER", 1)
        full = lambda acc: abs(acc - 0.5) <= CONDITION_TOL
        running = lambda entries: sum(sorted(entries, reverse=True))

        def edge_half(k: int, sign: int) -> list[float]:
            entries = (rng.dirichlet(np.ones(k)) * (0.5 + sign * CONDITION_TOL)).tolist()
            nudged = lambda w, toward: entries[:-1] + [float(np.nextafter(w, toward * np.inf))]
            while full(running(nudged(entries[-1], sign))):
                entries = nudged(entries[-1], sign)
            while not full(running(entries)):
                entries = nudged(entries[-1], -sign)
            return entries

        rng = np.random.default_rng(0)
        for _ in range(400):
            halves = edge_half(int(rng.integers(2, 10)), 1) + edge_half(int(rng.integers(2, 10)), -1)
            spectrum = SchmidtSpectrum.from_probs(halves)
            sums = find_partition(spectrum, 2).subgroup_sums(spectrum)  # index-order sums
            assert max(abs(x - 0.5) for x in sums) <= CONDITION_TOL + 1e-15

    @pytest.mark.parametrize("n", [20, 24])
    def test_near_uniform_rejected_fast(self, n):
        for seed in range(3):
            start = time.perf_counter()
            with pytest.raises(NoPartition, match="no subset"):
                find_partition(near_uniform(n, seed), 3)
            assert time.perf_counter() - start < 0.5

    def test_near_uniform_refused_by_the_subset_sum_test(self):
        # at n = 14 the test costs about 2 * 2**7 sums, so it runs after 256
        # placements, before first fit has exhausted its backtracking
        for seed in range(3):
            with pytest.raises(NoPartition, match="no subset"):
                find_partition(near_uniform(14, seed), 3)

    def test_float_budget_stops_near_uniform_searches(self):
        # at n = 40 subsets within the float window about 1/3 are all but certain,
        # so the subset-sum test is skipped and the float budget stops first fit
        start = time.perf_counter()
        with pytest.raises(NoPartition, match="budget of 4096 placements"):
            find_partition(near_uniform(40, 5), 3)
        assert time.perf_counter() - start < 0.25

    def test_budget_bounds_large_searches(self):
        # past SUBSET_SUM_MAX_N, and with subsets of weight 1/3 aplenty, only
        # the node budget stops the search
        spectrum = near_uniform(48, 0)
        start = time.perf_counter()
        with pytest.raises(NoPartition, match="budget"):
            find_partition(spectrum, 3)
        assert time.perf_counter() - start < 30.0


class TestPhasesFromPartition:
    def test_uniform_identity_partition_is_fourier(self):
        d = 3
        s = SchmidtSpectrum.from_rationals([Fraction(1, d)] * d)
        part = find_partition(s, d)
        assert part.assignment == (1, 2, 3)
        theta = phases_from_partition(part)
        np.testing.assert_array_equal(theta.theta[0], np.zeros(d))
        expected_row = np.mod(2 * np.pi / d * np.arange(1, d + 1), 2 * np.pi)
        np.testing.assert_allclose(theta.theta[1], expected_row, atol=1e-12)
        assert theta.constraint_residual(s) < 1e-12

    def test_worked_example_row(self):
        part = find_partition(GOLDEN, 2)
        theta = phases_from_partition(part)
        np.testing.assert_allclose(theta.theta[1], [np.pi, 0.0, 0.0], atol=1e-12)
        assert phasor_sum(GOLDEN.probs, theta.theta[1]) < 1e-12

    def test_quarter_spectrum(self):
        s = SchmidtSpectrum.from_rationals(["1/4"] * 4)
        theta = phases_from_partition(find_partition(s, 2))
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

    def test_deep_first_fit_does_not_recurse(self):
        # the recursive search hit Python's recursion limit near n = 1000
        s = SchmidtSpectrum.from_rationals([Fraction(1, 1200)] * 1200)
        theta = solve_general(s, 3)
        assert isinstance(theta, PhaseMatrix)
        assert theta.constraint_residual(s) < 1e-12

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


def pair_loop(x: np.ndarray, probs: np.ndarray, d: int):
    """The search's residual and Jacobian written as a loop over row pairs: the oracle."""
    n = probs.size
    theta = np.zeros((d, n))
    theta[1:, 1:] = x.reshape(d - 1, n - 1)
    rows = np.exp(1j * theta)
    res = np.zeros(d * (d - 1))
    jac = np.zeros((d * (d - 1), (d - 1) * (n - 1)))
    for i, (m, mm) in enumerate(itertools.combinations(range(d), 2)):
        ph = probs * rows[m] * rows[mm].conj()
        c = np.sum(ph)
        res[2 * i], res[2 * i + 1] = c.real, c.imag
        for a, sign in ((m, 1.0), (mm, -1.0)):
            if a == 0:
                continue
            cols = slice((a - 1) * (n - 1), a * (n - 1))
            grad = 1j * sign * ph[1:]
            jac[2 * i, cols] += grad.real
            jac[2 * i + 1, cols] += grad.imag
    return res, jac


@pytest.fixture
def searches(monkeypatch) -> list:
    """Every phases.least_squares result from here on, in call order."""
    results = []
    inner = phases.least_squares

    def recorded(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(phases, "least_squares", recorded)
    return results


def partitionless_spectrum(rng, n: int, d: int, alpha: float, lo: float) -> SchmidtSpectrum:
    """Dirichlet(alpha) spectrum with d * p_max in [lo, 0.95] and no equal-weight split."""
    while True:
        p = rng.dirichlet([alpha] * n)
        if lo <= d * p.max() <= 0.95:
            s = SchmidtSpectrum.from_probs(p / p.sum())
            with pytest.raises(NoPartition):
                find_partition(s, d)
            return s


class TestSearch:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_residual_and_jacobian_match_the_pair_loop(self, d):
        rng = np.random.default_rng(40 + d)
        for n in (d + 1, d + 4):
            probs = rng.dirichlet([2.0] * n)
            x = rng.uniform(0, 2 * np.pi, (d - 1) * (n - 1))
            equations = phases.phase_equations(probs, d)
            r, jacobian = equations(x)
            jac = jacobian()
            loop_res, loop_jac = pair_loop(x, probs, d)
            np.testing.assert_allclose(r, loop_res, rtol=0, atol=1e-15)
            np.testing.assert_allclose(jac, loop_jac, rtol=0, atol=1e-15)
            h = 1e-6
            central = np.column_stack([
                (equations(x + h * e)[0] - equations(x - h * e)[0]) / (2 * h)
                for e in np.eye(x.size)
            ])
            np.testing.assert_allclose(jac, central, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_least_squares_keeps_to_max_nfev(self, budget):
        # a spectrum with no phase factors never converges, so only the budget stops it
        equations = phases.phase_equations(np.array(EXHAUSTED[0]), 3)
        evaluated = []

        def fun(x):
            evaluated.append(x.copy())
            return equations(x)

        x0 = np.random.default_rng(3).uniform(0, 2 * np.pi, 6)
        result = phases.least_squares(fun, x0, max_nfev=budget)
        assert result.nfev == len(evaluated) == budget
        assert any(np.array_equal(result.x, x) for x in evaluated)

    def test_partitionless_grid_solved_on_the_first_start(self, searches):
        rng = np.random.default_rng(2027)
        for d, sizes, alpha, lo in ((3, (5, 6, 8, 10), 4.0, 0.0), (4, (6, 8, 10, 12), 4.0, 0.0),
                                    (5, (6, 8, 10), 30.0, 0.9)):
            for n in sizes:
                for _ in range(3):
                    s = partitionless_spectrum(rng, n, d, alpha, lo)
                    searches.clear()
                    defect, theta = phases._search_phases(
                        s.as_array(), d, DEFAULT_RESTARTS, DEFAULT_MAX_NFEV, phases._SEARCH_SEED
                    )
                    assert theta is not None and len(searches) == 1
                    if d == 5:  # n = d + 1 costs the most evaluations per start
                        assert searches[0].nfev <= 40
                    assert defect == phases.eigenvalue_defect(s.as_array(), theta.theta)
                    assert defect <= CONDITION_TOL

    def test_exhausted_searches_stay_cheap(self, searches):
        # gain-ratio damping: 64 restarts on each of the three spectra took
        # 16034 residual evaluations with lam bouncing between /10 and *10
        for p in EXHAUSTED:
            assert search_outcome(SchmidtSpectrum.from_probs(p))[1] is None
        assert len(searches) == 3 * DEFAULT_RESTARTS
        assert sum(result.nfev for result in searches) < 8000

    def test_jacobian_is_built_only_at_kept_points(self):
        # a step is kept exactly when it lowers the cost (the predicted
        # decrease is positive), so the kept points are x0 and every
        # evaluation below all earlier ones; the last may stop the loop unbuilt
        rng = np.random.default_rng(12)
        probs = np.array(EXHAUSTED[1])
        equations = phases.phase_equations(probs, 3)
        evaluated, built = [], []

        def fun(x):
            r, jacobian = equations(x)
            evaluated.append((x.copy(), 0.5 * (r @ r)))
            point = x.copy()

            def recorded():
                built.append(point)
                return jacobian()

            return r, recorded

        for _ in range(4):
            evaluated.clear()
            built.clear()
            phases.least_squares(fun, rng.uniform(0, 2 * np.pi, 6), max_nfev=200)
            kept, least = [], math.inf
            for x, cost in evaluated:
                if cost < least:
                    kept.append(x)
                    least = cost
            assert len(kept) < len(evaluated)  # some steps were rejected
            assert len(kept) - 1 <= len(built) <= len(kept)
            for x, y in zip(built, kept):
                np.testing.assert_array_equal(x, y)

    def test_exhausted_search_reports_its_best_residual(self, searches):
        for p in EXHAUSTED:
            probs = np.array(p)
            searches.clear()
            best, theta = phases._search_phases(probs, 3, 4, DEFAULT_MAX_NFEV, phases._SEARCH_SEED)
            assert theta is None and len(searches) == 4
            defects = [
                phases.eigenvalue_defect(probs, canonicalize(phases._unpack(result.x, 3, 4)))
                for result in searches
            ]
            assert best == min(defects)
            assert 1e-3 < best < 1


def search_outcome(spectrum: SchmidtSpectrum):
    """solve_general's own 64-restart search, run directly: (least defect, theta or None)."""
    return phases._search_phases(
        spectrum.as_array(), 3, DEFAULT_RESTARTS, DEFAULT_MAX_NFEV, phases._SEARCH_SEED
    )


def four_term_spectrum(rng) -> np.ndarray:
    """Four-term spectrum with p_max < 1/3: every side of its quadrilateral is positive."""
    while True:
        p = rng.dirichlet([3.0] * 4)
        if p.max() < 1 / 3:
            return p


def random_quadrilaterals(rng, probs: np.ndarray, count: int) -> np.ndarray:
    """Closed configurations z (count, 4) with |z_k|**2 = p_k (1 - 3 p_k)."""
    sides = np.sqrt(probs * (1 - 3 * probs))
    out = []
    while len(out) < count:
        z01 = sides[:2] * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        gap = -z01.sum()
        e, b, c = abs(gap), sides[2], sides[3]
        if not abs(b - c) < e < b + c:
            continue
        x = (e * e + b * b - c * c) / (2 * e)
        z2 = gap / e * (x + 1j * np.sqrt(b * b - x * x))
        out.append([z01[0], z01[1], z2, gap - z2])
    return np.array(out)


# the three exhausted-search spectra of the benchmark's solve workload
EXHAUSTED = [(0.333, 0.3, 0.2, 0.167), (0.3331, 0.2469, 0.24, 0.18), (0.3325, 0.2675, 0.25, 0.15)]


class TestThreeByFour:
    def test_agrees_with_the_search_on_a_seeded_grid(self):
        # 300 spectra, 60 per Dirichlet concentration; every decided verdict
        # must match what the 64-restart search reaches on its own
        rng = np.random.default_rng(2026)
        verdicts, disagreements = [], []
        for concentration in (0.5, 1.0, 3.0, 10.0, 30.0):
            drawn = 0
            while drawn < 60:
                p = rng.dirichlet([concentration] * 4)
                if p.max() > 1 / 3:
                    continue
                drawn += 1
                s = SchmidtSpectrum.from_probs(p / p.sum())
                verdict = decide_three_by_four(s)
                verdicts.append(verdict.solvable)
                found = search_outcome(s)[1] is not None
                if verdict.solvable is not None and verdict.solvable != found:
                    disagreements.append((s.probs, verdict, found))
        assert disagreements == []
        assert verdicts.count(True) >= 30 and verdicts.count(False) >= 150
        assert verdicts.count(None) <= 3

    def test_obstruction_is_the_bargmann_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = four_term_spectrum(rng)
            z = random_quadrilaterals(rng, p, 5)
            u = np.sqrt(p)
            for config in z:
                v = config / u
                q = np.eye(4) - np.outer(u, u) - np.outer(v, v.conj())
                bargmann = (q[0, 1] * q[1, 2] * q[2, 0]).imag
                assert abs(phase_obstruction(p, config) - bargmann) < 1e-15

    def test_obstruction_is_odd_under_reflection(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = four_term_spectrum(rng)
            z = random_quadrilaterals(rng, p, 10)
            np.testing.assert_array_equal(phase_obstruction(p, z.conj()), -phase_obstruction(p, z))

    def test_exhausted_spectra_are_proved_without_a_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(phases, "least_squares", no_search)
        for p in EXHAUSTED:
            s = SchmidtSpectrum.from_probs(p)
            with pytest.raises(PhaseFactorsNotFound) as err:
                solve_general(s, 3)
            assert err.value.proved and err.value.best_residual == math.inf
            assert decide_three_by_four(s).margin > 0.01

    def test_margin_is_below_the_densely_sampled_minimum(self):
        # the certified margin bounds |g| between the decision's own samples,
        # so a denser grid offset from them never finds a smaller |g|
        rng = np.random.default_rng(12)
        proved = [np.asarray(p) for p in EXHAUSTED]
        while len(proved) < 23:
            p = rng.dirichlet([3.0] * 4)
            if p.max() < 1 / 3 and decide_three_by_four(SchmidtSpectrum.from_probs(p)).solvable is False:
                proved.append(p)
        angles = 2 * np.pi * (np.arange(1 << 16) + rng.random()) / (1 << 16)
        crank = np.exp(1j * angles)
        for probs in proved:
            sides = np.sqrt(probs * (1 - 3 * probs))
            s_i, b_i, c_i, l_i = np.argsort(sides)
            gap = -(sides[l_i] + sides[s_i] * crank)
            e, b, c = np.abs(gap), sides[b_i], sides[c_i]
            x = (e * e + b * b - c * c) / (2 * e)
            z = np.empty((crank.size, 4), dtype=complex)
            z[:, l_i], z[:, s_i] = sides[l_i], sides[s_i] * crank
            z[:, b_i] = gap / e * (x + 1j * np.sqrt(b * b - x * x))
            z[:, c_i] = gap - z[:, b_i]
            g = phase_obstruction(probs, z)
            assert np.all(g > 0) or np.all(g < 0)
            margin = decide_three_by_four(SchmidtSpectrum.from_probs(probs)).margin
            assert 0 < margin <= np.abs(g).min()

    def test_zero_side_proved_none(self):
        # p_1 = 1/3 exactly: one side of the quadrilateral has length 0
        s = SchmidtSpectrum.from_rationals(["1/3", "3/10", "4/15", "1/10"])
        assert decide_three_by_four(s).solvable is False
        with pytest.raises(PhaseFactorsNotFound) as err:
            solve_general(s, 3)
        assert err.value.proved
        assert "no phase factors exist" in str(err.value)

    @pytest.mark.parametrize("x", [Fraction(1, 7), Fraction(1, 10), Fraction(1, 6)])
    def test_two_zero_sides_solvable(self, x):
        s = SchmidtSpectrum.from_rationals([Fraction(1, 3), Fraction(1, 3), x, Fraction(1, 3) - x])
        assert decide_three_by_four(s).solvable is True
        assert solve_general(s, 3).constraint_residual(s) < 1e-12

    def test_hair_above_a_third_gives_no_nan(self):
        # admitted by FEASIBILITY_SLACK on the float path; 1 - 3p < 0 there
        s = SchmidtSpectrum.from_probs([1 / 3 + 4e-13, 0.3, 4 / 15 - 4e-13, 0.1])
        assert s.admits(3)
        with np.errstate(all="raise"):
            verdict = decide_three_by_four(s)
        assert verdict.solvable is False and math.isfinite(verdict.margin)

    def test_inconclusive_falls_back_to_the_search(self):
        # shortest + longest side equals the other two to the last ulp: the
        # dyad triangle degenerates, so nothing is certified and the search
        # runs, returning the same theta as the search on its own
        s = SchmidtSpectrum.from_probs([0.3, 0.25, 0.1700989933579326, 0.27990100664206735])
        assert decide_three_by_four(s).solvable is None
        theta = solve_general(s, 3)
        _, expected = search_outcome(s)
        np.testing.assert_array_equal(theta.theta, expected.theta)
        assert theta.constraint_residual(s) < 1e-9
