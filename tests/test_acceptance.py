"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import time

import numpy as np

from qteleport.bounds import (
    concentration_bounds,
    entanglement_of_teleportation,
    schmidt_entanglement,
    teleport_ccc_bound,
)
from qteleport.errors import InfeasibleSpectrum, PhaseFactorsNotFound
from qteleport.linalg import BipartiteShape, basis_state, schmidt_decompose, tensor
from qteleport.phases import solve_d2
from qteleport.protocol import (
    bob_unitaries,
    measurement_basis,
    synthesize_auto,
    synthesize_d2,
    verify_conditions,
)
from qteleport.sim import (
    haar_random_state,
    one_pair_double_bell_trace,
    random_input_sweep,
    run_protocol,
)
from qteleport.spectrum import SchmidtSpectrum

from conftest import feasible_spectrum, random_state

GOLDEN = SchmidtSpectrum.from_rationals(["1/2", "1/3", "1/6"])
PAIR = SchmidtSpectrum.from_rationals(["1/2", "1/2"])


def report(criterion: str, detail: str) -> None:
    print(f"PASS  {criterion}: {detail}")


def test_criterion_1_golden_six_outcome_protocol():
    start = time.time()
    theta = solve_d2(GOLDEN)
    np.testing.assert_allclose(theta.theta[1], [0.0, np.pi, np.pi], atol=1e-15)
    phasor = abs(sum(p * np.exp(1j * t) for p, t in zip(GOLDEN.probs, theta.theta[1])))
    assert phasor < 1e-12

    table = synthesize_d2(GOLDEN, theta)
    assert table.s == 6
    conditions = verify_conditions(table)
    states = measurement_basis(table)
    orthonormality = np.abs(states.conj() @ states.T - np.eye(table.s)).max()
    assert orthonormality < 1e-10
    assert conditions.unitarity_residual < 1e-10

    rng = np.random.default_rng(1)
    worst_fid, worst_prob = 1.0, 0.0
    for _ in range(100):
        trace = run_protocol(haar_random_state(2, rng), table)
        worst_fid = min(worst_fid, trace.min_fidelity)
        worst_prob = max(worst_prob, float(np.abs(trace.probabilities - 1 / 6).max()))
    assert worst_fid >= 1 - 1e-10
    assert worst_prob < 1e-10
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(
        "criterion 1 (six-outcome qubit protocol)",
        f"phasor sum {phasor:.2e}, residuals ({orthonormality:.2e}, "
        f"{conditions.unitarity_residual:.2e}), 100 inputs: min fidelity {worst_fid!r}, "
        f"max prob dev {worst_prob:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_bennett_recovery():
    theta = solve_d2(PAIR)
    np.testing.assert_allclose(theta.theta[1], [0.0, np.pi], atol=1e-15)
    table = synthesize_d2(PAIR, theta)

    positive = {
        (2, 1, 1), (3, 1, 1),
        (1, 1, 2), (2, 1, 2), (3, 1, 2), (4, 1, 2),
        (2, 2, 1), (4, 2, 1),
        (3, 2, 2), (4, 2, 2),
    }
    for j in range(1, 5):
        for m in range(1, 3):
            for k in range(1, 3):
                want = 0.5 if (j, m, k) in positive else -0.5
                assert abs(table.V[j - 1, m - 1, k - 1] - want) < 1e-12

    unitaries = bob_unitaries(table)
    for j in range(4):
        assert np.abs(unitaries[j].conj().T - np.sqrt(2) * table.V[j]).max() < 1e-12

    rng = np.random.default_rng(2)
    worst = 1.0
    for _ in range(25):
        trace = run_protocol(haar_random_state(2, rng), table)
        worst = min(worst, trace.min_fidelity)
    assert worst >= 1 - 1e-10
    report(
        "criterion 2 (four-outcome recovery)",
        f"exact sign pattern, corrections = sqrt(2) * coefficients, min fidelity {worst!r}",
    )


def test_criterion_3_feasibility_gate_both_directions():
    start = time.time()
    rng = np.random.default_rng(3)
    synthesized, gated, unfound = 0, 0, 0
    for i in range(500):
        n = int(rng.integers(2, 7))
        p = rng.random(n)
        s = SchmidtSpectrum.from_probs(p / p.sum())
        for d in (2, 3):
            feasible = s.p_max <= 1 / d + 1e-12
            try:
                _, table = synthesize_auto(s, d, restarts=6, max_nfev=1500)
            except InfeasibleSpectrum:
                assert not feasible, "gate rejected a feasible spectrum"
                gated += 1
                continue
            except PhaseFactorsNotFound:
                assert feasible, "search ran on an infeasible spectrum"
                unfound += 1
                continue
            assert feasible, "synthesis succeeded on an infeasible spectrum"
            conditions = verify_conditions(table)
            assert max(conditions.orthonormality_residual, conditions.unitarity_residual) <= 1e-10
            sweep = random_input_sweep(table, trials=1, seed=i)
            assert sweep.min_fidelity >= 1 - 1e-10
            synthesized += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(
        "criterion 3 (feasibility gate, 500 spectra x d in {2,3})",
        f"{synthesized} synthesized+certified f=1, {gated} gated infeasible, "
        f"{unfound} honest search failures, {elapsed:.1f}s",
    )


def test_criterion_4_classical_cost_accounting():
    for spectrum, d in [(PAIR, 2), (GOLDEN, 2), (SchmidtSpectrum.from_rationals(["1/3"] * 3), 3)]:
        _, table = synthesize_auto(spectrum, d)
        assert table.s == spectrum.n * d
        trace = run_protocol(basis_state(d, 0), table)
        assert trace.classical_bits == math.log2(spectrum.n * d)

    zero_residual = teleport_ccc_bound(4, 2, assume_zero_residual=True)
    assert zero_residual.bits.value == 3.0
    assert zero_residual.assumption == "zero-residual"
    with_residual = teleport_ccc_bound(4, 2, assume_zero_residual=False)
    assert with_residual.bits.value == 2.0
    assert with_residual.assumption == "not-tight"
    report(
        "criterion 4 (classical cost accounting)",
        "every protocol uses n*d outcomes = log2(n*d) bits; two-Bell-pair case: "
        "3.0 bits zero-residual vs 2.0 bits not-tight",
    )


def test_criterion_5_residual_entanglement():
    rng = np.random.default_rng(5)
    for spectrum, d in [(PAIR, 2), (GOLDEN, 2), (SchmidtSpectrum.from_rationals(["1/4"] * 4), 2)]:
        _, table = synthesize_auto(spectrum, d)
        trace = run_protocol(haar_random_state(d, rng), table)
        assert all(rec.residual_schmidt == 1 for rec in trace.outcomes)

    trace = one_pair_double_bell_trace(haar_random_state(2, rng))
    assert all(rec.residual_schmidt == 2 for rec in trace.outcomes)
    assert trace.min_fidelity >= 1 - 1e-10
    report(
        "criterion 5 (residual entanglement)",
        "full protocols leave Schmidt number 1; one-pair teleport through the "
        "two-Bell-pair resource leaves Schmidt number 2",
    )


def test_criterion_6_concentration_bounds():
    assert schmidt_entanglement(GOLDEN).value == math.log2(3)
    assert entanglement_of_teleportation(GOLDEN).value == 1.0

    for copies in range(1, 7):
        for bells in range(0, copies + 3):
            conc = concentration_bounds(GOLDEN, copies, bells)
            assert conc.feasible == (bells <= copies)  # E_t = 1 exactly
            expected_c1 = copies * math.log2(3) - bells
            assert abs(conc.c1_lower_bound.value - expected_c1) < 1e-12

    for uniform, copies in [(PAIR, 4), (SchmidtSpectrum.from_rationals(["1/4"] * 4), 3)]:
        et = entanglement_of_teleportation(uniform).value
        m_star = concentration_bounds(uniform, copies, 0).m_max
        assert m_star == int(copies * et)
        conc = concentration_bounds(uniform, copies, m_star)
        assert conc.c1_lower_bound.value == 0.0
    report(
        "criterion 6 (concentration bounds)",
        "E_Sch = log2(3), E_t = 1; m feasible iff m <= copies; "
        "C1 = copies*log2(3) - m to 1e-12; uniform edge gives C1 = 0",
    )


def test_criterion_7_property_suite():
    start = time.time()
    rng = np.random.default_rng(7)

    # tensor bilinearity, 100 cases
    for _ in range(100):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        assert np.abs(tensor(alpha * a, b) - alpha * tensor(a, b)).max() < 1e-12

    # Schmidt reconstruction, 100 cases
    for _ in range(100):
        dim_a, dim_b = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        shape = BipartiteShape(dim_a, dim_b)
        state = random_state(rng, shape.dim)
        spectrum, bases_a, bases_b = schmidt_decompose(state, shape)
        rebuilt = sum(
            np.sqrt(p) * tensor(bases_a[k], bases_b[k]) for k, p in enumerate(spectrum.probs)
        )
        assert np.abs(rebuilt - state).max() < 1e-10

    # measurement completeness + correction unitarity + teleportation
    # linearity over 100 random feasible protocol instances (searches that
    # fail honestly do not count toward the quota)
    done = 0
    case = 0
    while done < 100:
        case += 1
        assert case < 300, "too many failed search attempts"
        d = 2 if case % 2 == 0 else 3
        n = int(rng.integers(d, 7))
        s = SchmidtSpectrum.from_probs(feasible_spectrum(rng, n, 1 / d))
        try:
            _, table = synthesize_auto(s, d, restarts=6, max_nfev=1500)
        except PhaseFactorsNotFound:
            continue
        done += 1
        states = measurement_basis(table)
        total = np.einsum("ji,jk->ik", states.conj(), states)
        assert np.abs(total - np.eye(d * n)).max() < 1e-10

        for u in bob_unitaries(table):
            assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-10

        amps = haar_random_state(d, rng)
        parts = [
            run_protocol(basis_state(d, m), table) for m in range(d)
        ]
        whole = run_protocol(amps, table)
        for j in range(table.s):
            superposed = sum(
                amps[m] * parts[m].outcomes[j].post_state for m in range(d)
            )
            assert np.abs(superposed - whole.outcomes[j].post_state).max() < 1e-10

    elapsed = time.time() - start
    assert elapsed < 60.0
    report(
        "criterion 7 (property suite)",
        f"bilinearity, reconstruction, completeness, unitarity, linearity "
        f"(>= 100 cases each) in {elapsed:.1f}s",
    )
