import numpy as np
import pytest

from qteleport.cli import InputFailure, parse_problem_doc
from qteleport.errors import ShapeMismatch
from qteleport.linalg import (
    BipartiteShape,
    as_state,
    basis_state,
    is_normalized,
    schmidt_decompose,
    schmidt_number,
    tensor,
)
from qteleport.sim import as_input_qudit

from conftest import random_state

BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)


def tensor_oracle(a, b):
    """Direct double loop, independent of np.kron."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros(a.size * b.size, dtype=complex)
    for i in range(a.size):
        for j in range(b.size):
            out[i * b.size + j] = a[i] * b[j]
    return out


def density(state):
    """Rank-1 density matrix |psi><psi|."""
    vec = as_state(state)
    return np.outer(vec, vec.conj())


def partial_trace(rho, shape, keep):
    """Reduced state of a density matrix: keep="a" traces out B, keep="b" traces out A."""
    four = rho.reshape(shape.dim_a, shape.dim_b, shape.dim_a, shape.dim_b)
    return np.einsum("ijkj->ik" if keep == "a" else "ijil->jl", four)


def unit_root_phases(n):
    """The n x n unitary of roots of unity: entry [j, k] = exp(2*pi*i*(j+1)*(k+1)/n)."""
    idx = np.arange(1, n + 1)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n)


class TestTensor:
    def test_basis_product(self):
        np.testing.assert_array_equal(tensor([1, 0], [0, 1]), [0, 1, 0, 0])

    def test_identity_placement(self):
        np.testing.assert_array_equal(tensor([1, 0], [1, 0]), [1, 0, 0, 0])

    def test_matches_double_loop_oracle(self, rng):
        for _ in range(50):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            np.testing.assert_allclose(tensor(a, b), tensor_oracle(a, b), atol=1e-14)

    def test_bilinearity(self, rng):
        for _ in range(100):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            left = tensor(alpha * a, b)
            right = tensor(a, alpha * b)
            ref = alpha * tensor(a, b)
            assert np.abs(left - ref).max() < 1e-12
            assert np.abs(right - ref).max() < 1e-12


class TestIsNormalized:
    """The one normalization check behind linalg, the simulator and the problem parser."""

    UNIT = np.array([0.6, 0.8j])

    @staticmethod
    def verdicts(amps):
        """Whether is_normalized, as_input_qudit and parse_problem_doc accept amps."""
        out = [is_normalized(amps)]
        try:
            as_input_qudit(amps, 2)
            out.append(True)
        except ValueError:
            out.append(False)
        doc = {"d": 2, "spectrum": ["1/2", "1/2"], "inputState": [[a.real, a.imag] for a in amps]}
        try:
            parse_problem_doc(doc)
            out.append(True)
        except InputFailure:
            out.append(False)
        return out

    @pytest.mark.parametrize("defect", [0.0, 5e-13, -5e-13])
    def test_defect_within_tolerance_is_accepted(self, defect):
        assert self.verdicts(self.UNIT * np.sqrt(1 + defect)) == [True, True, True]

    @pytest.mark.parametrize(
        "amps",
        [UNIT * np.sqrt(1 + 2e-12), UNIT * np.sqrt(1 - 2e-12),
         np.array([np.nan, 0.8]), np.array([np.inf, 0.8])],  # a 1e400 literal parses to inf
        ids=["over", "under", "nan", "inf"],
    )
    def test_defect_beyond_tolerance_is_refused(self, amps):
        assert self.verdicts(amps) == [False, False, False]


class TestSchmidtDecompose:
    def test_bell_state(self):
        spectrum, _, _ = schmidt_decompose(BELL, BipartiteShape(2, 2))
        np.testing.assert_allclose(spectrum.probs, [0.5, 0.5], atol=1e-12)

    def test_product_state(self):
        spectrum, _, _ = schmidt_decompose(tensor([1, 0], [0, 1]), BipartiteShape(2, 2))
        assert spectrum.probs == (1.0,)

    def test_worked_three_term_resource(self):
        state = sum(
            np.sqrt(p) * tensor(basis_state(3, k), basis_state(3, k))
            for k, p in enumerate([1 / 2, 1 / 3, 1 / 6])
        )
        spectrum, _, _ = schmidt_decompose(state, BipartiteShape(3, 3))
        np.testing.assert_allclose(spectrum.probs, [1 / 2, 1 / 3, 1 / 6], atol=1e-12)

    @pytest.mark.parametrize("dim_a,dim_b", [(2, 2), (2, 3), (3, 2), (4, 5), (6, 3)])
    def test_reconstruction_and_unit_sum(self, rng, dim_a, dim_b):
        shape = BipartiteShape(dim_a, dim_b)
        for _ in range(20):
            state = random_state(rng, shape.dim)
            spectrum, bases_a, bases_b = schmidt_decompose(state, shape)
            rebuilt = sum(
                np.sqrt(p) * tensor(bases_a[k], bases_b[k])
                for k, p in enumerate(spectrum.probs)
            )
            assert np.abs(rebuilt - state).max() < 1e-10
            assert abs(sum(spectrum.probs) - 1.0) < 1e-10

    def test_coefficients_real_nonnegative(self, rng):
        # all phases go into the B-side bases, so sqrt(p_k) is real by construction
        state = random_state(rng, 12)
        spectrum, bases_a, bases_b = schmidt_decompose(state, BipartiteShape(3, 4))
        assert all(p > 0 for p in spectrum.probs)
        assert list(spectrum.probs) == sorted(spectrum.probs, reverse=True)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            schmidt_decompose(BELL, BipartiteShape(2, 3))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            schmidt_decompose(2.0 * BELL, BipartiteShape(2, 2))

    def test_weight_below_the_rank_threshold_is_dropped_not_refused(self):
        # the kept 1 - 5e-11 was handed on unscaled, and the spectrum refused
        # it: "probabilities sum to 0.99999999995, not 1"
        weak = 5e-11
        state = np.sqrt(1 - weak) * tensor([1, 0], [1, 0]) + np.sqrt(weak) * tensor([0, 1], [0, 1])
        shape = BipartiteShape(2, 2)
        spectrum, bases_a, bases_b = schmidt_decompose(state, shape)
        assert spectrum.n == schmidt_number(state, shape) == 1
        assert spectrum.probs == (1.0,)
        rebuilt = tensor(bases_a[0], bases_b[0])
        assert np.linalg.norm(rebuilt - state) <= np.sqrt(weak + weak**2) + 1e-15


class TestSchmidtNumber:
    def test_bell(self):
        assert schmidt_number(BELL, BipartiteShape(2, 2)) == 2

    def test_product(self):
        assert schmidt_number(tensor([1, 0], [0, 1]), BipartiteShape(2, 2)) == 1

    def test_random_products_are_rank_one(self, rng):
        for _ in range(50):
            state = tensor(random_state(rng, 3), random_state(rng, 4))
            assert schmidt_number(state, BipartiteShape(3, 4)) == 1

    def test_two_bell_pairs_have_rank_four(self):
        # product of two Bell pairs, reordered so both halves of each pair
        # straddle the cut: a 4 x 4 uniform state of Schmidt number 4
        pair = BELL.reshape(2, 2)
        state = np.einsum("ab,cd->acbd", pair, pair).reshape(-1)
        assert schmidt_number(state, BipartiteShape(4, 4)) == 4


class TestPartialTrace:
    @pytest.mark.parametrize("dim_a,dim_b", [(2, 2), (3, 4), (4, 3)])
    def test_eigenvalues_match_spectrum(self, rng, dim_a, dim_b):
        shape = BipartiteShape(dim_a, dim_b)
        for _ in range(20):
            state = random_state(rng, shape.dim)
            spectrum, _, _ = schmidt_decompose(state, shape)
            want = np.sort(np.asarray(spectrum.probs))[::-1]
            for keep in ("a", "b"):
                reduced = partial_trace(density(state), shape, keep)
                eigs = np.sort(np.linalg.eigvalsh(reduced))[::-1]
                np.testing.assert_allclose(eigs[: want.size], want, atol=1e-10)
                assert np.all(np.abs(eigs[want.size:]) < 1e-10)


def test_unit_root_phases_unitary():
    for n in (2, 3, 5, 8):
        e = unit_root_phases(n)
        np.testing.assert_allclose(e @ e.conj().T / n, np.eye(n), atol=1e-12)
