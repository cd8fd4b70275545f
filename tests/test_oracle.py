"""Oracle self-tests: permanents, exact distributions, dense evolution."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonet.circuit import BeamSplitterGate, CircuitPlan, circuit_to_unitary, sample_haar_circuit
from bosonet.oracle import (
    DenseFockState,
    build_submatrix,
    dense_evolve,
    dense_reduced_spectrum,
    enumerate_occupations,
    exact_lossy_distribution,
    exact_prob,
    permanent,
)

from helpers import dense_lossy_vectorized_spectrum, exact_lossless_distribution

HOM_U = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)


def brute_force_permanent(m: np.ndarray) -> complex:
    n = m.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= m[i, j]
        total += prod
    return total


def fifty_fifty(num_modes: int = 2) -> CircuitPlan:
    return CircuitPlan(
        num_modes=num_modes,
        gates=[BeamSplitterGate(site=1, theta=math.pi / 4, phi=0.0)],
    )


def test_permanent_small_fixed_values():
    assert permanent(np.array([[1.0]])) == pytest.approx(1.0)
    assert permanent(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(10.0)
    assert permanent(np.ones((3, 3))) == pytest.approx(6.0)
    assert permanent(np.zeros((0, 0))) == pytest.approx(1.0)


def test_permanent_rejects_non_square():
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_permanent_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert permanent(m) == pytest.approx(brute_force_permanent(m), rel=1e-10, abs=1e-10)


def test_permanent_row_permutation_and_scaling():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    base = permanent(m)
    shuffled = m[[2, 0, 3, 1], :]
    assert permanent(shuffled) == pytest.approx(base, rel=1e-10)
    scaled = m.copy()
    scaled[1, :] *= 3.0 - 2.0j
    assert permanent(scaled) == pytest.approx((3.0 - 2.0j) * base, rel=1e-10)


def test_enumerate_occupations_colex():
    assert enumerate_occupations(2, 2) == [(2, 0), (1, 1), (0, 2)]
    occs = enumerate_occupations(4, 3)
    assert len(occs) == math.comb(3 + 3, 3)
    assert occs == sorted(occs, key=lambda t: tuple(reversed(t)))
    assert all(sum(o) == 3 for o in occs)


def test_build_submatrix_shapes_and_content():
    u = np.arange(4, dtype=float).reshape(2, 2) + 1.0  # [[1,2],[3,4]]
    both_first_col = build_submatrix(u, (1, 1), (2, 0))
    assert np.array_equal(both_first_col, np.array([[1.0, 1.0], [3.0, 3.0]]))
    restricted = build_submatrix(np.eye(3), (1, 0, 1), (0, 1, 1))
    assert np.array_equal(restricted, np.array([[0.0, 0.0], [0.0, 1.0]]))
    empty = build_submatrix(u, (0, 0), (0, 0))
    assert empty.shape == (0, 0)
    assert exact_prob(u, (0, 0), (0, 0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        build_submatrix(u, (1, 0), (1, 1))


def test_exact_prob_hong_ou_mandel():
    assert exact_prob(HOM_U, (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert exact_prob(HOM_U, (1, 1), (2, 0)) == pytest.approx(0.5)
    assert exact_prob(HOM_U, (1, 1), (0, 2)) == pytest.approx(0.5)


def test_exact_prob_identity_passthrough():
    u = np.eye(3)
    assert exact_prob(u, (2, 1, 0), (2, 1, 0)) == pytest.approx(1.0)
    assert exact_prob(u, (2, 1, 0), (1, 2, 0)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("m,s", [(4, (1, 1, 0, 0)), (4, (2, 1, 0, 0)), (6, (1, 1, 1, 0, 0, 0))])
def test_lossless_distribution_normalized(m, s):
    u = circuit_to_unitary(sample_haar_circuit(m, np.random.default_rng(11)))
    dist = exact_lossless_distribution(u, s)
    assert sum(dist.entries.values()) == pytest.approx(1.0, abs=1e-10)
    assert all(p >= -1e-15 for p in dist.entries.values())


def test_lossy_distribution_edge_cases():
    u = circuit_to_unitary(sample_haar_circuit(4, np.random.default_rng(3)))
    at_zero = exact_lossy_distribution(u, 2, 0.0)
    assert at_zero.entries.get((0, 0, 0, 0), 0.0) == pytest.approx(1.0)
    at_one = exact_lossy_distribution(u, 2, 1.0)
    lossless = exact_lossless_distribution(u, (1, 1, 0, 0))
    for occ, p in lossless.entries.items():
        assert at_one.entries.get(occ, 0.0) == pytest.approx(p, abs=1e-12)


def test_lossy_distribution_single_photon_balanced():
    u = circuit_to_unitary(fifty_fifty())
    dist = exact_lossy_distribution(u, 1, 0.5)
    assert dist.entries.get((0, 0), 0.0) == pytest.approx(0.5)
    assert dist.entries.get((1, 0), 0.0) == pytest.approx(0.25)
    assert dist.entries.get((0, 1), 0.0) == pytest.approx(0.25)
    assert sum(dist.entries.values()) == pytest.approx(1.0, abs=1e-12)


def test_lossy_distribution_normalized():
    u = circuit_to_unitary(sample_haar_circuit(4, np.random.default_rng(17)))
    dist = exact_lossy_distribution(u, 3, 0.7)
    assert sum(dist.entries.values()) == pytest.approx(1.0, abs=1e-10)


def test_dense_evolve_single_photon_split():
    state = dense_evolve((1, 0), fifty_fifty())
    assert state.basis == [(1, 0), (0, 1)]
    np.testing.assert_allclose(
        np.abs(state.amplitudes) ** 2, [0.5, 0.5], atol=1e-12
    )
    np.testing.assert_allclose(dense_reduced_spectrum(state, 1), [0.5, 0.5], atol=1e-12)


def test_dense_evolve_conserves_norm():
    plan = sample_haar_circuit(4, np.random.default_rng(23))
    state = dense_evolve((2, 1, 0, 0), plan)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)
    assert len(state.basis) == math.comb(3 + 3, 3)


@pytest.mark.parametrize("s", [(1, 1, 0, 0), (2, 1, 0, 0)])
def test_dense_amplitudes_match_permanent_probabilities(s):
    plan = sample_haar_circuit(4, np.random.default_rng(31))
    u = circuit_to_unitary(plan)
    state = dense_evolve(s, plan)
    for occ, amp in zip(state.basis, state.amplitudes):
        assert abs(amp) ** 2 == pytest.approx(exact_prob(u, s, occ), abs=1e-10)


def test_dense_reduced_spectrum_is_distribution():
    plan = sample_haar_circuit(6, np.random.default_rng(41))
    state = dense_evolve((1, 1, 1, 0, 0, 0), plan)
    for cut in range(1, 6):
        spec = dense_reduced_spectrum(state, cut)
        assert spec.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(spec[:-1] >= spec[1:] - 1e-15)


def test_vectorized_spectrum_pure_limit_squares_schmidt():
    spec = dense_lossy_vectorized_spectrum(fifty_fifty(), 1, 1.0, 1)
    np.testing.assert_allclose(spec[:4], [0.25, 0.25, 0.25, 0.25], atol=1e-12)
    assert spec[4:].max(initial=0.0) < 1e-12


def test_vectorized_spectrum_vacuum_is_rank_one():
    spec = dense_lossy_vectorized_spectrum(fifty_fifty(), 1, 0.0, 1)
    assert spec[0] == pytest.approx(1.0, abs=1e-12)
    assert spec[1:].max(initial=0.0) < 1e-12


def test_vectorized_spectrum_normalized_mixed():
    plan = sample_haar_circuit(4, np.random.default_rng(57))
    spec = dense_lossy_vectorized_spectrum(plan, 2, 0.5, 2)
    assert spec.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(spec >= -1e-12)
