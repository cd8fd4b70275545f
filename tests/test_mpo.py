"""Tests for the vectorized density-operator simulator."""

import itertools
import math

import numpy as np
import pytest

from bosonet import chain, mpo, mps, sampling
from bosonet.circuit import BeamSplitterGate, circuit_to_unitary, fock_gate
from bosonet.linalg import TruncationPolicy
from bosonet.oracle import exact_lossy_distribution

from helpers import (
    all_outcomes,
    all_sector_marginal,
    dense_lossy_vectorized_spectrum,
    haar_plan,
    matrix_element,
)

EXACT = TruncationPolicy(chi_max=10_000)


# ---------------------------------------------------------------------------
# Initialization


def test_init_lossy_half_transmissive_single_photon():
    state = mpo.init_lossy(1, 2, 0.5)
    # Raw vectorized site state is 0.5|00>> + 0.5|11>>, squared norm 0.5.
    assert state.norm_scale**2 == pytest.approx(0.5, abs=1e-14)
    assert sorted(state.bonds[0]) == [(0, 0), (1, 1)]
    pooled = np.sort(chain.schmidt_values(state, 0))
    np.testing.assert_allclose(pooled, [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert mpo.trace(state) == pytest.approx(1.0, abs=1e-12)


def test_init_lossy_boundary_sector_weights_are_binomial():
    n, mu = 3, 0.7
    state = mpo.init_lossy(n, 5, mu)
    norm_sq = ((1 - mu) ** 2 + mu**2) ** n
    for k in range(n + 1):
        lam = state.bonds[0][(k, k)]
        want = math.comb(n, k) * mu ** (2 * k) * (1 - mu) ** (2 * (n - k)) / norm_sq
        assert float(lam[0] ** 2) == pytest.approx(want, abs=1e-12)
    assert state.total_weight(0) == pytest.approx(1.0, abs=1e-12)


def test_init_lossy_fresh_trace_is_one():
    for n, m, mu in [(1, 2, 0.3), (2, 4, 0.7), (3, 6, 0.5), (2, 5, 1.0), (2, 5, 0.0)]:
        state = mpo.init_lossy(n, m, mu)
        assert mpo.trace(state) == pytest.approx(1.0, abs=1e-12)


def test_init_lossy_validation():
    with pytest.raises(ValueError):
        mpo.init_lossy(3, 2, 0.5)
    with pytest.raises(ValueError):
        mpo.init_lossy(2, 4, 1.5)


def test_init_lossy_opaque_is_vacuum():
    state = mpo.init_lossy(2, 4, 0.0)
    assert mpo.trace(state) == pytest.approx(1.0, abs=1e-12)
    assert mpo.outcome_prob(state, (0, 0, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    for k in range(5):
        assert chain.renyi_entropy(state, k, 1.0) == 0.0


# ---------------------------------------------------------------------------
# Lossless limit: MPO must reproduce the pure-state pipeline


def test_transparent_limit_matches_pure_state():
    occupations = (1, 1, 0, 0)
    plan = haar_plan(4, seed=17)
    pure = mps.init_fock(occupations)
    chain.apply_plan(pure, plan, EXACT)
    dense = mpo.init_lossy(2, 4, 1.0)
    chain.apply_plan(dense, plan, EXACT)
    assert mpo.trace(dense) == pytest.approx(1.0, abs=1e-10)
    for occs in all_outcomes(4, 2):
        assert mpo.outcome_prob(dense, occs) == pytest.approx(
            mps.probability(pure, occs), abs=1e-8
        )
    # Operator-space entanglement doubles the pure-state entanglement.
    for k in range(1, 4):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            assert chain.renyi_entropy(dense, k, alpha) == pytest.approx(
                2.0 * chain.renyi_entropy(pure, k, alpha), abs=1e-8
            )


@pytest.mark.parametrize("local_dim", [1, 3, 5])
def test_vectorized_blocks_are_kronecker_products(local_dim):
    blocks = fock_gate(BeamSplitterGate(site=1, theta=0.83, phi=2.1), local_dim)
    vectorized = mpo.vectorized_blocks(blocks)
    assert set(vectorized) == set(itertools.product(range(local_dim), repeat=2))
    for (a, b), block in vectorized.items():
        np.testing.assert_array_equal(block, np.kron(blocks[a], blocks[b].conj()))


def test_identity_gate_leaves_state_unchanged():
    state = mpo.init_lossy(2, 4, 0.6)
    chain.apply_plan(state, haar_plan(4, seed=19), EXACT)
    trace_before = mpo.trace(state)
    spectra_before = [chain.schmidt_values(state, k).copy() for k in range(5)]
    discarded = chain.apply_gate(
        state, BeamSplitterGate(site=2, theta=0.0, phi=0.7), EXACT
    )
    assert discarded == pytest.approx(0.0, abs=1e-14)
    assert mpo.trace(state) == pytest.approx(trace_before, abs=1e-10)
    for k in range(5):
        np.testing.assert_allclose(
            chain.schmidt_values(state, k), spectra_before[k], atol=1e-10
        )


# ---------------------------------------------------------------------------
# Exact lossy evolution against the permanent-based oracle


def test_outcome_probs_match_lossy_oracle():
    n, m, mu = 2, 4, 0.7
    plan = haar_plan(m, seed=29)
    state = mpo.init_lossy(n, m, mu)
    chain.apply_plan(state, plan, EXACT)
    assert mpo.trace(state) == pytest.approx(1.0, abs=1e-10)
    oracle = exact_lossy_distribution(circuit_to_unitary(plan), n, mu)
    total = 0.0
    for occs in all_outcomes(m, n):
        p = mpo.outcome_prob(state, occs)
        assert p == pytest.approx(oracle.entries.get(occs, 0.0), abs=1e-8)
        total += p
    assert total == pytest.approx(mpo.trace(state), abs=1e-8)


def test_norm_weight_conserved_without_truncation():
    state = mpo.init_lossy(2, 4, 0.4)
    chain.apply_plan(state, haar_plan(4, seed=37), EXACT)
    for k in range(5):
        assert state.total_weight(k) == pytest.approx(1.0, abs=1e-10)
    # Only structural zeros (below the rank floor) may have been dropped.
    assert state.discarded_weight <= 1e-30


def test_site_tensors_are_right_canonical():
    # Every stored B = Gamma lam satisfies sum B B^dag = 1 on each left sector,
    # for the product initial state and after exact evolution.
    state = mpo.init_lossy(2, 4, 0.4)
    for stage in ("initial", "evolved"):
        if stage == "evolved":
            chain.apply_plan(state, haar_plan(4, seed=41), EXACT)
        for k in range(state.num_modes):
            grams: dict = {}
            for (cl, cr), block in state.sites[k].items():
                grams[cl] = grams.get(cl, 0.0) + block @ block.conj().T
            assert set(grams) == set(state.bonds[k])
            for cl, gram in grams.items():
                np.testing.assert_allclose(
                    gram, np.eye(len(state.bonds[k][cl])), atol=1e-10, err_msg=stage
                )


def test_bond_spectrum_matches_dense_reference():
    n, m, mu = 2, 4, 0.5
    plan = haar_plan(m, seed=43)
    state = mpo.init_lossy(n, m, mu)
    chain.apply_plan(state, plan, EXACT)
    for cut in (1, 2, 3):
        want = dense_lossy_vectorized_spectrum(plan, n, mu, cut)
        values = np.sort(chain.schmidt_values(state, cut) ** 2)
        got = np.zeros_like(want)
        got[len(want) - len(values) :] = values
        np.testing.assert_allclose(np.sort(got), np.sort(want), atol=1e-8)


def test_dense_reconstruction_is_hermitian_and_positive():
    n, m, mu = 2, 4, 0.6
    plan = haar_plan(m, seed=47)
    state = mpo.init_lossy(n, m, mu)
    chain.apply_plan(state, plan, EXACT)
    d = state.local_dim
    grid = list(itertools.product(range(d), repeat=m))
    rho = np.zeros((len(grid), len(grid)), dtype=np.complex128)
    for i, ket in enumerate(grid):
        for j, bra in enumerate(grid):
            rho[i, j] = matrix_element(state, ket, bra)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    eigenvalues = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    assert eigenvalues.min() >= -1e-8
    assert np.trace(rho).real == pytest.approx(mpo.trace(state), abs=1e-10)
    for i, occs in enumerate(grid):
        if sum(occs) <= n:
            assert rho[i, i].real == pytest.approx(
                mpo.outcome_prob(state, occs), abs=1e-10
            )


# ---------------------------------------------------------------------------
# Mirror gauge: rho is Hermitian, so |rho>> is invariant under ket <-> bra
# swap plus complex conjugation, and the train shows it block by block.


def assert_mirror_gauge(state):
    """Spectra of (a, b) and (b, a) are bitwise equal at every bond, and each
    site block of mirrored charges is the exact conjugate of its partner."""
    for k, bond in enumerate(state.bonds):
        for (a, b), lam in bond.items():
            assert np.array_equal(bond[(b, a)], lam), f"bond {k} sector {(a, b)}"
    for k, blocks in enumerate(state.sites):
        for (cl, cr), block in blocks.items():
            mirror = blocks[(cl[::-1], cr[::-1])]
            assert np.array_equal(mirror, block.conj()), f"site {k} block {(cl, cr)}"


@pytest.mark.parametrize("chi", [10_000, 8, 16, 32])
def test_evolution_keeps_the_mirror_gauge_and_hermiticity(chi):
    n, m = 3, 6
    state = mpo.init_lossy(n, m, 0.5)
    assert_mirror_gauge(state)
    chain.apply_plan(state, haar_plan(m, seed=3), TruncationPolicy(chi_max=chi))
    assert_mirror_gauge(state)
    assert state.max_bond_dimension() <= chi
    if chi < 10_000:
        assert state.discarded_weight > 1e-3
    outcomes = all_outcomes(m, n)
    for i, ket in enumerate(outcomes):
        for bra in outcomes[i:]:
            element = matrix_element(state, ket, bra)
            assert abs(element - np.conj(matrix_element(state, bra, ket))) <= 1e-14


# ---------------------------------------------------------------------------
# Truncation error bookkeeping


def test_truncation_error_positive_and_decreasing_in_chi():
    n, m, mu = 3, 8, 0.5
    plan = haar_plan(m, seed=53)
    errors = []
    for chi in (2, 4, 8, 16, 64):
        state = mpo.init_lossy(n, m, mu)
        chain.apply_plan(state, plan, TruncationPolicy(chi_max=chi))
        errors.append(1.0 - mpo.trace(state))
    assert errors[0] > 0.0
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo <= hi + 1e-12
    assert errors[-1] < errors[0]


def test_raw_outcome_prob_equals_unclamped_value():
    n, m, mu = 2, 4, 0.6
    plan = haar_plan(m, seed=59)
    state = mpo.init_lossy(n, m, mu)
    chain.apply_plan(state, plan, TruncationPolicy(chi_max=3))
    assert state.discarded_weight > 0.0
    for occs in all_outcomes(m, n):
        raw = sampling.marginal_prob(state, occs)
        clamped = mpo.outcome_prob(state, occs)
        assert clamped == min(max(raw, 0.0), 1.0)
        assert 0.0 <= clamped <= 1.0


def test_outcome_prob_clamps_a_marginal_above_one():
    state = mpo.init_lossy(2, 4, 0.9)
    state.norm_scale *= 3.0  # every read triples: the (1, 1, 0, 0) marginal becomes 2.43
    assert mpo.marginal(state, (1, 1, 0, 0)) > 1.0
    assert mpo.outcome_prob(state, (1, 1, 0, 0)) == 1.0


def test_diagonal_reads_go_through_marginal(monkeypatch):
    # ``marginal`` checks a prefix and ``outcome_prob`` a full pattern, each
    # once; both then read rho's diagonal in the one walk ``_marginal``.
    state = mpo.init_lossy(2, 4, 0.6)
    chain.apply_plan(state, haar_plan(4, seed=59), TruncationPolicy(chi_max=3))
    original = mpo._marginal
    seen = []

    def recording(st, prefix):
        seen.append(tuple(prefix))
        return original(st, prefix)

    monkeypatch.setattr(mpo, "_marginal", recording)
    mpo.trace(state)
    mpo.outcome_prob(state, (1, 0, 1, 0))
    sampling.marginal_prob(state, (1,))
    # marginal_prob reads the trace for its degraded-state check first.
    assert seen == [(), (1, 0, 1, 0), (), (1,)]


@pytest.mark.parametrize("mu,chi", [(0.5, 10_000), (0.5, 8), (0.0, 10_000), (1.0, 10_000)])
def test_sector_walk_reads_the_bits_of_the_all_sector_walk(mu, chi):
    # ``mpo._marginal`` starts only from the boundary sectors a pattern can
    # reach the end from; every read must keep the bits of the walk from all
    # of them, patterns of N + 1 photons (which read 0) included.
    n, m = 3, 6
    state = mpo.init_lossy(n, m, mu)
    chain.apply_plan(state, haar_plan(m, seed=83), TruncationPolicy(chi_max=chi))
    assert (state.discarded_weight > 1e-3) == (chi == 8)
    patterns = all_outcomes(m, n + 1)
    for occs in patterns:
        want = all_sector_marginal(state, occs)
        assert mpo.marginal(state, occs).hex() == want.hex()
        assert mpo.outcome_prob(state, occs).hex() == min(max(want, 0.0), 1.0).hex()
    prefixes = sorted({occs[:length] for occs in patterns for length in range(m)})
    for prefix in prefixes:
        want = all_sector_marginal(state, prefix).hex()
        assert mpo.marginal(state, prefix).hex() == want
        assert sampling.marginal_prob(state, prefix).hex() == want
    assert mpo.trace(state).hex() == all_sector_marginal(state, ()).hex()
    assert len(patterns) + len(prefixes) > 400


def test_outcome_prob_is_zero_beyond_photon_number():
    n, m = 2, 4
    state = mpo.init_lossy(n, m, 0.6)
    chain.apply_plan(state, haar_plan(m, seed=71), EXACT)
    for occs in [(3, 0, 0, 0), (0, 0, 0, 5), (2, 1, 0, 0), (1, 1, 1, 0)]:
        value = chain.contract_selected(state, [((n, n),) for n in occs])
        assert float(value.real) * state.norm_scale == 0.0
    with pytest.raises(ValueError, match="non-negative"):
        mpo.outcome_prob(state, (-1, 1, 0, 0))
    with pytest.raises(ValueError, match="expected 4"):
        mpo.outcome_prob(state, (1, 1, 0))


# ---------------------------------------------------------------------------
# Structure and entropy behavior


def test_dual_charges_stay_in_range():
    n = 2
    state = mpo.init_lossy(n, 4, 0.8)
    chain.apply_plan(state, haar_plan(4, seed=67), EXACT)
    for k in range(5):
        for ket, bra in state.bonds[k]:
            assert 0 <= ket <= n
            assert 0 <= bra <= n


def test_mean_peak_entropy_grows_with_photon_number():
    m, mu = 8, 0.5
    means = []
    for n in (1, 2, 3):
        values = []
        for seed in range(3):
            state = mpo.init_lossy(n, m, mu)
            chain.apply_plan(state, haar_plan(m, seed=200 + seed), EXACT)
            values.append(chain.max_bond_entropy(state, 1.0)[1])
        means.append(sum(values) / len(values))
    assert means[0] < means[1] < means[2]


def test_entropy_validation():
    state = mpo.init_lossy(1, 2, 0.5)
    with pytest.raises(ValueError):
        chain.renyi_entropy(state, 5, 1.0)
    for alpha in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            chain.renyi_entropy(state, 1, alpha)
