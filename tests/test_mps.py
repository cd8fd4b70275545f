"""Tests for the number-conserving matrix product state simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonet import chain, mps
from bosonet.circuit import BeamSplitterGate, CircuitPlan, circuit_to_unitary
from bosonet.linalg import TruncationPolicy
from bosonet.oracle import dense_evolve, dense_reduced_spectrum, enumerate_occupations

from helpers import haar_plan

EXACT = TruncationPolicy(chi_max=10_000)


# ---------------------------------------------------------------------------
# Initialization


def test_init_fock_charges_and_spectra():
    state = mps.init_fock((1, 1, 0, 0))
    assert state.num_modes == 4
    assert state.num_photons == 2
    # Bond charge = photon count strictly right of the cut.
    assert [sorted(state.bonds[k]) for k in range(5)] == [[2], [1], [0], [0], [0]]
    for k in range(5):
        for lam in state.bonds[k].values():
            np.testing.assert_allclose(lam, [1.0])
    assert mps.amplitude(state, (1, 1, 0, 0)) == pytest.approx(1.0)
    assert state.total_weight() == pytest.approx(1.0, abs=1e-14)


def test_init_fock_examples():
    vacuum = mps.init_fock((0, 0))
    assert [sorted(vacuum.bonds[k]) for k in range(3)] == [[0], [0], [0]]
    bunched = mps.init_fock((3, 0))
    assert [sorted(bunched.bonds[k]) for k in range(3)] == [[3], [0], [0]]
    assert bunched.local_dim == 4


def test_init_fock_validation():
    with pytest.raises(ValueError):
        mps.init_fock(())
    with pytest.raises(ValueError):
        mps.init_fock((1, -1))


@pytest.mark.parametrize("label", [-1, (1, -1), (-1, 0)])
def test_product_state_rejects_negative_labels(label):
    pair = isinstance(label, tuple)
    zero = (0, 0) if pair else 0
    with pytest.raises(ValueError, match="non-negative"):
        chain.product_state([{zero: 1.0}, {label: 1.0}], [zero], zero)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_init_fock_charges_are_suffix_sums(occs):
    state = mps.init_fock(tuple(occs))
    suffix = tuple(sum(occs[k:]) for k in range(len(occs) + 1))
    assert tuple(min(state.bonds[k]) for k in range(len(occs) + 1)) == suffix
    assert mps.amplitude(state, tuple(occs)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Single-gate behavior


def test_balanced_splitter_schmidt_values():
    state = mps.init_fock((1, 0))
    chain.apply_gate(state, BeamSplitterGate(site=1, theta=math.pi / 4, phi=0.0), EXACT)
    assert sorted(state.bonds[1]) == [0, 1]
    pooled = np.sort(np.concatenate(list(state.bonds[1].values())))
    np.testing.assert_allclose(pooled, [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert chain.renyi_entropy(state, 1, 1.0) == pytest.approx(1.0, abs=1e-12)
    # Amplitudes (including sign) must match the dense reference evolution.
    plan = CircuitPlan(
        num_modes=2, gates=[BeamSplitterGate(site=1, theta=math.pi / 4, phi=0.0)]
    )
    dense = dense_evolve((1, 0), plan)
    for occs, amp in zip(dense.basis, dense.amplitudes):
        assert mps.amplitude(state, occs) == pytest.approx(amp, abs=1e-12)
        assert mps.probability(state, occs) == pytest.approx(0.5, abs=1e-12)


def test_identity_gate_preserves_state():
    state = mps.init_fock((1, 1, 0, 0))
    plan = haar_plan(4, seed=11)
    chain.apply_plan(state, plan, EXACT)
    before = {occs: mps.amplitude(state, occs) for occs in enumerate_occupations(4, 2)}
    spectra_before = [chain.schmidt_values(state, k).copy() for k in range(5)]
    discarded = chain.apply_gate(
        state, BeamSplitterGate(site=2, theta=0.0, phi=1.23), EXACT
    )
    assert discarded == pytest.approx(0.0, abs=1e-14)
    for occs, amp in before.items():
        assert mps.amplitude(state, occs) == pytest.approx(amp, abs=1e-10)
    for k in range(5):
        got = chain.schmidt_values(state, k)
        want = spectra_before[k]
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_amplitude_wrong_total_is_zero():
    state = mps.init_fock((1, 1, 0, 0))
    assert mps.amplitude(state, (1, 0, 0, 0)) == 0.0
    assert mps.amplitude(state, (2, 1, 0, 0)) == 0.0
    with pytest.raises(ValueError):
        mps.amplitude(state, (1, 1, 0))


# ---------------------------------------------------------------------------
# Exact evolution against the dense reference


@pytest.mark.parametrize(
    "occupations,seed",
    [((1, 1, 0, 0), 3), ((2, 1, 0, 0), 4), ((1, 1, 1, 0, 0, 0), 5)],
)
def test_amplitudes_match_dense_reference(occupations, seed):
    m = len(occupations)
    plan = haar_plan(m, seed)
    state = mps.init_fock(occupations)
    chain.apply_plan(state, plan, EXACT)
    dense = dense_evolve(occupations, plan)
    assert state.discarded_weight <= 1e-30
    for occs, amp in zip(dense.basis, dense.amplitudes):
        assert mps.amplitude(state, occs) == pytest.approx(amp, abs=1e-8)


def test_schmidt_spectrum_matches_dense_reference():
    occupations = (1, 1, 0, 0)
    plan = haar_plan(4, seed=7)
    state = mps.init_fock(occupations)
    chain.apply_plan(state, plan, EXACT)
    dense = dense_evolve(occupations, plan)
    for cut in (1, 2, 3):
        want = dense_reduced_spectrum(dense, cut)
        got = np.zeros_like(want)
        values = chain.schmidt_values(state, cut) ** 2
        got[: len(values)] = values
        np.testing.assert_allclose(np.sort(got), np.sort(want), atol=1e-8)


def test_norm_conserved_without_truncation():
    state = mps.init_fock((1, 1, 1, 0, 0, 0))
    chain.apply_plan(state, haar_plan(6, seed=9), EXACT)
    for k in range(state.num_modes + 1):
        assert state.total_weight(k) == pytest.approx(1.0, abs=1e-10)


def test_canonical_form_after_exact_evolution():
    state = mps.init_fock((1, 1, 0, 0))
    chain.apply_plan(state, haar_plan(4, seed=13), EXACT)
    for k in range(state.num_modes):
        # Right isometry: sum over right charge/occupation of B B^dag.
        grams: dict = {}
        for (cl, cr), block in state.sites[k].items():
            grams[cl] = grams.get(cl, 0.0) + block @ block.conj().T
        for cl, gram in grams.items():
            np.testing.assert_allclose(gram, np.eye(len(state.bonds[k][cl])), atol=1e-8)
        # Left isometry of lam Gamma, in B form: sum over left charge/occupation
        # of (lam B)^dag (lam B) is the squared right spectrum.
        grams = {}
        for (cl, cr), block in state.sites[k].items():
            a = state.bonds[k][cl][:, None] * block
            grams[cr] = grams.get(cr, 0.0) + a.conj().T @ a
        for cr, gram in grams.items():
            np.testing.assert_allclose(gram, np.diag(state.bonds[k + 1][cr] ** 2), atol=1e-8)


# ---------------------------------------------------------------------------
# Truncation bookkeeping


def test_single_truncation_bookkeeping_is_exact():
    state = mps.init_fock((1, 1, 0, 0))
    plan = haar_plan(4, seed=21)
    chain.apply_plan(state, plan, EXACT)
    extra = BeamSplitterGate(site=2, theta=0.9, phi=0.4)
    discarded = chain.apply_gate(state, extra, TruncationPolicy(chi_max=2))
    assert discarded > 0.0
    assert 1.0 - state.total_weight(2) == pytest.approx(discarded, abs=1e-10)
    assert state.discarded_weight == pytest.approx(discarded)


def test_cumulative_bookkeeping_first_order():
    # With repeated truncation the ledger is a first-order account: the norm
    # deficit at the final updated bonds tracks the accumulated discarded
    # weight up to effects quadratic in the per-step losses.
    state = mps.init_fock((1, 1, 1, 0, 0, 0))
    plan = haar_plan(6, seed=23)
    chain.apply_plan(state, plan, TruncationPolicy(chi_max=6))
    total = state.discarded_weight
    assert total > 0.0
    deficit = 1.0 - state.total_weight(3)
    assert deficit == pytest.approx(total, abs=1e-8 + 0.1 * total)
    assert deficit > 0.0


def test_truncation_to_full_rank_is_identity():
    occupations = (1, 1, 0, 0)
    plan = haar_plan(4, seed=31)
    exact_state = mps.init_fock(occupations)
    chain.apply_plan(exact_state, plan, EXACT)
    capped = mps.init_fock(occupations)
    chain.apply_plan(capped, plan, TruncationPolicy(chi_max=4))
    assert capped.discarded_weight <= 1e-30
    for occs in enumerate_occupations(4, 2):
        assert mps.amplitude(capped, occs) == pytest.approx(
            mps.amplitude(exact_state, occs), abs=1e-10
        )


# ---------------------------------------------------------------------------
# Entropies


def test_renyi_entropy_frozen_values():
    state = mps.init_fock((1, 0))
    chain.apply_gate(state, BeamSplitterGate(site=1, theta=math.pi / 6, phi=0.0), EXACT)
    pooled = np.sort(chain.schmidt_values(state, 1) ** 2)
    np.testing.assert_allclose(pooled, [0.25, 0.75], atol=1e-12)
    assert chain.renyi_entropy(state, 1, 1.0) == pytest.approx(
        0.8112781244591328, abs=1e-12
    )
    # Orders within 1e-12 of 1 are the von Neumann point, not a cancelling power sum.
    for alpha in (1.0 + 1e-13, 1.0 - 1e-13):
        assert chain.renyi_entropy(state, 1, alpha) == pytest.approx(
            0.8112781244591328, abs=1e-9
        )
    assert chain.renyi_entropy(state, 1, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert chain.renyi_entropy(state, 1, 2.0) == pytest.approx(
        -math.log2(0.75**2 + 0.25**2), abs=1e-12
    )
    assert chain.renyi_entropy(state, 1, 0.5) == pytest.approx(
        2.0 * math.log2(math.sqrt(0.75) + math.sqrt(0.25)), abs=1e-12
    )
    # 0.75**5000 underflows to 0; the order-1e300 entropy is H_inf = -log2(0.75).
    assert chain.renyi_entropy(state, 1, 5000.0) == pytest.approx(
        -5000.0 / 4999.0 * math.log2(0.75), abs=1e-12
    )
    assert chain.renyi_entropy(state, 1, 1e300) == pytest.approx(-math.log2(0.75), abs=1e-12)
    with pytest.raises(ValueError):
        chain.renyi_entropy(state, 1, -0.5)


def test_trivial_bond_entropy_is_zero():
    state = mps.init_fock((1, 1, 0, 0))
    for k in range(5):
        assert chain.renyi_entropy(state, k, 1.0) == 0.0


def test_max_entropy_vacuum():
    state = mps.init_fock((0, 0, 0))
    assert chain.max_bond_entropy(state, 1.0) == (1, 0.0)
    # N = 0 leaves one value per bond, whose entropy is +0.0 at every order, not -0.0.
    for alpha in (0.0, 0.5, 1.0, 2.0):
        assert math.copysign(1.0, chain.max_bond_entropy(state, alpha)[1]) == 1.0


def test_max_entropy_picks_entangled_bond():
    state = mps.init_fock((0, 1, 0))
    chain.apply_gate(state, BeamSplitterGate(site=2, theta=math.pi / 4, phi=0.0), EXACT)
    bond, value = chain.max_bond_entropy(state, 1.0)
    assert bond == 2
    assert value == pytest.approx(1.0, abs=1e-12)


def test_hartley_entropy_bounded_by_photon_number():
    for seed in range(5):
        occupations = (1, 1, 0, 0, 0, 0) if seed % 2 else (2, 0, 0, 0, 0, 0)
        state = mps.init_fock(occupations)
        chain.apply_plan(state, haar_plan(6, seed=100 + seed), EXACT)
        n = state.num_photons
        for k in range(1, state.num_modes):
            assert chain.renyi_entropy(state, k, 0.0) <= n + 1e-12


def test_single_mode_input_is_binomial():
    # All photons entering one mode: across any cut the Schmidt spectrum is
    # binomial in the transmitted fraction, so the bond dimension stays <= N+1.
    occupations = (3, 0, 0, 0, 0, 0)
    plan = haar_plan(6, seed=41)
    state = mps.init_fock(occupations)
    chain.apply_plan(state, plan, EXACT)
    u = circuit_to_unitary(plan)
    n = 3
    for cut in range(1, 6):
        assert state.bond_dimension(cut) <= n + 1
        p = float(np.sum(np.abs(u[0, :cut]) ** 2))
        want = np.sort([math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)])
        got = np.zeros(n + 1)
        values = np.sort(chain.schmidt_values(state, cut) ** 2)
        got[n + 1 - len(values) :] = values
        np.testing.assert_allclose(got, want, atol=1e-8)
        binom_entropy = -sum(w * math.log2(w) for w in want if w > 0)
        assert chain.renyi_entropy(state, cut, 1.0) == pytest.approx(
            binom_entropy, abs=1e-6
        )
