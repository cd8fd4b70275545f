"""Tests of the cached layout plans of the two-site update.

A plan depends only on the block structure, so an update served from a warm
cache must give the same bits as one built from scratch, the cache must
stay within its cap, and a truncated update must go through the same
builder as an exact one.
"""

import copy

import numpy as np
import pytest

from bosonet import chain, layout, mpo, mps
from bosonet.circuit import sample_haar_circuit
from bosonet.linalg import TruncationPolicy


def _evolved(kind, chi, gates):
    """A state after the first ``gates`` gates of a Haar circuit, and the next gate."""
    plan = sample_haar_circuit(6, np.random.default_rng(np.random.SeedSequence(17)))
    policy = TruncationPolicy(chi_max=chi)
    state = mpo.init_lossy(3, 6, 0.5) if kind == "mpo" else mps.init_fock((1, 1, 1, 0, 0, 0))
    for gate in plan.gates[:gates]:
        chain.two_site_update(state, gate.site, state.gate_blocks(gate), policy)
    gate = plan.gates[gates]
    return state, gate.site, state.gate_blocks(gate), policy


def _same_bits(a, b):
    return all(list(x) == list(y) and all(x[key].tobytes() == y[key].tobytes() for key in x)
               for x, y in zip(a.sites + a.bonds, b.sites + b.bonds))


@pytest.mark.parametrize("kind,chi", [("mps", 10_000), ("mpo", 10_000), ("mpo", 8)])
def test_warm_cache_update_matches_cold_cache_bitwise(kind, chi):
    state, site, blocks, policy = _evolved(kind, chi, 9)
    cold, warm = copy.deepcopy(state), copy.deepcopy(state)
    layout.update_plan.cache_clear()
    chain.two_site_update(cold, site, blocks, policy)
    hits = layout.update_plan.cache_info().hits
    chain.two_site_update(warm, site, blocks, policy)
    assert layout.update_plan.cache_info().hits == hits + 1
    assert _same_bits(cold, warm)
    assert cold.discarded_weight == warm.discarded_weight


def test_plan_cache_never_exceeds_its_cap():
    assert layout.update_plan.cache_info().maxsize == layout.PLAN_CACHE_SIZE
    layout.update_plan.cache_clear()
    plan = sample_haar_circuit(8, np.random.default_rng(np.random.SeedSequence(5)))
    # One truncated circuit meets fewer layouts than the cap; each chi sizes
    # the bonds differently, so the circuit at every chi adds layouts of its own.
    for chi in (8, 12, 16, 20, 24):
        state = mpo.init_lossy(3, 8, 0.5)
        for gate in plan.gates:
            chain.apply_gate(state, gate, TruncationPolicy(chi_max=chi))
            assert layout.update_plan.cache_info().currsize <= layout.PLAN_CACHE_SIZE
        assert state.discarded_weight > 0.0
    assert layout.update_plan.cache_info().misses > layout.PLAN_CACHE_SIZE


def test_truncated_mpo_update_runs_through_the_plan_builder():
    state, site, blocks, policy = _evolved("mpo", 8, 12)
    layout.update_plan.cache_clear()
    discarded = chain.two_site_update(state, site, blocks, policy)
    info = layout.update_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 0, 1)
    assert discarded > 0.0
    assert sum(len(v) for v in state.bonds[site].values()) <= 8
