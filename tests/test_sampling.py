"""Tests for marginal evaluation and chain-rule sampling."""

import copy
import itertools
import math
import re

import numpy as np
import pytest

from bosonet import chain, mpo, mps, sampling
from bosonet.circuit import (
    BeamSplitterGate,
    circuit_to_unitary,
    plan_fingerprint,
    sample_haar_circuit,
)
from bosonet.linalg import DegradedStateError, NumericalFailure, TruncationPolicy
from bosonet.oracle import exact_lossy_distribution, exact_lossless_distribution

EXACT = TruncationPolicy(chi_max=10_000)


def haar_plan(num_modes: int, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return sample_haar_circuit(num_modes, rng)


def evolved_mps(occupations, seed):
    state = mps.init_fock(occupations)
    chain.apply_plan(state, haar_plan(len(occupations), seed), EXACT)
    return state


def evolved_mpo(n, m, mu, seed, policy=EXACT):
    state = mpo.init_lossy(n, m, mu)
    chain.apply_plan(state, haar_plan(m, seed), policy)
    return state


def all_outcomes(num_modes, max_total):
    return [
        occs
        for occs in itertools.product(range(max_total + 1), repeat=num_modes)
        if sum(occs) <= max_total
    ]


# ---------------------------------------------------------------------------
# Marginals


def test_empty_prefix_marginal():
    state = evolved_mps((1, 1, 0, 0), seed=3)
    assert sampling.marginal_prob(state, ()) == pytest.approx(1.0, abs=1e-12)
    lossy = evolved_mpo(2, 4, 0.6, seed=3)
    assert sampling.marginal_prob(lossy, ()) == pytest.approx(1.0, abs=1e-10)


def test_truncated_mpo_empty_prefix_equals_trace():
    state = evolved_mpo(3, 8, 0.5, seed=5, policy=TruncationPolicy(chi_max=4))
    assert state.discarded_weight > 0.0
    assert sampling.marginal_prob(state, ()) == pytest.approx(
        mpo.trace(state), abs=1e-10
    )


def test_single_mode_completeness():
    state = evolved_mps((1, 1, 0, 0), seed=7)
    total = sum(sampling.marginal_prob(state, (n,)) for n in range(3))
    assert total == pytest.approx(1.0, abs=1e-8)
    lossy = evolved_mpo(2, 4, 0.6, seed=7)
    total = sum(sampling.marginal_prob(lossy, (n,)) for n in range(3))
    assert total == pytest.approx(mpo.trace(lossy), abs=1e-8)


def test_two_mode_completeness():
    lossy = evolved_mpo(2, 4, 0.4, seed=11)
    total = sum(
        sampling.marginal_prob(lossy, (n1, n2))
        for n1 in range(3)
        for n2 in range(3)
        if n1 + n2 <= 2
    )
    assert total == pytest.approx(mpo.trace(lossy), abs=1e-8)


def test_marginal_matches_lossy_oracle():
    n, m, mu, seed = 2, 4, 0.6, 13
    plan = haar_plan(m, seed)
    state = mpo.init_lossy(n, m, mu)
    chain.apply_plan(state, plan, EXACT)
    oracle = exact_lossy_distribution(circuit_to_unitary(plan), n, mu)
    for prefix_len in (1, 2, 3):
        for prefix in itertools.product(range(n + 1), repeat=prefix_len):
            if sum(prefix) > n:
                continue
            want = sum(
                p
                for occs, p in oracle.entries.items()
                if occs[:prefix_len] == prefix
            )
            assert sampling.marginal_prob(state, prefix) == pytest.approx(
                want, abs=1e-8
            )


def test_marginal_matches_lossless_oracle():
    occupations, seed = (1, 1, 0, 0), 17
    plan = haar_plan(4, seed)
    state = mps.init_fock(occupations)
    chain.apply_plan(state, plan, EXACT)
    oracle = exact_lossless_distribution(circuit_to_unitary(plan), occupations)
    for prefix in itertools.product(range(3), repeat=2):
        if sum(prefix) > 2:
            continue
        want = sum(
            p for occs, p in oracle.entries.items() if occs[:2] == prefix
        )
        assert sampling.marginal_prob(state, prefix) == pytest.approx(want, abs=1e-8)


def test_budget_exceeding_prefix_is_exactly_zero():
    state = evolved_mps((1, 1, 0, 0), seed=19)
    assert sampling.marginal_prob(state, (2, 1)) == 0.0
    lossy = evolved_mpo(2, 4, 0.5, seed=19)
    assert sampling.marginal_prob(lossy, (2, 1)) == 0.0


def test_marginal_validation():
    state = evolved_mps((1, 1, 0, 0), seed=23)
    with pytest.raises(ValueError):
        sampling.marginal_prob(state, (3,))
    with pytest.raises(ValueError):
        sampling.marginal_prob(state, (0,) * 5)


# ---------------------------------------------------------------------------
# Sampling


def test_chain_rule_consistency_pure():
    state = evolved_mps((1, 1, 0, 0), seed=29)
    rng = np.random.default_rng(0)
    for _ in range(20):
        result = sampling.sample(state, rng)
        assert sum(result.outcome) == 2
        assert 0.0 <= result.joint_probability <= 1.0
        assert result.joint_probability == pytest.approx(
            sampling.marginal_prob(state, result.outcome), abs=1e-8
        )
        assert result.max_step_deficit <= 1e-10


def test_chain_rule_consistency_lossy():
    state = evolved_mpo(2, 4, 0.7, seed=31)
    rng = np.random.default_rng(1)
    for _ in range(20):
        result = sampling.sample(state, rng)
        assert sum(result.outcome) <= 2
        assert result.joint_probability == pytest.approx(
            sampling.marginal_prob(state, result.outcome), abs=1e-8
        )


def test_determinism():
    state = evolved_mpo(2, 4, 0.6, seed=37)
    a = sampling.sample_many(state, np.random.default_rng(42), 25)
    b = sampling.sample_many(state, np.random.default_rng(42), 25)
    assert [r.outcome for r in a] == [r.outcome for r in b]
    counts_a = sampling.sample_counts(state, np.random.default_rng(7), 1000)
    counts_b = sampling.sample_counts(state, np.random.default_rng(7), 1000)
    assert counts_a == counts_b
    assert sum(counts_a.values()) == 1000


def test_negative_count_is_rejected():
    state = evolved_mpo(2, 4, 0.6, seed=37)
    assert sampling.sample_many(state, np.random.default_rng(0), 0) == []
    assert sampling.sample_counts(state, np.random.default_rng(0), 0) == {}
    degraded = copy.deepcopy(state)
    degraded.norm_scale *= 1e-9
    # The count is checked before the state, so a degraded state fails on it too.
    for draw in (sampling.sample_many, sampling.sample_counts):
        for s in (state, degraded):
            with pytest.raises(ValueError, match="nonnegative"):
                draw(s, np.random.default_rng(0), -1)
        with pytest.raises(DegradedStateError):
            draw(degraded, np.random.default_rng(0), 1)


def test_opaque_loss_always_yields_vacuum():
    state = mpo.init_lossy(2, 4, 0.0)
    chain.apply_plan(state, haar_plan(4, seed=41), EXACT)
    result = sampling.sample(state, np.random.default_rng(3))
    assert result.outcome == (0, 0, 0, 0)
    assert result.joint_probability == pytest.approx(1.0, abs=1e-10)


def test_balanced_splitter_frequency():
    state = mps.init_fock((1, 0))
    chain.apply_gate(state, BeamSplitterGate(site=1, theta=math.pi / 4, phi=0.0), EXACT)
    draws = 10_000
    counts = sampling.sample_counts(state, np.random.default_rng(11), draws)
    freq = counts.get((1, 0), 0) / draws
    sigma = math.sqrt(0.25 / draws)
    assert abs(freq - 0.5) <= 5 * sigma


def test_empirical_distribution_total_variation():
    n, m, mu, seed = 2, 4, 0.7, 43
    plan = haar_plan(m, seed)
    state = mpo.init_lossy(n, m, mu)
    chain.apply_plan(state, plan, EXACT)
    oracle = exact_lossy_distribution(circuit_to_unitary(plan), n, mu)
    draws = 100_000
    counts = sampling.sample_counts(state, np.random.default_rng(13), draws)
    support = set(counts) | set(oracle.entries)
    tvd = 0.5 * sum(
        abs(counts.get(occs, 0) / draws - oracle.prob(occs)) for occs in support
    )
    assert tvd <= 0.02


def test_sample_counts_matches_per_sample_distribution():
    # Same state, two sampling implementations, both close to the exact law.
    state = evolved_mps((1, 1, 0, 0), seed=47)
    exact = {
        occs: mps.probability(state, occs) for occs in all_outcomes(4, 2)
    }
    draws = 4000
    counts = sampling.sample_counts(state, np.random.default_rng(17), draws)
    singles = sampling.sample_many(state, np.random.default_rng(19), draws)
    hist: dict = {}
    for r in singles:
        hist[r.outcome] = hist.get(r.outcome, 0) + 1
    for table in (counts, hist):
        tvd = 0.5 * sum(
            abs(table.get(occs, 0) / draws - p) for occs, p in exact.items()
        )
        assert tvd <= 0.05


# ---------------------------------------------------------------------------
# Precontracted density-operator sampler against the per-candidate reference


class PerCandidateSampler:
    """The density-operator sampler the precontracted maps replaced.

    Every step carries the environment across the site once per candidate
    occupation with ``chain.propagate`` and closes it against complex right
    environments traced out by ``chain.suffix_trace_environments``. It draws
    with the same RNG use as ``sampling.sample``.
    """

    def __init__(self, state):
        self.state = state
        self.labels = [((n, n),) for n in range(state.local_dim)]
        self.right_envs = chain.suffix_trace_environments(
            state, mpo.trace_labels(state.local_dim)
        )
        self.start = {c: lam.astype(np.complex128) for c, lam in state.bonds[0].items()}
        self.total = self.close(self.start, 0)

    def close(self, env, num_done):
        total = 0.0 + 0.0j
        right = self.right_envs[num_done]
        for c, vec in env.items():
            if c in right:
                total += vec @ right[c]
        return float(total.real) * self.state.norm_scale

    def draw(self, rng):
        env, running = self.start, self.total
        outcome, joint, max_deficit = [], 1.0, 0.0
        for k in range(self.state.num_modes):
            envs = [chain.propagate(self.state, k, env, label) for label in self.labels]
            weights = [self.close(e, k + 1) if e else 0.0 for e in envs]
            probs = sampling.normalize_conditionals(weights)
            total = sum(max(w, 0.0) for w in weights)
            if running > 0.0:
                max_deficit = max(max_deficit, abs(1.0 - total / running))
            u = rng.random()
            cum, pick = 0.0, self.state.local_dim - 1
            for n, p in enumerate(probs):
                cum += p
                if u < cum:
                    pick = n
                    break
            outcome.append(pick)
            joint *= probs[pick]
            env, running = envs[pick], weights[pick]
        return sampling.SamplingResult(tuple(outcome), joint, max_deficit)


def failed_draws(draw, rng, count):
    failed = []
    for i in range(count):
        try:
            draw(rng)
        except NumericalFailure:
            failed.append(i)
    return failed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_precontracted_sampler_matches_per_candidate_reference(seed):
    for m, n, mu in itertools.product((6, 8), (2, 3), (0.3, 0.7, 1.0)):
        state = evolved_mpo(n, m, mu, seed)
        reference = PerCandidateSampler(state)
        assert reference.total == pytest.approx(mpo.trace(state), abs=1e-12)
        rng = np.random.default_rng(seed)
        want = [reference.draw(rng) for _ in range(40)]
        got = sampling.sample_many(state, np.random.default_rng(seed), 40)
        assert [r.outcome for r in got] == [r.outcome for r in want]
        for g, w in zip(got, want):
            assert abs(g.joint_probability - w.joint_probability) <= 1e-12
            assert abs(g.max_step_deficit - w.max_step_deficit) <= 1e-12


@pytest.mark.parametrize("chi", [8, 16])
def test_precontracted_sampler_fails_the_reference_draws(chi):
    # Truncated states go negative somewhere (ROADMAP item 5); both samplers
    # must refuse exactly the same draws from the same random stream.
    failed = drawn = 0
    for mu, seed in itertools.product((0.5, 0.7), (1, 2, 3)):
        state = evolved_mpo(3, 10, mu, seed, policy=TruncationPolicy(chi_max=chi))
        reference = PerCandidateSampler(state)
        want = failed_draws(reference.draw, np.random.default_rng(seed), 100)
        got = failed_draws(
            lambda rng: sampling.sample(state, rng), np.random.default_rng(seed), 100
        )
        assert got == want
        failed += len(got)
        drawn += 100
    assert 0 < failed < drawn


def test_imaginary_diagonal_block_fails_loudly():
    state = evolved_mpo(2, 4, 0.6, seed=61)
    broken = copy.deepcopy(state)
    key = next(
        key for key in broken.sites[2] if key[0][0] == key[0][1] and key[1][0] == key[1][1]
    )
    broken.sites[2][key] = broken.sites[2][key] + 1e-3j
    assert len(sampling.sample_many(state, np.random.default_rng(0), 5)) == 5
    with pytest.raises(NumericalFailure, match=rf"site 3 block {re.escape(str(key))}"):
        sampling.sample_many(broken, np.random.default_rng(0), 5)


def test_lossy_draws_take_no_separate_trace(monkeypatch):
    state = evolved_mpo(2, 4, 0.6, seed=67)

    def no_trace(_):
        raise AssertionError("sampling ran a separate trace contraction")

    monkeypatch.setattr(sampling, "mpo_trace", no_trace)
    assert len(sampling.sample_many(state, np.random.default_rng(0), 5)) == 5
    assert sum(sampling.sample_counts(state, np.random.default_rng(0), 50).values()) == 50
    sampling.sample(state, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Failure modes


def test_degraded_state_raises():
    state = evolved_mpo(2, 4, 0.6, seed=53)
    state.norm_scale *= 1e-9
    with pytest.raises(DegradedStateError):
        sampling.marginal_prob(state, (0,))
    with pytest.raises(DegradedStateError):
        sampling.sample(state, np.random.default_rng(0))
    pure = evolved_mps((1, 1, 0, 0), seed=53)
    for c in list(pure.bonds[2]):
        pure.bonds[2][c] = pure.bonds[2][c] * 1e-7
    with pytest.raises(DegradedStateError):
        sampling.sample(pure, np.random.default_rng(0))


def test_normalize_conditionals():
    assert sampling.normalize_conditionals([0.5, 0.5]) == [0.5, 0.5]
    cleaned = sampling.normalize_conditionals([0.6, -5e-9])
    assert cleaned[0] == pytest.approx(1.0)
    assert cleaned[1] == 0.0
    with pytest.raises(NumericalFailure):
        sampling.normalize_conditionals([0.6, -1e-7])
    with pytest.raises(NumericalFailure):
        sampling.normalize_conditionals([0.0, 0.0])


# ---------------------------------------------------------------------------
# CSV round trip


def test_samples_csv_round_trip(tmp_path):
    state = evolved_mpo(2, 4, 0.8, seed=59)
    plan = haar_plan(4, 59)
    results = sampling.sample_many(state, np.random.default_rng(5), 10)
    path = tmp_path / "samples.csv"
    metadata = {"seed": 5, "chi": 10_000, "circuit": plan_fingerprint(plan)}
    sampling.write_samples_csv(path, results, metadata)
    text = path.read_text()
    assert text.startswith("# chi=10000\n# circuit=")
    loaded_meta, loaded = sampling.load_samples_csv(path)
    assert loaded_meta["seed"] == "5"
    assert loaded_meta["circuit"] == plan_fingerprint(plan)
    assert [r.outcome for r in loaded] == [r.outcome for r in results]
    for got, want in zip(loaded, results):
        assert got.joint_probability == pytest.approx(
            want.joint_probability, abs=1e-15
        )
