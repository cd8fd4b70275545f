"""Tests for marginal evaluation and chain-rule sampling."""

import copy
import itertools
import math
import re

import numpy as np
import pytest

from bosonet import chain, mpo, mps, sampling
from bosonet.circuit import BeamSplitterGate, circuit_to_unitary, sample_haar_circuit
from bosonet.experiments import circuit_rng
from bosonet.linalg import DegradedStateError, NumericalFailure, TruncationPolicy
from bosonet.oracle import exact_lossy_distribution

from helpers import (
    all_outcomes,
    exact_lossless_distribution,
    haar_plan,
    reference_normalize_conditionals,
    reference_sample_counts,
    reference_sample_many,
)

EXACT = TruncationPolicy(chi_max=10_000)


def evolved_mps(occupations, seed, policy=EXACT):
    state = mps.init_fock(occupations)
    chain.apply_plan(state, haar_plan(len(occupations), seed), policy)
    return state


def evolved_mpo(n, m, mu, seed, policy=EXACT):
    state = mpo.init_lossy(n, m, mu)
    chain.apply_plan(state, haar_plan(m, seed), policy)
    return state


# ---------------------------------------------------------------------------
# Marginals


def test_empty_prefix_marginal():
    state = evolved_mps((1, 1, 0, 0), seed=3)
    assert sampling.marginal_prob(state, ()) == pytest.approx(1.0, abs=1e-12)
    lossy = evolved_mpo(2, 4, 0.6, seed=3)
    assert sampling.marginal_prob(lossy, ()) == pytest.approx(1.0, abs=1e-10)


def test_truncated_mpo_empty_prefix_equals_trace():
    # The empty prefix is the trace's own contraction, so the two are equal bit
    # for bit at every truncation, not only up to roundoff.
    for chi in (4, 8, 16):
        state = evolved_mpo(3, 8, 0.5, seed=5, policy=TruncationPolicy(chi_max=chi))
        assert state.discarded_weight > 0.0
        assert sampling.marginal_prob(state, ()) == mpo.trace(state)


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
    # An occupation above N reads 0, as in every reader; a malformed prefix raises.
    for state in (evolved_mps((1, 1, 0, 0), seed=23), evolved_mpo(2, 4, 0.5, seed=23)):
        assert sampling.marginal_prob(state, (3,)) == 0.0
        with pytest.raises(ValueError):
            sampling.marginal_prob(state, (0,) * 5)
        with pytest.raises(ValueError):
            sampling.marginal_prob(state, (-1,))


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
        abs(counts.get(occs, 0) / draws - oracle.entries.get(occs, 0.0)) for occs in support
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
            probs = reference_normalize_conditionals(weights)
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
# Batched draws against the samplers that take one draw at a time


@pytest.fixture(scope="module", params=["mps-exact", "mps-chi4", "mpo-exact", "mpo-chi8"])
def read_state(request):
    """An MPS and an MPO, each at exact rank and truncated; none of their
    first 100 draws fails."""
    kind, rank = request.param.split("-")
    policy = EXACT if rank == "exact" else TruncationPolicy(chi_max=int(rank[3:]))
    if kind == "mps":
        state = evolved_mps((1, 1, 1, 0, 0, 0, 0, 0), seed=71, policy=policy)
    else:
        state = evolved_mpo(3, 10 if rank != "exact" else 8, 0.5, seed=1, policy=policy)
    assert (state.discarded_weight > 1e-3) == (rank != "exact")
    return state


def bits(results):
    """Outcomes, joint probabilities and deficits of draws, the floats by ``float.hex``."""
    return [(r.outcome, r.joint_probability.hex(), r.max_step_deficit.hex()) for r in results]


def drawn(draw, state, seed, count):
    """(``bits`` of the draws, or the failure they raised; the next uniform after them)."""
    rng = np.random.default_rng(seed)
    try:
        got = draw(state, rng, count)
    except NumericalFailure as exc:
        got = f"NumericalFailure: {exc}"
    return got if isinstance(got, (str, dict)) else bits(got), rng.random().hex()


@pytest.mark.parametrize("chunk", [7, sampling.DRAW_CHUNK])
def test_batched_draws_equal_the_reference_bit_for_bit(read_state, chunk, monkeypatch):
    monkeypatch.setattr(sampling, "DRAW_CHUNK", chunk)
    want = drawn(reference_sample_many, read_state, 5, 100)
    assert isinstance(want[0], list)
    assert drawn(sampling.sample_many, read_state, 5, 100) == want


def test_first_draws_of_a_call_equal_a_shorter_call(read_state, monkeypatch):
    monkeypatch.setattr(sampling, "DRAW_CHUNK", 7)
    all_draws, _ = drawn(sampling.sample_many, read_state, 9, 30)
    for count in (1, 6, 7, 8, 15, 30):
        got, after = drawn(sampling.sample_many, read_state, 9, count)
        assert got == all_draws[:count]
        assert after == drawn(reference_sample_many, read_state, 9, count)[1]


#: (chi, mu, seed) of truncated M=10, N=3 lossy states whose first failing
#: draw is draw 3, 6, 5 or 5, so good draws come before it in its batch, and
#: later draws fail too.
FAILING = [(16, 0.7, 1), (24, 0.7, 1), (32, 0.7, 1), (32, 0.5, 1)]


@pytest.mark.parametrize("chunk", [5, sampling.DRAW_CHUNK])
@pytest.mark.parametrize("chi,mu,seed", FAILING)
def test_a_failing_draw_in_a_batch_fails_as_the_reference(chi, mu, seed, chunk, monkeypatch):
    monkeypatch.setattr(sampling, "DRAW_CHUNK", chunk)
    state = evolved_mpo(3, 10, mu, seed, policy=TruncationPolicy(chi_max=chi))
    want = drawn(reference_sample_many, state, seed, 100)
    assert want[0].startswith("NumericalFailure: conditional mass")
    assert drawn(sampling.sample_many, state, seed, 100) == want


def test_pure_rows_follow_their_picks_through_a_missing_block():
    # Occupation 2 at mode 1 leaves no photon, so at mode 2 occupations 1 and
    # 2 have no block; a row that picks one has an empty environment, whose
    # masses are 0 at every later mode, as the one-draw step reads it.
    state = evolved_mps((1, 1, 0, 0), seed=29)
    engine = sampling._engine(state)
    paths = [(2, 2, 0), (0, 1, 1), (1, 0, 0)]
    envs, refs = engine.batch(len(paths)), [engine.start] * len(paths)
    for site_idx in range(3):
        masses, child = engine.step(envs, site_idx)
        for row, path in enumerate(paths):
            children = [chain.propagate(state, site_idx, refs[row], (n,)) for n in range(3)]
            assert masses[row].tolist() == [sampling._squared_norm(c) for c in children]
            refs[row] = children[path[site_idx]]
        envs = child(np.arange(len(paths)), np.array([path[site_idx] for path in paths]))
    assert masses[0].tolist() == [0.0, 0.0, 0.0] and masses[1:].sum() > 0.0


def test_sample_counts_equals_the_per_node_reference(read_state):
    want = drawn(reference_sample_counts, read_state, 3, 20_000)
    got = drawn(sampling.sample_counts, read_state, 3, 20_000)
    assert got == want
    assert list(got[0]) == list(want[0])  # the same insertion order


@pytest.mark.parametrize("chi,mu,seed", FAILING)
def test_a_failing_histogram_fails_as_the_per_node_reference(chi, mu, seed):
    state = evolved_mpo(3, 10, mu, seed, policy=TruncationPolicy(chi_max=chi))
    want = drawn(reference_sample_counts, state, seed, 20_000)
    assert want[0].startswith("NumericalFailure: conditional mass")
    assert drawn(sampling.sample_counts, state, seed, 20_000) == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_truncated_probe_histogram_fails_as_the_per_node_reference(seed):
    # The benchmark's truncated probe state (M=16, N=3, mu=0.5, chi=32): the
    # whole frontier is split in one call per mode, and a failure must leave
    # the message and the generator position of node-by-node splitting.
    state = mpo.init_lossy(3, 16, 0.5)
    chain.apply_plan(state, sample_haar_circuit(16, circuit_rng(seed, 0, 0)),
                     TruncationPolicy(chi_max=32))
    want = drawn(reference_sample_counts, state, seed, 20_000)
    assert want[0].startswith("NumericalFailure: conditional mass")
    assert drawn(sampling.sample_counts, state, seed, 20_000) == want


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


def test_check_degraded_is_one_threshold_with_the_callers_words():
    sampling.check_degraded(sampling.DEGRADED_NORM_THRESHOLD)  # the threshold itself reads
    with pytest.raises(DegradedStateError, match=r"^state norm 9\.000e-07 is below 1e-06; "):
        sampling.check_degraded(9e-7)
    with pytest.raises(DegradedStateError, match=r"^trace 0\.000e\+00 after layer 2 is below "):
        sampling.check_degraded(0.0, "trace", "after layer 2")


def test_normalize_conditionals():
    assert sampling.normalize_conditionals([0.5, 0.5]) == [0.5, 0.5]
    cleaned = sampling.normalize_conditionals([0.6, -5e-9])
    assert cleaned[0] == pytest.approx(1.0)
    assert cleaned[1] == 0.0
    with pytest.raises(NumericalFailure):
        sampling.normalize_conditionals([0.6, -1e-7])
    with pytest.raises(NumericalFailure):
        sampling.normalize_conditionals([0.0, 0.0])


def _reference_conditionals(row):
    try:
        return [p.hex() for p in reference_normalize_conditionals(row)]
    except NumericalFailure as exc:
        return str(exc)


def test_conditionals_keep_the_bits_and_messages_of_the_reference_loop():
    # The samplers' one vectorized rule must keep the clamp, the sequential
    # total, the division and the messages of the loop over one row: rows
    # with -0.0, tiny negatives and zero totals, and rows of 16 and 20
    # masses, where a pairwise sum differs from the sequential one.
    rng = np.random.default_rng(5)
    rows = [
        [0.5, 0.5], [0.6, -5e-9], [-0.0, 0.3, 0.7], [0.0, -0.0, 1e-300],
        [-1e-9, 2.0, -0.0, 1e-17], [1.0] + [1e-16] * 15,
        [0.0, 0.0], [-0.0, -0.0], [0.0, -5e-9], [0.6, -1e-7], [-2e-8, 0.5, -3e-3],
    ]
    for length in (2, 4, 16, 20):
        for i in range(50):
            row = rng.random(length) * 10.0 ** rng.integers(-16, 2, size=length)
            if i % 2:
                row[rng.integers(length)] = -1e-9 * rng.random()
            rows.append(row.tolist())
    for row in rows:
        try:
            got = [p.hex() for p in sampling.normalize_conditionals(row)]
        except NumericalFailure as exc:
            got = str(exc)
        assert got == _reference_conditionals(row)
    by_length = {}
    for row in rows:
        by_length.setdefault(len(row), []).append(row)
    assert sorted(by_length) == [2, 3, 4, 16, 20]
    for same in by_length.values():
        want = [_reference_conditionals(row) for row in same]
        probs, totals, failed = sampling._conditionals(np.array(same))
        first = next((i for i, w in enumerate(want) if isinstance(w, str)), None)
        assert failed == first
        for i in range(len(same) if first is None else first):
            assert [p.hex() for p in probs[i]] == want[i]
            assert totals[i].hex() == sum(max(w, 0.0) for w in same[i]).hex()
        if first is not None:
            assert str(sampling._mass_failure(same[first])) == want[first]
