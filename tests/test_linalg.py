import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonet.linalg import (
    SvdResult,
    TruncationPolicy,
    svd,
    truncate_global,
)


def test_svd_swap_matrix():
    res = svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(res.singular_values, [1.0, 1.0], atol=1e-12)
    rebuilt = res.left @ np.diag(res.singular_values) @ res.right_conj
    assert np.allclose(rebuilt, [[0, 1], [1, 0]], atol=1e-12)


def test_svd_matches_gram_eigenvalues():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    res = svd(m)
    # Independent route: singular values are square roots of the Gram spectrum.
    gram_eigs = np.linalg.eigvalsh(m.conj().T @ m)[::-1]
    assert np.allclose(res.singular_values, np.sqrt(np.clip(gram_eigs, 0, None)), atol=1e-10)
    assert np.all(np.diff(res.singular_values) <= 1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_svd_falls_back_to_gesvd(monkeypatch, dtype):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 4)).astype(dtype)
    if dtype is np.complex128:
        a += 1j * rng.normal(size=(6, 4))

    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", diverge)
    res = svd(a)
    assert res.left.dtype == res.right_conj.dtype == dtype
    assert res.left.shape == (6, 4) and res.right_conj.shape == (4, 4)
    assert np.all(np.diff(res.singular_values) <= 0.0)
    assert np.allclose(res.left.conj().T @ res.left, np.eye(4), atol=1e-12)
    assert np.allclose(res.right_conj @ res.right_conj.conj().T, np.eye(4), atol=1e-12)
    rebuilt = res.left @ np.diag(res.singular_values) @ res.right_conj
    assert np.allclose(rebuilt, a, atol=1e-12)


@given(
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_svd_reconstruction_property(n, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    res = svd(a)
    rebuilt = res.left @ np.diag(res.singular_values) @ res.right_conj
    assert np.allclose(rebuilt, a, atol=1e-10)
    assert np.allclose(np.sum(res.singular_values**2), np.linalg.norm(a) ** 2, atol=1e-10)


def test_svd_of_real_matrix_is_real():
    a = np.random.default_rng(5).normal(size=(7, 4))
    res = svd(a)
    assert res.left.dtype == res.right_conj.dtype == np.float64
    rebuilt = res.left @ np.diag(res.singular_values) @ res.right_conj
    np.testing.assert_allclose(rebuilt, a, atol=1e-12)


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        svd(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        svd(np.zeros(4))


def test_truncate_two_groups():
    pol = TruncationPolicy(chi_max=2)
    out = truncate_global([("A", np.array([0.9, 0.3])), ("B", np.array([0.5]))], pol)
    assert out.kept == [("A", 0.9), ("B", 0.5)]
    assert out.discarded_weight == pytest.approx(0.09, abs=1e-15)
    assert [idx.tolist() for idx in out.kept_by_group] == [[0], [0]]


def test_truncate_keeps_everything_when_roomy():
    out = truncate_global([("A", np.array([1.0]))], TruncationPolicy(chi_max=4))
    assert out.kept == [("A", 1.0)]
    assert out.discarded_weight == 0.0


def test_truncate_tie_breaks_on_group_position_then_index():
    out = truncate_global(
        [("B", np.array([1.0])), ("A", np.array([1.0]))], TruncationPolicy(chi_max=1)
    )
    assert out.kept == [("B", 1.0)]
    out2 = truncate_global([("A", np.array([0.5, 0.5, 0.5]))], TruncationPolicy(chi_max=2))
    assert out2.kept_by_group[0].tolist() == [0, 1]


def test_truncate_zero_floor():
    # Values at rounding-noise scale relative to the leader count as rank zero.
    out = truncate_global([("A", np.array([1.0, 1e-16])), ("B", np.array([0.0]))],
                          TruncationPolicy(chi_max=5))
    assert out.kept == [("A", 1.0)]
    assert out.discarded_weight == pytest.approx(1e-32)


def test_truncate_rejects_negative_values():
    with pytest.raises(ValueError):
        truncate_global([("A", np.array([-0.1]))], TruncationPolicy(chi_max=2))


@given(
    seed=st.integers(0, 2**32 - 1),
    chi=st.integers(1, 12),
    sizes=st.lists(st.integers(0, 5), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_truncate_matches_pooled_sort(seed, chi, sizes):
    rng = np.random.default_rng(seed)
    groups = [(i, np.sort(rng.random(k))[::-1]) for i, k in enumerate(sizes)]
    out = truncate_global(groups, TruncationPolicy(chi_max=chi))
    pooled = np.sort(np.concatenate([g[1] for g in groups]))[::-1] if any(sizes) else np.array([])
    if pooled.size:
        floor = 1e-14 * pooled.max()
        pooled = pooled[pooled > floor]
    expect = pooled[:chi]
    got = np.array([v for _, v in out.kept])
    assert np.allclose(got, expect, atol=1e-15)
    total = float(np.sum(np.concatenate([g[1] for g in groups]) ** 2)) if any(sizes) else 0.0
    assert out.discarded_weight == pytest.approx(total - np.sum(expect**2), abs=1e-12)


@given(
    chi=st.integers(1, 12),
    data=st.data(),
    values=st.lists(
        st.lists(st.sampled_from([1.0, 0.5, 0.25]), min_size=1, max_size=4),
        min_size=3,
        max_size=5,
    ),
)
@settings(max_examples=60, deadline=None)
def test_truncate_ties_across_groups_match_sorted_reference(chi, data, values):
    # Few distinct values, so most cuts run through a tie shared by several groups;
    # the groups come in shuffled order, so the labels are not the tie-break order.
    order = data.draw(st.permutations(range(len(values))))
    groups = [(label, np.array(values[label])) for label in order]
    out = truncate_global(groups, TruncationPolicy(chi_max=chi))
    entries = sorted((-v, g, i) for g, (_, vals) in enumerate(groups) for i, v in enumerate(vals))
    expect: list[list[int]] = [[] for _ in groups]
    for _, g, i in entries[:chi]:
        expect[g].append(i)
    assert [idx.tolist() for idx in out.kept_by_group] == [sorted(idx) for idx in expect]
    assert out.kept == [(groups[g][0], -v) for v, g, _ in entries[:chi]]


def test_truncate_keeps_or_drops_a_mirror_pair_whole():
    # Group (0, 1) stands for itself and its mirror copy: each value is two units.
    groups = [((0, 0), np.array([0.9, 0.2])), ((0, 1), np.array([0.5, 0.3]))]
    # 0.9 takes one place; the 0.5 pair needs two, so at chi = 2 it is dropped
    # whole and the cut stops there, below chi.
    out = truncate_global(groups, TruncationPolicy(chi_max=2), units=[1, 2])
    assert out.kept == [((0, 0), 0.9)]
    assert [idx.tolist() for idx in out.kept_by_group] == [[0], []]
    assert out.discarded_weight == pytest.approx(0.2**2 + 2 * 0.5**2 + 2 * 0.3**2, abs=1e-15)
    out = truncate_global(groups, TruncationPolicy(chi_max=3), units=[1, 2])
    assert out.kept == [((0, 0), 0.9), ((0, 1), 0.5)]
    assert [idx.tolist() for idx in out.kept_by_group] == [[0], [0]]
    assert out.discarded_weight == pytest.approx(0.2**2 + 2 * 0.3**2, abs=1e-15)


def test_truncate_keeps_a_head_mirror_pair_at_chi_one():
    # The largest value is a mirror pair, two units against chi_max = 1: it
    # stays whole, so the bond is not emptied.
    groups = [((0, 0), np.array([0.3])), ((0, 1), np.array([0.6, 0.1]))]
    out = truncate_global(groups, TruncationPolicy(chi_max=1), units=[1, 2])
    assert out.kept == [((0, 1), 0.6)]
    assert [idx.tolist() for idx in out.kept_by_group] == [[], [0]]
    assert out.discarded_weight == pytest.approx(0.3**2 + 2 * 0.1**2, abs=1e-15)


def test_truncate_rejects_bad_units():
    groups = [((0, 0), np.array([0.9])), ((0, 1), np.array([0.5]))]
    for units in ([1], [1, 2, 1], [[1, 2]], [1, 0], [2, -1], [1.0, 2.0], [True, True]):
        with pytest.raises(ValueError, match="units"):
            truncate_global(groups, TruncationPolicy(chi_max=2), units=units)


@given(
    chi=st.integers(1, 12),
    values=st.lists(
        st.lists(st.sampled_from([1.0, 0.5, 0.25, 0.0]), max_size=4), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_truncate_unit_counts_of_one_match_no_units(chi, values):
    groups = [(label, np.array(vals, dtype=float)) for label, vals in enumerate(values)]
    policy = TruncationPolicy(chi_max=chi)
    plain = truncate_global(groups, policy)
    ones = truncate_global(groups, policy, units=[1] * len(groups))
    assert ones.kept == plain.kept
    assert ones.discarded_weight == plain.discarded_weight
    assert [idx.tolist() for idx in ones.kept_by_group] == [
        idx.tolist() for idx in plain.kept_by_group]


@given(
    seed=st.integers(0, 2**32 - 1),
    chi=st.integers(1, 12),
    diagonal=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    off_diagonal=st.lists(st.integers(0, 4), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_truncate_mirror_pairs_match_pair_unit_reference(seed, chi, diagonal, off_diagonal):
    rng = np.random.default_rng(seed)
    # Few distinct values, so pairs and singles tie at the cut.
    draw = lambda k: np.sort(rng.choice([1.0, 0.5, 0.25], size=k))[::-1]
    groups = [((a, a), draw(k)) for a, k in enumerate(diagonal)]
    groups += [((a, a + 1), draw(k)) for a, k in enumerate(off_diagonal)]
    units = [1 if label[0] == label[1] else 2 for label, _ in groups]
    out = truncate_global(groups, TruncationPolicy(chi_max=chi), units=units)

    # Reference: one unit per diagonal value and per pair, in (value, group
    # position, index) order; the longest prefix whose count fits chi is kept,
    # and the head unit always is.
    entries = sorted((-v, g, i, unit) for g, ((_, vals), unit) in enumerate(zip(groups, units))
                     for i, v in enumerate(vals))
    kept, count = [], 0
    for entry in entries:
        if kept and count + entry[3] > chi:
            break
        kept.append(entry)
        count += entry[3]
    assert out.kept == [(groups[g][0], -v) for v, g, _, _ in kept]
    expect: list[list[int]] = [[] for _ in groups]
    for _, g, i, _ in kept:
        expect[g].append(i)
    assert [idx.tolist() for idx in out.kept_by_group] == [sorted(idx) for idx in expect]
    total = sum(unit * float(np.sum(vals**2)) for (_, vals), unit in zip(groups, units))
    assert out.discarded_weight == pytest.approx(
        total - sum(unit * v**2 for v, _, _, unit in kept), abs=1e-12)


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(chi_max=0)

