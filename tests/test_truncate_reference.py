"""``linalg.truncate_global`` against the cut that ranks every value on every call.

The package's cut skips the ranking when every value is kept and builds
``kept`` only when it is read; ``helpers.reference_truncate_global`` is the
body it had before. On random groups the two must agree bit for bit: the
same ``kept`` pairs in the same order, the same kept indices per group, the
same discarded weight in ``float.hex`` and the same ``ValueError`` message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonet.linalg import RANK_CUTOFF, TruncationPolicy, truncate_global

from helpers import reference_truncate_global

# Ties, values at and below the rank cutoff of a leader of 1, and exact zeros.
PALETTE = [1.0, 0.5, 0.5, 0.25, 0.1, RANK_CUTOFF, 0.5 * RANK_CUTOFF, 1e-20, 0.0]

values_strategy = st.one_of(
    st.sampled_from(PALETTE),
    st.floats(0.0, 2.0, allow_nan=False),
)
group_strategy = st.lists(values_strategy, max_size=6)


def outcome_or_message(cut, groups, chi, units):
    try:
        return cut(groups, TruncationPolicy(chi_max=chi), units=units)
    except ValueError as exc:
        return str(exc)


def assert_same_cut(groups, chi, units):
    got = outcome_or_message(truncate_global, groups, chi, units)
    want = outcome_or_message(reference_truncate_global, groups, chi, units)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    kept, discarded, kept_by_group = want
    assert [(label, float.hex(v)) for label, v in got.kept] == [
        (label, float.hex(v)) for label, v in kept]
    assert float.hex(got.discarded_weight) == float.hex(discarded)
    assert len(got.kept_by_group) == len(kept_by_group)
    for a, b in zip(got.kept_by_group, kept_by_group):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


@given(
    data=st.data(),
    values=st.lists(group_strategy, min_size=1, max_size=6),
    with_empty=st.booleans(),
    units_kind=st.sampled_from(["none", "ones", "ones-and-twos"]),
)
@settings(max_examples=300, deadline=None)
def test_cut_matches_the_reference_bit_for_bit(data, values, with_empty, units_kind):
    if with_empty:
        values = values + [[]]
        values.insert(data.draw(st.integers(0, len(values) - 1)), values.pop())
    groups = [((g, g % 2), np.array(vals, dtype=np.float64)) for g, vals in enumerate(values)]
    units = {"none": None, "ones": [1] * len(groups),
             "ones-and-twos": data.draw(st.lists(st.sampled_from([1, 2]),
                                                 min_size=len(groups), max_size=len(groups)))
             }[units_kind]
    count = sum(len(vals) for vals in values)
    unit_total = sum((1 if units is None else u) * len(vals) for u, vals in
                     zip(units or [1] * len(values), values))
    chi = data.draw(st.sampled_from(
        [c for c in (count, count - 1, unit_total, unit_total - 1) if c >= 1]
        + [data.draw(st.integers(1, 16))]))
    assert_same_cut(groups, chi, units)


@pytest.mark.parametrize("groups, units", [
    ([("A", np.array([[0.5, 0.1]]))], None),
    ([("A", np.array([0.5, -0.1]))], None),
    ([("A", np.array([0.5, -0.0]))], None),
    ([("A", np.array([0.5, np.nan]))], None),
    ([("A", np.array([np.inf, 0.5]))], None),
    ([("A", np.array([-np.inf]))], None),
    ([("A", np.array([0.5])), ("B", np.array([0.2]))], [1]),
    ([("A", np.array([0.5])), ("B", np.array([0.2]))], [1, 0]),
    ([("A", np.array([0.5])), ("B", np.array([0.2]))], [1.0, 2.0]),
    ([("A", np.array([0.5])), ("B", np.array([0.2]))], [True, True]),
    ([("A", np.array([0.5])), ("B", np.array([np.nan]))], [1, 0]),
    ([], None),
    ([("A", np.array([]))], None),
])
@pytest.mark.parametrize("chi", [1, 2, 4])
def test_malformed_and_edge_inputs_match_the_reference(groups, units, chi):
    assert_same_cut(groups, chi, units)
