"""Property tests for the lazy active-client view: it must behave exactly like
the filtered list it replaces, so every participation scheme picks the same
clients from the same RNG draws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.sampling import (
    AvailabilitySampling,
    FullParticipation,
    RangeExcluding,
    ReservoirSampling,
    UniformSampling,
    exclude_ids,
)

ranges = st.builds(
    range,
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(1, 6) | st.integers(-6, -1),
)
# Reaches past every range bound, so some excluded ids fall outside the range.
exclusions = st.frozensets(st.integers(-50, 50), max_size=30)


def outcome(select, active, seed):
    """Selection result (or exception type) plus the RNG's next draw."""
    rng = np.random.default_rng(seed)
    try:
        picked = select(active, 0, rng)
    except (ValueError, IndexError) as exc:
        picked = type(exc)
    return picked, rng.random()


@settings(max_examples=200, deadline=None)
@given(ranges, exclusions)
def test_view_matches_filtered_list(ids, excluded):
    view = RangeExcluding(ids, excluded)
    expected = [cid for cid in ids if cid not in excluded]

    assert len(view) == len(expected)
    assert list(view) == expected
    assert [view[i] for i in range(-len(view), len(view))] == expected + expected
    assert [view[np.int64(i)] for i in range(len(view))] == expected
    for past_end in (len(view), -len(view) - 1):
        with pytest.raises(IndexError):
            view[past_end]
    for cid in range(-55, 56):
        assert (cid in view) == (cid in expected)
    assert "0" not in view


@settings(max_examples=200, deadline=None)
@given(
    ranges,
    exclusions,
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 1.0),
    st.integers(1, 12),
)
def test_schemes_pick_identically_from_view_and_list(ids, excluded, seed, share, cohort):
    view = exclude_ids(ids, excluded)
    filtered = [cid for cid in ids if cid not in excluded]
    for scheme in (
        FullParticipation(),
        UniformSampling(share),
        AvailabilitySampling(share),
        ReservoirSampling(cohort),
    ):
        assert outcome(scheme.select, view, seed) == outcome(scheme.select, filtered, seed)


@given(ranges)
def test_nothing_excluded_returns_ids_unchanged(ids):
    assert exclude_ids(ids, frozenset()) is ids
    listed = list(ids)
    assert exclude_ids(listed, frozenset()) is listed


@given(st.lists(st.integers(-20, 20)), exclusions)
def test_non_range_ids_come_back_filtered(ids, excluded):
    assert exclude_ids(ids, excluded) == [cid for cid in ids if cid not in excluded]
