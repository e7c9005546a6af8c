"""The sample-count rule for reporting a tail percentile."""

import numpy as np
import pytest

import stats


@pytest.mark.parametrize(
    "count, q, ok",
    [
        (100, 90.0, True),  # exactly 10 samples beyond p90
        (99, 90.0, False),
        (1000, 99.0, True),
        (999, 99.0, False),
        (20, 50.0, True),
        (19, 50.0, False),
    ],
)
def test_reportable_needs_ten_samples_beyond(count, q, ok):
    assert stats.reportable(count, q) is ok


def test_percentile_if_reportable():
    samples = [float(i) for i in range(100)]
    assert stats.percentile_if_reportable(samples, 90.0) == pytest.approx(89.1)
    assert stats.percentile_if_reportable(samples, 90.0) == np.percentile(samples, 90.0)
    assert stats.percentile_if_reportable(samples[:99], 90.0) is None
    assert stats.percentile_if_reportable([], 50.0) is None


def test_last_quarter_keeps_at_least_one():
    assert stats.last_quarter([1, 2, 3, 4, 5, 6, 7, 8]) == [7, 8]
    assert stats.last_quarter([1, 2, 3]) == [3]
    assert stats.last_quarter([]) == []
