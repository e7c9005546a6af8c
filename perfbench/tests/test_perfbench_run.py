"""End-to-end summaries: fastest build and version, medians and sample counts."""

import pytest

from run import end_to_end


def repetition(seconds, setup_seconds, **e2e):
    return {
        "versions": {
            "seconds": seconds,
            "samples": [100] * len(seconds),
            "updates": [10] * len(seconds),
        },
        "setup_seconds": setup_seconds,
        "e2e": e2e,
    }


def test_gated_metrics_are_the_fastest_build_and_version():
    plain = [
        repetition([2.0, 1.0, 4.0], [0.3, 0.2], peak_rss_mb=50.0),
        repetition([0.5, 3.0, 6.0], [0.4, 0.25], peak_rss_mb=70.0),
    ]
    e2e, counts = end_to_end(plain)
    assert e2e["setup_s"] == 0.2
    assert e2e["round_s_min"] == 0.5
    assert counts["setup_s"] == "fastest of 4 builds"
    assert counts["round_s_min"] == "fastest of 6 versions"
    # Medians pool every version of every repetition.
    assert e2e["round_s_p50"] == pytest.approx(2.5)
    # Rates are medians of per-version rates, not of total work over time.
    assert e2e["train_samples_per_s"] == pytest.approx((100 / 3 + 100 / 2) / 2)
    assert counts["round_s_p50"] == "median of 6 versions"
    assert e2e["peak_rss_mb"] == 60.0
    assert counts["peak_rss_mb"] == "median of 2 repetitions"
    assert "round_s_p90" not in e2e  # 6 versions leave too few beyond p90


def test_tail_needs_a_hundred_versions():
    e2e, counts = end_to_end([repetition([0.1] * 100, [0.01])])
    assert e2e["round_s_p90"] == pytest.approx(0.1)
    assert counts["round_s_p90"] == "over 100 versions"
