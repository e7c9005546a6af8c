"""The sample-count rule for reporting a tail percentile.

Timings are reported as a median (``numpy.median``), plus a tail
percentile only where at least :data:`MIN_TAIL` samples lie beyond it,
together with the sample count.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: A percentile is reportable only with at least this many samples beyond it.
MIN_TAIL = 10


def reportable(count: int, q: float) -> bool:
    """Whether the ``q``-th percentile of ``count`` samples may be reported.

    The rule: at least :data:`MIN_TAIL` samples must lie beyond it, so p90
    needs 100 samples and p99 needs 1000.  The small epsilon absorbs the
    float error of ``count * (100 - q) / 100``.
    """
    return count * (100.0 - q) / 100.0 + 1e-9 >= MIN_TAIL


def percentile_if_reportable(samples: Sequence[float], q: float) -> Optional[float]:
    """``numpy.percentile(samples, q)``, or ``None`` when too few samples lie beyond."""
    if not samples or not reportable(len(samples), q):
        return None
    return float(np.percentile(samples, q))


def last_quarter(values: List[float]) -> List[float]:
    """The last quarter of a sequence (at least one element)."""
    if not values:
        return []
    keep = max(1, len(values) // 4)
    return values[-keep:]
