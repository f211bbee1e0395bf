"""Order statistics shared by the workloads, the report and compare.

Kept apart from the program's own helpers (``repro.serving.loadgen``
has a nearest-rank percentile too), so a change to the program under
test cannot change how the benchmark measures it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (any order).

    The smallest value with at least ``q`` percent of the data at or
    below it: element ``ceil(n * q / 100)`` of the sorted data
    (1-indexed), clamped to the ends.  The small tolerance keeps float
    products such as ``1000 * 99.9 / 100`` from rounding up a rank.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(len(ordered) * q / 100 - 1e-9)
    return ordered[min(max(rank - 1, 0), len(ordered) - 1)]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))

