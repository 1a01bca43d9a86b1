"""Small statistics and process-level probes shared by the workloads."""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, Optional, Sequence, Tuple


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(sorted_values) * pct // 100))  # ceil
    return sorted_values[int(rank) - 1]


def top_percentile(values: Sequence[float]) -> float:
    """p99 where the sample supports it (>= 1,000), else the highest
    percentile with at least ten samples beyond it, else the maximum."""
    ordered = sorted(values)
    if len(ordered) >= 1000:
        return percentile(ordered, 99)
    if len(ordered) > 10:
        return ordered[len(ordered) - 11]
    return ordered[-1]


def min_and_iqr(values: Sequence[float]) -> Tuple[float, float]:
    """Minimum and inter-quartile range of a sample (IQR 0 for one)."""
    if len(values) < 2:
        return min(values), 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return min(values), q3 - q1


class GcWatch:
    """Collector pauses seen through ``gc.callbacks`` while installed.

    The collector stays on with its default thresholds; this only
    observes it.
    """

    def __init__(self) -> None:
        #: Sum and maximum of the pauses so far, in seconds.
        self.total_s = 0.0
        self.max_s = 0.0
        #: Generation-2 (full) collections so far.
        self.gen2 = 0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            pause = time.perf_counter() - self._started
            self.total_s += pause
            self.max_s = max(self.max_s, pause)
            self._started = None
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)
