"""Fixed-bucket histograms and the observability error type.

:class:`Histogram` is the aggregated half of ``repro.obs`` (the structured
event stream in :mod:`repro.obs.events` is the per-decision half):
``repro obs summarize`` folds an event stream's request sizes, evicted
sizes and eviction ages into one each and reads out their summaries.

Two constraints:

1. **Deterministic read-out.** A summary is a pure function of the
   observed values, so two streams with the same events summarise
   identically — the same rule the event stream follows
   (docs/ANALYSIS.md determinism).
2. **No wall clock.** A histogram carries the values the caller hands it
   (sim time, byte counts); it never reads a clock.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.errors import ReproError


class ObsError(ReproError):
    """Raised for observability-layer misuse (bad arguments, malformed streams)."""


#: Histogram bucket upper bounds: powers of two from 1 up, plus +inf.
HISTOGRAM_BUCKETS: Tuple[float, ...] = tuple(
    float(1 << exp) for exp in range(0, 31)
) + (math.inf,)


class Histogram:
    """Fixed-bucket distribution (sizes, latencies, victim ages).

    Buckets are the shared power-of-two ladder :data:`HISTOGRAM_BUCKETS`;
    ``observe`` is O(log buckets) via bisection, which keeps it fit for the
    request path. Count/total/min/max are exact regardless of bucketing;
    quantiles (:meth:`quantile`) are bucket-interpolated estimates.
    """

    __slots__ = ("name", "count", "total", "min", "max", "bucket_counts")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.bucket_counts = [0] * len(HISTOGRAM_BUCKETS)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        lo, hi = 0, len(HISTOGRAM_BUCKETS) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= HISTOGRAM_BUCKETS[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.bucket_counts[lo] += 1

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-interpolated ``q``-quantile (``None`` if empty).

        Exact at the extremes (clamped to observed min/max); inside a
        bucket the estimate assumes a uniform spread, so its error is
        bounded by the power-of-two bucket width.
        """
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return None
        # Linear interpolation within the bucket holding the target rank
        # (Prometheus-style), clamped to the observed min/max.
        rank = q * self.count
        cumulative = 0.0
        for i, in_bucket in enumerate(self.bucket_counts):
            if not in_bucket:
                continue
            below = cumulative
            cumulative += in_bucket
            if cumulative >= rank:
                upper = HISTOGRAM_BUCKETS[i]
                if math.isinf(upper):
                    return self.max
                lower = HISTOGRAM_BUCKETS[i - 1] if i else 0.0
                estimate = lower + (upper - lower) * ((rank - below) / in_bucket)
                return min(max(estimate, self.min), self.max)
        return self.max
