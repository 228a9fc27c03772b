"""Telemetry metrics: histograms and virtual-time timelines.

These complement the flat :class:`~repro.sim.stats.StatsRegistry` counters:
a :class:`Histogram` answers "what was the p95 of this latency?", a
:class:`Timeline` answers "what fraction of the run was this link busy?" —
the shape of evidence behind the paper's tables, which a single mean cannot
provide.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

__all__ = ["Histogram", "TailHistogram", "Timeline"]


class Histogram:
    """Latency/size samples with percentile queries (exact, sorted lazily)."""

    __slots__ = ("name", "_samples", "_sorted", "total")

    def __init__(self, name: str):
        self.name = name
        self._samples: List[float] = []
        self._sorted = True
        self.total = 0.0

    def add(self, sample: float) -> None:
        self._samples.append(sample)
        self.total += sample
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        return self.total / len(self._samples) if self._samples else 0.0

    @property
    def min(self) -> float:
        return min(self._samples) if self._samples else 0.0

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; ``p`` in [0, 100].

        Validates ``p`` before the empty-histogram early return, so an
        out-of-range request fails loudly even on an empty histogram.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        rank = max(1, math.ceil(p / 100.0 * len(self._samples)))
        return self._samples[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}: n={self.count}, mean={self.mean:.3f}, "
            f"p95={self.p95:.3f})"
        )


class TailHistogram:
    """A bounded-memory histogram with guaranteed tail resolution.

    :class:`Histogram` keeps every sample, which is exact but grows without
    bound — the wrong trade for a serving tier recording one latency per
    request across millions of aggregated clients.  ``TailHistogram`` is the
    HDR-histogram shape instead: log2 **major** buckets, each split into
    ``2**sub_bits`` linear sub-buckets, so the relative width of any bucket
    is at most ``2**-sub_bits``.  With the default ``sub_bits=7`` every
    quantile — p50 and p999 alike — is reproduced within ~0.8% relative
    error, using a few KB regardless of sample count.  That is the property
    a p999 needs: tail buckets stay *relatively* fine even though the tail
    is orders of magnitude above the median.

    Percentiles report the recorded upper bound of the covering bucket
    (never an interpolation below a sample), are bounds-checked like
    :class:`Histogram.percentile`, and samples below ``resolution`` land in
    a dedicated zero bucket reported as 0.0.
    """

    __slots__ = (
        "name", "resolution", "sub_bits", "_sub_count", "_zero",
        "_buckets", "total", "_count", "_min", "_max",
    )

    def __init__(self, name: str, resolution: float = 0.1, sub_bits: int = 7):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        if not 1 <= sub_bits <= 16:
            raise ValueError("sub_bits must be in [1, 16]")
        self.name = name
        #: Values at or below this land in the zero bucket.
        self.resolution = resolution
        self.sub_bits = sub_bits
        self._sub_count = 1 << sub_bits
        self._zero = 0
        #: (major, sub) -> count, populated sparsely.
        self._buckets: dict = {}
        self.total = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def add(self, sample: float) -> None:
        if sample < 0:
            raise ValueError(f"negative sample: {sample}")
        self._count += 1
        self.total += sample
        self._min = sample if self._min is None else min(self._min, sample)
        self._max = sample if self._max is None else max(self._max, sample)
        scaled = sample / self.resolution
        if scaled < 1.0:
            self._zero += 1
            return
        major = int(scaled).bit_length() - 1
        # Linear index within [2**major, 2**(major+1)): top sub_bits bits.
        sub = int((scaled / (1 << major) - 1.0) * self._sub_count)
        if sub >= self._sub_count:  # pragma: no cover - float edge
            sub = self._sub_count - 1
        key = (major, sub)
        self._buckets[key] = self._buckets.get(key, 0) + 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self.total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    def _bucket_upper(self, major: int, sub: int) -> float:
        base = float(1 << major)
        return self.resolution * base * (1.0 + (sub + 1) / self._sub_count)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; ``p`` in [0, 100] (validated first)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._count:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * self._count))
        if rank <= self._zero:
            return 0.0
        seen = self._zero
        for major, sub in sorted(self._buckets):
            seen += self._buckets[(major, sub)]
            if seen >= rank:
                # Never report past the true extremes.
                return min(self._bucket_upper(major, sub), self.max)
        return self.max  # pragma: no cover - rank always reached above

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    def __repr__(self) -> str:
        return (
            f"TailHistogram({self.name}: n={self._count}, "
            f"mean={self.mean:.3f}, p999={self.p999:.3f})"
        )


class Timeline:
    """A step-valued series sampled against virtual time.

    ``record(t, v)`` states that the quantity has value ``v`` from ``t``
    until the next sample.  Used for resource utilization: link busy state
    (0/1), FIFO fill bytes, CPU busy depth.  Queries integrate the step
    function, so ``busy_fraction`` is an exact utilization over a window,
    not an average of samples.  Every recorded point is kept.
    """

    __slots__ = ("name", "node", "points")

    def __init__(self, name: str, node: int = 0):
        self.name = name
        self.node = node
        self.points: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        points = self.points
        if points:
            last_t, _last_v = points[-1]
            if time < last_t:
                raise ValueError(f"timeline {self.name}: time went backwards")
            if time == last_t:
                points[-1] = (time, value)
                return
        points.append((time, value))

    @property
    def last_value(self) -> float:
        return self.points[-1][1] if self.points else 0.0

    @property
    def max_value(self) -> float:
        return max((v for _t, v in self.points), default=0.0)

    def value_at(self, time: float) -> float:
        """Step interpolation: the value most recently recorded at ``time``."""
        value = 0.0
        for t, v in self.points:
            if t > time:
                break
            value = v
        return value

    def integrate(self, t0: float, t1: float) -> float:
        """Integral of the step function over [t0, t1]."""
        if t1 <= t0:
            return 0.0
        total = 0.0
        value = 0.0
        prev = t0
        for t, v in self.points:
            if t <= t0:
                value = v
                continue
            if t >= t1:
                break
            total += value * (t - prev)
            prev, value = t, v
        total += value * (t1 - prev)
        return total

    def time_weighted_mean(self, t0: float, t1: float) -> float:
        return self.integrate(t0, t1) / (t1 - t0) if t1 > t0 else 0.0

    def busy_fraction(self, t0: float, t1: float) -> float:
        """Fraction of [t0, t1] during which the value was non-zero."""
        if t1 <= t0:
            return 0.0
        busy = 0.0
        value = 0.0
        prev = t0
        for t, v in self.points:
            if t <= t0:
                value = v
                continue
            if t >= t1:
                break
            if value:
                busy += t - prev
            prev, value = t, v
        if value:
            busy += t1 - prev
        return busy / (t1 - t0)

    def __repr__(self) -> str:
        return f"Timeline({self.name}: {len(self.points)} samples)"
