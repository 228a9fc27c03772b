"""Measurement infrastructure: counters, accumulators and time breakdowns.

The paper reports execution-time *breakdowns* (computation, communication,
lock, barrier, overhead — Figure 4) and event *counts* (messages,
notifications — Table 3).  ``StatsRegistry`` collects both per node and
aggregates across a run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = ["Counter", "Accumulator", "TimeBreakdown", "StatsRegistry", "BREAKDOWN_CATEGORIES"]

#: The execution-time categories of Figure 4, in stacking order.
BREAKDOWN_CATEGORIES = ("computation", "communication", "lock", "barrier", "overhead")


class Counter:
    """A named monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Accumulator:
    """Accumulates samples; tracks count, sum, min, max and mean."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add(self, sample: float) -> None:
        self.count += 1
        self.total += sample
        self.min = sample if self.min is None else min(self.min, sample)
        self.max = sample if self.max is None else max(self.max, sample)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"Accumulator({self.name}: n={self.count}, mean={self.mean:.3f})"


@dataclass
class TimeBreakdown:
    """Per-process time accounting in the Figure 4 categories (microseconds)."""

    computation: float = 0.0
    communication: float = 0.0
    lock: float = 0.0
    barrier: float = 0.0
    overhead: float = 0.0

    def charge(self, category: str, amount: float) -> None:
        if category not in BREAKDOWN_CATEGORIES:
            raise ValueError(f"unknown breakdown category: {category!r}")
        setattr(self, category, getattr(self, category) + amount)

    @property
    def total(self) -> float:
        return sum(getattr(self, c) for c in BREAKDOWN_CATEGORIES)

    def as_dict(self) -> Dict[str, float]:
        return {c: getattr(self, c) for c in BREAKDOWN_CATEGORIES}

    def __iadd__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        for category in BREAKDOWN_CATEGORIES:
            self.charge(category, getattr(other, category))
        return self

    @staticmethod
    def mean_of(breakdowns: Iterable["TimeBreakdown"]) -> "TimeBreakdown":
        items = list(breakdowns)
        result = TimeBreakdown()
        if not items:
            return result
        for item in items:
            result += item
        for category in BREAKDOWN_CATEGORIES:
            setattr(result, category, getattr(result, category) / len(items))
        return result


class StatsRegistry:
    """Namespaced counters and accumulators for one simulated machine."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.accumulators: Dict[str, Accumulator] = {}
        self.breakdowns: Dict[int, TimeBreakdown] = defaultdict(TimeBreakdown)
        #: Optional telemetry collector (set by Machine.enable_telemetry;
        #: see repro.telemetry).  Instrumented hot paths gate on this being
        #: None, so a run without telemetry pays one predicate per site.
        self.telemetry = None

    def trace(self, category: str, node: int, message: str) -> None:
        """Record a trace line as a telemetry instant on the ``"trace"``
        track when telemetry is armed (no-op otherwise)."""
        if self.telemetry is not None:
            self.telemetry.instant(category, node, "trace", message=message)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def count(self, name: str, amount: int = 1) -> None:
        self.counter(name).add(amount)

    def accumulator(self, name: str) -> Accumulator:
        if name not in self.accumulators:
            self.accumulators[name] = Accumulator(name)
        return self.accumulators[name]

    def sample(self, name: str, value: float) -> None:
        self.accumulator(name).add(value)

    def breakdown(self, node_id: int) -> TimeBreakdown:
        return self.breakdowns[node_id]

    def counter_value(self, name: str) -> int:
        counter = self.counters.get(name)
        return counter.value if counter else 0

    def mean_breakdown(self) -> TimeBreakdown:
        return TimeBreakdown.mean_of(self.breakdowns.values())

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of every counter and accumulator total (for reports).

        Accumulators report ``.mean``/``.count`` (the historical keys) plus
        ``.min``/``.max`` once they have at least one sample.
        """
        out: Dict[str, float] = {}
        for name, counter in sorted(self.counters.items()):
            out[name] = counter.value
        for name, acc in sorted(self.accumulators.items()):
            out[f"{name}.mean"] = acc.mean
            out[f"{name}.count"] = acc.count
            if acc.count:
                out[f"{name}.min"] = acc.min
                out[f"{name}.max"] = acc.max
        return out
