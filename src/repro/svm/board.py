"""Write-notice bookkeeping for lazy release consistency.

Every node's execution is divided into **intervals** delimited by releases
(lock releases and barrier arrivals).  An interval's **write notices** name
the shared pages the node dirtied during it.  At an acquire, a node learns
of intervals it has not yet seen and invalidates the named pages; the next
access faults and fetches the current copy from the page's home.

Modeling note (documented in DESIGN.md): notices are published to a
machine-global board rather than shipped inside protocol messages — a
simulation shortcut for the vector-timestamp plumbing of real HLRC/AURC.
The *timing* is preserved: protocol messages still carry payload bytes
sized to the notices they would contain, and invalidations still happen at
the same synchronization points, so fault counts and false-sharing effects
are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

__all__ = ["IntervalRecord", "NoticeBoard", "VectorClock"]

#: A vector clock: how many intervals of each node have been applied.
VectorClock = List[int]


@dataclass(frozen=True)
class IntervalRecord:
    """One closed interval: (node, sequence number, pages dirtied)."""

    node: int
    interval: int
    pages: FrozenSet[int]

    @property
    def notice_bytes(self) -> int:
        """Wire size of the write notices this interval contributes."""
        return 8 + 4 * len(self.pages)


class NoticeBoard:
    """Append-only per-node interval logs, shared machine-wide."""

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self._logs: List[List[IntervalRecord]] = [[] for _ in range(num_nodes)]

    def publish(self, node: int, pages: Iterable[int]) -> IntervalRecord:
        """Close an interval for ``node``; returns its record."""
        log = self._logs[node]
        record = IntervalRecord(node, len(log) + 1, frozenset(pages))
        log.append(record)
        return record

    def latest(self, node: int) -> int:
        return len(self._logs[node])

    def records_since(self, clock: VectorClock) -> List[IntervalRecord]:
        """Every interval record not yet covered by ``clock``."""
        out: List[IntervalRecord] = []
        for node, log in enumerate(self._logs):
            out.extend(log[clock[node] :])
        return out

    def pages_to_invalidate(
        self, clock: VectorClock, reader_node: int
    ) -> Tuple[Set[int], VectorClock, int]:
        """Pages ``reader_node`` must invalidate to advance past ``clock``.

        Returns (pages, new clock, notice payload bytes).  The reader's own
        intervals never invalidate its pages (it has its own writes).
        """
        pages: Set[int] = set()
        payload = 0
        new_clock = list(clock)
        for record in self.records_since(clock):
            payload += record.notice_bytes
            new_clock[record.node] = max(new_clock[record.node], record.interval)
            if record.node != reader_node:
                pages.update(record.pages)
        return pages, new_clock, payload
