"""The large-mesh event kernel: a keyed, history-free event loop.

Why not :class:`repro.sim.Simulator`?  The engine orders same-time events
by an insertion-ordered sequence number, so its tie-breaks depend on the
order in which handlers happened to schedule.  This kernel replaces the
sequence number with a **model-assigned total order key**.  Every event
is the tuple::

    (time, node, src, seq, payload)

and executes in ascending ``(time, node, src, seq)`` order.  The key is a
pure function of the model (never of scheduling history), and the model
guarantees (see DESIGN.md section 16):

* keys are globally unique — the heap never compares payloads;
* an executing event only creates events with strictly larger keys
  (every created event lies strictly later in time);
* same-time events that touch shared state always share a ``node`` (link
  state is owned by the link's source node), so ordering between them is
  fixed by ``(src, seq)`` alone.

The committed large-mesh digests are defined by this order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Tuple

__all__ = ["ShardKernel", "ShardEvent"]

#: (time, node, src, seq, payload); src is INJECT_SRC (-1) for injections.
ShardEvent = Tuple[float, int, int, int, object]


class ShardKernel:
    """A minimal keyed event loop.

    ``handler`` is called with each popped event; it may call :meth:`push`
    to schedule further events (strictly later in time).
    """

    __slots__ = ("handler", "_heap", "events_processed")

    def __init__(self, handler: Callable[[ShardEvent], None]):
        self.handler = handler
        self._heap: List[ShardEvent] = []
        #: Total events executed (the large-mesh tables' event counts).
        self.events_processed = 0

    def push(self, event: ShardEvent) -> None:
        heappush(self._heap, event)

    def run_all(self) -> int:
        """Drain the queue completely; return how many events ran."""
        heap = self._heap
        handler = self.handler
        count = 0
        while heap:
            handler(heappop(heap))
            count += 1
        self.events_processed += count
        return count

    def __repr__(self) -> str:
        return (
            f"ShardKernel(pending={len(self._heap)}, "
            f"processed={self.events_processed})"
        )
