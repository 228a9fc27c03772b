"""The telemetry collector: the hub every instrumented layer reports to.

One :class:`Telemetry` instance is installed per machine (see
:meth:`repro.node.machine.Machine.enable_telemetry`).  Hot paths gate on it
exactly the way they gate on a fault plan — ``tel = stats.telemetry`` and a
single ``is not None`` check — so a run without telemetry pays one predicate
per site and behaves byte-for-byte identically to a build without the
subsystem.  With telemetry installed, recording never consumes virtual
time: the collector only appends records, so enabling it cannot perturb the
simulation either.

Causality is tracked two ways:

* **Explicitly**: ``begin(..., parent=span_id)`` — used wherever a carrier
  object (a transfer request, a packet) hands the span id to the next layer.
* **Implicitly**: when no parent is given, the collector asks the simulator
  for the currently-running :class:`~repro.sim.engine.SimProcess` and
  parents the new span to the innermost span that process has open.  This is
  how an application-level ``nx.csend`` span becomes the parent of the
  ``vmmc.send`` span it triggers, without the libraries threading ids
  through every call signature.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .events import PHASE_BEGIN, PHASE_END, PHASE_INSTANT, TelemetryEvent
from .metrics import Timeline

__all__ = ["Telemetry", "Span"]


@dataclass(frozen=True)
class Span:
    """A completed span, reconstructed at ``end()`` time."""

    span_id: int
    name: str
    node: int
    track: str
    start: float
    end: float
    parent_id: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"Span#{self.span_id}({self.name} n{self.node}/{self.track} "
            f"{self.start:.3f}..{self.end:.3f}us parent={self.parent_id})"
        )


class Telemetry:
    """Collects spans, instants and timelines."""

    def __init__(
        self,
        clock: Callable[[], float],
        limit: int = 1_000_000,
        current_process: Optional[Callable[[], Any]] = None,
    ):
        self._clock = clock
        self.limit = limit
        #: The raw event stream, in emission order.
        self.events: List[TelemetryEvent] = []
        self.dropped = 0
        # The newest events past ``limit`` (none until a reader asks for
        # some with :meth:`keep_overflow`).
        self._overflow: deque = deque(maxlen=0)
        self._ids = itertools.count(1)
        #: span_id -> (begin event, owning process or None).
        self._open: Dict[int, Tuple[TelemetryEvent, Any]] = {}
        self._completed: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._current_process = current_process
        self.timelines: Dict[str, Timeline] = {}

    # -- span lifecycle ----------------------------------------------------

    def begin(
        self,
        name: str,
        node: int,
        track: str,
        parent: Optional[int] = None,
        **args: Any,
    ) -> int:
        """Open a span; returns its id (pass to :meth:`end`)."""
        span_id = next(self._ids)
        proc = self._running()
        if parent is None:
            parent = self._innermost(proc)
        event = TelemetryEvent(
            PHASE_BEGIN, name, self._clock(), node, track, span_id, parent, args
        )
        self._record(event)
        self._open[span_id] = (event, proc)
        if proc is not None:
            stack = proc.telemetry_stack
            if stack is None:
                stack = proc.telemetry_stack = []
            stack.append(span_id)
        return span_id

    def end(self, span_id: int, **args: Any) -> Optional[Span]:
        """Close an open span; returns it (None if it was not open)."""
        entry = self._open.pop(span_id, None)
        if entry is None:
            return None
        begin, proc = entry
        if proc is not None and proc.telemetry_stack:
            try:
                proc.telemetry_stack.remove(span_id)
            except ValueError:
                pass
        now = self._clock()
        self._record(
            TelemetryEvent(
                PHASE_END, begin.name, now, begin.node, begin.track,
                span_id, begin.parent_id, args,
            )
        )
        span = Span(
            span_id=span_id,
            name=begin.name,
            node=begin.node,
            track=begin.track,
            start=begin.time,
            end=now,
            parent_id=begin.parent_id,
            args={**begin.args, **args},
        )
        self._completed.append(span)
        self._by_id[span_id] = span
        return span

    def instant(
        self,
        name: str,
        node: int,
        track: str,
        parent: Optional[int] = None,
        **args: Any,
    ) -> int:
        """Record a point event; returns its id (usable as a parent link)."""
        span_id = next(self._ids)
        if parent is None:
            parent = self._innermost(self._running())
        self._record(
            TelemetryEvent(
                PHASE_INSTANT, name, self._clock(), node, track,
                span_id, parent, args,
            )
        )
        return span_id

    def _running(self) -> Any:
        if self._current_process is None:
            return None
        return self._current_process()

    @staticmethod
    def _innermost(proc: Any) -> Optional[int]:
        if proc is None:
            return None
        stack = getattr(proc, "telemetry_stack", None)
        return stack[-1] if stack else None

    def _record(self, event: TelemetryEvent) -> None:
        if len(self.events) >= self.limit:
            self.dropped += 1
            self._overflow.append(event)
        else:
            self.events.append(event)

    # -- metrics -----------------------------------------------------------

    def timeline(self, name: str, node: int = 0) -> Timeline:
        if name not in self.timelines:
            self.timelines[name] = Timeline(name, node)
        return self.timelines[name]

    # -- queries -----------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Events recorded so far, kept in :attr:`events` or dropped."""
        return len(self.events) + self.dropped

    def keep_overflow(self, n: int) -> None:
        """Keep at least the newest ``n`` events past ``limit`` from now on."""
        if n > self._overflow.maxlen:
            self._overflow = deque(self._overflow, maxlen=n)

    def tail(self, n: int, since: int = 0) -> List[TelemetryEvent]:
        """The newest ``n`` events recorded at or after the ``since``-th.

        Oldest first.  A window reaching past ``limit`` needs
        :meth:`keep_overflow` of at least ``n`` before those events were
        recorded.
        """
        recorded = self.recorded
        start = max(since, recorded - n)
        window = self.events[start:]
        if self.dropped:
            skip = max(start - (recorded - len(self._overflow)), 0)
            window.extend(itertools.islice(self._overflow, skip, None))
        return window

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Completed spans, oldest first; optionally filtered by name prefix."""
        if name is None:
            return list(self._completed)
        return [s for s in self._completed if s.name.startswith(name)]

    def span(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def open_spans(self) -> List[TelemetryEvent]:
        """Begin events of spans never closed (still in flight at run end)."""
        return [begin for begin, _proc in self._open.values()]

    def children(self, span_id: int) -> List[Span]:
        return [s for s in self._completed if s.parent_id == span_id]

    def instants(self, name: Optional[str] = None) -> List[TelemetryEvent]:
        return [
            e
            for e in self.events
            if e.phase == PHASE_INSTANT
            and (name is None or e.name.startswith(name))
        ]

    def ancestry(self, span_id: int) -> List[Span]:
        """The chain from ``span_id`` up to its root (self first)."""
        chain: List[Span] = []
        seen = set()
        current: Optional[int] = span_id
        while current is not None and current not in seen:
            seen.add(current)
            span = self._by_id.get(current)
            if span is None:
                break
            chain.append(span)
            current = span.parent_id
        return chain

    def span_tree(self, span_id: int, indent: str = "") -> str:
        """ASCII rendering of the span tree rooted at ``span_id``."""
        span = self._by_id.get(span_id)
        if span is None:
            return f"{indent}<open or unknown span {span_id}>"
        lines = [
            f"{indent}{span.name} [n{span.node}/{span.track}] "
            f"{span.start:.3f}..{span.end:.3f} ({span.duration:.3f} us)"
        ]
        for child in self.children(span_id):
            lines.append(self.span_tree(child.span_id, indent + "  "))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Telemetry({len(self.events)} events, "
            f"{len(self._completed)} spans, {len(self.timelines)} timelines)"
        )
