"""Synchronization and queueing primitives for simulation processes.

All blocking operations are iterator-returning methods used with
``yield from``::

    yield from bus.acquire()
    try:
        ...
    finally:
        bus.release()

or, for queues::

    item = yield from mailbox.get()

``acquire`` and ``get`` have **non-suspending fast paths**: when the
resource is free (or an item is already queued) they return a pre-resolved
iterator instead of a generator, so the uncontended case costs no Event
allocation, no generator frame and no extra scheduler round-trip — the
``yield from`` completes synchronously inside the caller's step.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Iterator, Optional

from .engine import Event, SimulationError, Simulator
from .ids import RunScopedCounter, RunScopedRegistry

__all__ = ["Resource", "Queue", "Signal"]

#: Anonymous-instance numbering (``resource#7`` style).  The counters are
#: run-scoped — rewound whenever a Machine is built — so same-seed runs
#: produce identical names even though the names leak into reprs, wait-for
#: reports and deadlock messages.  Explicitly named instances never consume
#: a number.
_anon_resource_ids = RunScopedCounter(1)
_anon_queue_ids = RunScopedCounter(1)
_anon_signal_ids = RunScopedCounter(1)

#: Every live Resource/Queue/Signal of the current run, in creation order.
#: Walked by :mod:`repro.monitor` to build wait-for graphs and watermark
#: samples; cleared when a fresh Machine is built.
PRIMITIVES = RunScopedRegistry()

#: Shared exhausted iterator: ``yield from _COMPLETED`` finishes
#: immediately with value None and allocates nothing.
_COMPLETED: Iterator = iter(())


def _ready(value: Any) -> Generator:
    """A pre-resolved sub-generator: ``yield from _ready(v)`` returns ``v``
    immediately.  A generator (rather than a custom iterator raising
    ``StopIteration``) keeps the early return on CPython's C-level
    generator-exit path, which is about twice as fast."""
    return value
    yield  # pragma: no cover - makes this function a generator


class Resource:
    """A counted resource with FIFO granting (capacity >= 1).

    Used for the memory bus, DMA engines and network links, where at most
    ``capacity`` holders may proceed and the rest queue in arrival order.
    """

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "_gate_name",
        "_in_use",
        "_waiters",
        "_spare_gate",
        "busy_time",
        "_busy_since",
        "_holders",
    )

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        if not name:
            name = f"resource#{next(_anon_resource_ids)}"
        self.name = name
        self._gate_name = f"{name}.acquire"
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # One retired gate event kept for reuse (see _acquire_wait).
        self._spare_gate: Optional[Event] = None
        # Cumulative busy statistics (single-capacity resources only).
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None
        #: Best-effort holder list, maintained only while a health monitor
        #: is installed (None otherwise; see _note_hold/_drop_hold).
        self._holders: Optional[list] = None
        PRIMITIVES.add(self)

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Iterator:
        """Hold a unit of the resource; use with ``yield from``.

        Uncontended, the unit is granted synchronously at the call and the
        returned iterator is already exhausted; otherwise the caller blocks
        on a FIFO gate event until ``release`` hands the unit over.
        """
        if self._in_use < self.capacity:
            if self._in_use == 0:
                self._busy_since = self.sim.now
            self._in_use += 1
            if self.sim.monitor is not None:
                self._note_hold()
            return _COMPLETED
        return self._acquire_wait()

    def _acquire_wait(self) -> Generator:
        # Gate events are single-use and private to this resource, so a
        # completed one can be reset and reused by the next waiter instead
        # of allocating afresh.  An abandoned wait skips the recycle line,
        # so an abandoned gate is never reused.
        gate = self._spare_gate
        if gate is None:
            gate = Event(self.sim, self._gate_name)
        else:
            self._spare_gate = None
            gate._triggered = False
            gate._value = None
        self._waiters.append(gate)
        try:
            yield gate
        except BaseException:
            # The waiter died (interrupted or closed) before taking its
            # unit: withdraw the gate, or, if a release already granted the
            # unit to it in this instant, pass the unit on so it is not
            # leaked.
            if gate._triggered:
                self.release()
            else:
                self._waiters.remove(gate)
            raise
        self._spare_gate = gate
        if self.sim.monitor is not None:
            self._note_hold()

    def try_acquire(self) -> bool:
        """Acquire without waiting; returns False when fully in use.

        Hot generators pair this with ``_acquire_wait``::

            if not resource.try_acquire():
                yield from resource._acquire_wait()

        which grants the uncontended case with one plain call — no
        ``yield from`` round-trip at all (equivalent to ``acquire``).
        """
        in_use = self._in_use
        if in_use >= self.capacity:
            return False
        sim = self.sim
        if not in_use:
            self._busy_since = sim.now
        self._in_use = in_use + 1
        if sim.monitor is not None:
            self._note_hold()
        return True

    def release(self) -> None:
        in_use = self._in_use
        if in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        sim = self.sim
        if sim.monitor is not None:
            self._drop_hold()
        waiters = self._waiters
        if waiters:
            # Hand the unit straight to the next waiter: the in-use count
            # is unchanged and the resource never goes idle.
            waiters.popleft().succeed()
            return
        self._in_use = in_use - 1
        if in_use == 1 and self._busy_since is not None:
            self.busy_time += sim.now - self._busy_since
            self._busy_since = None

    # -- holder bookkeeping (health-monitor support) ---------------------
    # The holder list exists only so a postmortem wait-for graph can name
    # who blocks whom.  It is best-effort (a unit acquired before the
    # monitor was installed has no recorded holder) and is maintained
    # strictly outside virtual time, so enabling it cannot perturb a run.

    def _note_hold(self) -> None:
        proc = self.sim.current
        if proc is None:
            return
        holders = self._holders
        if holders is None:
            holders = self._holders = []
        holders.append(proc)

    def _drop_hold(self) -> None:
        holders = self._holders
        if holders:
            proc = self.sim.current
            try:
                holders.remove(proc)
            except ValueError:
                # Released by a different process (or acquired before the
                # monitor existed): drop the stalest record instead.
                del holders[0]

    @property
    def holders(self) -> list:
        """Processes currently recorded as holding a unit (monitor only)."""
        return list(self._holders or ())

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time the resource was busy."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return busy / elapsed if elapsed > 0 else 0.0

    def __repr__(self) -> str:
        return (
            f"Resource({self.name!r}, {self._in_use}/{self.capacity} in use, "
            f"{len(self._waiters)} waiting)"
        )


class Queue:
    """An unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks (capacity limits in the modeled hardware, e.g. the
    NIC outgoing FIFO, are enforced by the hardware models themselves, which
    need byte-granularity accounting rather than item counts).
    """

    __slots__ = (
        "sim",
        "name",
        "_gate_name",
        "_items",
        "_getters",
        "_spare_gate",
        "total_put",
    )

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        if not name:
            name = f"queue#{next(_anon_queue_ids)}"
        self.name = name
        self._gate_name = f"{name}.get"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._spare_gate: Optional[Event] = None
        self.total_put = 0
        PRIMITIVES.add(self)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def queue_length(self) -> int:
        """Items currently queued (mirrors :attr:`Resource.queue_length`)."""
        return len(self._items)

    def put(self, item: Any) -> None:
        self.total_put += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Iterator:
        """Take the next item; use with ``yield from``.

        When an item is already queued it is claimed synchronously at the
        call and the returned iterator resolves immediately; otherwise the
        caller blocks on a FIFO gate event until ``put`` hands one over.
        """
        if self._items:
            return _ready(self._items.popleft())
        return self._get_wait()

    def _get_wait(self) -> Generator:
        # Same single-spare recycling as Resource._acquire_wait.
        gate = self._spare_gate
        if gate is None:
            gate = Event(self.sim, self._gate_name)
        else:
            self._spare_gate = None
            gate._triggered = False
            gate._value = None
        self._getters.append(gate)
        try:
            item = yield gate
        except BaseException:
            # The getter died before taking its item: withdraw the gate, or
            # hand an item already granted to it in this instant to the next
            # getter (or back to the head of the queue).
            if gate._triggered:
                item = gate._value
                if self._getters:
                    self._getters.popleft().succeed(item)
                else:
                    self._items.appendleft(item)
            else:
                self._getters.remove(gate)
            raise
        self._spare_gate = gate
        return item

    def try_get(self) -> Any:
        """Return the next item or None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def peek(self) -> Any:
        return self._items[0] if self._items else None

    def __repr__(self) -> str:
        return (
            f"Queue({self.name!r}, {len(self._items)} queued, "
            f"{len(self._getters)} waiting)"
        )


class Signal:
    """A reusable broadcast condition.

    ``wait()`` blocks until the next ``fire()``; every ``fire`` wakes all
    current waiters and resets.  Used for "FIFO drained below threshold",
    "new message arrived" style conditions where a fresh event per round is
    wanted.
    """

    __slots__ = ("sim", "name", "_event", "_retired", "fire_count")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        if not name:
            name = f"signal#{next(_anon_signal_ids)}"
        self.name = name
        self._event = sim.event(name)
        # The previously fired event, kept for reuse: by the next fire all
        # of its waiters have been dispatched, so it can be reset and
        # swapped back in (ping-pong between two Event objects).
        self._retired: Optional[Event] = None
        self.fire_count = 0
        PRIMITIVES.add(self)

    def wait(self) -> Generator:
        event = self._event
        value = yield event
        return value

    def fire(self, value: Any = None) -> None:
        self.fire_count += 1
        event = self._event
        if event._waiters:
            # Rotate only when someone is listening: an unwatched round can
            # reuse the same (never-awaited) event, since ``wait`` always
            # reads the current one — no allocation when nobody waits.
            fresh = self._retired
            if fresh is None:
                fresh = Event(self.sim, self.name)
            else:
                fresh._triggered = False
                fresh._value = None
            self._retired = event
            self._event = fresh
            event.succeed(value)

    @property
    def waiter_count(self) -> int:
        return len(self._event._waiters)

    def __repr__(self) -> str:
        return (
            f"Signal({self.name!r}, {self.waiter_count} waiting, "
            f"fired {self.fire_count}x)"
        )
