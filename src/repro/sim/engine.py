"""Discrete-event simulation engine.

The engine drives the whole SHRIMP reproduction: nodes, buses, NICs, the
mesh backplane and application processes are all simulated processes running
against a single virtual clock measured in **microseconds**.

Processes are plain Python generators.  A process yields *requests* to the
simulator and is resumed when the request completes:

``yield Timeout(dt)``
    resume ``dt`` microseconds later.

``yield dt`` (a bare float)
    shorthand for ``Timeout(dt)`` with no resume value; the hot-path form
    used when the delay is computed fresh per packet, since it schedules
    without allocating a request object.  Like ``Timeout``, a negative or
    NaN delay is an error, thrown back into the process.

``yield event`` (an :class:`Event`)
    resume when the event is triggered; the ``yield`` evaluates to the
    event's value.

``yield process`` (a :class:`SimProcess`)
    resume when the child process finishes; the ``yield`` evaluates to the
    child's return value.

Processes may delegate to sub-generators with ``yield from``, which is the
idiom used pervasively by the higher layers (e.g. a VMMC send delegates to
the NIC which delegates to the bus).

Determinism and the ordering contract
-------------------------------------
The engine is deterministic: the library never consults wall-clock time or
global randomness, and every schedulable entry carries a monotonically
increasing sequence number.  Entries execute in strict ``(time, seq)``
order — FIFO among same-time entries, insertion order breaking ties.

Internally there are two queues (DESIGN.md section 11):

* a **heap** of ``(time, seq, fn, proc, value, exc)`` records for entries
  with a real delay (timeouts and explicit ``schedule`` callbacks), and
* an **immediate deque** of ``(seq, proc, value, exc)`` records for
  zero-delay resumes (event wakeups, joins, interrupts, spawns), which
  dominate event traffic and bypass ``heapq`` entirely.

Immediate records are only ever appended at the current clock value, so the
run loop can drain them without a time comparison; the sequence numbers are
shared between both queues, and the loop always executes whichever head has
the smaller ``seq`` when the heap's head is due now — making the two-queue
split *unobservable*: the execution order is bit-for-bit the same as a
single ``(time, seq)`` priority queue.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Optional

_heappush = heapq.heappush
_INF = float("inf")

__all__ = [
    "Simulator",
    "SimProcess",
    "Event",
    "Timeout",
    "Interrupted",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation primitives."""


class Interrupted(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Timeout:
    """Request object: resume the yielding process after ``delay``.

    Timeouts are immutable and the engine only reads them, so hot loops may
    build one per fixed delay and yield the same instance repeatedly.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if not delay >= 0:
            raise SimulationError(f"negative or NaN timeout: {delay}")
        self.delay = delay
        self.value = value

    def __repr__(self) -> str:
        if self.value is None:
            return f"Timeout({self.delay})"
        return f"Timeout({self.delay}, value={self.value!r})"


class Event:
    """A one-shot event that processes can wait on.

    An event starts untriggered.  ``succeed(value)`` wakes every waiter and
    makes the event "triggered"; any process that yields a triggered event
    resumes immediately with the stored value.  Events are the basic
    synchronization primitive used for message arrival, interrupt delivery
    and condition signalling.

    Cancelled waits (interrupts) are recorded as **tombstones** in
    ``_discarded`` rather than spliced out of the waiter list, so an
    interrupt costs O(1) instead of an O(n) ``list.remove`` — interrupt
    churn on heavily-waited events (reliable-transport retransmission
    timers) stays linear overall.  The list is compacted once tombstones
    reach half its length.
    """

    __slots__ = ("sim", "_value", "_triggered", "_waiters", "_discarded", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._triggered = False
        self._waiters: list[SimProcess] = []
        self._discarded: Optional[set] = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._value = value
        waiters = self._waiters
        if not waiters:
            self._discarded = None
            return self
        if len(waiters) == 1 and not self._discarded:
            # Single live waiter (the overwhelmingly common case for gate
            # events): resume it in place, reusing the waiter list.
            proc = waiters[0]
            waiters.clear()
            proc._waiting_on = None
            sim = self.sim
            sim._immediate.append((next(sim._seq), proc, value, None))
            return self
        self._waiters = []
        discarded, self._discarded = self._discarded, None
        sim = self.sim
        immediate = sim._immediate
        seq = sim._seq
        if discarded:
            for proc in waiters:
                if proc not in discarded:
                    proc._waiting_on = None
                    immediate.append((next(seq), proc, value, None))
        else:
            for proc in waiters:
                proc._waiting_on = None
                immediate.append((next(seq), proc, value, None))
        return self

    def _add_waiter(self, proc: "SimProcess") -> None:
        if self._triggered:
            self.sim._schedule_resume(proc, self._value)
            return
        discarded = self._discarded
        if discarded and proc in discarded:
            # The process waited here before, was interrupted, and is now
            # waiting again: compact so its stale tombstoned entry cannot
            # shadow (or outrank) the new one.
            self._waiters = [p for p in self._waiters if p not in discarded]
            discarded.clear()
        self._waiters.append(proc)

    def _discard_waiter(self, proc: "SimProcess") -> None:
        discarded = self._discarded
        if discarded is None:
            discarded = self._discarded = set()
        discarded.add(proc)
        if len(discarded) * 2 >= len(self._waiters):
            self._waiters = [p for p in self._waiters if p not in discarded]
            discarded.clear()

    def __repr__(self) -> str:
        state = "triggered" if self._triggered else "pending"
        return f"Event({self.name!r}, {state})"


class SimProcess:
    """A running simulation process wrapping a generator.

    Other processes may ``yield`` a :class:`SimProcess` to join it.  The
    generator's ``return`` value becomes the join result.
    """

    __slots__ = (
        "sim",
        "gen",
        "_send",
        "name",
        "done",
        "result",
        "_joiners",
        "_waiting_on",
        "_resume_scheduled",
        "daemon",
        "telemetry_stack",
    )

    def __init__(
        self, sim: "Simulator", gen: Generator, name: str = "", daemon: bool = False
    ):
        self.sim = sim
        self.gen = gen
        self._send = gen.send
        self.name = name or getattr(gen, "__name__", "process")
        #: Daemon processes are service loops (NIC engines, dispatchers)
        #: for which waiting forever on an empty work queue is the normal
        #: idle state: deadlock reports list them separately and the health
        #: monitor's stall detector ignores them.
        self.daemon = daemon
        self.done = False
        self.result: Any = None
        self._joiners: list[SimProcess] = []
        self._waiting_on: Optional[Event] = None
        self._resume_scheduled = False
        #: Open telemetry span ids of this process (innermost last); used by
        #: repro.telemetry for implicit parent links.  None until first used.
        self.telemetry_stack: Optional[list] = None

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt this process if it is waiting; no-op when done."""
        if self.done:
            return
        if self._waiting_on is not None:
            self._waiting_on._discard_waiter(self)
            self._waiting_on = None
        self.sim._schedule_throw(self, Interrupted(cause))

    def _add_joiner(self, proc: "SimProcess") -> None:
        if self.done:
            self.sim._schedule_resume(proc, self.result)
        else:
            self._joiners.append(proc)

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        joiners, self._joiners = self._joiners, []
        for proc in joiners:
            self.sim._schedule_resume(proc, result)

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"SimProcess({self.name!r}, {state})"


class Simulator:
    """The event loop: an immediate deque in front of a (time, seq) heap."""

    def __init__(self):
        self.now: float = 0.0
        #: Delayed entries: (time, seq, fn, proc, value, exc).  ``fn`` is
        #: set for explicit ``schedule`` callbacks; process resumes carry
        #: the record fields directly so no closure is allocated.
        self._queue: list = []
        #: Zero-delay resumes at the current clock value: (seq, proc,
        #: value, exc).  Drained ahead of the heap in shared-seq order.
        self._immediate: deque = deque()
        self._seq = itertools.count()
        self._stopped = False
        #: Total scheduler dispatches executed (``sim.events`` in the
        #: end-to-end benchmark).
        self.events_processed: int = 0
        #: The process currently being stepped (None between steps); lets
        #: the telemetry collector attribute spans to their emitting process.
        self.current: Optional[SimProcess] = None
        #: Installed by Machine.enable_telemetry; None costs one predicate.
        self.telemetry = None
        #: Installed by Machine.enable_monitor: the layers' ``note_*`` hook
        #: target and the loop's livelock sentinel (one predicate per 16 K
        #: immediate dispatches).  Install before ``run`` is entered.
        self.monitor = None
        #: Virtual-time observers (the health monitor, the metrics
        #: registry): each has a ``next_tick`` deadline and a
        #: ``tick(now, dispatched)`` method the heap branch calls once the
        #: clock reaches it.  Pure observers: a tick reads state, never
        #: schedules.  The loop hoists the list, so append before ``run``.
        self.observers: list = []
        #: Every spawned process, pruned of finished ones as it grows; the
        #: registry is what lets deadlock reports and the health monitor
        #: enumerate still-blocked processes.
        self._processes: list = []
        self._prune_at = 64

    # -- scheduling primitives ------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` microseconds of virtual time."""
        if not delay >= 0:
            raise SimulationError(f"negative or NaN delay: {delay}")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._seq), fn, None, None, None)
        )

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def spawn(self, gen: Generator, name: str = "", daemon: bool = False) -> SimProcess:
        """Start a new process from a generator; it begins at the current time.

        ``daemon=True`` marks a long-lived service loop whose idle wait on
        an empty work queue is expected: deadlock diagnostics summarize
        daemons instead of listing them, and stall detection skips them.
        """
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(gen).__name__}; "
                "did you forget to call the process function?"
            )
        proc = SimProcess(self, gen, name, daemon)
        if self.telemetry is not None:
            self.telemetry.instant("sim.spawn", -1, "sim", proc=proc.name)
        procs = self._processes
        procs.append(proc)
        if len(procs) >= self._prune_at:
            self._processes = procs = [p for p in procs if not p.done]
            self._prune_at = max(64, 2 * len(procs))
        self._immediate.append((next(self._seq), proc, None, None))
        return proc

    # -- internal resume machinery --------------------------------------

    def _schedule_resume(self, proc: SimProcess, value: Any) -> None:
        proc._waiting_on = None
        self._immediate.append((next(self._seq), proc, value, None))

    def _schedule_throw(self, proc: SimProcess, exc: BaseException) -> None:
        self._immediate.append((next(self._seq), proc, None, exc))

    def _dispatch(self, proc: SimProcess, request: Any) -> None:
        """Generic (subclass-tolerant) request dispatch; the error path.

        An unsupported request is thrown back into the process as a
        :class:`SimulationError`; whatever the process yields next is
        dispatched the same way, until one request is accepted or the
        process finishes.
        """
        while True:
            cls = request.__class__
            # Strictly ``float``: ints (and bools) stay errors, so a stray
            # ``yield count`` fails loudly instead of silently sleeping.
            if cls is float and request >= 0.0:
                delay, value = request, None
            elif isinstance(request, Timeout):
                delay, value = request.delay, request.value
            elif isinstance(request, Event):
                proc._waiting_on = request
                request._add_waiter(proc)
                return
            elif isinstance(request, SimProcess):
                request._add_joiner(proc)
                return
            else:
                problem = "invalid delay" if cls is float else "unsupported request"
                exc = SimulationError(
                    f"process {proc.name!r} yielded {problem}: {request!r}"
                )
                self.current = proc
                try:
                    request = proc.gen.throw(exc)
                except StopIteration as stop:
                    proc._finish(stop.value)
                    return
                finally:
                    self.current = None
                continue
            heapq.heappush(
                self._queue,
                (self.now + delay, next(self._seq), None, proc, value, None),
            )
            return

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queues drain or the clock passes ``until``.

        Returns the simulation time at which the run stopped.  ``until``
        earlier than the current time is an error: the clock never moves
        backwards.
        """
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"run(until={until!r}) is before the current time {self.now!r}"
            )
        self._stopped = False
        immediate = self._immediate
        queue = self._queue
        pop = heapq.heappop
        popleft = immediate.popleft
        seq_counter = self._seq
        # The monitor's livelock sentinel and the virtual-time observers,
        # hoisted like the queues: with none installed the heap branch pays
        # one float comparison against an infinite deadline.
        monitor = self.monitor
        observers = self.observers
        next_tick = min([o.next_tick for o in observers], default=_INF)
        dispatched = 0
        # Local mirror of the clock: only this loop ever writes ``self.now``,
        # so the mirror is kept exact by updating both together.
        now = self.now
        try:
            while not self._stopped:
                # Select the next record; both branches fall through to the
                # one resume-and-dispatch body below.
                if immediate:
                    # Heap entries already due *now* with an older seq must
                    # run first to preserve the global (time, seq) order.
                    if queue and queue[0][0] <= now and queue[0][1] < immediate[0][0]:
                        _time, _seq, fn, proc, value, exc = pop(queue)
                        dispatched += 1
                        if fn is not None:
                            fn()
                            continue
                    else:
                        _seq, proc, value, exc = popleft()
                        dispatched += 1
                        if monitor is not None and (dispatched & 16383) == 0:
                            # Livelock sentinel: fires on dispatch count, so
                            # a storm spinning at one instant (which never
                            # pops the heap) is still observed.
                            monitor._event_tick(now, dispatched)
                else:
                    if not queue:
                        break
                    time = queue[0][0]
                    if until is not None and time > until:
                        self.now = until
                        return until
                    _time, _seq, fn, proc, value, exc = pop(queue)
                    if time < now:
                        raise SimulationError("event queue went backwards in time")
                    self.now = now = time
                    dispatched += 1
                    if time >= next_tick:
                        # Observer tick (health watchdog, metrics cadence):
                        # read-only work outside virtual time.
                        for observer in observers:
                            if time >= observer.next_tick:
                                observer.tick(time, dispatched)
                        next_tick = min(
                            [o.next_tick for o in observers], default=_INF
                        )
                    if fn is not None:
                        fn()
                        continue
                # The resume-and-dispatch body, fused inline: one Python
                # call per event is a measurable share of the loop at this
                # event rate.
                if proc.done:
                    continue
                self.current = proc
                try:
                    if exc is not None:
                        request = proc.gen.throw(exc)
                    else:
                        request = proc._send(value)
                except StopIteration as stop:
                    proc._finish(stop.value)
                    self.current = None
                    continue
                self.current = None
                # Exact-type dispatch: the request classes are final in
                # practice, so one identity check replaces the isinstance
                # chain; anything else (subclasses, invalid delays, errors)
                # goes to the generic ``_dispatch``.
                cls = request.__class__
                if cls is Timeout:
                    _heappush(
                        queue,
                        (
                            now + request.delay,
                            next(seq_counter),
                            None,
                            proc,
                            request.value,
                            None,
                        ),
                    )
                elif cls is float and request >= 0.0:
                    # Bare-float delay: Timeout(delay) without the request
                    # object.  NaN and negative delays fail the comparison.
                    _heappush(
                        queue,
                        (now + request, next(seq_counter), None, proc, None, None),
                    )
                elif cls is Event:
                    proc._waiting_on = request
                    # Inlined _add_waiter fast path (untriggered, no
                    # tombstone for this proc): just append.
                    if request._triggered or request._discarded:
                        request._add_waiter(proc)
                    else:
                        request._waiters.append(proc)
                elif cls is SimProcess:
                    request._add_joiner(proc)
                else:
                    self._dispatch(proc, request)
        finally:
            self.current = None
            self.events_processed += dispatched
        return self.now

    # -- introspection ---------------------------------------------------

    def live_processes(self) -> list:
        """Every spawned process that has not finished yet."""
        return [p for p in self._processes if not p.done]

    def blocked_processes(self) -> list:
        """``(process, description)`` for each live process's wait state.

        Event waits (including Resource/Queue/Signal gates, which carry
        their primitive's name) come from ``_waiting_on``; join waits
        (``yield child``) are recovered by scanning the join lists of the
        other live processes.  A live process with neither is scheduled
        (sleeping in the heap or already runnable), not blocked.
        """
        live = self.live_processes()
        join_target: dict = {}
        for target in live:
            for waiter in target._joiners:
                join_target[id(waiter)] = target
        report = []
        for proc in live:
            event = proc._waiting_on
            if event is not None:
                desc = f"event {event.name!r}" if event.name else "an unnamed event"
            else:
                target = join_target.get(id(proc))
                if target is not None:
                    desc = f"join of process {target.name!r}"
                else:
                    desc = "no recorded wait (scheduled or interrupted)"
            report.append((proc, desc))
        return report

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn a process, run to completion, and return its result."""
        proc = self.spawn(gen, name)
        self.run()
        if not proc.done:
            blocked = self.blocked_processes()
            workers = [(p, desc) for p, desc in blocked if not p.daemon]
            daemons = [p for p, _desc in blocked if p.daemon]
            detail = "".join(
                f"\n  - {p.name!r} waiting on {desc}" for p, desc in workers
            )
            if daemons:
                names = ", ".join(p.name for p in daemons)
                detail += (
                    f"\n  (+{len(daemons)} idle service process(es): {names})"
                )
            exc = SimulationError(
                f"process {proc.name!r} did not finish (deadlock: event "
                f"queue drained with {len(blocked)} process(es) still "
                f"waiting){detail}"
            )
            exc.blocked = blocked
            raise exc
        return proc.result

    def stop(self) -> None:
        """Stop the run loop after the current action."""
        self._stopped = True
