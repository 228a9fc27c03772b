"""The health monitor: watchdogs and invariant monitors over a live run.

One :class:`HealthMonitor` is installed per machine
(:meth:`repro.node.machine.Machine.enable_monitor`), following the same
zero-overhead contract as telemetry and fault plans: every hook site gates
on ``sim.monitor is None`` with a single predicate, and a monitor-off run
is byte-for-byte identical to a build without the subsystem.  With the
monitor installed, every check runs *outside* virtual time — the monitor
observes the machine, it never schedules anything — so enabling it cannot
perturb what the simulated hardware does, only what is recorded about it.

Detectors, and where their observations come from:

* **process stalls** — the engine's virtual-time tick
  (:meth:`tick`, driven from the run loop's heap branch) scans
  ``SimProcess._waiting_on``: a process parked on the *same* event past
  ``stall_timeout_us`` trips ``process_stall``.  Daemon service loops
  (spawned with ``daemon=True``) idle forever by design and are exempt.
* **livelock** — the dispatch-count tick (:meth:`_event_tick`) counts
  scheduler dispatches at a single instant; a storm spinning through the
  immediate queue without advancing the clock trips ``livelock``.
* **FIFO watermarks** — the outgoing FIFO reports its fill synchronously
  on every ``put``; a fill of :data:`FIFO_HIGH_WATER` of its capacity
  trips ``fifo_watermark``.  Receive-FIFO fills are sampled each check
  interval against :data:`RX_HIGH_WATER` (``rx_watermark``), and a
  fault-injected overflow discard trips ``rx_overflow`` immediately.
* **wait-queue depth** — every named Resource/Queue/Signal of the run
  (the :data:`repro.sim.resources.PRIMITIVES` registry) is sampled for
  waiter depth (``wait_queue_depth``), the many-to-one contention
  signature of paper section 4.3.
* **retransmit storms** — the reliable channel reports each go-back-N
  round; more than ``retx_storm_rounds`` rounds inside ``retx_window_us``
  trips ``retx_storm``, and an exhausted retry budget trips
  ``delivery_failed`` — both annotated with any injected link outage
  covering the storm, so the report names the dead link.
* **link saturation** — per-link busy time is differenced each check
  interval; :data:`SATURATED_WINDOWS` consecutive intervals busy at least
  :data:`SATURATED_UTILIZATION` of the time trip ``link_saturated``.

Each trip copies the flight recorder — the last
``flight_recorder_events`` telemetry events recorded since the monitor
armed, read from the collector's own stream — so the postmortem carries
what the machine was doing right before it wedged.  Trips are latched
per ``(kind, subject)``: a condition that stays bad yields one trip, and
re-trips only after it clears and recurs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..telemetry.events import TelemetryEvent
from .config import MonitorConfig
from .postmortem import capture, describe_event, events_to_json

__all__ = ["HealthMonitor", "Trip"]

#: Fill fractions of the outgoing and the receive FIFO that trip
#: ``fifo_watermark`` and ``rx_watermark``.
FIFO_HIGH_WATER = 0.95
RX_HIGH_WATER = 0.95
#: Utilization at or above which a link counts as saturated for one check
#: interval, and the consecutive saturated intervals that trip
#: ``link_saturated``.
SATURATED_UTILIZATION = 0.999
SATURATED_WINDOWS = 8


@dataclass
class Trip:
    """One detector firing: what tripped, on what, and the evidence."""

    kind: str
    time: float
    subject: str
    detail: str
    data: Dict[str, Any] = field(default_factory=dict)
    #: The flight recorder (trailing telemetry events) at trip time.
    recording: list = field(default_factory=list)

    def render(self) -> str:
        return f"[t={self.time:12.3f}us] {self.kind:<16} {self.subject}: {self.detail}"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "time": self.time,
            "subject": self.subject,
            "detail": self.detail,
            "data": {k: repr(v) if not _jsonable(v) else v for k, v in self.data.items()},
            "recording": events_to_json(self.recording),
        }

    def __repr__(self) -> str:
        return f"Trip({self.kind!r}, t={self.time:.3f}, {self.subject!r})"


def _jsonable(value: Any) -> bool:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return True
    if isinstance(value, (list, tuple)):
        return all(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _jsonable(v) for k, v in value.items())
    return False


class HealthMonitor:
    """Runtime health monitoring for one machine.

    Create via :meth:`repro.node.machine.Machine.enable_monitor`; the
    constructor arms the telemetry collector (the flight recorder is a
    window over its events), installs itself as ``sim.monitor`` (the layers'
    ``note_*`` hook target) and joins ``sim.observers``.  Install before
    the first ``sim.run()`` — the run loop hoists both.
    """

    def __init__(self, machine, config: Optional[MonitorConfig] = None):
        self.machine = machine
        self.sim = machine.sim
        self.config = config or MonitorConfig()
        cfg = self.config
        #: The flight recorder reads the collector's events, so a monitor
        #: implies an armed collector; it starts at the event count here.
        self.telemetry = machine.enable_telemetry()
        self.telemetry.keep_overflow(cfg.flight_recorder_events)
        self._armed_at = self.telemetry.recorded
        #: Trips in detection order (capped at ``config.max_trips``).
        self.trips: List[Trip] = []
        self.trip_counts: Dict[str, int] = {}
        self.dropped_trips = 0
        #: (kind, subject) pairs currently latched: the condition has
        #: tripped and not yet cleared.
        self._latched: set = set()
        # Stall scan state: id(proc) -> [event, since, proc].
        self._stall_state: Dict[int, list] = {}
        # Livelock state: the instant being watched and dispatch ticks seen.
        self._livelock_time = -1.0
        self._livelock_ticks = 0
        # Retransmit-round timestamps per channel id (pruned to the window).
        self._retx_rounds: Dict[int, deque] = {}
        # Link-saturation state: cumulative busy and consecutive hot windows.
        self._link_busy: Dict[Any, float] = {}
        self._link_hot: Dict[Any, int] = {}
        self._last_scan = self.sim.now
        #: Next virtual time the run loop should call :meth:`tick`.
        self.next_tick = self.sim.now + cfg.check_interval_us
        machine.sim.monitor = self
        machine.sim.observers.append(self)

    # -- status ----------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """True while no detector has tripped."""
        return not self.trips and not self.dropped_trips

    def tripped(self, kind: Optional[str] = None) -> List[Trip]:
        """Recorded trips, optionally filtered by kind."""
        if kind is None:
            return list(self.trips)
        return [t for t in self.trips if t.kind == kind]

    @property
    def observed(self) -> int:
        """Telemetry events recorded since the monitor armed."""
        return self.telemetry.recorded - self._armed_at

    def recording(self) -> List[TelemetryEvent]:
        """The flight recorder: the last ``flight_recorder_events``
        telemetry events recorded since the monitor armed, oldest first."""
        return self.telemetry.tail(
            self.config.flight_recorder_events, self._armed_at
        )

    def report(self) -> str:
        """A human-readable summary of the monitor's findings."""
        if self.healthy:
            return (
                f"health monitor: healthy (0 trips, "
                f"{self.observed} telemetry events observed)"
            )
        kinds = ", ".join(
            f"{kind} x{count}" for kind, count in sorted(self.trip_counts.items())
        )
        lines = [f"health monitor: {len(self.trips)} trip(s) ({kinds})"]
        if self.dropped_trips:
            lines[0] += f", {self.dropped_trips} further trip(s) not stored"
        for trip in self.trips:
            lines.append("  " + trip.render())
        return "\n".join(lines)

    def postmortem(self):
        """Capture the machine's wait-for state as a :class:`Postmortem`."""
        return capture(self.machine, monitor=self)

    # -- engine hooks (called from the run loop) -------------------------

    def _event_tick(self, now: float, dispatched: int) -> None:
        """Dispatch-count sentinel: ~every 16 K immediate dispatches."""
        if now == self._livelock_time:
            self._livelock_ticks += 1
            if self._livelock_ticks * 16384 >= self.config.livelock_events:
                self._trip(
                    "livelock",
                    "scheduler",
                    f"~{self._livelock_ticks * 16384} dispatches with the "
                    f"clock stuck at t={now:.3f}us",
                    instant=now,
                    dispatches=self._livelock_ticks * 16384,
                )
        else:
            self._livelock_time = now
            self._livelock_ticks = 1
            self._unlatch("livelock", "scheduler")

    def tick(self, now: float, dispatched: int) -> None:
        """Virtual-time watchdog tick: runs the sampled scans."""
        self.next_tick = now + self.config.check_interval_us
        self._unlatch("livelock", "scheduler")
        self._scan_stalls(now)
        self._scan_fifos(now)
        self._scan_wait_queues(now)
        self._scan_links(now)
        self._last_scan = now

    # -- sampled scans ---------------------------------------------------

    def _scan_stalls(self, now: float) -> None:
        cfg = self.config
        state = self._stall_state
        fresh: Dict[int, list] = {}
        for proc in self.sim.live_processes():
            event = proc._waiting_on
            if event is None or proc.daemon:
                # Daemon service loops (NIC engines, dispatchers) idle on
                # their work queues indefinitely by design — not a stall.
                continue
            key = id(proc)
            record = state.get(key)
            if record is not None and record[0] is event:
                fresh[key] = record
                waited = now - record[1]
                if waited >= cfg.stall_timeout_us:
                    self._trip(
                        "process_stall",
                        proc.name,
                        f"waiting on {describe_event(event)} for "
                        f"{waited:.0f}us (since t={record[1]:.3f}us)",
                        since=record[1],
                        waited_us=waited,
                    )
            else:
                fresh[key] = [event, now, proc]
        self._stall_state = fresh

    def _scan_fifos(self, now: float) -> None:
        rx_capacity = max(self.machine.params.rx_fifo_bytes, 1)
        for node in self.machine.nodes:
            nic = node.nic
            fifo = nic.fifo
            self._watermark(
                "fifo_watermark",
                fifo.name,
                fifo.fill_bytes / fifo.capacity,
                FIFO_HIGH_WATER,
                f"outgoing FIFO at {fifo.fill_bytes}/{fifo.capacity} bytes",
                node=node.node_id,
                fill=fifo.fill_bytes,
                capacity=fifo.capacity,
            )
            self._watermark(
                "rx_watermark",
                f"rxfifo.n{node.node_id}",
                nic._rx_fill / rx_capacity,
                RX_HIGH_WATER,
                f"receive FIFO at {nic._rx_fill}/{rx_capacity} bytes",
                node=node.node_id,
                fill=nic._rx_fill,
                capacity=rx_capacity,
            )

    def _scan_wait_queues(self, now: float) -> None:
        from ..sim.resources import PRIMITIVES, Queue, Resource, Signal

        watermark = self.config.wait_queue_watermark
        for prim in PRIMITIVES:
            if isinstance(prim, Resource):
                depth = len(prim._waiters)
                what = "Resource"
            elif isinstance(prim, Queue):
                depth = len(prim._getters)
                what = "Queue"
            elif isinstance(prim, Signal):
                depth = prim.waiter_count
                what = "Signal"
            else:  # pragma: no cover - registry holds only the three kinds
                continue
            if depth >= watermark:
                self._trip(
                    "wait_queue_depth",
                    prim.name,
                    f"{depth} process(es) queued on {what} {prim.name!r}",
                    depth=depth,
                    primitive=what,
                )
            else:
                self._unlatch("wait_queue_depth", prim.name)

    def _scan_links(self, now: float) -> None:
        interval = now - self._last_scan
        if interval <= 0:
            return
        for link_id, link in self.machine.backplane._links.items():
            busy = link.busy_time
            if link._busy_since is not None:
                busy += now - link._busy_since
            previous = self._link_busy.get(link_id, 0.0)
            self._link_busy[link_id] = busy
            utilization = (busy - previous) / interval
            if utilization >= SATURATED_UTILIZATION:
                hot = self._link_hot.get(link_id, 0) + 1
                self._link_hot[link_id] = hot
                if hot >= SATURATED_WINDOWS:
                    self._trip(
                        "link_saturated",
                        link.name,
                        f"busy {utilization:.1%} for {hot} consecutive "
                        f"check intervals",
                        link=list(link_id),
                        windows=hot,
                    )
            else:
                self._link_hot[link_id] = 0
                self._unlatch("link_saturated", link.name)

    def _watermark(
        self,
        kind: str,
        subject: str,
        fraction: float,
        threshold: float,
        detail: str,
        **data: Any,
    ) -> None:
        if fraction >= threshold:
            self._trip(
                kind,
                subject,
                f"{detail} ({fraction:.1%} >= {threshold:.1%} watermark)",
                fraction=fraction,
                **data,
            )
        else:
            self._unlatch(kind, subject)

    # -- synchronous site hooks (called from instrumented layers) --------

    def note_fifo_fill(self, fifo, fill: int) -> None:
        """Outgoing-FIFO fill change (called from ``OutgoingFIFO.put``)."""
        self._watermark(
            "fifo_watermark",
            fifo.name,
            fill / fifo.capacity,
            FIFO_HIGH_WATER,
            f"outgoing FIFO at {fill}/{fifo.capacity} bytes",
            node=fifo.node,
            fill=fill,
            capacity=fifo.capacity,
        )

    def note_rx_overflow(self, node_id: int, packet) -> None:
        """A fault-injected receive-FIFO overflow discarded ``packet``."""
        self._trip(
            "rx_overflow",
            f"rxfifo.n{node_id}",
            f"receive FIFO overflow discarded a packet from node "
            f"{packet.src} ({packet.size} bytes)",
            node=node_id,
            src=packet.src,
            bytes=packet.size,
        )

    def note_retx_round(self, channel) -> None:
        """One go-back-N retransmission round on a reliable channel."""
        now = self.sim.now
        cfg = self.config
        rounds = self._retx_rounds.get(channel.channel_id)
        if rounds is None:
            rounds = self._retx_rounds[channel.channel_id] = deque()
        rounds.append(now)
        cutoff = now - cfg.retx_window_us
        while rounds and rounds[0] < cutoff:
            rounds.popleft()
        if len(rounds) >= cfg.retx_storm_rounds:
            down = self._down_links(self._channel_links(channel), rounds[0], now)
            suffix = f"; links down: {_render_down(down)}" if down else ""
            self._trip(
                "retx_storm",
                f"rel{channel.channel_id}",
                f"{len(rounds)} retransmission rounds within "
                f"{cfg.retx_window_us:.0f}us to node "
                f"{channel.imported.remote_node} "
                f"({channel.in_flight} packet(s) unacked){suffix}",
                channel=channel.channel_id,
                dst=channel.imported.remote_node,
                rounds=len(rounds),
                down_links=[list(link) for link, _s, _e in down],
            )

    def note_delivery_failed(self, channel, failure) -> None:
        """A reliable channel exhausted its retry budget."""
        now = self.sim.now
        rounds = self._retx_rounds.get(channel.channel_id)
        since = rounds[0] if rounds else now
        down = self._down_links(self._channel_links(channel), since, now)
        suffix = f"; links down: {_render_down(down)}" if down else ""
        self._trip(
            "delivery_failed",
            f"rel{channel.channel_id}",
            f"channel to node {channel.imported.remote_node} failed after "
            f"{channel._retries} retransmission rounds: {failure}{suffix}",
            channel=channel.channel_id,
            dst=channel.imported.remote_node,
            retries=channel._retries,
            down_links=[list(link) for link, _s, _e in down],
        )

    # -- fault-plan cross-referencing ------------------------------------

    def _channel_links(self, channel) -> List[Tuple[int, int]]:
        """Every directed link a channel's data or ack path crosses."""
        src = channel.endpoint.node.node_id
        dst = channel.imported.remote_node
        links: List[Tuple[int, int]] = []
        routes = self.machine.backplane._routes
        for pair in ((src, dst), (dst, src)):
            route = routes.get(pair)
            if route is not None:
                links.extend(route[0])
        return links

    def _down_links(
        self, links, since: float, now: float
    ) -> List[Tuple[Tuple[int, int], float, float]]:
        """Injected outages on ``links`` overlapping ``[since, now]``."""
        plan = self.machine.fault_plan
        if plan is None or not plan.outages:
            return []
        wanted = set(links) if links else None
        down = []
        for link, windows in sorted(plan.outages.items()):
            if wanted is not None and link not in wanted:
                continue
            for start, end in windows:
                if start <= now and end > since:
                    down.append((link, start, end))
                    break
        return down

    # -- trip bookkeeping -------------------------------------------------

    def _trip(self, kind: str, subject: str, detail: str, **data: Any):
        key = (kind, subject)
        if key in self._latched:
            return None
        self._latched.add(key)
        self.trip_counts[kind] = self.trip_counts.get(kind, 0) + 1
        if len(self.trips) >= self.config.max_trips:
            self.dropped_trips += 1
            return None
        trip = Trip(
            kind=kind,
            time=self.sim.now,
            subject=subject,
            detail=detail,
            data=data,
            recording=self.recording(),
        )
        self.trips.append(trip)
        self.telemetry.instant(
            "monitor.trip", -1, "monitor", kind=kind, subject=subject
        )
        return trip

    def _unlatch(self, kind: str, subject: str) -> None:
        self._latched.discard((kind, subject))

    def __repr__(self) -> str:
        state = "healthy" if self.healthy else f"{len(self.trips)} trips"
        recorded = len(self.recording())
        return f"HealthMonitor({state}, {recorded} events recorded)"


def _render_down(down) -> str:
    return ", ".join(
        f"link{link} (down {start:.1f}..{'inf' if end == float('inf') else f'{end:.1f}'})"
        for link, start, end in down
    )
