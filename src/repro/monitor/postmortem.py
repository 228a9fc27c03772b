"""Postmortem state dumps: who is stuck on what, and why.

:func:`capture` freezes a machine's wait-for state into a
:class:`Postmortem`: every live process with the primitive it waits on
(gate events are mapped back to their owning Resource/Queue/Signal via the
run-scoped :data:`repro.sim.resources.PRIMITIVES` registry), recorded
resource holders, terminal deadlock cycles over the waits-on/held-by
graph, the pending-timer heap, any injected link outages active at capture
time, and — when a :class:`~repro.monitor.health.HealthMonitor` is
attached — its trips and the flight-recorder tail.

The report answers the question the bare "deadlock" error cannot: *which*
process is parked on *which* primitive, who holds it, and what the machine
was doing just before it wedged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..telemetry.events import TelemetryEvent

__all__ = ["Postmortem", "capture", "describe_event", "events_to_json"]


def events_to_json(events: List[TelemetryEvent]) -> List[dict]:
    """JSON-serializable form of a telemetry event list (order preserved)."""
    return [
        {
            "phase": e.phase,
            "name": e.name,
            "time": e.time,
            "node": e.node,
            "track": e.track,
            "span_id": e.span_id,
            "parent_id": e.parent_id,
            "args": {k: repr(v) for k, v in e.args.items()},
        }
        for e in events
    ]


def _primitive_index() -> Dict[int, Tuple[str, Any]]:
    """Map id(gate event) -> (kind, primitive) over the live registry."""
    from ..sim.resources import PRIMITIVES, Queue, Resource, Signal

    index: Dict[int, Tuple[str, Any]] = {}
    for prim in PRIMITIVES:
        if isinstance(prim, Resource):
            for gate in prim._waiters:
                index[id(gate)] = ("Resource", prim)
        elif isinstance(prim, Queue):
            for gate in prim._getters:
                index[id(gate)] = ("Queue", prim)
        elif isinstance(prim, Signal):
            index[id(prim._event)] = ("Signal", prim)
    return index


def describe_event(event, index: Optional[Dict[int, Tuple[str, Any]]] = None) -> str:
    """Name the primitive behind a waited-on event, or the event itself."""
    if index is None:
        index = _primitive_index()
    entry = index.get(id(event))
    if entry is not None:
        kind, prim = entry
        return f"{kind} {prim.name!r}"
    if event.name:
        return f"event {event.name!r}"
    return "an unnamed event"


@dataclass
class Postmortem:
    """A frozen wait-for snapshot of one machine."""

    time: float
    #: One entry per live process: name, state ("blocked"/"sleeping"/
    #: "scheduled"), waits_on description, primitive kind/name, holders.
    processes: List[Dict[str, Any]]
    #: Rendered wait-for cycles (terminal deadlocks when no timers remain).
    cycles: List[List[str]]
    pending_timers: int
    next_timer_at: Optional[float]
    #: Injected link outages active at capture time: (link, start, end).
    down_links: List[Tuple[Any, float, float]] = field(default_factory=list)
    trips: list = field(default_factory=list)
    recording: list = field(default_factory=list)
    total_recorded: int = 0

    @property
    def blocked(self) -> List[Dict[str, Any]]:
        return [p for p in self.processes if p["state"] == "blocked"]

    @property
    def deadlocked(self) -> bool:
        """Cycles exist and no timer can break them."""
        return bool(self.cycles) and self.pending_timers == 0

    def render(self, events: int = 12) -> str:
        """The human-readable postmortem report."""
        lines = [f"=== postmortem @ t={self.time:.3f}us ==="]
        if self.trips:
            lines.append(f"monitor trips: {len(self.trips)}")
            for trip in self.trips:
                lines.append("  " + trip.render())
        blocked = self.blocked
        workers = [p for p in blocked if not p.get("daemon")]
        daemons = [p for p in blocked if p.get("daemon")]
        lines.append(
            f"blocked processes: {len(blocked)} of {len(self.processes)} live"
        )
        for entry in workers:
            line = f"  - {entry['process']!r} waiting on {entry['waits_on']}"
            if entry.get("holders"):
                line += " (held by " + ", ".join(
                    repr(h) for h in entry["holders"]
                ) + ")"
            lines.append(line)
        if daemons:
            names = ", ".join(repr(p["process"]) for p in daemons[:8])
            more = "" if len(daemons) <= 8 else f" (+{len(daemons) - 8} more)"
            lines.append(
                f"  idle service processes (daemons): {len(daemons)}: "
                f"{names}{more}"
            )
        sleeping = [p for p in self.processes if p["state"] == "sleeping"]
        if sleeping:
            names = ", ".join(repr(p["process"]) for p in sleeping[:6])
            more = "" if len(sleeping) <= 6 else f" (+{len(sleeping) - 6} more)"
            lines.append(f"sleeping processes: {len(sleeping)}: {names}{more}")
        if self.pending_timers:
            lines.append(
                f"pending timers: {self.pending_timers} "
                f"(next due at t={self.next_timer_at:.3f}us)"
            )
        else:
            lines.append("pending timers: none (the event queue is drained)")
        if self.cycles:
            verdict = "DEADLOCK" if self.deadlocked else "cycle (timers pending)"
            lines.append(f"wait-for cycles: {len(self.cycles)} -- {verdict}")
            for cycle in self.cycles:
                lines.append("  " + " -> ".join(cycle))
        if self.down_links:
            rendered = ", ".join(
                f"link{link} (down {start:.1f}.."
                f"{'inf' if end == float('inf') else f'{end:.1f}'})"
                for link, start, end in self.down_links
            )
            lines.append(f"links down at capture: {rendered}")
        if self.recording:
            tail = self.recording[-events:] if events else self.recording
            discarded = self.total_recorded - len(self.recording)
            lines.append(
                f"flight recorder: last {len(tail)} of {self.total_recorded} "
                f"telemetry events ({discarded} older events discarded)"
            )
            for event in tail:
                lines.append(
                    f"  [{event.time:12.3f}us] n{event.node:<2} "
                    f"{event.phase} {event.name} {event.describe()}"
                )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "time": self.time,
            "deadlocked": self.deadlocked,
            "processes": self.processes,
            "cycles": self.cycles,
            "pending_timers": self.pending_timers,
            "next_timer_at": self.next_timer_at,
            "down_links": [
                {"link": list(link), "start": start,
                 "end": None if end == float("inf") else end}
                for link, start, end in self.down_links
            ],
            "trips": [trip.to_json() for trip in self.trips],
            "flight_recorder": events_to_json(self.recording),
            "total_recorded": self.total_recorded,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)

    def __repr__(self) -> str:
        return (
            f"Postmortem(t={self.time:.3f}, {len(self.blocked)} blocked, "
            f"{len(self.cycles)} cycles, {len(self.trips)} trips)"
        )


def capture(machine, monitor=None) -> Postmortem:
    """Freeze ``machine``'s wait-for state into a :class:`Postmortem`.

    Works with or without a health monitor; with one attached (or found on
    the machine) the dump also carries its trips and flight-recorder tail,
    and resource-holder edges recorded while the monitor was live.
    """
    if monitor is None:
        monitor = getattr(machine, "monitor", None)
    sim = machine.sim
    index = _primitive_index()
    live = sim.live_processes()

    # Join edges: waiter -> the process it joined on.
    join_target: Dict[int, Any] = {}
    for target in live:
        for waiter in target._joiners:
            join_target[id(waiter)] = target
    # Sleepers: processes parked in the timer heap.
    sleeping_until: Dict[int, float] = {}
    for entry in sim._queue:
        proc = entry[3]
        if proc is not None and not proc.done:
            due = entry[0]
            key = id(proc)
            if key not in sleeping_until or due < sleeping_until[key]:
                sleeping_until[key] = due

    processes: List[Dict[str, Any]] = []
    edges: Dict[int, List[Tuple[str, Any]]] = {}
    by_id: Dict[int, Any] = {id(p): p for p in live}
    for proc in live:
        entry: Dict[str, Any] = {"process": proc.name}
        if proc.daemon:
            entry["daemon"] = True
        event = proc._waiting_on
        if event is not None:
            entry["state"] = "blocked"
            entry["waits_on"] = describe_event(event, index)
            prim_entry = index.get(id(event))
            if prim_entry is not None:
                kind, prim = prim_entry
                entry["primitive"] = {"kind": kind, "name": prim.name}
                holders = getattr(prim, "holders", None)
                if holders:
                    entry["holders"] = [h.name for h in holders]
                    label = f"{kind} {prim.name!r}"
                    edges[id(proc)] = [(label, h) for h in holders]
            elif event.name:
                entry["primitive"] = {"kind": "Event", "name": event.name}
        elif id(proc) in join_target:
            target = join_target[id(proc)]
            entry["state"] = "blocked"
            entry["waits_on"] = f"join of process {target.name!r}"
            edges[id(proc)] = [(f"join of {target.name!r}", target)]
        elif id(proc) in sleeping_until:
            entry["state"] = "sleeping"
            entry["waits_on"] = f"timer due at t={sleeping_until[id(proc)]:.3f}us"
        else:
            entry["state"] = "scheduled"
            entry["waits_on"] = "no recorded wait (runnable or interrupted)"
        processes.append(entry)

    cycles = _find_cycles(live, edges, by_id)

    pending = len(sim._queue)
    next_at = min((entry[0] for entry in sim._queue), default=None)

    down: List[Tuple[Any, float, float]] = []
    plan = getattr(machine, "fault_plan", None)
    if plan is not None and plan.outages:
        now = sim.now
        for link, windows in sorted(plan.outages.items()):
            for start, end in windows:
                if start <= now < end:
                    down.append((link, start, end))
                    break

    trips = list(monitor.trips) if monitor is not None else []
    recording = monitor.recording() if monitor is not None else []
    total = monitor.observed if monitor is not None else 0
    return Postmortem(
        time=sim.now,
        processes=processes,
        cycles=cycles,
        pending_timers=pending,
        next_timer_at=next_at,
        down_links=down,
        trips=trips,
        recording=recording,
        total_recorded=total,
    )


def _find_cycles(live, edges, by_id, limit: int = 8) -> List[List[str]]:
    """Cycles in the waits-on/held-by graph, rendered edge by edge.

    ``edges`` maps id(process) -> [(label, blocking process), ...]; a cycle
    is a process that transitively blocks itself.  Each cycle is reported
    once, from its lowest-named member.
    """
    cycles: List[List[str]] = []
    seen_cycles = set()
    for start in live:
        if len(cycles) >= limit:
            break
        # Iterative DFS from each process; path tracks the chain of
        # (proc, label) pairs so the cycle can be rendered.
        path: List[Tuple[Any, str]] = []
        on_path: Dict[int, int] = {}
        stack: List[Tuple[Any, str, int]] = [(start, "", 0)]
        visited = set()
        while stack:
            proc, label, depth = stack.pop()
            del path[depth:]
            for key in list(on_path):
                if on_path[key] >= depth:
                    del on_path[key]
            if id(proc) in on_path:
                cycle_start = on_path[id(proc)]
                members = path[cycle_start:] + [(proc, label)]
                signature = frozenset(id(p) for p, _lbl in members)
                if signature not in seen_cycles:
                    seen_cycles.add(signature)
                    rendered = [repr(members[0][0].name)]
                    for index in range(1, len(members)):
                        rendered.append(members[index][1])
                        rendered.append(repr(members[index][0].name))
                    cycles.append(rendered)
                continue
            if id(proc) in visited:
                continue
            visited.add(id(proc))
            path.append((proc, label))
            on_path[id(proc)] = depth
            for edge_label, blocker in edges.get(id(proc), ()):
                stack.append((blocker, edge_label, depth + 1))
    return cycles
