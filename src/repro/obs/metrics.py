"""The live metrics pipeline: probes sampled on a virtual-time cadence.

A :class:`MetricsRegistry` is a run-scoped set of **probes** — read-only
callables over state the simulator already maintains (stat counters, FIFO
fill levels, link busy bits, serve queue depths) — sampled into bounded
:class:`RingSeries` whenever the engine's clock crosses the next cadence
mark.  Install one with :meth:`repro.node.machine.Machine.enable_obs`.

The registry follows the health monitor's contract exactly (DESIGN.md
section 12): it is hooked from the run loop's heap branch behind a single
``is not None`` predicate, it never schedules anything, never consumes
virtual time, and never touches a sequence number — so an obs-off run is
byte-identical to a build without the subsystem, and an obs-on run has the
same trajectory as an obs-off one.  Probes may only *read*; a probe that
mutated simulation state would break that contract.

Memory is bounded twice over: each series holds at most ``cap`` points,
and on overflow it **decimates** — every other retained point is dropped
and the sampling stride doubles, so a series always covers the whole run
at progressively coarser (but uniform) resolution.  Amortized cost per
accepted sample stays O(1).

Exports: :meth:`MetricsRegistry.scrape` renders a Prometheus-style text
exposition of the latest values; ``jsonl_path`` streams one JSON object
per sample tick as the run executes; :meth:`MetricsRegistry.series_doc`
returns the full retained history for the HTML renderer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "RingSeries",
    "ObsConfig",
    "MetricsRegistry",
    "DEFAULT_COUNTER_PROBES",
]

#: The stat counters every registry probes.  Absent counters read 0
#: (StatsRegistry.counter_value), so arming obs never creates a counter a
#: telemetry snapshot would then show.
DEFAULT_COUNTER_PROBES: Tuple[str, ...] = (
    "net.packets",
    "net.bytes",
    "rx.packets",
    "rx.backpressure",
    "vmmc.reliable.packets",
    "vmmc.retx.packets",
    "vmmc.notifications",
    "coll.packets",
    "coll.ops_completed",
)


class RingSeries:
    """A bounded (time, value) series with stride-doubling decimation.

    Samples are *offered* on every cadence tick; the series retains one
    per ``stride`` offers.  When the retained list reaches ``cap``, every
    other point is dropped in place and the stride doubles — the series
    keeps covering the full run, at half the resolution.  ``offered``
    counts every tick, so nothing is silently truncated: the dropped
    share is visible as ``offered - len(points) * stride``.
    """

    __slots__ = ("name", "kind", "cap", "points", "stride", "offered")

    def __init__(self, name: str, kind: str = "gauge", cap: int = 512):
        if cap < 8:
            raise ValueError(f"series cap must be >= 8, got {cap}")
        if cap % 2:
            raise ValueError(f"series cap must be even, got {cap}")
        self.name = name
        #: "gauge" or "counter" (monotone), for the exposition TYPE line.
        self.kind = kind
        self.cap = cap
        self.points: List[Tuple[float, float]] = []
        self.stride = 1
        self.offered = 0

    def append(self, time: float, value: float) -> None:
        index = self.offered
        self.offered = index + 1
        if index % self.stride:
            return
        points = self.points
        points.append((time, value))
        if len(points) >= self.cap:
            # Keep offers 0, 2s, 4s, ... — still a uniform grid.
            del points[1::2]
            self.stride *= 2

    @property
    def last(self) -> Optional[Tuple[float, float]]:
        return self.points[-1] if self.points else None

    @property
    def last_value(self) -> float:
        return self.points[-1][1] if self.points else 0.0

    @property
    def max_value(self) -> float:
        return max((v for _t, v in self.points), default=0.0)

    def __repr__(self) -> str:
        return (
            f"RingSeries({self.name}: {len(self.points)} of "
            f"{self.offered} offered, stride {self.stride})"
        )


@dataclass(frozen=True)
class ObsConfig:
    """Knobs for one machine's metrics registry."""

    #: Virtual microseconds between samples.
    cadence_us: float = 50.0
    #: Retained points per series (even, >= 8); overflow decimates.
    cap: int = 512
    #: Stream one JSON object per sample tick to this path (None: off).
    jsonl_path: Optional[str] = None

    def __post_init__(self):
        if self.cadence_us <= 0:
            raise ValueError(f"cadence must be positive: {self.cadence_us}")


def _prom_name(name: str) -> str:
    safe = "".join(
        c if c.isalnum() or c == "_" else "_" for c in name
    )
    return f"repro_{safe}"


class MetricsRegistry:
    """Run-scoped probe set for one machine, sampled by the run loop.

    One of the engine's ``sim.observers``: the heap branch calls
    :meth:`tick` whenever the clock crosses ``next_tick`` — the same hook
    the health monitor uses, and with the same guarantee: a pure observer
    that cannot perturb the schedule.
    """

    def __init__(self, machine, config: Optional[ObsConfig] = None):
        self.machine = machine
        self.config = config or ObsConfig()
        self.series: Dict[str, RingSeries] = {}
        #: (name, fn) in registration order; sampled on every tick.
        self._probes: List[Tuple[str, Callable[[], float]]] = []
        self.samples_taken = 0
        #: Engine hook: next virtual time at which to sample.
        self.next_tick = self.config.cadence_us
        self._jsonl_fh = None
        if self.config.jsonl_path is not None:
            from ..telemetry.export import ensure_parent_dir

            self._jsonl_fh = open(
                ensure_parent_dir(self.config.jsonl_path),
                "w",
                encoding="utf-8",
            )
        self._install_machine_probes()

    # -- probe registration ----------------------------------------------

    def add_probe(
        self, name: str, fn: Callable[[], float], kind: str = "gauge"
    ) -> RingSeries:
        """Register a read-only callable sampled on every cadence tick.

        ``fn`` must not mutate simulation state: it runs inside the run
        loop, and the zero-perturbation contract rests on probes only
        observing.  Returns the series the samples land in.
        """
        if name in self.series:
            raise ValueError(f"duplicate probe {name!r}")
        series = RingSeries(name, kind=kind, cap=self.config.cap)
        self.series[name] = series
        self._probes.append((name, fn))
        return series

    def counter_probe(self, counter_name: str) -> RingSeries:
        """Probe a :class:`StatsRegistry` counter (0 when absent)."""
        value_of = self.machine.stats.counter_value
        return self.add_probe(
            counter_name, lambda: value_of(counter_name), kind="counter"
        )

    def _install_machine_probes(self) -> None:
        machine = self.machine
        sim = machine.sim
        backplane = machine.backplane
        nodes = machine.nodes
        links = list(backplane._links.values())
        num_links = max(1, len(links))
        queue = sim._queue

        self.add_probe("sim.heap_depth", lambda: float(len(queue)))
        self.add_probe(
            "net.packets_delivered",
            lambda: float(backplane.packets_delivered),
            kind="counter",
        )
        # In flight = entered the fabric minus delivered; both sides come
        # from state the backplane already maintains.
        value_of = machine.stats.counter_value
        self.add_probe(
            "net.packets_in_flight",
            lambda: float(
                value_of("net.packets") - backplane.packets_delivered
            ),
        )
        self.add_probe(
            "net.link_utilization",
            lambda: sum(
                1.0 for link in links if link._in_use
            ) / num_links,
        )
        self.add_probe(
            "nic.rx_fifo_max_bytes",
            lambda: float(max(node.nic._rx_fill for node in nodes)),
        )
        self.add_probe(
            "nic.out_fifo_max_bytes",
            lambda: float(max(node.nic.fifo.fill_bytes for node in nodes)),
        )
        for counter_name in DEFAULT_COUNTER_PROBES:
            self.counter_probe(counter_name)

    def register_serve(self, cluster) -> None:
        """Probe a :class:`~repro.serve.ServeCluster`'s live SLO state."""
        loads = cluster.loads
        overall = cluster.tracker.overall
        self.add_probe("serve.outstanding", lambda: float(sum(loads)))
        self.add_probe(
            "serve.outstanding_max", lambda: float(max(loads))
        )
        for attr in ("offered", "ok", "late", "failed"):
            self.add_probe(
                f"serve.slo.{attr}",
                (lambda a=attr: float(getattr(overall, a))),
                kind="counter",
            )

    # -- sampling ---------------------------------------------------------

    def tick(self, now: float, dispatched: int) -> None:
        """Engine hook: sample every probe at virtual time ``now``."""
        self.samples_taken += 1
        fh = self._jsonl_fh
        row: Optional[Dict[str, float]] = {} if fh is not None else None
        series = self.series
        for name, fn in self._probes:
            value = float(fn())
            series[name].append(now, value)
            if row is not None:
                row[name] = value
        if fh is not None:
            fh.write(json.dumps({"t_us": now, "metrics": row}) + "\n")
        # Align the next mark to the cadence grid past ``now`` so idle
        # gaps are skipped wholesale instead of replayed tick by tick.
        cadence = self.config.cadence_us
        self.next_tick = (math.floor(now / cadence) + 1.0) * cadence

    def sample_now(self) -> None:
        """Take one explicit sample at the machine's current time.

        Useful after a run drains, so the final counter values are on
        the series even if the last event landed between cadence marks.
        """
        self.tick(self.machine.sim.now, 0)

    def close(self) -> None:
        """Flush and close the JSONL stream (idempotent)."""
        if self._jsonl_fh is not None:
            self._jsonl_fh.close()
            self._jsonl_fh = None

    # -- export -----------------------------------------------------------

    def scrape(self) -> str:
        """Prometheus-style text exposition of the latest sample."""
        lines: List[str] = []
        for name in sorted(self.series):
            series = self.series[name]
            if not series.points:
                continue
            metric = _prom_name(name)
            lines.append(f"# HELP {metric} {name}")
            lines.append(f"# TYPE {metric} {series.kind}")
            lines.append(f"{metric} {series.last_value:g}")
        metric = _prom_name("obs.samples")
        lines.append(f"# HELP {metric} sample ticks taken")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {self.samples_taken}")
        return "\n".join(lines) + "\n"

    def series_doc(self) -> Dict:
        """The retained history as a JSON-ready document."""
        return {
            "schema": 1,
            "cadence_us": self.config.cadence_us,
            "samples": self.samples_taken,
            "series": {
                name: {
                    "kind": series.kind,
                    "stride": series.stride,
                    "offered": series.offered,
                    "points": [list(p) for p in series.points],
                }
                for name, series in sorted(self.series.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self.series)} series, "
            f"{self.samples_taken} samples)"
        )
