"""Running a :class:`ShardSpec`: one kernel holding every node.

``run_serial`` seeds every node's injections, drains the kernel and
returns a :class:`ShardRunResult`, whose ``telemetry_digest()`` is the
run's identity (pinned in ``tests/test_shard.py`` and by the CI
``largemesh-smoke`` entry).
"""

from __future__ import annotations

import hashlib
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .model import PartitionSim, ShardSpec, canonical_spec_line

__all__ = ["ShardRunResult", "run_serial"]


@dataclass
class ShardRunResult:
    """Outcome of one run.

    Everything except ``wall_s`` is a pure function of the spec; the wall
    time describes the host and is excluded from the identity stream.
    """

    spec: ShardSpec
    #: node -> [injected, delivered, latency_sum, latency_max, hops_sum,
    #: last_delivery_t]
    node_stats: Dict[int, List[float]] = field(repr=False)
    #: (time, node, src, seq, inject_t, hops) delivery records in key
    #: order (the order they ran), or None when the spec disabled
    #: per-delivery recording.
    deliveries: Optional[List[Tuple]] = field(default=None, repr=False)
    events: int = 0
    wall_s: float = 0.0

    # -- derived metrics -------------------------------------------------

    @property
    def packets_injected(self) -> int:
        return sum(int(self.node_stats[n][0]) for n in self.node_stats)

    @property
    def packets_delivered(self) -> int:
        return sum(int(self.node_stats[n][1]) for n in self.node_stats)

    @property
    def latency_sum_us(self) -> float:
        return sum(self.node_stats[n][2] for n in sorted(self.node_stats))

    @property
    def latency_max_us(self) -> float:
        return max(
            (self.node_stats[n][3] for n in self.node_stats), default=0.0
        )

    @property
    def mean_latency_us(self) -> float:
        delivered = self.packets_delivered
        return self.latency_sum_us / delivered if delivered else 0.0

    @property
    def mean_hops(self) -> float:
        delivered = self.packets_delivered
        hops = sum(int(self.node_stats[n][4]) for n in self.node_stats)
        return hops / delivered if delivered else 0.0

    @property
    def virtual_end_us(self) -> float:
        return max(
            (self.node_stats[n][5] for n in self.node_stats),
            default=self.spec.duration_us,
        )

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def latency_samples(self) -> List[float]:
        """Per-delivery latencies in record order (virtual time only)."""
        if self.deliveries is None:
            raise ValueError(
                "spec ran with record_deliveries=False; only counters exist"
            )
        return [time - inject_t for time, _n, _s, _q, inject_t, _h in self.deliveries]

    # -- the identity stream ---------------------------------------------

    def telemetry_lines(self) -> List[str]:
        """The canonical event stream: what byte-identity is judged on.

        One ``spec`` header, one ``d`` line per delivery in global key
        order, one ``n`` line per node in id order, one total.  Floats use
        ``repr`` (shortest round-trip), so any drift — a reordered
        delivery, a float that took a different path — changes the bytes.
        """
        lines = [canonical_spec_line(self.spec)]
        if self.deliveries is not None:
            for time, node, src, seq, inject_t, hops in self.deliveries:
                lines.append(f"d {time!r} {node} {src} {seq} {inject_t!r} {hops}")
        for node in sorted(self.node_stats):
            injected, delivered, lat_sum, lat_max, hops, last = self.node_stats[
                node
            ]
            lines.append(
                f"n {node} {int(injected)} {int(delivered)} {lat_sum!r} "
                f"{lat_max!r} {int(hops)} {last!r}"
            )
        lines.append(
            f"total injected={self.packets_injected} "
            f"delivered={self.packets_delivered} events={self.events} "
            f"latency_sum={self.latency_sum_us!r} "
            f"latency_max={self.latency_max_us!r}"
        )
        return lines

    def telemetry_bytes(self) -> bytes:
        return ("\n".join(self.telemetry_lines()) + "\n").encode("utf-8")

    def telemetry_digest(self) -> str:
        return hashlib.sha256(self.telemetry_bytes()).hexdigest()

    def summary(self) -> str:
        return (
            f"{self.spec.describe()}: "
            f"{self.packets_delivered}/{self.packets_injected} packets, "
            f"mean latency {self.mean_latency_us:.2f}us "
            f"(max {self.latency_max_us:.2f}us, {self.mean_hops:.1f} hops), "
            f"{self.events} events in {self.wall_s:.3f}s wall "
            f"({self.events_per_sec:,.0f} ev/s)"
        )


def run_serial(spec: ShardSpec) -> ShardRunResult:
    """Run ``spec`` to completion: one kernel, every node."""
    start = _time.perf_counter()
    sim = PartitionSim(spec)
    sim.seed_injections()
    sim.kernel.run_all()
    return ShardRunResult(
        spec=spec,
        node_stats=sim.node_stats,
        deliveries=sim.deliveries if spec.record_deliveries else None,
        events=sim.kernel.events_processed,
        wall_s=_time.perf_counter() - start,
    )
