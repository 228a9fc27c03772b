"""The large-mesh packet model executed by the shard kernel.

The full :class:`repro.node.Machine` simulates every NIC register and bus
transaction — the right fidelity at 16 nodes, and the wrong one at 1024.
This model is the scale regime's counterpart: a store-and-forward
packet-level mesh with XY routing, per-link output queueing and open-loop
per-node traffic, built so that every event carries the total order key
required by :class:`repro.shard.kernel.ShardKernel`.

State ownership is what keeps that order well defined:

* every **directed link** ``(a, b)`` is owned by its source node ``a`` —
  only events executing *at* ``a`` touch its ``busy_until`` clock, so two
  same-time events that contend for a link always share a node and are
  ordered by their ``(src, seq)`` key alone;
* every **node**'s RNG stream, injection schedule and delivery counters
  are touched only by events at that node.

A packet that crosses a link becomes an arrival event at the far node with
timestamp ``service_end + hop_latency``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

from ..sim.rng import named_stream
from .kernel import ShardEvent, ShardKernel

__all__ = ["INJECT_SRC", "ShardSpec", "PartitionSim", "spec_for_nodes", "WORKLOADS"]

#: The ``src`` field of injection events: sorts ahead of any real node id,
#: so a node's scheduled injection runs before same-time arrivals there.
INJECT_SRC = -1

#: Traffic patterns: name -> one-line description.
WORKLOADS: Dict[str, str] = {
    "uniform": "each injection picks a uniform destination != self",
    "transpose": "(x, y) sends to index x*height + y (matrix transpose)",
    "neighbor": "round-robin halo exchange with the mesh neighbors",
    "hotspot": "hotspot_fraction of traffic targets node 0, rest uniform",
}


@dataclass(frozen=True)
class ShardSpec:
    """One large-mesh run: topology, traffic and timing.

    Every field is part of the run's identity: :meth:`to_json` is the
    first line of the stream its digest hashes.
    """

    width: int
    height: int
    workload: str = "uniform"
    #: Open-loop injection window; packets in flight at the end drain.
    duration_us: float = 200.0
    #: Mean per-node gap between injections (exponential inter-arrivals).
    inject_interval_us: float = 1.0
    packet_bytes: int = 256
    seed: int = 1998
    #: Per-link propagation/router latency.  Deliberately larger than the
    #: wormhole fall-through of the 16-node machine: it models the longer
    #: chassis-to-chassis wires of a cabinet-scale mesh.
    hop_latency_us: float = 0.5
    #: Link bandwidth, bytes per microsecond.
    link_bandwidth: float = 200.0
    header_bytes: int = 8
    #: Share of injections aimed at node 0 under the ``hotspot`` pattern.
    hotspot_fraction: float = 0.125
    #: Keep per-delivery records (the byte-identity stream carries them).
    #: The large-mesh tables turn this off and report counters only.
    record_deliveries: bool = True

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"choose from {sorted(WORKLOADS)}"
            )
        if self.duration_us <= 0 or self.inject_interval_us <= 0:
            raise ValueError("duration_us and inject_interval_us must be positive")
        if self.packet_bytes < 1 or self.header_bytes < 0:
            raise ValueError("packet_bytes must be positive")
        if self.link_bandwidth <= 0 or self.hop_latency_us <= 0:
            raise ValueError("link_bandwidth and hop_latency_us must be positive")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in [0, 1]")

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def to_json(self) -> Dict:
        """Canonical form; the first line of the identity stream."""
        return asdict(self)

    def describe(self) -> str:
        return (
            f"{self.width}x{self.height} {self.workload} "
            f"interval={self.inject_interval_us}us bytes={self.packet_bytes} "
            f"duration={self.duration_us}us seed={self.seed}"
        )


def spec_for_nodes(nodes: int, **overrides) -> ShardSpec:
    """A near-square spec holding exactly ``nodes`` (width >= height)."""
    if nodes < 1:
        raise ValueError("need at least one node")
    height = 1
    for h in range(math.isqrt(nodes), 0, -1):
        if nodes % h == 0:
            height = h
            break
    return ShardSpec(width=nodes // height, height=height, **overrides)


class PartitionSim:
    """The whole model: a kernel plus every node's and link's state."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.kernel = ShardKernel(self._handle)
        nodes = range(spec.num_nodes)
        #: node -> [injected, delivered, latency_sum, latency_max, hops_sum,
        #: last_delivery_t]
        self.node_stats: Dict[int, List[float]] = {
            node: [0, 0, 0.0, 0.0, 0, 0.0] for node in nodes
        }
        #: (time, node, src, seq, inject_t, hops) per delivered packet.
        self.deliveries: List[Tuple] = []
        self._rngs = {node: named_stream(spec.seed, "shard", node) for node in nodes}
        self._seqs = {node: 0 for node in nodes}
        self._neighbor_cursor = {node: 0 for node in nodes}
        self._busy: Dict[Tuple[int, int], float] = {}
        self._neighbors: Dict[int, List[int]] = {}
        if spec.workload == "neighbor":
            from ..network.topology import MeshTopology

            topo = MeshTopology(spec.width, spec.height)
            self._neighbors = {node: topo.neighbors(node) for node in nodes}

    # -- setup -----------------------------------------------------------

    def seed_injections(self) -> None:
        """Schedule each node's first injection (uniform phase)."""
        spec = self.spec
        for node in range(spec.num_nodes):
            first = self._rngs[node].random() * spec.inject_interval_us
            if first < spec.duration_us:
                seq = self._seqs[node]
                self._seqs[node] = seq + 1
                self.kernel.push((first, node, INJECT_SRC, seq, None))

    # -- event handlers --------------------------------------------------

    def _handle(self, event: ShardEvent) -> None:
        time, node, src, seq, packet = event
        if src == INJECT_SRC:
            self._inject(time, node)
        elif packet[2] == node:
            self._deliver(time, node, src, seq, packet)
        else:
            self._forward(time, node, packet)

    def _pick_destination(self, node: int, rng) -> int:
        spec = self.spec
        workload = spec.workload
        if spec.num_nodes == 1:
            return node  # nothing but loopback on a 1-node mesh
        if workload == "uniform":
            other = rng.randrange(spec.num_nodes - 1)
            return other if other < node else other + 1
        if workload == "transpose":
            width = spec.width
            return (node % width) * spec.height + node // width
        if workload == "neighbor":
            neighbors = self._neighbors[node]
            cursor = self._neighbor_cursor[node]
            self._neighbor_cursor[node] = cursor + 1
            return neighbors[cursor % len(neighbors)]
        # hotspot: skewed share to node 0, the rest uniform.
        if rng.random() < spec.hotspot_fraction:
            return 0
        other = rng.randrange(spec.num_nodes - 1)
        return other if other < node else other + 1

    def _inject(self, time: float, node: int) -> None:
        spec = self.spec
        rng = self._rngs[node]
        dst = self._pick_destination(node, rng)
        seq = self._seqs[node]
        packet = (node, seq, dst, spec.packet_bytes, time, 0)
        self._seqs[node] = seq + 1
        self.node_stats[node][0] += 1
        if dst == node:
            # Loopback: one NIC-internal turnaround, never enters the mesh.
            self.kernel.push(
                (time + spec.hop_latency_us, node, node, seq, packet)
            )
        else:
            self._enqueue(time, node, packet)
        gap = rng.expovariate(1.0 / spec.inject_interval_us)
        next_time = time + gap
        if next_time < spec.duration_us:
            next_seq = self._seqs[node]
            self._seqs[node] = next_seq + 1
            self.kernel.push((next_time, node, INJECT_SRC, next_seq, None))

    def _enqueue(self, time: float, node: int, packet: Tuple) -> None:
        """Queue ``packet`` on its next XY hop's egress link at ``node``.

        Output queueing with a per-link ``busy_until`` clock: service
        starts when the link frees, takes one serialization time, then the
        packet propagates for one hop latency.  The link is owned by
        ``node``, so only events at ``node`` ever touch its clock.
        """
        spec = self.spec
        width = spec.width
        dst = packet[2]
        x, dx = node % width, dst % width
        if x != dx:
            nxt = node + 1 if dx > x else node - 1
        else:
            nxt = node + width if dst > node else node - width
        link = (node, nxt)
        busy = self._busy.get(link, 0.0)
        start = busy if busy > time else time
        done = start + (spec.header_bytes + packet[3]) / spec.link_bandwidth
        self._busy[link] = done
        arrival = (
            done + spec.hop_latency_us,
            nxt,
            packet[0],
            packet[1],
            (packet[0], packet[1], packet[2], packet[3], packet[4], packet[5] + 1),
        )
        self.kernel.push(arrival)

    def _forward(self, time: float, node: int, packet: Tuple) -> None:
        self._enqueue(time, node, packet)

    def _deliver(
        self, time: float, node: int, src: int, seq: int, packet: Tuple
    ) -> None:
        stats = self.node_stats[node]
        latency = time - packet[4]
        stats[1] += 1
        stats[2] += latency
        if latency > stats[3]:
            stats[3] = latency
        stats[4] += packet[5]
        if time > stats[5]:
            stats[5] = time
        if self.spec.record_deliveries:
            self.deliveries.append((time, node, src, seq, packet[4], packet[5]))


def canonical_spec_line(spec: ShardSpec) -> str:
    """The identity stream's header line."""
    return "spec " + json.dumps(spec.to_json(), sort_keys=True, separators=(",", ":"))
