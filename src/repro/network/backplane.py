"""The routing backplane: links, contention, and wormhole transmission.

Transmission model
------------------
True wormhole routing holds every channel on the path while the worm is in
flight and pipelines flits across hops, giving an unloaded latency of
roughly ``hops * hop_latency + size / link_bandwidth``.  The model here
reproduces both properties:

1. The sender acquires the path's links **in path order**, holding earlier
   links while waiting for later ones — exactly the channel-holding behavior
   that makes wormhole networks block back to the source under contention.
   XY routing's acyclic channel-dependency graph guarantees this cannot
   deadlock.
2. Once the whole path is held, the packet takes one pipelined latency of
   ``hops * router_hop_us + size / link_bandwidth``, then releases the path.

Delivery is in order between any source/destination pair (deterministic
routing + FIFO links + serialized injection at the source NIC), matching
the real backplane's ordering guarantee for a single sender.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..sim import Resource, Simulator, StatsRegistry, Timeout
from ..faults import Fate
from ..hardware import MachineParams
from .packet import Packet
from .topology import LinkId, MeshTopology, route_cache_cap

__all__ = ["Backplane"]


class Backplane:
    """The full mesh fabric connecting all NICs."""

    def __init__(
        self,
        sim: Simulator,
        params: MachineParams,
        stats: Optional[StatsRegistry] = None,
    ):
        self.sim = sim
        self.params = params
        self.stats = stats or StatsRegistry()
        self.topology = MeshTopology(params.mesh_width, params.mesh_height)
        self._links: Dict[LinkId, Resource] = {
            link: Resource(sim, capacity=1, name=f"link{link}")
            for link in self.topology.links()
        }
        # Per-destination ejection channel: the backplane-to-NIC hop that
        # serializes many-to-one traffic at the receiver.
        self._ejection: Dict[int, Resource] = {
            node: Resource(sim, capacity=1, name=f"eject{node}")
            for node in range(self.topology.num_nodes)
        }
        #: Per node: the NIC's (admit handler, try_admit) pair.
        self._receivers: List[Optional[Tuple[Callable, Callable]]] = [
            None
        ] * self.topology.num_nodes
        self._link_bandwidth = params.link_bandwidth
        self.packets_delivered = 0
        self.bytes_delivered = 0
        #: Installed by Machine.install_fault_plan; None means a perfect
        #: fabric and zero overhead (one predicate check per packet).
        self.fault_plan = None
        # Hot-path handle caches.  Routes are memoized on first use: one
        # dict lookup per packet yields the link-id path *and* the Resource
        # objects to hold, replacing per-hop dict lookups and per-packet XY
        # recomputation.  The entry budget scales with the topology (all
        # pairs at 16 nodes — the historical eager table — a bounded
        # working set at 1024, where all-pairs would mean ~1M paths built
        # up front for traffic that may touch a fraction of them).
        self._routes: Dict[
            Tuple[int, int],
            Tuple[List[LinkId], Tuple[Resource, ...], Resource, float],
        ] = {}
        self._route_cap = route_cache_cap(self.topology.num_nodes)
        # Stat counters are bound lazily on first use (binding them here
        # would make them appear, zero-valued, in snapshots of runs that
        # never touch the network) and cached for every later packet.
        self._net_packets = None
        self._net_bytes = None
        # Per-link telemetry Timeline handles, keyed by the collector that
        # produced them so a newly installed collector invalidates the lot.
        self._link_timelines: Dict[LinkId, object] = {}
        self._timelines_owner = None

    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    def attach_receiver(self, node: int, handler, try_admit) -> None:
        """Register the NIC-side admission for ``node``.

        ``try_admit`` is a plain function that admits the packet and
        returns True, or changes nothing and returns False when the
        incoming FIFO is full; ``handler`` is a generator function taking
        the packet, which then blocks until it is admitted.  An
        uncontended admission costs one call, no generator round-trip.
        """
        self._receivers[node] = (handler, try_admit)

    def link(self, link_id: LinkId) -> Resource:
        return self._links[link_id]

    def _route_for(
        self, src: int, dst: int
    ) -> Tuple[List[LinkId], Tuple[Resource, ...], Resource, float]:
        """The memoized (path, link handles, ejection, base latency) tuple."""
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            path = self.topology.xy_route(src, dst)
            route = (
                path,
                tuple(self._links[link_id] for link_id in path),
                self._ejection[dst],
                len(path) * self.params.router_hop_us,
            )
            if len(self._routes) < self._route_cap:
                self._routes[key] = route
        return route

    def _link_timeline(self, tel, link_id: LinkId):
        """The cached utilization Timeline for one link."""
        if tel is not self._timelines_owner:
            self._link_timelines.clear()
            self._timelines_owner = tel
        timeline = self._link_timelines.get(link_id)
        if timeline is None:
            timeline = tel.timeline(
                f"link.{link_id[0]}-{link_id[1]}", node=link_id[0]
            )
            self._link_timelines[link_id] = timeline
        return timeline

    # -- transmission ---------------------------------------------------

    def transmit(self, packet: Packet) -> Generator:
        """Carry ``packet`` to its destination; returns after delivery.

        Called from the sending NIC's injection process, so packets from one
        node are already serialized when they reach the fabric.  The worm
        holds its whole path while waiting for space in the destination
        NIC's incoming FIFO — wormhole backpressure: a slow receiver blocks
        senders all the way back through the mesh.
        """
        tel = self.stats.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "net.transmit",
                packet.src,
                "net",
                parent=packet.span,
                dst=packet.dst,
                bytes=packet.size,
            )
            packet.span = span

        if packet.dst == packet.src:
            # Loopback never touches the backplane; charge a nominal
            # NIC-internal turnaround.
            yield self.params.router_hop_us
            handler, try_admit = self._receiver(packet.dst)
            if not try_admit(packet):
                yield from handler(packet)
            self._count_delivered(packet)
            if tel is not None:
                tel.end(span, hops=0)
            return

        path, links, ejection, base_latency = self._route_for(packet.src, packet.dst)
        # The held set is tracked by count: ``links[:acquired]``, then the
        # ejection channel.  An uncontended acquire is one plain call.
        acquired = 0
        ejection_held = False
        try:
            for link in links:
                if not link.try_acquire():
                    yield from link._acquire_wait()
                if tel is not None:
                    self._link_timeline(tel, path[acquired]).record(self.sim.now, 1)
                acquired += 1
            if not ejection.try_acquire():
                yield from ejection._acquire_wait()
            ejection_held = True
            yield base_latency + packet.size / self._link_bandwidth
            if self.fault_plan is not None and self._faulted(packet, path):
                return  # the worm vanished; held links release below
            # The admit handler blocks while the NIC's incoming FIFO is
            # full; the worm still holds its path, which is what
            # propagates backpressure into the mesh.
            handler, try_admit = self._receiver(packet.dst)
            if not try_admit(packet):
                yield from handler(packet)
            self._count_delivered(packet)
        finally:
            if ejection_held:
                for link in links:
                    link.release()
                ejection.release()
            else:
                for index in range(acquired):
                    links[index].release()
            if tel is not None:
                now = self.sim.now
                for index in range(acquired):
                    self._link_timeline(tel, path[index]).record(now, 0)
                tel.end(span, hops=len(path))

    def _faulted(self, packet: Packet, path) -> bool:
        """Apply the installed fault plan to one transiting packet.

        Returns True when the packet is lost (crashed destination, link
        outage, or a drop fate).  A corrupt fate lets the packet through
        with ``corrupted`` set; the receiving NIC discards it after paying
        the receive-side costs, as a real CRC check would.
        """
        plan = self.fault_plan
        now = self.sim.now
        if plan.crashed(packet.dst, now):
            self.stats.count("fault.crash_drops")
            self.stats.trace("fault.crash_drop", packet.dst, repr(packet))
            return True
        if plan.path_down(path, now):
            self.stats.count("fault.outage_drops")
            self.stats.trace("fault.outage_drop", packet.src, repr(packet))
            return True
        fate = plan.packet_fate(packet.src, packet.dst)
        if fate is Fate.DROP:
            self.stats.count("fault.drops")
            self.stats.trace("fault.drop", packet.src, repr(packet))
            return True
        if fate is Fate.CORRUPT:
            packet.corrupted = True
            self.stats.count("fault.corruptions")
            self.stats.trace("fault.corrupt", packet.src, repr(packet))
        return False

    def unloaded_latency(self, src: int, dst: int, size: int) -> float:
        """Contention-free wire latency for a packet of ``size`` bytes."""
        if src == dst:
            return self.params.router_hop_us
        hops = self.topology.hop_count(src, dst)
        return hops * self.params.router_hop_us + size / self.params.link_bandwidth

    def _receiver(self, node: int) -> Tuple[Callable, Callable]:
        receiver = self._receivers[node]
        if receiver is None:
            raise RuntimeError(f"no receiver attached at node {node}")
        return receiver

    def _count_delivered(self, packet: Packet) -> None:
        size = packet.size
        self.packets_delivered += 1
        self.bytes_delivered += size
        packets_counter = self._net_packets
        if packets_counter is None:
            packets_counter = self._net_packets = self.stats.counter("net.packets")
            self._net_bytes = self.stats.counter("net.bytes")
        packets_counter.value += 1
        self._net_bytes.value += size
