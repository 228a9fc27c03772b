"""The SHRIMP network interface, assembled.

Mirrors Figure 2 of the paper:

- **snoop logic** (memory-bus board) feeds AU write runs to the
  **combining engine**, which emits packets into the **outgoing FIFO**;
- the FIFO drains through the **format-and-send arbiter** into the network;
- the **deliberate-update engine** performs user-level DMA transfers and
  injects through the same arbiter;
- the **incoming engine** DMAs arriving packets into physical memory,
  consults the **incoming page table** for notification interrupts, and
  hands delivery events up to the node.

Incoming packets have top priority for NIC-internal resources (the paper's
FIFO-drain discussion); the model reflects this by giving the receive path
its own engine that never waits on the send side.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from ..sim import Queue, Resource, Simulator, StatsRegistry, Timeout
from ..hardware import MachineParams, MemoryBus, PhysicalMemory
from ..network import Backplane, Packet, PacketKind
from .combining import CombiningEngine
from .config import NICConfig
from .dma import DeliberateUpdateEngine, TransferRequest
from .fifo import OutgoingFIFO
from .ipt import IncomingPageTable
from .opt import OPTEntry, OutgoingPageTable

__all__ = ["ShrimpNIC"]

#: Delivery hook signature: called after a packet's payload is in memory.
DeliveryHook = Callable[[Packet], None]


class ShrimpNIC:
    """One node's network interface."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: MachineParams,
        config: NICConfig,
        memory: PhysicalMemory,
        bus: MemoryBus,
        backplane: Backplane,
        stats: StatsRegistry,
    ):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.config = config
        self.memory = memory
        self.bus = bus
        self.backplane = backplane
        self.stats = stats

        self.opt = OutgoingPageTable(memory.num_frames)
        self.ipt = IncomingPageTable(memory.num_frames)

        fifo_capacity = config.fifo_capacity or params.fifo_capacity
        threshold = int(fifo_capacity * params.fifo_threshold_fraction)
        self.fifo = OutgoingFIFO(
            sim, fifo_capacity, threshold, f"ofifo{node_id}", stats=stats, node=node_id
        )

        self.combiner = CombiningEngine(
            sim,
            node_id,
            emit=self.fifo.put,
            word_size=params.word_size,
            page_size=params.page_size,
            combine_boundary=config.combine_boundary,
            combine_timeout_us=params.combine_timeout_us,
            force_off=not config.au_combining,
        )

        self.arbiter = Resource(sim, capacity=1, name=f"arbiter{node_id}")
        self.du = DeliberateUpdateEngine(
            sim,
            node_id,
            params,
            memory,
            bus,
            inject=self._inject,
            queue_depth=config.du_queue_depth,
            stats=stats,
        )

        self._rx_queue: Queue = Queue(sim, f"rx{node_id}")
        self._rx_fill = 0
        self._rx_freed = None  # created lazily (needs sim ready)
        self._delivery_queue: Queue = Queue(sim, f"delivery{node_id}")
        self._delivery_hooks: List[DeliveryHook] = []
        #: Set by the kernel: fired for notification-eligible packets.
        self.on_notification_interrupt: Optional[Callable[[Packet], None]] = None
        #: Set by the kernel: fired per message in interrupt_every_message mode.
        self.on_message_interrupt: Optional[Callable[[Packet], None]] = None

        #: Installed by Machine.install_fault_plan; None means no faults
        #: and zero overhead on the receive/send paths.
        self.fault_plan = None

        #: Installed by repro.coll.CollWorld: the per-node collective
        #: dispatcher.  None (the default) means this NIC runs no firmware
        #: collectives and the receive path pays one predicate check per
        #: packet — the same zero-overhead-when-off contract as faults,
        #: telemetry and the monitor.
        self.coll_engine = None

        # Hot-path counter handles, bound lazily on first use so unused
        # counters never appear (zero-valued) in stats snapshots.
        self._rx_packets_counter = None
        self._rx_bytes_counter = None

        backplane.attach_receiver(node_id, self._on_packet)
        self._started = False

    def start(self) -> None:
        """Spawn the NIC's internal engines (idempotent)."""
        if self._started:
            return
        self._started = True
        self.du.start()
        self.sim.spawn(self._drain_fifo(), f"fifo-drain{self.node_id}", daemon=True)
        self.sim.spawn(self._receive_engine(), f"rx-engine{self.node_id}", daemon=True)
        self.sim.spawn(
            self._delivery_pipeline(), f"delivery{self.node_id}", daemon=True
        )

    def add_delivery_hook(self, hook: DeliveryHook) -> None:
        self._delivery_hooks.append(hook)

    # -- send side: automatic update -----------------------------------------

    def snoop_write(self, frame: int, offset: int, data: bytes) -> Optional[OPTEntry]:
        """A write run snooped off the memory bus.

        Returns the matching OPT entry when the frame is AU-bound (the run
        was captured), else None (snooped but ignored).
        """
        if not self.config.automatic_update:
            return None
        entry = self.opt.au_lookup(frame)
        if entry is None:
            return None
        self.combiner.write_run(entry, offset, data)
        self.stats.count("au.write_runs")
        self.stats.count("au.bytes", len(data))
        return entry

    def _drain_fifo(self) -> Generator:
        while True:
            packet = yield from self.fifo.get()
            tel = self.stats.telemetry
            span = None
            if tel is not None:
                span = tel.begin(
                    "nic.au_tx",
                    self.node_id,
                    "nic.tx",
                    parent=packet.span,
                    dst=packet.dst,
                    bytes=packet.size,
                    fragments=packet.fragments,
                )
                packet.span = span
            yield self.params.snoop_capture_us + self.params.packetize_us
            yield from self._inject(packet)
            self.fifo.mark_injected(packet)
            self.stats.count("au.packets", packet.fragments)
            if tel is not None:
                tel.end(span)

    # -- send side: deliberate update ------------------------------------

    def initiate_du(self, request: TransferRequest) -> Generator:
        # Plain delegation: returning the inner generator (rather than
        # being a generator that yields from it) keeps one frame out of
        # every resume on the initiation path.
        return self.du.initiate(request)

    def _inject(self, packet: Packet) -> Generator:
        """Serialize on the format-and-send arbiter, then transmit."""
        if self.fault_plan is not None and self.fault_plan.crashed(
            self.node_id, self.sim.now
        ):
            # A crashed node's NIC goes dark: outbound traffic vanishes.
            self.stats.count("fault.crash_tx_drops")
            return
        stats = self.stats
        if stats.telemetry is not None:
            # Guarded so the repr (a per-packet string build) is never
            # computed when nobody is listening.
            stats.trace("nic.tx", self.node_id, repr(packet))
        arbiter = self.arbiter
        if not arbiter.try_acquire():
            yield from arbiter._acquire_wait()
        try:
            yield from self.backplane.transmit(packet)
        finally:
            arbiter.release()

    def send_control(self, packet: Packet) -> Generator:
        """Inject an endpoint-generated control packet (reliable-mode acks).

        Control packets share the format-and-send arbiter and the wire with
        data, so ack traffic shows up in the timing it perturbs.
        """
        tel = self.stats.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "nic.ctl_tx",
                self.node_id,
                "nic.tx",
                parent=packet.span,
                dst=packet.dst,
                seq=packet.seq,
            )
            packet.span = span
        yield self.params.packetize_us
        yield from self._inject(packet)
        if tel is not None:
            tel.end(span)

    # -- receive side --------------------------------------------------------

    def _on_packet(self, packet: Packet) -> Generator:
        """Backplane admit path: blocks while the incoming FIFO is full
        (the caller holds the worm's path, so this is wormhole
        backpressure)."""
        if self._rx_freed is None:
            from ..sim import Signal

            self._rx_freed = Signal(self.sim, f"rxfree{self.node_id}")
        size = packet.size
        capacity = max(self.params.rx_fifo_bytes, size)
        if (
            self.fault_plan is not None
            and self.fault_plan.config.rx_overflow_discard
            and self._rx_fill + size > capacity
        ):
            # Commodity-switch behavior: a full receive FIFO discards the
            # arrival instead of exerting wormhole backpressure.
            self.stats.count("fault.rx_overflow_drops")
            self.stats.trace("fault.rx_overflow", self.node_id, repr(packet))
            monitor = self.sim.monitor
            if monitor is not None:
                monitor.note_rx_overflow(self.node_id, packet)
            return
        while self._rx_fill + size > capacity:
            self.stats.count("rx.backpressure")
            yield from self._rx_freed.wait()
        self._rx_fill += size
        tel = self.stats.telemetry
        if tel is not None:
            packet.admitted_at = self.sim.now
            tel.timeline(f"rxfifo.n{self.node_id}", node=self.node_id).record(
                self.sim.now, self._rx_fill
            )
        self._rx_queue.put(packet)

    def _receive_engine(self) -> Generator:
        # Long-lived engine loop: invariant collaborators live in locals
        # (``stats.telemetry``, ``fault_plan`` and ``_rx_freed`` stay
        # dynamic — they can be installed mid-run).
        node_id = self.node_id
        params = self.params
        stats = self.stats
        get = self._rx_queue.get
        try_get = self._rx_queue.try_get
        bus_transfer = self.bus.transfer
        memory = self.memory
        post_delivery = self._post_delivery
        rx_packet_us = params.rx_packet_us
        rx_dma_start_us = params.rx_dma_start_us
        eisa_bandwidth = params.eisa_bandwidth
        eisa_transaction_us = params.eisa_transaction_us
        while True:
            # Claim an already-queued packet with a plain call (packets are
            # never None); only block through the sub-generator when empty.
            packet = try_get()
            if packet is None:
                packet = yield from get()
            tel = stats.telemetry
            span = None
            if tel is not None:
                span = tel.begin(
                    "nic.rx",
                    node_id,
                    "nic.rx",
                    parent=packet.span,
                    src=packet.src,
                    bytes=packet.size,
                    kind=packet.kind.value,
                    queued_us=(
                        self.sim.now - packet.admitted_at
                        if packet.admitted_at is not None
                        else 0.0
                    ),
                )
                packet.span = span
            if self.fault_plan is not None:
                # A stalled node's receive engine freezes for the window.
                until = self.fault_plan.stall_until(node_id, self.sim.now)
                if until > self.sim.now:
                    stats.count("fault.stall_delays")
                    stats.trace(
                        "fault.stall", node_id, f"rx frozen until {until:.1f}"
                    )
                    yield until - self.sim.now
            fragments = packet.fragments
            # Per-packet header decode and IPT lookup, once per fragment.
            yield fragments * rx_packet_us + rx_dma_start_us
            if packet.corrupted:
                # CRC failure: discard after the header work, before DMA.
                self._rx_fill -= packet.size
                if tel is not None:
                    tel.timeline(f"rxfifo.n{node_id}", node=node_id).record(
                        self.sim.now, self._rx_fill
                    )
                    tel.end(span, discarded=True)
                if self._rx_freed is not None:
                    self._rx_freed.fire()
                stats.count("fault.corrupt_discards")
                stats.trace("fault.corrupt_discard", node_id, repr(packet))
                continue
            data_bytes = packet.data_bytes
            if packet.kind is not PacketKind.COLLECTIVE:
                # Incoming DMA into main memory: each fragment is an
                # individual EISA bus transaction — the bandwidth penalty
                # that makes uncombined automatic update collapse for bulk
                # data (section 4.5.1).  Collective packets never cross
                # EISA: the firmware consumes them inside the NIC, which is
                # precisely the cost the in-network protocol removes.
                yield from bus_transfer(
                    data_bytes,
                    bandwidth=eisa_bandwidth,
                    transactions=fragments,
                    transaction_us=eisa_transaction_us,
                )
                if packet.kind is not PacketKind.CONTROL:
                    base = memory.frame_base(packet.dst_frame)
                    memory.write(base + packet.offset, packet.payload)
            self._rx_fill -= packet.size
            if tel is not None:
                tel.timeline(f"rxfifo.n{node_id}", node=node_id).record(
                    self.sim.now, self._rx_fill
                )
                tel.end(span)
            if self._rx_freed is not None:
                self._rx_freed.fire()
            rx_packets = self._rx_packets_counter
            if rx_packets is None:
                rx_packets = self._rx_packets_counter = stats.counter("rx.packets")
                self._rx_bytes_counter = stats.counter("rx.bytes")
            rx_packets.add(fragments)
            self._rx_bytes_counter.add(data_bytes)
            if stats.telemetry is not None:
                stats.trace("nic.rx", node_id, repr(packet))
            post_delivery(packet)

    def _post_delivery(self, packet: Packet) -> None:
        """Queue the packet's delivery side-effects.

        Visibility (status words, notifications) lags the DMA by the
        receive pipeline latency, plus — in the interrupt-per-message
        what-if — the null handler's run time, since the handler preempts
        the processor before the polling application can observe the
        arrival.  A single pipeline process applies effects strictly in
        arrival order.
        """
        if packet.kind is PacketKind.COLLECTIVE:
            # NIC-resident reaction: the collective engine sees the packet
            # as soon as its header is in the FIFO — no receive pipeline,
            # no IPT lookup, no notification, no host process wakeup.
            engine = self.coll_engine
            if engine is not None:
                engine.on_packet(packet)
            else:
                self.stats.count("coll.orphan_packets")
            return
        delay = self.params.rx_pipeline_us
        if packet.kind is PacketKind.CONTROL:
            # Control packets carry no notification semantics; they only
            # reach the endpoint-level delivery hooks.
            self._delivery_queue.put((packet, self.sim.now + delay, False))
            return
        is_message_end = (
            packet.kind is PacketKind.DELIBERATE_UPDATE and packet.last_of_message
        )
        is_notification = self.ipt.should_interrupt(packet.dst_frame, packet.interrupt)
        if (
            not is_notification
            and self.config.interrupt_every_message
            and is_message_end
            and self.on_message_interrupt is not None
        ):
            self.on_message_interrupt(packet)
            delay += self.params.interrupt_null_us
        self._delivery_queue.put((packet, self.sim.now + delay, is_notification))

    def _delivery_pipeline(self) -> Generator:
        get = self._delivery_queue.get
        try_get = self._delivery_queue.try_get
        sim = self.sim
        while True:
            entry = try_get()
            if entry is None:
                entry = yield from get()
            packet, visible_at, is_notification = entry
            if visible_at > sim.now:
                yield visible_at - sim.now
            if is_notification and self.on_notification_interrupt is not None:
                tel = self.stats.telemetry
                if tel is not None:
                    tel.instant(
                        "nic.notify_irq",
                        self.node_id,
                        "nic.rx",
                        parent=packet.span,
                        frame=packet.dst_frame,
                    )
                self.on_notification_interrupt(packet)
            for hook in self._delivery_hooks:
                hook(packet)
