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

from collections import deque
from typing import Callable, Deque, Generator, List, Optional, Tuple

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
        #: Deliveries waiting to become visible, in arrival order:
        #: (packet, visible_at, is_notification).  The head is the one
        #: whose timer is armed.
        self._deliveries: Deque[Tuple[Packet, float, bool]] = deque()
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
        self._au_runs_counter = None
        self._au_bytes_counter = None
        self._au_packets_counter = None

        backplane.attach_receiver(node_id, self._on_packet, self._try_admit)
        self._started = False

    def start(self) -> None:
        """Spawn the NIC's internal engines (idempotent)."""
        if self._started:
            return
        self._started = True
        self.du.start()
        self.sim.spawn(self._drain_fifo(), f"fifo-drain{self.node_id}", daemon=True)
        self.sim.spawn(self._receive_engine(), f"rx-engine{self.node_id}", daemon=True)

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
        entry = self.opt._au.get(frame)  # OutgoingPageTable.au_lookup, inlined
        if entry is None or not entry.enabled:
            return None
        self.combiner.write_run(entry, offset, data)
        runs = self._au_runs_counter
        if runs is None:
            runs = self._au_runs_counter = self.stats.counter("au.write_runs")
            self._au_bytes_counter = self.stats.counter("au.bytes")
        runs.value += 1
        self._au_bytes_counter.value += len(data)
        return entry

    def _drain_fifo(self) -> Generator:
        # Long-lived engine loop: invariant collaborators live in locals.
        fifo = self.fifo
        queue = fifo._queue
        stats = self.stats
        inject = self._inject
        capture_us = self.params.snoop_capture_us + self.params.packetize_us
        while True:
            # try_get first: the FIFO is almost never empty when the drain
            # comes back for the next packet (packets are never None).
            packet = queue.try_get()
            if packet is None:
                packet = yield from queue._get_wait()
            tel = stats.telemetry
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
            yield capture_us
            yield from inject(packet)
            fifo.mark_injected(packet)
            au_packets = self._au_packets_counter
            if au_packets is None:
                au_packets = self._au_packets_counter = stats.counter("au.packets")
            au_packets.value += packet.fragments
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
        if self._try_admit(packet):
            return
        if (
            self.fault_plan is not None
            and self.fault_plan.config.rx_overflow_discard
        ):
            # Commodity-switch behavior: a full receive FIFO discards the
            # arrival instead of exerting wormhole backpressure.
            self.stats.count("fault.rx_overflow_drops")
            self.stats.trace("fault.rx_overflow", self.node_id, repr(packet))
            monitor = self.sim.monitor
            if monitor is not None:
                monitor.note_rx_overflow(self.node_id, packet)
            return
        if self._rx_freed is None:
            from ..sim import Signal

            self._rx_freed = Signal(self.sim, f"rxfree{self.node_id}")
        while True:
            self.stats.count("rx.backpressure")
            yield from self._rx_freed.wait()
            if self._try_admit(packet):
                return

    def _try_admit(self, packet: Packet) -> bool:
        """Admit the packet if the incoming FIFO has room for it and
        return True; else change nothing and return False.

        The one admission rule, and the non-blocking half of
        :meth:`_on_packet`: ``Backplane.transmit`` calls it directly and
        enters the generator only when the FIFO is full.
        """
        fill = self._rx_fill + packet.size
        if fill > self.params.rx_fifo_bytes and self._rx_fill:
            # Full.  (A packet larger than the whole FIFO still enters an
            # empty one.)
            return False
        self._rx_fill = fill
        tel = self.stats.telemetry
        if tel is not None:
            packet.admitted_at = self.sim.now
            tel.timeline(f"rxfifo.n{self.node_id}", node=self.node_id).record(
                self.sim.now, fill
            )
        self._rx_queue.put(packet)
        return True

    def _receive_engine(self) -> Generator:
        # Long-lived engine loop: invariant collaborators live in locals
        # (``stats.telemetry``, ``fault_plan`` and ``_rx_freed`` stay
        # dynamic — they can be installed mid-run).
        node_id = self.node_id
        params = self.params
        stats = self.stats
        get = self._rx_queue.get
        try_get = self._rx_queue.try_get
        bus = self.bus
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
            data_bytes = len(packet.payload)
            if packet.kind is not PacketKind.COLLECTIVE:
                # Incoming DMA into main memory: each fragment is an
                # individual EISA bus transaction — the bandwidth penalty
                # that makes uncombined automatic update collapse for bulk
                # data (section 4.5.1).  Collective packets never cross
                # EISA: the firmware consumes them inside the NIC, which is
                # precisely the cost the in-network protocol removes.
                if bus.try_hold():
                    try:
                        yield bus.hold_us(
                            data_bytes, eisa_bandwidth, fragments, eisa_transaction_us
                        )
                    finally:
                        bus.end_hold(data_bytes, fragments)
                else:
                    yield from bus.transfer(
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
            rx_packets.value += fragments
            self._rx_bytes_counter.value += data_bytes
            if stats.telemetry is not None:
                stats.trace("nic.rx", node_id, repr(packet))
            post_delivery(packet)

    def _post_delivery(self, packet: Packet) -> None:
        """Schedule the packet's delivery side-effects.

        Visibility (status words, notifications) lags the DMA by the
        receive pipeline latency, plus — in the interrupt-per-message
        what-if — the null handler's run time, since the handler preempts
        the processor before the polling application can observe the
        arrival.  Effects apply strictly in arrival order: a delivery never
        becomes visible before the one queued ahead of it.
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
            is_notification = False
        else:
            is_message_end = (
                packet.kind is PacketKind.DELIBERATE_UPDATE
                and packet.last_of_message
            )
            is_notification = self.ipt.should_interrupt(
                packet.dst_frame, packet.interrupt
            )
            if (
                not is_notification
                and self.config.interrupt_every_message
                and is_message_end
                and self.on_message_interrupt is not None
            ):
                self.on_message_interrupt(packet)
                delay += self.params.interrupt_null_us
        now = self.sim.now
        visible_at = now + delay
        deliveries = self._deliveries
        deliveries.append((packet, visible_at, is_notification))
        if len(deliveries) == 1:
            # The pipeline was idle: arm its timer for this delivery.  The
            # delay is ``visible_at - now``, not ``delay``, so the wake time
            # is rounded exactly as when it is re-armed in _deliver_due.
            self.sim.schedule(visible_at - now, self._deliver_due)

    def _deliver_due(self) -> None:
        """Timer callback: apply the head delivery, then every queued one
        already visible; re-arm the timer for the next one still pending.

        A single timer chain per NIC, rather than one timer per packet,
        keeps a late-arriving short-delay delivery behind the long-delay one
        ahead of it.
        """
        deliveries = self._deliveries
        sim = self.sim
        while True:
            packet, _visible_at, is_notification = deliveries[0]
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
            deliveries.popleft()
            if not deliveries:
                return
            visible_at = deliveries[0][1]
            if visible_at > sim.now:
                sim.schedule(visible_at - sim.now, self._deliver_due)
                return
