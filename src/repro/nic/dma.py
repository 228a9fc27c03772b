"""The deliberate-update engine: user-level DMA with optional queueing.

Deliberate update is initiated by a two-instruction load/store sequence to
I/O-mapped proxy addresses (user-level DMA, paper sections 2.3 and 4.3).
Protection comes from proxy page mappings, with the consequence that **a
transfer can never cross a page boundary** — large sends are issued as
multiple per-page transfers, which is exactly what motivated the queueing
experiment of section 4.5.3.

The engine's request queue depth is configurable: depth 1 means a new
initiation waits for the engine to go idle (the production SHRIMP design);
depth 2 reproduces the 2-deep queue experiment.  Crucially, the DMA data
read from main memory **holds the memory bus at EISA speed**, so a queued
transfer still contends with the CPU — the reason queueing bought ~nothing.
"""

from __future__ import annotations

from dataclasses import field

from .._compat import slotted_dataclass
from typing import Generator, Optional, Set

from ..sim import Event, Queue, Resource, Simulator, StatsRegistry
from ..hardware import MachineParams, MemoryBus, PhysicalMemory
from ..network import Packet, PacketKind

__all__ = ["TransferRequest", "DeliberateUpdateEngine"]


@slotted_dataclass
class TransferRequest:
    """One deliberate-update transfer (at most one page)."""

    src_phys: int
    nbytes: int
    dst_node: int
    dst_frame: int
    dst_offset: int
    interrupt: bool = False
    last_of_message: bool = True
    #: Reliable-delivery tag: channel id and sequence number copied onto
    #: the packet (None/0 for untagged transfers).
    channel: Optional[int] = None
    seq: int = 0
    #: Telemetry span of the library-level send this transfer belongs to
    #: (None when telemetry is off); the DU engine parents its span to it.
    span: Optional[int] = None
    #: Completion events, triggered by the engine **only when installed**
    #: (set them before ``initiate`` queues the request).  ``sent`` fires
    #: when the DMA has read the data (source buffer reusable);
    #: ``delivered`` when the packet has reached the remote NIC.  Leaving
    #: them None makes a fire-and-forget transfer allocation-free.
    sent: Optional[Event] = None
    delivered: Optional[Event] = None

    def __post_init__(self):
        if self.nbytes <= 0:
            raise ValueError("transfer must move at least one byte")


class DeliberateUpdateEngine:
    """Drains a queue of transfer requests through memory DMA + the network."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: MachineParams,
        memory: PhysicalMemory,
        bus: MemoryBus,
        inject,
        queue_depth: int,
        stats: StatsRegistry,
    ):
        """``inject`` is a generator function ``inject(packet)`` supplied by
        the NIC: it serializes on the format-and-send arbiter and transmits."""
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.memory = memory
        self.bus = bus
        self.inject = inject
        self.stats = stats
        self._slots = Resource(sim, capacity=queue_depth, name=f"du{node_id}.slots")
        self._requests: Queue = Queue(sim, f"du{node_id}.requests")
        self._pending_pages: Set[int] = set()
        self.transfers_completed = 0
        self._process = None
        # Counter handles bound lazily on first completed transfer (eager
        # binding would surface zero-valued counters in snapshots of runs
        # that never use deliberate update).
        self._transfers_counter = None
        self._bytes_counter = None

    def start(self) -> None:
        if self._process is None:
            self._process = self.sim.spawn(
                self._run(), f"du-engine{self.node_id}", daemon=True
            )

    @property
    def queue_depth(self) -> int:
        return self._slots.capacity

    # -- initiation (called from the sending process) ---------------------

    def initiate(self, request: TransferRequest) -> Generator:
        """Issue a transfer; returns once the request occupies a queue slot.

        With queue depth 1 this blocks until the engine is idle; deeper
        queues let asynchronous sends run ahead of the DMA.
        """
        page_size = self.params.page_size
        frame = request.src_phys // page_size
        if (request.src_phys + request.nbytes - 1) // page_size != frame:
            raise ValueError(
                "deliberate-update transfers cannot cross page boundaries; "
                f"request spans frames {sorted(self._page_span(request))}"
            )
        if request.dst_offset + request.nbytes > page_size:
            raise ValueError("transfer crosses the remote page boundary")
        slots = self._slots
        if not slots.try_acquire():
            yield from slots._acquire_wait()
        self._pending_pages.add(frame)
        self._requests.put(request)

    def _page_span(self, request: TransferRequest) -> Set[int]:
        first = request.src_phys // self.params.page_size
        last = (request.src_phys + request.nbytes - 1) // self.params.page_size
        return set(range(first, last + 1))

    # -- the engine ----------------------------------------------------------

    def _run(self) -> Generator:
        # Long-lived engine loop: invariant collaborators are hoisted to
        # locals, and the two fixed delays are yielded as bare floats
        # (the allocation-free Timeout form).
        node_id = self.node_id
        params = self.params
        stats = self.stats
        get = self._requests.get
        try_get = self._requests.try_get
        bus = self.bus
        memory_read = self.memory.read
        pending_pages = self._pending_pages
        release_slot = self._slots.release
        inject = self.inject
        page_size = params.page_size
        eisa_bandwidth = params.eisa_bandwidth
        dma_start = params.dma_start_us
        packetize = params.packetize_us
        while True:
            # try_get first: a queued request is claimed with a plain call,
            # no sub-generator round-trip (requests are never None).
            request = try_get()
            if request is None:
                request = yield from get()
            tel = stats.telemetry
            span = None
            if tel is not None:
                span = tel.begin(
                    "nic.du",
                    node_id,
                    "nic.tx",
                    parent=request.span,
                    bytes=request.nbytes,
                    dst=request.dst_node,
                    seq=request.seq,
                )
            yield dma_start
            # DMA read of the source data: holds the memory bus at EISA
            # speed, locking out the CPU for the duration.
            nbytes = request.nbytes
            if bus.try_hold():
                try:
                    yield bus.hold_us(nbytes, eisa_bandwidth)
                finally:
                    bus.end_hold(nbytes)
            else:
                yield from bus.transfer(nbytes, bandwidth=eisa_bandwidth)
            payload = memory_read(request.src_phys, request.nbytes)
            pending_pages.discard(request.src_phys // page_size)
            release_slot()
            if request.sent is not None:
                request.sent.succeed()

            yield packetize
            # Positional up to last_of_message, then the optional tags by
            # assignment: binding keywords to Packet's many fields costs
            # more than building the packet.
            packet = Packet(
                node_id,
                request.dst_node,
                request.dst_frame,
                request.dst_offset,
                payload,
                PacketKind.DELIBERATE_UPDATE,
                request.interrupt,
                1,
                request.last_of_message,
            )
            packet.channel = request.channel
            packet.seq = request.seq
            packet.span = span
            yield from inject(packet)
            self.transfers_completed += 1
            transfers_counter = self._transfers_counter
            if transfers_counter is None:
                transfers_counter = self._transfers_counter = stats.counter(
                    "du.transfers"
                )
                self._bytes_counter = stats.counter("du.bytes")
            transfers_counter.value += 1
            self._bytes_counter.value += nbytes
            if request.delivered is not None:
                request.delivered.succeed()
            if tel is not None:
                tel.end(span)
