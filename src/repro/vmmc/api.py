"""The VMMC user-level library and runtime.

This is the thin user-level layer of paper section 2.3: it implements the
actual API of the communication model — export/import, deliberate-update
send, automatic-update bindings, notifications, and polling — on top of the
NIC model.  All higher-level libraries (NX, sockets, SVM) are built on the
:class:`VMMCEndpoint` API.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Generator, List, Optional, Set

from ..sim import Signal, Timeout
from ..hardware import PageMode, Protection
from ..network import Packet, PacketKind
from ..nic import OPTEntry, TransferRequest
from ..node import Machine, NodeProcess
from .buffers import ImportedBuffer, ReceiveBuffer
from .errors import BindingError, ImportError_, PermissionError_, VMMCError
from .notifications import Handler, NotificationDispatcher
from .reliable import ReliableChannel, ReliableConfig, ReliableReceiverState

__all__ = ["VMMCRuntime", "VMMCEndpoint", "AUBinding"]


class AUBinding:
    """An active automatic-update binding of local pages to a remote buffer."""

    def __init__(
        self,
        endpoint: "VMMCEndpoint",
        local_vaddr: int,
        npages: int,
        frames: List[int],
        imported: ImportedBuffer,
    ):
        self.endpoint = endpoint
        self.local_vaddr = local_vaddr
        self.npages = npages
        self.frames = frames
        self.imported = imported
        self.active = True


class _NodeState:
    """Per-node routing state kept by the runtime."""

    def __init__(self):
        self.frame_to_buffer: Dict[int, ReceiveBuffer] = {}
        self.endpoints: Dict[int, "VMMCEndpoint"] = {}
        #: Reliable-mode receiver state, by channel id.
        self.reliable_rx: Dict[int, ReliableReceiverState] = {}


class VMMCRuntime:
    """Machine-wide VMMC state: the export directory and delivery routing."""

    def __init__(self, machine: Machine):
        self.machine = machine
        machine.start()
        self.sim = machine.sim
        self.stats = machine.stats
        self.directory: Dict[str, ReceiveBuffer] = machine.registry("vmmc.exports")
        self._node_state: Dict[int, _NodeState] = {}
        #: Reliable-mode sender channels, by channel id (machine-wide:
        #: channel ids are globally unique).
        self._reliable_senders: Dict[int, ReliableChannel] = {}
        self._export_announced = Signal(self.sim, "vmmc.export")
        # Bound lazily on first use (hot delivery path).
        self._messages_received_counter = None
        self._acks_sent_counter = None
        for node in machine.nodes:
            state = _NodeState()
            self._node_state[node.node_id] = state
            node.nic.add_delivery_hook(partial(self._on_delivery, node.node_id))
            node.kernel.on_notification = (
                lambda packet, nid=node.node_id: self._on_notification(nid, packet)
            )

    def endpoint(self, proc: NodeProcess) -> "VMMCEndpoint":
        state = self._node_state[proc.node_id]
        if proc.pid in state.endpoints:
            raise VMMCError(f"process {proc} already has a VMMC endpoint")
        endpoint = VMMCEndpoint(self, proc)
        state.endpoints[proc.pid] = endpoint
        return endpoint

    # -- delivery routing -------------------------------------------------

    def _buffer_for_frame(self, node_id: int, frame: int) -> Optional[ReceiveBuffer]:
        return self._node_state[node_id].frame_to_buffer.get(frame)

    def _on_delivery(self, node_id: int, packet: Packet) -> None:
        if packet.kind is PacketKind.CONTROL:
            self._on_ack_packet(packet)
            return
        tel = self.stats.telemetry
        if tel is not None and packet.last_of_message:
            tel.instant(
                "vmmc.deliver", node_id, "vmmc", parent=packet.span, src=packet.src
            )
        count_message = (
            packet.kind is PacketKind.DELIBERATE_UPDATE and packet.last_of_message
        )
        if packet.channel is not None:
            # Reliable-mode data: acknowledge, and suppress the byte and
            # message accounting for anything but the in-order packet so
            # retransmitted duplicates are not double counted.
            accepted = self._on_reliable_data(node_id, packet)
            if not accepted:
                return
            count_message = count_message and accepted
        buffer = self._node_state[node_id].frame_to_buffer.get(packet.dst_frame)
        if buffer is None:
            return  # delivery to memory outside any exported buffer
        buffer.bytes_received += packet.data_bytes
        if count_message:
            buffer.messages_received += 1
            counter = self._messages_received_counter
            if counter is None:
                counter = self._messages_received_counter = self.stats.counter(
                    "vmmc.messages_received"
                )
            counter.add(1)
        if buffer.arrival is not None:
            buffer.arrival.fire(packet)

    # -- reliable-delivery protocol hooks ---------------------------------

    def _register_reliable_sender(self, channel: ReliableChannel) -> None:
        self._reliable_senders[channel.channel_id] = channel

    def _on_ack_packet(self, packet: Packet) -> None:
        tel = self.stats.telemetry
        if tel is not None:
            tel.instant(
                "vmmc.ack", packet.dst, "vmmc", parent=packet.span, seq=packet.seq
            )
        sender = self._reliable_senders.get(packet.channel)
        if sender is not None:
            sender._on_ack(packet.seq)

    def _on_reliable_data(self, node_id: int, packet: Packet) -> bool:
        """Track in-order state and emit a cumulative ack; True = in order."""
        channel = packet.channel
        states = self._node_state[node_id].reliable_rx
        state = states.get(channel)
        if state is None:
            state = states[channel] = ReliableReceiverState(channel, packet.src)
        accepted = state.accept(packet.seq)
        if not accepted:
            if packet.seq < state.expected:
                self.stats.count("vmmc.rx_duplicates")
            else:
                self.stats.count("vmmc.rx_gaps")
                self.stats.trace(
                    "vmmc.retx",
                    node_id,
                    f"ch{channel} gap: got seq{packet.seq}, "
                    f"expected {state.expected}",
                )
        ack = state.ack_packet(node_id)
        counter = self._acks_sent_counter
        if counter is None:
            counter = self._acks_sent_counter = self.stats.counter("vmmc.acks_sent")
        counter.value += 1
        nic = self.machine.nodes[node_id].nic
        # A process, not a schedule() callback: its packetize delay draws
        # its sequence number when the process first runs.  Drawn here
        # instead, it would precede a same-instant DU-engine packetize on
        # this node, and the two would reach the arbiter in the other order.
        self.sim.spawn(nic.send_control(ack), state.ack_name)
        return accepted

    def _on_notification(self, node_id: int, packet: Packet) -> None:
        tel = self.stats.telemetry
        if tel is not None:
            tel.instant(
                "vmmc.notify", node_id, "vmmc", parent=packet.span, src=packet.src
            )
        buffer = self._buffer_for_frame(node_id, packet.dst_frame)
        if buffer is None:
            return
        state = self._node_state[node_id]
        endpoint = state.endpoints.get(buffer.owner_pid)
        if endpoint is not None:
            endpoint.dispatcher.enqueue(buffer, packet)

    # -- export directory ----------------------------------------------------

    def announce_export(self, buffer: ReceiveBuffer) -> None:
        self.directory[buffer.name] = buffer
        for frame in buffer.frames:
            self._node_state[buffer.owner_node].frame_to_buffer[frame] = buffer
        self._export_announced.fire(buffer.name)

    def withdraw_export(self, buffer: ReceiveBuffer) -> None:
        self.directory.pop(buffer.name, None)
        for frame in buffer.frames:
            self._node_state[buffer.owner_node].frame_to_buffer.pop(frame, None)

    def lookup_wait(self, name: str) -> Generator:
        """Block until a buffer named ``name`` has been exported."""
        while name not in self.directory:
            yield from self._export_announced.wait()
        return self.directory[name]


class VMMCEndpoint:
    """One process's handle on the VMMC library."""

    def __init__(self, runtime: VMMCRuntime, proc: NodeProcess):
        self.runtime = runtime
        self.proc = proc
        self.node = proc.node
        self.sim = runtime.sim
        self.stats = runtime.stats
        self.params = self.node.params
        self.dispatcher = NotificationDispatcher(
            self.sim, proc.node_id, proc.pid, self.stats
        )
        self.exports: List[ReceiveBuffer] = []
        self.imports: List[ImportedBuffer] = []
        self.bindings: List[AUBinding] = []
        # Hot-path counter handles, bound lazily on first use.
        self._messages_counter = None
        self._au_writes_counter = None

    @property
    def node_id(self) -> int:
        return self.proc.node_id

    @property
    def space(self):
        return self.proc.address_space

    # -- local memory helpers ------------------------------------------------

    def alloc(self, nbytes: int) -> int:
        """Allocate and map fresh local memory; returns the base vaddr."""
        npages = -(-nbytes // self.params.page_size)
        return self.space.alloc_region(npages)

    def poke(self, vaddr: int, data: bytes) -> None:
        """Untimed local write (setup paths; not for measured data)."""
        self.space.write(vaddr, data)

    def peek(self, vaddr: int, nbytes: int) -> bytes:
        """Untimed local read."""
        return self.space.read(vaddr, nbytes)

    def copy_in(self, vaddr: int, data: bytes, category: str = "communication"):
        """Timed local write: charges memcpy cost."""
        yield from self.node.cpu.busy(
            len(data) / self.params.memcpy_bandwidth, category
        )
        self.space.write(vaddr, data)

    def copy_out(self, vaddr: int, nbytes: int, category: str = "communication"):
        """Timed local read: charges memcpy cost; returns the bytes."""
        yield from self.node.cpu.busy(nbytes / self.params.memcpy_bandwidth, category)
        return self.space.read(vaddr, nbytes)

    # -- export ----------------------------------------------------------------

    def export(
        self,
        nbytes: int,
        name: Optional[str] = None,
        allow_nodes: Optional[Set[int]] = None,
        enable_notifications: bool = False,
    ) -> Generator:
        """Export a fresh receive buffer of ``nbytes``; returns the buffer."""
        npages = -(-nbytes // self.params.page_size)
        base_vaddr = self.space.alloc_region(npages)
        base_vpage = base_vaddr // self.params.page_size
        frames = [self.space.entry(base_vpage + i).frame for i in range(npages)]
        # Export pins the buffer's virtual pages to physical pages.
        yield from self.node.kernel.pin_pages(npages)
        buffer = ReceiveBuffer(
            owner_node=self.node_id,
            owner_pid=self.proc.pid,
            base_vaddr=base_vaddr,
            nbytes=npages * self.params.page_size,
            frames=frames,
            name=name,
            allow_nodes=allow_nodes,
            notifications_enabled=enable_notifications,
        )
        buffer.arrival = Signal(self.sim, f"arrival.{buffer.name}")
        for frame in frames:
            self.node.nic.ipt.export_frame(
                frame,
                owner_pid=self.proc.pid,
                buffer_id=buffer.buffer_id,
                interrupt_enabled=enable_notifications,
            )
        self.runtime.announce_export(buffer)
        self.exports.append(buffer)
        self.stats.count("vmmc.exports")
        return buffer

    def unexport(self, buffer: ReceiveBuffer) -> None:
        buffer.exported = False
        for frame in buffer.frames:
            self.node.nic.ipt.unexport_frame(frame)
        self.runtime.withdraw_export(buffer)

    def set_notification_handler(self, handler: Handler) -> None:
        self.dispatcher.set_handler(handler)

    def block_notifications(self) -> None:
        self.dispatcher.block()

    def unblock_notifications(self) -> None:
        self.dispatcher.unblock()

    # -- import -------------------------------------------------------------

    def import_buffer(self, name: str) -> Generator:
        """Import the remote buffer exported under ``name`` (blocks until
        it exists); returns an :class:`ImportedBuffer` proxy."""
        remote = yield from self.runtime.lookup_wait(name)
        if not remote.importable_by(self.node_id):
            raise PermissionError_(
                f"node {self.node_id} may not import {remote.name!r}"
            )
        # Import allocates an OPT (proxy) entry per page of the buffer.
        proxy_ids = [
            self.node.nic.opt.alloc_proxy(
                remote.owner_node, frame, self.params.page_size
            )
            for frame in remote.frames
        ]
        yield from self.node.cpu.busy(
            self.params.syscall_us + 0.5 * len(proxy_ids), "overhead"
        )
        imported = ImportedBuffer(
            self.node_id, self.proc.pid, remote, proxy_ids, self.params.page_size
        )
        self.imports.append(imported)
        self.stats.count("vmmc.imports")
        return imported

    # -- reliable delivery -----------------------------------------------

    def open_reliable(
        self,
        imported: ImportedBuffer,
        config: Optional[ReliableConfig] = None,
    ) -> ReliableChannel:
        """Open a reliable-delivery channel over an imported buffer.

        Returns a :class:`~repro.vmmc.reliable.ReliableChannel` whose
        ``send``/``drain`` generators guarantee delivery over a lossy
        fabric (sequence numbers, cumulative acks, go-back-N retransmit)
        or raise :class:`~repro.vmmc.errors.DeliveryFailed` once the retry
        budget is exhausted.
        """
        if not imported.valid:
            raise VMMCError("open_reliable on an invalidated import")
        channel = ReliableChannel(self, imported, config)
        self.stats.count("vmmc.reliable.channels")
        return channel

    # -- deliberate update -----------------------------------------------

    def send(
        self,
        imported: ImportedBuffer,
        src_vaddr: int,
        nbytes: int,
        dst_offset: int = 0,
        interrupt: bool = False,
        sync: bool = True,
        sync_delivered: bool = False,
    ) -> Generator:
        """Deliberate-update transfer of local memory into a remote buffer.

        Issued as one or more user-level DMA transfers, each within a single
        local and remote page (the proxy-mapping protection scheme forbids
        page crossings — section 4.5.3).  Returns when the data has been
        read out of local memory (``sync=True``), when every packet has
        reached the remote NIC (``sync_delivered=True``), or right after
        initiation (neither).
        """
        if not imported.valid:
            raise VMMCError("send on an invalidated import")
        if nbytes <= 0:
            raise VMMCError("send of zero bytes")
        if dst_offset + nbytes > imported.nbytes:
            raise VMMCError("send overruns the remote buffer")
        messages_counter = self._messages_counter
        if messages_counter is None:
            messages_counter = self._messages_counter = self.stats.counter(
                "vmmc.messages_sent"
            )
        messages_counter.add(1)
        tel = self.stats.telemetry
        span = None
        if tel is not None:
            # Implicitly parented to the caller's innermost open span (e.g.
            # an nx.csend); each per-page transfer carries the span onward.
            span = tel.begin(
                "vmmc.send",
                self.node_id,
                "vmmc",
                bytes=nbytes,
                dst=imported.remote_node,
            )

        node = self.node
        nic = node.nic
        if not nic.config.user_level_dma:
            # What-if (Table 2): a system call before every message send.
            yield from node.kernel.syscall("communication")

        page_size = self.params.page_size
        udma_init_us = self.params.udma_init_us
        translate = self.space.translate
        proxy_lookup = nic.opt.proxy_lookup
        cpu_busy = node.cpu.busy
        requests: List[TransferRequest] = []
        sent = 0
        while sent < nbytes:
            src = src_vaddr + sent
            dst = dst_offset + sent
            chunk = min(
                nbytes - sent,
                page_size - (src % page_size),
                page_size - (dst % page_size),
            )
            src_phys = translate(src, Protection.READ)
            remote_page, remote_off = divmod(dst, page_size)
            proxy = proxy_lookup(imported.proxy_ids[remote_page])
            is_last = sent + chunk >= nbytes
            request = TransferRequest(
                src_phys=src_phys,
                nbytes=chunk,
                dst_node=proxy.dst_node,
                dst_frame=proxy.dst_frame,
                dst_offset=remote_off,
                interrupt=interrupt and is_last,
                last_of_message=is_last,
                span=span,
            )
            # Install only the completion event this call will wait on;
            # the DU engine triggers them when present.
            if sync_delivered:
                request.delivered = self.sim.event("du.delivered")
            elif sync:
                request.sent = self.sim.event("du.sent")
            # The two-instruction user-level initiation sequence.
            yield from cpu_busy(udma_init_us, "communication")
            yield from nic.initiate_du(request)
            requests.append(request)
            sent += chunk

        if sync_delivered:
            for request in requests:
                if not request.delivered.triggered:
                    yield request.delivered
        elif sync:
            for request in requests:
                if not request.sent.triggered:
                    yield request.sent
        if tel is not None:
            tel.end(span, transfers=len(requests))
        return requests

    # -- automatic update ----------------------------------------------------

    def bind_au(
        self,
        imported: ImportedBuffer,
        local_vaddr: int,
        npages: int,
        remote_page_index: int = 0,
        combine: bool = False,
        interrupt: bool = False,
    ) -> Generator:
        """Bind local pages for automatic update into a remote buffer.

        Bindings are page-aligned on both sides (implementation restriction,
        section 2.2).  Bound pages switch to write-through so stores appear
        on the bus for the snoop logic.
        """
        if not self.node.nic.config.automatic_update:
            raise BindingError("this NIC configuration has no automatic update")
        if local_vaddr % self.params.page_size != 0:
            raise BindingError("AU binding must be page-aligned locally")
        if remote_page_index + npages > imported.remote.npages:
            raise BindingError("AU binding overruns the remote buffer")
        base_vpage = local_vaddr // self.params.page_size
        frames = []
        for i in range(npages):
            entry = self.space.entry(base_vpage + i)
            if entry is None:
                raise BindingError(f"local page {base_vpage + i} not mapped")
            frames.append(entry.frame)
        for i, frame in enumerate(frames):
            remote_frame = imported.remote.frames[remote_page_index + i]
            self.node.nic.opt.bind_au(
                frame,
                OPTEntry(
                    dst_node=imported.remote_node,
                    dst_frame=remote_frame,
                    combine=combine,
                    interrupt=interrupt,
                ),
            )
            self.space.set_mode(base_vpage + i, PageMode.WRITE_THROUGH)
        yield from self.node.cpu.busy(0.5 * npages, "overhead")
        binding = AUBinding(self, local_vaddr, npages, frames, imported)
        self.bindings.append(binding)
        self.stats.count("vmmc.au_bindings")
        return binding

    def unbind_au(self, binding: AUBinding) -> None:
        if not binding.active:
            return
        base_vpage = binding.local_vaddr // self.params.page_size
        for i, frame in enumerate(binding.frames):
            self.node.nic.opt.unbind_au(frame)
            self.space.set_mode(base_vpage + i, PageMode.WRITE_BACK)
        binding.active = False

    def au_write(
        self, vaddr: int, data: bytes, category: str = "communication"
    ) -> Generator:
        """A run of consecutive stores to (possibly) AU-bound memory.

        Automatic-update traffic is *not* counted as messages: it is
        implicit memory traffic, which is how the paper's message counts
        (Table 3) treat it.
        """
        # Plain delegation (no generator frame of its own), as in
        # ShrimpNIC.initiate_du: every resume of the store run skips a level.
        counter = self._au_writes_counter
        if counter is None:
            counter = self._au_writes_counter = self.stats.counter("vmmc.au_writes")
        counter.value += 1
        return self.node.au_store_run(self.space, vaddr, data, category)

    def au_flush(self) -> Generator:
        """Force out any packet pending in the combining engine.

        Waits for in-flight posted stores first: their data has not yet
        reached the snoop logic, and flushing before it arrives would
        strand it in the combiner until the timer.
        """
        yield from self.node.wait_posted_drained()
        yield from self.node.cpu.busy(0.1, "communication")
        self.node.nic.combiner.flush()

    def au_drain(self) -> Generator:
        """Flush the combiner and wait until the outgoing FIFO has fully
        drained into the network.

        A deliberate-update message sent afterwards to the same destination
        is then guaranteed to arrive after all earlier automatic updates —
        the software ordering fence AURC needs at release time, since the
        hardware itself does not order DU against AU (section 4.2).
        """
        yield from self.au_flush()
        fifo = self.node.nic.fifo
        while fifo.fill_bytes > 0:
            yield from fifo.emptied.wait()

    # -- polling receive helpers -------------------------------------------

    def wait_messages(self, buffer: ReceiveBuffer, count: int) -> Generator:
        """Poll until ``buffer`` has received ``count`` total messages."""
        while buffer.messages_received < count:
            yield from buffer.arrival.wait()
            yield from self.node.cpu.busy(self.params.poll_us, "communication")

    def wait_bytes(self, buffer: ReceiveBuffer, count: int) -> Generator:
        """Poll until ``buffer`` has received ``count`` total bytes."""
        while buffer.bytes_received < count:
            yield from buffer.arrival.wait()
            yield from self.node.cpu.busy(self.params.poll_us, "communication")

    def read_buffer(self, buffer: ReceiveBuffer, offset: int, nbytes: int) -> bytes:
        """Untimed owner-side read of an exported buffer's contents."""
        if buffer.owner_pid != self.proc.pid or buffer.owner_node != self.node_id:
            raise VMMCError("read_buffer by non-owner")
        return self.space.read(buffer.base_vaddr + offset, nbytes)
