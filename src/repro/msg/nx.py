"""An NX-compatible message-passing library on VMMC.

Models the SHRIMP NX implementation (paper reference [2]): every ordered
pair of ranks has a ring channel; sends are deliberate-update record writes
into the destination ring (or automatic-update writes in the AU variant);
receives poll.  The classic NX calls are provided — ``csend``/``crecv``
with type selection — plus the collectives the applications need
(``gsync`` barrier, broadcast, allgather, allreduce).

Messages larger than a ring record are split into a START record carrying
(type, total length) and CONT records; per-pair in-order delivery makes
reassembly trivial.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..sim import Queue, Resource, Signal
from ..sim.ids import RunScopedCounter
from ..vmmc import VMMCEndpoint, VMMCRuntime
from ..node import NodeProcess
from .channel import RingReceiver, RingSender

__all__ = ["NXWorld", "NXRank", "ANY_TYPE", "ANY_SOURCE"]

ANY_TYPE = -1
ANY_SOURCE = -1

_RT_START = 1
_RT_CONT = 2
_META = struct.Struct("<iI")  # message type, total length

#: Reserved message-type range for collectives.
_BARRIER_BASE = 1 << 24
_BCAST_TYPE = (1 << 24) + 4096
_GATHER_BASE = (1 << 24) + 8192
_REDUCE_BASE = (1 << 24) + 16384

#: World tags start at 1 and are run-scoped (they name exported ring
#: buffers, whose arrival signals reach postmortems and stall trips).
_world_tags = RunScopedCounter(1)


class NXWorld:
    """Shared configuration for one NX job.

    ``coll`` switches the collective calls (``gsync``, ``broadcast``, and
    ``allreduce`` when given a named operator) from the host-synthesized
    point-to-point algorithms below to the in-network engines of
    :mod:`repro.coll` — the paper-style knob comparing host-side and
    NIC-side protocol placement without touching application code.  The
    point-to-point calls are unaffected.  Requires rank *r* to live on
    node *r* (the collective trees are embedded in the physical mesh).
    """

    def __init__(
        self,
        runtime: VMMCRuntime,
        nprocs: int,
        transport: str = "du",
        ring_bytes: int = 16 * 1024,
        coll=None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if transport not in ("du", "au"):
            raise ValueError(f"unknown transport {transport!r}")
        self.runtime = runtime
        self.nprocs = nprocs
        self.transport = transport
        self.ring_bytes = ring_bytes
        self.tag = next(_world_tags)
        self.ranks: Dict[int, "NXRank"] = {}
        self.coll_world = None
        if coll is not None:
            from ..coll import CollWorld

            self.coll_world = CollWorld(runtime.machine, nprocs, coll)

    def join(self, rank: int, proc: NodeProcess) -> Generator:
        """Create rank ``rank`` on ``proc``; returns an :class:`NXRank`.

        Must be executed concurrently by every rank (channel setup is an
        all-to-all rendezvous).
        """
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} outside world of {self.nprocs}")
        endpoint = self.runtime.endpoint(proc)
        nx_rank = NXRank(self, rank, endpoint)
        if self.coll_world is not None:
            nx_rank._coll = self.coll_world.join(rank, proc)
        self.ranks[rank] = nx_rank
        yield from nx_rank._init()
        return nx_rank

    def _ring_name(self, dst: int, src: int) -> str:
        return f"nx{self.tag}.{dst}.from.{src}"


class NXRank:
    """One rank's handle on the NX library."""

    def __init__(self, world: NXWorld, rank: int, endpoint: VMMCEndpoint):
        self.world = world
        self.rank = rank
        self.endpoint = endpoint
        self._receivers: Dict[int, RingReceiver] = {}
        self._senders: Dict[int, RingSender] = {}
        #: Per-destination send mutex: concurrent isends to one peer must
        #: not interleave their records on the shared ring.
        self._send_locks: Dict[int, Resource] = {}
        #: Fully reassembled messages awaiting crecv: (src, type, data).
        self._pending: List[Tuple[int, int, bytes]] = []
        self._new_message = Signal(endpoint.sim, f"nx{rank}.msg")
        #: In-network collective handle (set by NXWorld.join when the
        #: world was built with a ``coll`` config; None: host-side paths).
        self._coll = None
        self.messages_sent = 0
        self.messages_received = 0

    @property
    def nprocs(self) -> int:
        return self.world.nprocs

    @property
    def sim(self):
        return self.endpoint.sim

    def _init(self) -> Generator:
        world = self.world
        others = [r for r in range(world.nprocs) if r != self.rank]
        # Phase 1: export all incoming rings (non-blocking w.r.t. peers).
        # Notifications are enabled at the buffer level; only synchronization
        # sends set the sender-side interrupt bit (the ~1% of NX messages
        # that notify in the paper's Table 3).
        for src in others:
            self._receivers[src] = yield from RingReceiver.export_only(
                self.endpoint,
                world._ring_name(self.rank, src),
                world.ring_bytes,
                enable_notifications=True,
            )
        # Phase 2: connect senders (blocks until peers finish phase 1).
        for dst in others:
            self._senders[dst] = yield from RingSender.create(
                self.endpoint, world._ring_name(dst, self.rank), world.transport
            )
            self._send_locks[dst] = Resource(
                self.sim, name=f"nx{self.rank}.sendlock.{dst}"
            )
        # Phase 3: wire up credit paths (peers exported them in phase 2).
        for src in others:
            yield from self._receivers[src].connect()
            self.sim.spawn(
                self._listener(src), f"nx{self.rank}.listen.{src}", daemon=True
            )
        # Synchronization notifications need no handler work: the library
        # polls for data; the control transfer itself is the cost.
        self.endpoint.set_notification_handler(lambda _buffer, _packet: None)

    # -- receive plumbing -------------------------------------------------

    def _listener(self, src: int) -> Generator:
        receiver = self._receivers[src]
        while True:
            rtype, data = yield from receiver.recv_record()
            if rtype != _RT_START:
                raise RuntimeError(f"NX framing error: got record type {rtype}")
            msg_type, total = _META.unpack(data[: _META.size])
            chunks = [data[_META.size :]]
            got = len(chunks[0])
            while got < total:
                rtype, chunk = yield from receiver.recv_record()
                if rtype != _RT_CONT:
                    raise RuntimeError("NX framing error inside message body")
                chunks.append(chunk)
                got += len(chunk)
            self._pending.append((src, msg_type, b"".join(chunks)))
            self.messages_received += 1
            self._new_message.fire()

    # -- point to point -----------------------------------------------------

    def csend(
        self, msg_type: int, data: bytes, dest: int, notify: bool = False
    ) -> Generator:
        """Synchronous typed send (returns when the data is out of the
        sender's memory).  ``notify`` sets the interrupt-request bit."""
        if dest == self.rank:
            raise ValueError("NX send to self is not supported")
        tel = self.endpoint.stats.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "nx.csend",
                self.endpoint.node_id,
                "app",
                dest=dest,
                bytes=len(data),
                type=msg_type,
            )
        sender = self._senders[dest]
        lock = self._send_locks[dest]
        yield from lock.acquire()
        try:
            max_chunk = sender.max_record - _META.size
            first = data[:max_chunk]
            yield from sender.send_record(
                _RT_START, _META.pack(msg_type, len(data)) + first,
                interrupt=notify,
            )
            offset = len(first)
            while offset < len(data):
                chunk = data[offset : offset + sender.max_record]
                yield from sender.send_record(_RT_CONT, chunk)
                offset += len(chunk)
        finally:
            lock.release()
            if tel is not None:
                tel.end(span)
        self.messages_sent += 1

    def isend(self, msg_type: int, data: bytes, dest: int):
        """Asynchronous send; returns a handle for :meth:`msgwait`."""
        return self.sim.spawn(
            self.csend(msg_type, data, dest), f"nx{self.rank}.isend"
        )

    def irecv(self, typesel: int = ANY_TYPE, source: int = ANY_SOURCE):
        """Asynchronous receive; returns a handle whose :meth:`msgwait`
        result is (src, type, data)."""
        return self.sim.spawn(
            self.crecv(typesel, source), f"nx{self.rank}.irecv"
        )

    def msgwait(self, handle) -> Generator:
        """Block until an isend/irecv handle completes; returns its result."""
        result = yield handle
        return result

    def crecv(
        self, typesel: int = ANY_TYPE, source: int = ANY_SOURCE
    ) -> Generator:
        """Blocking typed receive; returns (src, type, data)."""
        tel = self.endpoint.stats.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "nx.crecv",
                self.endpoint.node_id,
                "app",
                typesel=typesel,
                source=source,
            )
        while True:
            for i, (src, msg_type, data) in enumerate(self._pending):
                if typesel not in (ANY_TYPE, msg_type):
                    continue
                if source not in (ANY_SOURCE, src):
                    continue
                del self._pending[i]
                if tel is not None:
                    tel.end(span, src=src, bytes=len(data))
                return src, msg_type, data
            yield from self._new_message.wait()

    # -- collectives ----------------------------------------------------------

    def gsync(self) -> Generator:
        """Barrier: in-network when the world has a ``coll`` config,
        host-side dissemination over point-to-point messages otherwise."""
        if self._coll is not None:
            yield from self._coll.barrier()
            self.endpoint.stats.count("nx.barriers")
            return
        nprocs = self.nprocs
        if nprocs == 1:
            return
        tel = self.endpoint.stats.telemetry
        span = None
        if tel is not None:
            span = tel.begin("nx.gsync", self.endpoint.node_id, "app")
        round_no = 0
        distance = 1
        while distance < nprocs:
            peer_to = (self.rank + distance) % nprocs
            peer_from = (self.rank - distance) % nprocs
            yield from self.csend(_BARRIER_BASE + round_no, b"B", peer_to,
                                  notify=True)
            yield from self.crecv(_BARRIER_BASE + round_no, peer_from)
            distance *= 2
            round_no += 1
        self.endpoint.stats.count("nx.barriers")
        if tel is not None:
            tel.end(span, rounds=round_no)

    def broadcast(self, root: int, data: Optional[bytes]) -> Generator:
        """Broadcast; returns the data on every rank.  In-network
        (switch-replicated spanning tree) with a ``coll`` config,
        host-side binomial tree otherwise."""
        if self._coll is not None:
            result = yield from self._coll.bcast(root, data)
            return result
        nprocs = self.nprocs
        if nprocs == 1:
            return data
        vrank = (self.rank - root) % nprocs
        if vrank != 0:
            # Parent: clear the highest set bit of the virtual rank.
            parent = vrank - (1 << (vrank.bit_length() - 1))
            src = (parent + root) % nprocs
            _, _, data = yield from self.crecv(_BCAST_TYPE, src)
        mask = 1 << vrank.bit_length()
        if vrank == 0:
            mask = 1
        while vrank + mask < nprocs:
            dest = (vrank + mask + root) % nprocs
            yield from self.csend(_BCAST_TYPE, data, dest)
            mask *= 2
        return data

    def allgather(self, data: bytes) -> Generator:
        """Every rank contributes ``data``; returns the list by rank."""
        parts: List[Optional[bytes]] = [None] * self.nprocs
        parts[self.rank] = data
        for other in range(self.nprocs):
            if other == self.rank:
                continue
            yield from self.csend(_GATHER_BASE + self.rank, data, other)
        for src in range(self.nprocs):
            if src == self.rank:
                continue
            _, _, payload = yield from self.crecv(_GATHER_BASE + src, src)
            parts[src] = payload
        return parts  # type: ignore[return-value]

    def allreduce(
        self,
        value: float,
        op: Callable[[float, float], float],
        name: Optional[str] = None,
    ) -> Generator:
        """Allreduce of one float (recursive doubling; allgather fallback
        for non-power-of-two worlds, where doubling would double-count).

        ``name`` identifies the operator ("sum"/"min"/"max") so that a
        world with a ``coll`` config can run it on the in-network
        combining engines; an unnamed ``op`` is an arbitrary Python
        callable, which only the host-side path can evaluate.
        """
        if self._coll is not None and name in ("sum", "min", "max"):
            result = yield from self._coll.allreduce(value, op=name)
            return result
        nprocs = self.nprocs
        if nprocs & (nprocs - 1):
            parts = yield from self.allgather(struct.pack("<d", value))
            result = struct.unpack("<d", parts[0])[0]
            for part in parts[1:]:
                result = op(result, struct.unpack("<d", part)[0])
            return result
        result = value
        distance = 1
        round_no = 0
        while distance < nprocs:
            peer_to = (self.rank + distance) % nprocs
            peer_from = (self.rank - distance) % nprocs
            yield from self.csend(
                _REDUCE_BASE + round_no, struct.pack("<d", result), peer_to
            )
            _, _, payload = yield from self.crecv(_REDUCE_BASE + round_no, peer_from)
            result = op(result, struct.unpack("<d", payload)[0])
            distance *= 2
            round_no += 1
        return result
