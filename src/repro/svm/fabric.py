"""The SVM communication fabric: notification-driven request channels.

Each pair of nodes gets two ring channels per direction: a **request** ring
whose receive buffer has notifications enabled (the SVM protocol "relies on
the notification mechanism" — section 4.4 / Table 3), and a **reply** ring
that the requesting application thread polls.  The protocol daemon is the
endpoint's notification handler: a request record arriving with the
interrupt bit set causes a (simulated, cost-charged) interrupt and a
user-level control transfer into the handler, which serves the request and
sends replies — never blocking on a reply itself, which keeps the daemon
deadlock-free.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional, Tuple

from ..msg.channel import RingReceiver, RingSender
from ..sim.ids import RunScopedCounter
from ..vmmc import VMMCEndpoint, VMMCRuntime

__all__ = ["SVMFabric", "SVMLink"]

#: request handler: (src_index, record_type, payload) -> optional generator
RequestHandler = Callable[[int, int, bytes], Optional[Generator]]

#: Fabric tags start at 1 and are run-scoped (they name the protocol's
#: channels, whose primitives reach postmortems and stall trips).
_fabric_tags = RunScopedCounter(1)


class SVMFabric:
    """Machine-wide channel naming for one SVM protocol instance."""

    def __init__(self, runtime: VMMCRuntime, nprocs: int, ring_bytes: int = 32 * 1024):
        self.runtime = runtime
        self.nprocs = nprocs
        self.ring_bytes = ring_bytes
        self.tag = next(_fabric_tags)

    def _name(self, kind: str, dst: int, src: int) -> str:
        return f"svm{self.tag}.{kind}.{dst}.from.{src}"

    def join(
        self, index: int, endpoint: VMMCEndpoint, handler: RequestHandler
    ) -> Generator:
        """Collective: build this node's links and install its daemon."""
        link = SVMLink(self, index, endpoint, handler)
        yield from link._init()
        return link


class SVMLink:
    """One node's request/reply channels to every peer."""

    def __init__(
        self,
        fabric: SVMFabric,
        index: int,
        endpoint: VMMCEndpoint,
        handler: RequestHandler,
    ):
        self.fabric = fabric
        self.index = index
        self.endpoint = endpoint
        self.handler = handler
        self._req_recv: Dict[int, RingReceiver] = {}
        self._rep_recv: Dict[int, RingReceiver] = {}
        self._req_send: Dict[int, RingSender] = {}
        self._rep_send: Dict[int, RingSender] = {}
        #: request-ring buffer id -> source index (notification routing)
        self._buffer_to_src: Dict[int, int] = {}

    def _init(self) -> Generator:
        fabric = self.fabric
        others = [i for i in range(fabric.nprocs) if i != self.index]
        for src in others:
            self._req_recv[src] = yield from RingReceiver.export_only(
                self.endpoint,
                fabric._name("req", self.index, src),
                fabric.ring_bytes,
                enable_notifications=True,
            )
            self._buffer_to_src[self._req_recv[src].buffer.buffer_id] = src
            self._rep_recv[src] = yield from RingReceiver.export_only(
                self.endpoint, fabric._name("rep", self.index, src), fabric.ring_bytes
            )
        for dst in others:
            self._req_send[dst] = yield from RingSender.create(
                self.endpoint, fabric._name("req", dst, self.index)
            )
            self._rep_send[dst] = yield from RingSender.create(
                self.endpoint, fabric._name("rep", dst, self.index)
            )
        for src in others:
            yield from self._req_recv[src].connect()
            yield from self._rep_recv[src].connect()
        self.endpoint.set_notification_handler(self._on_notification)

    # -- the daemon -------------------------------------------------------

    def _on_notification(self, buffer, packet) -> Generator:
        """Notification handler: drain complete requests from the ring."""
        src = self._buffer_to_src.get(buffer.buffer_id)
        if src is None:
            return
        receiver = self._req_recv[src]
        while True:
            record = yield from receiver.try_recv_record()
            if record is None:
                return
            rtype, data = record
            result = self.handler(src, rtype, data)
            if result is not None:
                yield from result

    # -- app/daemon send paths --------------------------------------------

    def send_request(
        self, dst: int, rtype: int, data: bytes, wait_delivered: bool = False
    ) -> Generator:
        """Send a request record (raises a notification at ``dst``)."""
        yield from self._req_send[dst].send_record(
            rtype, data, interrupt=True, wait_delivered=wait_delivered
        )

    def send_fence(self, dst: int) -> Generator:
        """An ordering fence: a no-op record, waited to delivery, with no
        notification (the daemon must not be disturbed by it)."""
        yield from self._req_send[dst].send_record(
            0xFFFE, b"F", interrupt=False, wait_delivered=True
        )

    def send_reply(self, dst: int, rtype: int, data: bytes) -> Generator:
        """Send a reply record (the requester at ``dst`` is polling)."""
        yield from self._rep_send[dst].send_record(rtype, data, interrupt=False)

    def recv_reply(self, src: int) -> Generator:
        """Application-thread poll for the next reply from ``src``."""
        record = yield from self._rep_recv[src].recv_record()
        return record
