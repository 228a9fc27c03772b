"""The Outgoing FIFO and its threshold-interrupt flow control.

The Xpress bus connector cannot stall a memory write, so automatic-update
packets must be buffered; the Outgoing FIFO (paper section 4.5.2) absorbs
them.  When its fill exceeds a programmable threshold, the NIC raises an
interrupt and system software **de-schedules every process performing
automatic update** until the FIFO drains — the costly software flow control
the FIFO is sized to avoid.

Hardware overflow (fill past capacity) is fatal: it would silently drop
writes.  The model raises immediately so tests can prove flow control keeps
the FIFO safe at any capacity down to the paper's 1 Kbyte lower bound.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..sim import Queue, Signal, Simulator
from ..network import Packet

__all__ = ["OutgoingFIFO", "FIFOOverflowError"]


class FIFOOverflowError(RuntimeError):
    """The FIFO overflowed: software flow control failed to keep up."""


class OutgoingFIFO:
    def __init__(
        self,
        sim: Simulator,
        capacity: int,
        threshold: int,
        name: str = "ofifo",
        stats=None,
        node: int = 0,
    ):
        if not 0 < threshold <= capacity:
            raise ValueError(
                f"threshold {threshold} must be in (0, capacity={capacity}]"
            )
        self.sim = sim
        self.capacity = capacity
        self.threshold = threshold
        #: Processes blocked by flow control resume once fill drains to here.
        self.resume_mark = threshold // 2
        self.name = name
        #: Optional StatsRegistry carrying the telemetry collector; when its
        #: telemetry is armed, fill changes feed a per-NIC timeline.
        self.stats = stats
        self.node = node
        self._queue = Queue(sim, name)
        self.fill_bytes = 0
        self.max_fill = 0
        self.threshold_interrupts = 0
        self.over_threshold = False
        #: Invoked (once per crossing) when fill rises past the threshold.
        self.on_threshold: Optional[Callable[[], None]] = None
        #: Fired whenever fill drops back to the resume mark.
        self.drained = Signal(sim, f"{name}.drained")
        #: Fired whenever the FIFO empties completely (AU fence support).
        self.emptied = Signal(sim, f"{name}.emptied")
        #: Fired on every injection (headroom watchers re-check on this).
        self.space_freed = Signal(sim, f"{name}.space")

    def __len__(self) -> int:
        return len(self._queue)

    def put(self, packet: Packet) -> None:
        """Enqueue an outgoing AU packet (snoop side; cannot block)."""
        new_fill = self.fill_bytes + packet.size
        if new_fill > self.capacity:
            raise FIFOOverflowError(
                f"{self.name}: {new_fill} bytes > capacity {self.capacity} "
                "(software flow control failed)"
            )
        self.fill_bytes = new_fill
        if new_fill > self.max_fill:
            self.max_fill = new_fill
        stats = self.stats
        if stats is not None and stats.telemetry is not None:
            self._record_fill()
        monitor = self.sim.monitor
        if monitor is not None:
            # Synchronous watermark check: a burst that fills and drains
            # between the monitor's sampled scans is still caught here.
            monitor.note_fifo_fill(self, new_fill)
        if not self.over_threshold and new_fill > self.threshold:
            self.over_threshold = True
            self.threshold_interrupts += 1
            tel = None if self.stats is None else self.stats.telemetry
            if tel is not None:
                tel.instant(
                    "nic.fifo_threshold", self.node, "nic.tx", fill=new_fill
                )
            if self.on_threshold is not None:
                self.on_threshold()
        self._queue.put(packet)

    def _record_fill(self) -> None:
        self.stats.telemetry.timeline(f"{self.name}.fill", node=self.node).record(
            self.sim.now, self.fill_bytes
        )

    def get(self) -> Generator:
        """Dequeue the next packet (drain side; blocks when empty)."""
        packet = yield from self._queue.get()
        return packet

    def mark_injected(self, packet: Packet) -> None:
        """Account a packet as fully out of the FIFO."""
        fill = self.fill_bytes = self.fill_bytes - packet.size
        if fill < 0:
            raise RuntimeError(f"{self.name}: negative fill")
        stats = self.stats
        if stats is not None and stats.telemetry is not None:
            self._record_fill()
        if self.over_threshold and fill <= self.resume_mark:
            self.over_threshold = False
            self.drained.fire()
        if fill == 0:
            self.emptied.fire()
        self.space_freed.fire()

    @property
    def headroom(self) -> int:
        return self.capacity - self.fill_bytes
