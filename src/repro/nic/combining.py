"""Automatic-update combining engine (paper section 4.5.1).

Without combining, the AU path launches one packet per individual store for
minimum latency; large AU transfers then lose bandwidth to per-packet
headers and per-packet bus transactions at the receiver.  With combining,
the engine accumulates **consecutive** stores into a single packet until:

- a non-consecutive store arrives,
- a page boundary is crossed,
- a specified sub-page boundary is crossed, or
- a timer expires.

Combining is enabled per-binding (the ``combine`` bit of the OPT entry),
with a global force-off knob in :class:`~repro.nic.config.NICConfig`.

Input granularity: the snoop path delivers *write runs* — (frame, offset,
bytes) of consecutive stores — since the CPU model batches consecutive
stores.  A run that arrives while an adjacent pending packet is open simply
extends it, so sparse single-word runs behave exactly like individual
stores.
"""

from __future__ import annotations

from typing import Callable, Optional

from .._compat import slotted_dataclass
from ..sim import Simulator
from ..network import Packet, PacketKind
from .opt import OPTEntry

__all__ = ["CombiningEngine"]


@slotted_dataclass
class _PendingPacket:
    """A combined packet being accumulated.

    ``end`` is one past the last byte, as a page offset: always
    ``offset + len(data)``, kept as a field since the combining loop reads
    it several times per write run.  Only :meth:`CombiningEngine.write_run`
    builds and extends one, and ``_flush`` asserts the invariant.
    """

    dst_node: int
    dst_frame: int
    offset: int
    data: bytearray
    interrupt: bool
    generation: int
    end: int


class CombiningEngine:
    """Turns snooped write runs into outgoing AU packets."""

    def __init__(
        self,
        sim: Simulator,
        src_node: int,
        emit: Callable[[Packet], None],
        word_size: int,
        page_size: int,
        combine_boundary: int,
        combine_timeout_us: float,
        force_off: bool = False,
    ):
        self.sim = sim
        self.src_node = src_node
        self.emit = emit
        self.word_size = word_size
        self.page_size = page_size
        self.combine_boundary = combine_boundary
        self.combine_timeout_us = combine_timeout_us
        self.force_off = force_off
        self._pending: Optional[_PendingPacket] = None
        self._generation = 0
        self.packets_emitted = 0
        self.stores_seen = 0
        self.stores_combined = 0

    # -- snoop input -------------------------------------------------------

    def write_run(self, entry: OPTEntry, offset: int, data: bytes) -> None:
        """A run of consecutive stores to an AU-bound frame.

        ``offset`` is the byte offset within the page; ``data`` the stored
        bytes.  The run never crosses a page boundary (callers split at
        pages, as automatic-update bindings are page-aligned).
        """
        size = len(data)
        page_size = self.page_size
        if offset + size > page_size:
            raise ValueError("write run crosses a page boundary")
        nwords = size // self.word_size or 1
        self.stores_seen += nwords

        if self.force_off or not entry.combine:
            self._flush()
            self._emit_uncombined(entry, offset, data, nwords)
            return

        # Combine: extend the open packet while the run continues it, up to
        # the next sub-page combining boundary or the page end.
        dst_node = entry.dst_node
        dst_frame = entry.dst_frame
        boundary_bytes = self.combine_boundary
        pos = 0
        while pos < size:
            run_offset = offset + pos
            pending = self._pending
            if (
                pending is not None
                and pending.end == run_offset
                and pending.dst_frame == dst_frame
                and pending.dst_node == dst_node
            ):
                self.stores_combined += 1
            else:
                if pending is not None:
                    self._flush()
                self._generation += 1
                pending = self._pending = _PendingPacket(
                    dst_node, dst_frame, run_offset, bytearray(),
                    entry.interrupt, self._generation, run_offset,
                )
                self._arm_timer(pending.generation)
            end = pending.end
            boundary = (end // boundary_bytes + 1) * boundary_bytes
            take = boundary - end
            if take >= size - pos:
                take = size - pos
                pending.data += data if pos == 0 else data[pos:]
            else:
                pending.data += data[pos : pos + take]
            pos += take
            end += take
            pending.end = end
            if end >= boundary or end >= page_size:
                self._flush()

    def _emit_uncombined(
        self, entry: OPTEntry, offset: int, data: bytes, nwords: int
    ) -> None:
        """One packet per store, carried as a single fragment burst."""
        # Positional: binding keywords to Packet's many fields costs more
        # than building the packet (src, dst, dst_frame, offset, payload,
        # kind, interrupt, fragments).
        self.emit(
            Packet(
                self.src_node,
                entry.dst_node,
                entry.dst_frame,
                offset,
                bytes(data),
                PacketKind.AUTOMATIC_UPDATE,
                entry.interrupt,
                nwords,
            )
        )
        self.packets_emitted += nwords

    # -- flushing ----------------------------------------------------------

    def flush(self) -> None:
        """Force out any partially accumulated packet."""
        self._flush()

    def _flush(self) -> None:
        pending, self._pending = self._pending, None
        if pending is None or not pending.data:
            return
        assert pending.end == pending.offset + len(pending.data), pending
        # Positional, as in _emit_uncombined.
        self.emit(
            Packet(
                self.src_node,
                pending.dst_node,
                pending.dst_frame,
                pending.offset,
                bytes(pending.data),
                PacketKind.AUTOMATIC_UPDATE,
                pending.interrupt,
            )
        )
        self.packets_emitted += 1

    def _arm_timer(self, generation: int) -> None:
        def expire() -> None:
            if self._pending is not None and self._pending.generation == generation:
                self._flush()

        self.sim.schedule(self.combine_timeout_us, expire)
