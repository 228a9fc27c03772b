"""Collective helpers for native-VMMC applications.

The VMMC API itself has no barriers or collectives; applications written
directly against it (Radix-VMMC) build what they need from exported
buffers, deliberate-update writes and polling.  ``VMMCGroup`` provides the
dissemination barrier those applications use: each node exports a small
sync buffer of per-peer epoch slots; a barrier round writes the epoch into
the partner's slot and polls its own slot.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List

from ..sim.ids import RunScopedCounter
from ..vmmc import ImportedBuffer, ReceiveBuffer, VMMCEndpoint

__all__ = ["VMMCGroup"]

_SLOT = struct.Struct("<q")

#: Group tags start at 1 and are run-scoped (they name exported buffers,
#: whose arrival signals reach postmortems and stall trips).
_group_tags = RunScopedCounter(1)


class VMMCGroup:
    """Barrier support for one group of native-VMMC workers."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.tag = next(_group_tags)

    def join(self, index: int, endpoint: VMMCEndpoint) -> Generator:
        member = _GroupMember(self, index, endpoint)
        yield from member._init()
        return member


class _GroupMember:
    def __init__(self, group: VMMCGroup, index: int, endpoint: VMMCEndpoint):
        self.group = group
        self.index = index
        self.endpoint = endpoint
        self._sync_buffer: ReceiveBuffer = None
        self._peers: Dict[int, ImportedBuffer] = {}
        self._staging = 0
        self._epoch = 0

    def _init(self) -> Generator:
        nprocs = self.group.nprocs
        self._sync_buffer = yield from self.endpoint.export(
            8 * max(nprocs, 1), name=f"vg{self.group.tag}.sync.{self.index}"
        )
        self._staging = self.endpoint.alloc(8)
        for peer in range(nprocs):
            if peer != self.index:
                self._peers[peer] = yield from self.endpoint.import_buffer(
                    f"vg{self.group.tag}.sync.{peer}"
                )

    def barrier(self) -> Generator:
        """Dissemination barrier over deliberate-update writes + polling."""
        nprocs = self.group.nprocs
        self._epoch += 1
        if nprocs == 1:
            return
        distance = 1
        round_no = 0
        while distance < nprocs:
            partner_to = (self.index + distance) % nprocs
            partner_from = (self.index - distance) % nprocs
            # Encode (epoch, round) so consecutive barriers never alias.
            stamp = self._epoch * 64 + round_no
            self.endpoint.poke(self._staging, _SLOT.pack(stamp))
            yield from self.endpoint.send(
                self._peers[partner_to],
                self._staging,
                8,
                dst_offset=8 * self.index,
            )
            while self._peer_stamp(partner_from) < stamp:
                yield from self._sync_buffer.arrival.wait()
                yield from self.endpoint.node.cpu.busy(
                    self.endpoint.params.poll_us, "barrier"
                )
            distance *= 2
            round_no += 1
        self.endpoint.stats.count("vmmc.group_barriers")

    def _peer_stamp(self, peer: int) -> int:
        raw = self.endpoint.read_buffer(self._sync_buffer, 8 * peer, 8)
        return _SLOT.unpack(raw)[0]
