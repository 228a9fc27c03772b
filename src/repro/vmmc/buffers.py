"""Receive buffers and their proxies.

A **receive buffer** is a variable-sized region of contiguous virtual memory
that its owner has exported; data can only be received into exported
buffers.  An importer obtains a **proxy receive buffer** — a local
representation of the remote buffer — through which it sends deliberate
updates or establishes automatic-update bindings (paper section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..sim import Signal
from ..sim.ids import RunScopedCounter

__all__ = ["ReceiveBuffer", "ImportedBuffer"]

_buffer_ids = RunScopedCounter(1)


class ReceiveBuffer:
    """An exported region of the owner's virtual memory."""

    def __init__(
        self,
        owner_node: int,
        owner_pid: int,
        base_vaddr: int,
        nbytes: int,
        frames: List[int],
        name: Optional[str] = None,
        allow_nodes: Optional[Set[int]] = None,
        notifications_enabled: bool = False,
    ):
        self.buffer_id = next(_buffer_ids)
        self.owner_node = owner_node
        self.owner_pid = owner_pid
        self.base_vaddr = base_vaddr
        self.nbytes = nbytes
        self.frames = frames
        self.name = name or f"buffer-{self.buffer_id}"
        self.allow_nodes = allow_nodes  # None = any node may import
        self.notifications_enabled = notifications_enabled
        #: Fired on every delivered packet addressed to this buffer; the
        #: polling-based libraries (VMMC-native, sockets) wait on this.
        self.arrival: Optional[Signal] = None
        self.bytes_received = 0
        self.messages_received = 0
        self.exported = True

    @property
    def npages(self) -> int:
        return len(self.frames)

    def importable_by(self, node_id: int) -> bool:
        return self.exported and (self.allow_nodes is None or node_id in self.allow_nodes)

    def __repr__(self) -> str:
        return (
            f"ReceiveBuffer(#{self.buffer_id} {self.name!r} on node "
            f"{self.owner_node}, {self.nbytes}B)"
        )


class ImportedBuffer:
    """A proxy for a remote receive buffer, held by the importer."""

    def __init__(
        self,
        importer_node: int,
        importer_pid: int,
        remote: ReceiveBuffer,
        proxy_ids: List[int],
        page_size: int,
    ):
        self.importer_node = importer_node
        self.importer_pid = importer_pid
        self.remote = remote
        self.proxy_ids = proxy_ids  # one NIC proxy entry per remote page
        self.page_size = page_size
        self.valid = True

    @property
    def nbytes(self) -> int:
        return self.remote.nbytes

    @property
    def remote_node(self) -> int:
        return self.remote.owner_node

    def __repr__(self) -> str:
        return (
            f"ImportedBuffer(node {self.importer_node} -> "
            f"{self.remote.name!r}@{self.remote.owner_node})"
        )
