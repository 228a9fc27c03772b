"""A SHRIMP node: CPU, memory, bus, kernel and network interface."""

from __future__ import annotations

import itertools
from typing import Dict, Generator

from ..sim import Simulator, StatsRegistry
from ..hardware import (
    CPU,
    AddressSpace,
    MachineParams,
    MemoryBus,
    PhysicalMemory,
    Protection,
)
from ..network import Backplane
from ..nic import NICConfig, ShrimpNIC
from .kernel import Kernel

__all__ = ["Node", "NodeProcess"]


class NodeProcess:
    """A user process on a node: an address space plus an identity.

    The communication libraries attach per-process state (imported buffers,
    notification queues) to these objects.
    """

    def __init__(self, node: "Node", pid: int):
        self.node = node
        self.pid = pid
        self.address_space = AddressSpace(node.memory)

    @property
    def node_id(self) -> int:
        return self.node.node_id

    def __repr__(self) -> str:
        return f"NodeProcess(node={self.node.node_id}, pid={self.pid})"


class Node:
    """One PC node of the SHRIMP system."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: MachineParams,
        nic_config: NICConfig,
        backplane: Backplane,
        stats: StatsRegistry,
    ):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.memory = PhysicalMemory(params.memory_bytes, params.page_size)
        self.bus = MemoryBus(sim, params, name=f"bus{node_id}")
        self.cpu = CPU(sim, params, node_id, stats)
        self.kernel = Kernel(sim, node_id, params, self.cpu, stats)
        self.nic = ShrimpNIC(
            sim, node_id, params, nic_config, self.memory, self.bus, backplane, stats
        )
        self.kernel.attach_nic(self.nic)
        self.stats = stats
        self._pids = itertools.count(1)
        self.processes: Dict[int, NodeProcess] = {}
        #: Posted write-through stores still in flight to the snoop logic.
        self.pending_posted = 0
        #: Worst-case FIFO bytes those in-flight stores may still add.
        self._posted_reserved_wire = 0
        from ..sim import Signal

        self.posted_drained = Signal(sim, f"posted{node_id}.drained")

    def start(self) -> None:
        self.nic.start()

    def create_process(self) -> NodeProcess:
        pid = next(self._pids)
        proc = NodeProcess(self, pid)
        self.processes[pid] = proc
        return proc

    # -- the automatic-update store path ---------------------------------

    def au_store_run(
        self,
        space,
        vaddr: int,
        data: bytes,
        category: str = "computation",
    ) -> Generator:
        """Execute a run of consecutive stores that may be AU-bound.

        The stores go through the CPU (write-through pages occupy the
        memory bus), land in local memory, and are snooped by the NIC; if
        the written frames carry automatic-update bindings the NIC
        propagates them.  Runs are split at page boundaries because AU
        bindings are page-aligned.
        """
        fifo = self.nic.fifo
        params = self.params

        # Fast path: a sparse store run is posted — the CPU pays only the
        # store cost and moves on; the bus transaction and snoop capture
        # complete asynchronously (in issue order, since the bus resource
        # grants FIFO).
        if len(data) <= params.posted_write_max:
            if fifo.over_threshold:
                yield from self.kernel.au_throttle()
            worst_wire = len(data) * (1 + 8 // params.word_size)
            # Headroom must cover this store AND every posted store still
            # in flight (their packets have not reached the FIFO yet).
            while fifo.headroom < worst_wire + self._posted_reserved_wire:
                yield from fifo.space_freed.wait()
            phys = space.translate(vaddr, Protection.WRITE)
            frame, page_offset = divmod(phys, params.page_size)
            if page_offset + len(data) > params.page_size:
                raise ValueError("posted AU store run crosses a page boundary")
            self.memory.write(phys, data)
            self.pending_posted += 1
            self._posted_reserved_wire += worst_wire
            self.sim.spawn(
                self._posted_store(frame, page_offset, bytes(data), worst_wire),
                f"posted{self.node_id}",
            )
            yield from self.cpu.busy(params.posted_write_us, category)
            return

        # Bulk path: chunk the store stream so the outgoing FIFO fills at
        # the rate the stores actually take, giving the drain side and the
        # threshold interrupt a chance to act (the FIFO is byte-granular
        # hardware; a whole page never lands in it instantaneously).
        # Chunk size is fixed (not a function of FIFO capacity) so that
        # timing is identical across FIFO sizes unless flow control really
        # engages; capped for very small FIFOs so a chunk always fits.
        chunk_bytes = min(
            self.nic.config.combine_boundary, 128, max(32, fifo.capacity // 8)
        )
        # Per-chunk invariants, hoisted: this loop runs once per 128 bytes
        # of every bulk automatic-update store stream.
        stats = self.stats
        node_id = self.node_id
        bus = self.bus
        wt_bw = params.write_through_bandwidth
        page_size = params.page_size
        wire_per_byte = 1 + 8 // params.word_size
        memory_write = self.memory.write
        snoop_write = self.nic.snoop_write
        offset = 0
        remaining = len(data)
        addr = vaddr
        frame = 0
        hold_size = hold = None
        while remaining > 0:
            if fifo.over_threshold:
                yield from self.kernel.au_throttle()
            page_offset = addr % page_size
            size = min(page_size - page_offset, remaining, chunk_bytes)
            chunk = data[offset : offset + size]
            if offset == 0 or page_offset == 0:
                # Chunks never straddle a page, so translate once per page.
                frame = space.translate(addr, Protection.WRITE) // page_size
            # Backstop: never let a chunk overflow the FIFO even at its
            # worst-case uncombined wire expansion (header per word).
            worst_wire = size * wire_per_byte
            while (
                fifo.capacity - fifo.fill_bytes
                < worst_wire + self._posted_reserved_wire
            ):
                yield from fifo.space_freed.wait()
            # Write-through store stream: the CPU holds the bus, at
            # non-bursting word-write speed.  Every chunk but a run's last
            # has the same size, so the hold is priced once per size.
            if size != hold_size:
                hold_size = size
                hold = bus.hold_us(size, wt_bw)
            if bus.try_hold():
                try:
                    yield hold
                finally:
                    bus.end_hold(size)
            else:
                yield from bus.transfer(size, bandwidth=wt_bw)
            # Looked up per chunk: apps replace the breakdown objects.
            stats.breakdowns[node_id].charge(category, hold)
            memory_write(frame * page_size + page_offset, chunk)
            snoop_write(frame, page_offset, chunk)
            addr += size
            offset += size
            remaining -= size

    def _posted_store(
        self, frame: int, page_offset: int, data: bytes, reserved_wire: int
    ):
        """The asynchronous tail of a posted write-through store run."""
        yield from self.bus.transfer(
            len(data), bandwidth=self.params.write_through_bandwidth
        )
        self.nic.snoop_write(frame, page_offset, data)
        self._posted_reserved_wire -= reserved_wire
        self.pending_posted -= 1
        if self.pending_posted == 0:
            self.posted_drained.fire()

    def wait_posted_drained(self):
        """Block until every posted store has reached the snoop logic."""
        while self.pending_posted > 0:
            yield from self.posted_drained.wait()

    def __repr__(self) -> str:
        return f"Node({self.node_id})"
