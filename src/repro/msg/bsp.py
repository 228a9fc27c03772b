"""A BSP (bulk-synchronous parallel) library on VMMC.

The paper's section 3 lists a BSP message-passing library among SHRIMP's
high-level APIs (reference [3], Alpert & Philbin, "cBSP: Zero-Cost
Synchronization in a Modified BSP Model").  A BSP computation proceeds in
supersteps: within a superstep each process computes and issues one-sided
puts; a global synchronization ends the superstep, after which every put
issued during it is visible everywhere.

The cBSP insight maps directly onto VMMC: puts are deliberate-update
writes into pre-exported per-peer communication areas, and the superstep
barrier needs no extra acknowledgment traffic because VMMC's sender-based
model already tells each sender when its data has left (and per-pair
ordering plus the barrier's own messages establish visibility).

Usage (inside worker generators)::

    bsp = yield from world.join(pid, proc)
    yield from bsp.put(dest, tag, payload)
    yield from bsp.sync()                    # superstep boundary
    for src, tag, data in bsp.received():    # puts from last superstep
        ...
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Tuple

from ..sim.ids import RunScopedCounter
from ..vmmc import VMMCRuntime
from ..node import NodeProcess
from .channel import RingReceiver, RingSender

__all__ = ["BSPWorld", "BSPProcess"]

_PUT_HDR = struct.Struct("<iI")  # tag, superstep
_RT_PUT = 1
_RT_SYNC = 2

#: World tags start at 1 and are run-scoped (they name exported buffers,
#: whose arrival signals reach postmortems and stall trips).
_world_tags = RunScopedCounter(1)


class BSPWorld:
    """Shared configuration of one BSP job."""

    def __init__(self, runtime: VMMCRuntime, nprocs: int,
                 ring_bytes: int = 16 * 1024):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.runtime = runtime
        self.nprocs = nprocs
        self.ring_bytes = ring_bytes
        self.tag = next(_world_tags)

    def join(self, pid: int, proc: NodeProcess) -> Generator:
        if not 0 <= pid < self.nprocs:
            raise ValueError(f"pid {pid} outside world of {self.nprocs}")
        endpoint = self.runtime.endpoint(proc)
        member = BSPProcess(self, pid, endpoint)
        yield from member._init()
        return member

    def _ring_name(self, dst: int, src: int) -> str:
        return f"bsp{self.tag}.{dst}.from.{src}"


class BSPProcess:
    """One process's handle on the BSP world."""

    def __init__(self, world: BSPWorld, pid: int, endpoint):
        self.world = world
        self.pid = pid
        self.endpoint = endpoint
        self._receivers: Dict[int, RingReceiver] = {}
        self._senders: Dict[int, RingSender] = {}
        self.superstep = 0
        #: Puts delivered in the superstep that just ended.
        self._delivered: List[Tuple[int, int, bytes]] = []
        #: Puts already received for the *current* superstep (early
        #: arrivals from faster peers, held until our own sync).
        self._early: List[Tuple[int, int, bytes]] = []
        #: Per-peer: has this peer's sync marker for the current superstep
        #: been seen?
        self._sync_seen: Dict[int, int] = {}

    @property
    def nprocs(self) -> int:
        return self.world.nprocs

    def _init(self) -> Generator:
        world = self.world
        others = [p for p in range(world.nprocs) if p != self.pid]
        for src in others:
            self._receivers[src] = yield from RingReceiver.export_only(
                self.endpoint, world._ring_name(self.pid, src), world.ring_bytes
            )
            self._sync_seen[src] = -1
        for dst in others:
            self._senders[dst] = yield from RingSender.create(
                self.endpoint, world._ring_name(dst, self.pid)
            )
        for src in others:
            yield from self._receivers[src].connect()

    # -- puts --------------------------------------------------------------

    def put(self, dest: int, tag: int, payload: bytes) -> Generator:
        """One-sided put: visible at ``dest`` after the next sync."""
        if dest == self.pid:
            self._early.append((self.pid, tag, payload))
            return
        yield from self._senders[dest].send_record(
            _RT_PUT, _PUT_HDR.pack(tag, self.superstep) + payload
        )
        self.endpoint.stats.count("bsp.puts")

    # -- synchronization ------------------------------------------------------

    def sync(self) -> Generator:
        """End the superstep: all puts issued anywhere during it become
        the next superstep's received set."""
        current = self.superstep
        # Announce our superstep end to everyone (the cBSP zero-extra-cost
        # property: these markers double as the barrier).
        for dst in range(self.nprocs):
            if dst != self.pid:
                yield from self._senders[dst].send_record(
                    _RT_SYNC, _PUT_HDR.pack(0, current)
                )
        # Drain each peer's ring until its sync marker for this superstep.
        for src in range(self.nprocs):
            if src == self.pid:
                continue
            while self._sync_seen[src] < current:
                rtype, data = yield from self._receivers[src].recv_record()
                tag, step = _PUT_HDR.unpack_from(data)
                if rtype == _RT_SYNC:
                    self._sync_seen[src] = step
                elif rtype == _RT_PUT:
                    self._early.append((src, tag, data[_PUT_HDR.size :]))
                else:
                    raise RuntimeError(f"bad BSP record type {rtype}")
        self._delivered, self._early = self._early, []
        self.superstep += 1
        self.endpoint.stats.count("bsp.supersteps")

    def received(self) -> List[Tuple[int, int, bytes]]:
        """The (src, tag, payload) puts delivered by the last sync."""
        return list(self._delivered)
