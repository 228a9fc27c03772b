"""Shared virtual memory: the common protocol machinery.

Implements page-grained lazy release consistency with home-based pages:

- every shared page has a **home** node (block-cyclic assignment) whose
  copy is kept current — by explicit diffs (HLRC), by AU-propagated diffs
  (HLRC-AU), or by eager automatic updates (AURC);
- writes are tracked per **interval**; releases publish write notices;
  acquires invalidate the pages named by unseen intervals;
- faults fetch the current page from its home over the SVM fabric;
- locks have static managers (``lock_id % P``); barriers are managed by
  node 0.  Both ride the notification-driven request channels.

Concrete protocols subclass :class:`SVMProtocol`/:class:`SVMNode` and
override the write-fault and interval-close hooks.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set, Tuple

from ..sim import Queue, Signal
from ..vmmc import VMMCEndpoint, VMMCRuntime
from ..node import NodeProcess
from .board import NoticeBoard, VectorClock
from .fabric import SVMFabric, SVMLink

__all__ = ["PageState", "SharedRegion", "SVMProtocol", "SVMNode"]


class PageState(enum.IntEnum):
    INVALID = 0
    READ = 1
    WRITE = 2


# Request record types.
REQ_PAGE = 1
REQ_DIFF = 2
REQ_LOCK_ACQ = 3
REQ_LOCK_REL = 4
REQ_BARRIER = 5
REQ_FENCE = 0xFFFE

# Reply record types.
REP_PAGE = 10
REP_ACK = 11
REP_LOCK_GRANT = 12
REP_BARRIER_GO = 13

_PAGE_REQ = struct.Struct("<II")       # req_id, gpage
_DIFF_HDR = struct.Struct("<III")      # req_id, gpage, diff length
_LOCK_MSG = struct.Struct("<III")      # req_id, lock_id, filler
_BARRIER_MSG = struct.Struct("<III")   # req_id, epoch, notice bytes
_PAGE_REP = struct.Struct("<II")       # req_id, gpage
_ACK = struct.Struct("<I")             # req_id
_GRANT = struct.Struct("<II")          # req_id, lock_id


@dataclass
class SharedRegion:
    """A named shared memory region (collective object)."""

    region_id: int
    name: str
    npages: int
    first_gpage: int
    page_size: int

    @property
    def nbytes(self) -> int:
        return self.npages * self.page_size

    def gpage(self, page_index: int) -> int:
        if not 0 <= page_index < self.npages:
            raise ValueError(f"page {page_index} outside region {self.name!r}")
        return self.first_gpage + page_index


@dataclass
class _LockState:
    held: bool = False
    holder: int = -1
    queue: List[Tuple[int, int]] = field(default_factory=list)  # (node, req_id)


@dataclass
class _BarrierState:
    epoch: int = 0
    arrived: List[Tuple[int, int]] = field(default_factory=list)  # (node, req_id)


class SVMProtocol:
    """Machine-level protocol instance shared by all participating nodes."""

    #: Protocol name, set by subclasses ("hlrc", "hlrc-au", "aurc").
    name = "base"
    #: Does this protocol bind shared pages for automatic update?
    uses_au_bindings = False

    def __init__(
        self,
        runtime: VMMCRuntime,
        nprocs: int,
        ring_bytes: int = 32 * 1024,
        au_combine: bool = False,
    ):
        if au_combine and not self.uses_au_bindings:
            raise ValueError(
                f"SVM protocol {self.name!r} binds no pages for automatic "
                "update, so it has no AU combining to turn on"
            )
        #: Combining for the AU bindings of AU protocols (section 4.5.1).
        self.au_combine = au_combine
        self.runtime = runtime
        self.nprocs = nprocs
        self.sim = runtime.sim
        self.stats = runtime.stats
        self.board = NoticeBoard(nprocs)
        self.fabric = SVMFabric(runtime, nprocs, ring_bytes)
        self.regions: Dict[str, SharedRegion] = {}
        self._region_announced = Signal(self.sim, "svm.region")
        self._next_gpage = 0
        self._next_region_id = 0
        self.locks: Dict[int, _LockState] = {}
        self.barrier_state = _BarrierState()
        self.nodes: Dict[int, "SVMNode"] = {}

    # -- configuration hooks ---------------------------------------------

    def make_node(self, index: int, endpoint: VMMCEndpoint) -> "SVMNode":
        return SVMNode(self, index, endpoint)

    def home_of(self, gpage: int) -> int:
        """Block-cyclic home assignment."""
        return gpage % self.nprocs

    # -- membership ----------------------------------------------------------

    def join(self, index: int, proc: NodeProcess) -> Generator:
        """Collective: create this node's protocol instance."""
        if not 0 <= index < self.nprocs:
            raise ValueError(f"index {index} outside protocol of {self.nprocs}")
        endpoint = self.runtime.endpoint(proc)
        node = self.make_node(index, endpoint)
        self.nodes[index] = node
        yield from node._init()
        return node

    # -- region bookkeeping ----------------------------------------------

    def define_region(self, name: str, nbytes: int, page_size: int) -> SharedRegion:
        if name in self.regions:
            raise ValueError(f"region {name!r} already defined")
        npages = -(-nbytes // page_size)
        region = SharedRegion(
            self._next_region_id, name, npages, self._next_gpage, page_size
        )
        self._next_region_id += 1
        self._next_gpage += npages
        self.regions[name] = region
        self._region_announced.fire(name)
        return region

    def lookup_region_wait(self, name: str) -> Generator:
        while name not in self.regions:
            yield from self._region_announced.wait()
        return self.regions[name]

    def region_of_gpage(self, gpage: int) -> SharedRegion:
        for region in self.regions.values():
            if region.first_gpage <= gpage < region.first_gpage + region.npages:
                return region
        raise ValueError(f"gpage {gpage} not in any region")

    def global_init(self, name: str, offset: int, data: bytes) -> None:
        """Untimed initialization of a region's contents on every copy.

        Models pre-distributed input data (SPLASH-2 timing starts after
        initialization).  Must be called after every node created the
        region and before any timed access.
        """
        region = self.regions[name]
        if offset + len(data) > region.nbytes:
            raise ValueError("global_init outside region")
        for node in self.nodes.values():
            node._poke_region(region, offset, data)


class SVMNode:
    """One node's view of the shared virtual memory system."""

    #: Per-word CPU cost of shared reads/writes on the fast (hit) path.
    WORD_ACCESS_US = 0.05
    #: Flush accumulated fast-path time once it exceeds this.
    ACCESS_FLUSH_US = 5.0

    def __init__(self, protocol: SVMProtocol, index: int, endpoint: VMMCEndpoint):
        self.protocol = protocol
        self.index = index
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.stats = endpoint.stats
        self.params = endpoint.params
        self.link: Optional[SVMLink] = None
        self.clock: VectorClock = [0] * protocol.nprocs
        #: region_id -> (base vaddr of local copy, list of page states)
        self._copies: Dict[int, Tuple[int, List[PageState]]] = {}
        self._region_buffers: Dict[int, object] = {}
        self.dirty: Set[int] = set()        # gpages dirtied this interval
        self.twins: Dict[int, bytes] = {}   # HLRC twins
        self._req_ids = 0
        self._pending_us = 0.0
        self._barrier_epoch = 0
        #: Replies the manager role on this node sends to its own app thread
        #: (there are no rings to self).
        self._self_replies: Queue = Queue(self.sim, f"svm.self.{index}")
        # statistics of interest
        self.read_faults = 0
        self.write_faults = 0
        self.pages_fetched = 0

    # -- setup ------------------------------------------------------------

    def _init(self) -> Generator:
        self.link = yield from self.protocol.fabric.join(
            self.index, self.endpoint, self._handle_request
        )

    def create_region(self, name: str, nbytes: int) -> Generator:
        """Collective region creation; every node must call it."""
        if self.index == 0:
            region = self.protocol.define_region(name, nbytes, self.params.page_size)
        else:
            region = yield from self.protocol.lookup_region_wait(name)
        buffer = yield from self.endpoint.export(
            region.nbytes, name=f"svm{self.protocol.fabric.tag}.copy.{name}.{self.index}"
        )
        # Home pages start READ (valid, but writes must fault so the home's
        # own writes generate write notices); the rest start INVALID.
        states = [
            PageState.READ
            if self.protocol.home_of(region.gpage(i)) == self.index
            else PageState.INVALID
            for i in range(region.npages)
        ]
        self._copies[region.region_id] = (buffer.base_vaddr, states)
        self._region_buffers[region.region_id] = buffer
        yield from self._setup_region(region)
        return region

    def _setup_region(self, region: SharedRegion) -> Generator:
        """Protocol hook: e.g. AURC binds non-home pages for AU."""
        return
        yield  # pragma: no cover

    # -- address helpers --------------------------------------------------

    def _local_addr(self, region: SharedRegion, offset: int) -> int:
        base, _states = self._copies[region.region_id]
        return base + offset

    def _state(self, region: SharedRegion, page_index: int) -> PageState:
        return self._copies[region.region_id][1][page_index]

    def _set_state(self, region: SharedRegion, page_index: int, state: PageState):
        self._copies[region.region_id][1][page_index] = state

    def _poke_region(self, region: SharedRegion, offset: int, data: bytes) -> None:
        self.endpoint.poke(self._local_addr(region, offset), data)

    def _page_bytes(self, region: SharedRegion, page_index: int) -> bytes:
        return self.endpoint.peek(
            self._local_addr(region, page_index * region.page_size),
            region.page_size,
        )

    # -- fast-path cost accounting ------------------------------------------

    def _charge_access(self, nbytes: int) -> Generator:
        words = max(1, nbytes // 4)
        self._pending_us += words * self.WORD_ACCESS_US
        if self._pending_us >= self.ACCESS_FLUSH_US:
            yield from self._flush_access()

    def _flush_access(self) -> Generator:
        pending, self._pending_us = self._pending_us, 0.0
        if pending > 0:
            yield from self.endpoint.node.cpu.busy(pending, "computation")

    # -- the access API ------------------------------------------------------

    def read(self, region: SharedRegion, offset: int, nbytes: int) -> Generator:
        """Shared read; faults and fetches as needed.  Returns the bytes."""
        if offset < 0 or offset + nbytes > region.nbytes:
            raise ValueError("shared read out of range")
        page_size = region.page_size
        first = offset // page_size
        last = (offset + max(nbytes, 1) - 1) // page_size
        for page_index in range(first, last + 1):
            if self._state(region, page_index) == PageState.INVALID:
                yield from self._read_fault(region, page_index)
        yield from self._charge_access(nbytes)
        return self.endpoint.peek(self._local_addr(region, offset), nbytes)

    def write(self, region: SharedRegion, offset: int, data: bytes) -> Generator:
        """Shared write; faults, twins and AU propagation per protocol."""
        if offset < 0 or offset + len(data) > region.nbytes:
            raise ValueError("shared write out of range")
        page_size = region.page_size
        pos = 0
        while pos < len(data):
            addr = offset + pos
            page_index = addr // page_size
            in_page = page_size - (addr % page_size)
            chunk = data[pos : pos + min(in_page, len(data) - pos)]
            if self._state(region, page_index) != PageState.WRITE:
                yield from self._write_fault(region, page_index)
            yield from self._store(region, addr, chunk)
            pos += len(chunk)

    def _store(self, region: SharedRegion, offset: int, chunk: bytes) -> Generator:
        """Protocol hook: perform the actual store of one in-page chunk."""
        yield from self._charge_access(len(chunk))
        self._poke_region(region, offset, chunk)

    # -- faults ----------------------------------------------------------------

    def _read_fault(self, region: SharedRegion, page_index: int) -> Generator:
        self.read_faults += 1
        self.stats.count("svm.read_faults")
        self.stats.trace(
            "svm.fault", self.endpoint.node_id,
            f"read fault region={region.name} page={page_index}",
        )
        tel = self.stats.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "svm.fault", self.endpoint.node_id, "svm",
                kind="read", region=region.name, page=page_index,
            )
        yield from self._fault_overhead()
        yield from self._fetch_page(region, page_index)
        self._set_state(region, page_index, PageState.READ)
        if tel is not None:
            tel.end(span)

    def _write_fault(self, region: SharedRegion, page_index: int) -> Generator:
        self.write_faults += 1
        self.stats.count("svm.write_faults")
        self.stats.trace(
            "svm.fault", self.endpoint.node_id,
            f"write fault region={region.name} page={page_index}",
        )
        tel = self.stats.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "svm.fault", self.endpoint.node_id, "svm",
                kind="write", region=region.name, page=page_index,
            )
        yield from self._fault_overhead()
        if self._state(region, page_index) == PageState.INVALID:
            yield from self._fetch_page(region, page_index)
        gpage = region.gpage(page_index)
        yield from self._on_write_fault(region, page_index, gpage)
        self.dirty.add(gpage)
        self._set_state(region, page_index, PageState.WRITE)
        if tel is not None:
            tel.end(span)

    def _on_write_fault(
        self, region: SharedRegion, page_index: int, gpage: int
    ) -> Generator:
        """Protocol hook: e.g. HLRC creates a twin here."""
        return
        yield  # pragma: no cover

    def _fault_overhead(self) -> Generator:
        # Kernel trap + mprotect bookkeeping.
        yield from self.endpoint.node.cpu.busy(self.params.syscall_us, "overhead")

    def _fetch_page(self, region: SharedRegion, page_index: int) -> Generator:
        """Fetch the current copy from the page's home."""
        gpage = region.gpage(page_index)
        home = self.protocol.home_of(gpage)
        if home == self.index:
            return  # the home copy is always current
        yield from self._flush_access()
        req_id = self._new_req()
        self.stats.count("svm.page_requests")
        yield from self.link.send_request(
            home, REQ_PAGE, _PAGE_REQ.pack(req_id, gpage)
        )
        rtype, payload = yield from self._await_reply(home, REP_PAGE, req_id)
        page_data = payload[_PAGE_REP.size :]
        yield from self.endpoint.copy_in(
            self._local_addr(region, page_index * region.page_size), page_data
        )
        self.pages_fetched += 1
        self.stats.count("svm.pages_fetched")

    def _await_reply(self, src: int, expect_rtype: int, req_id: int) -> Generator:
        if src == self.index:
            rtype, payload = yield from self._self_replies.get()
        else:
            rtype, payload = yield from self.link.recv_reply(src)
        got_id = struct.unpack_from("<I", payload)[0]
        if rtype != expect_rtype or got_id != req_id:
            raise RuntimeError(
                f"SVM reply mismatch: wanted ({expect_rtype},{req_id}), "
                f"got ({rtype},{got_id})"
            )
        return rtype, payload

    def _new_req(self) -> int:
        self._req_ids += 1
        return self._req_ids

    # -- synchronization -----------------------------------------------------

    def acquire(self, lock_id: int) -> Generator:
        """Acquire a global lock; applies pending invalidations."""
        yield from self._flush_access()
        t0 = self.sim.now
        tel = self.stats.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "svm.lock_acquire", self.endpoint.node_id, "svm", lock=lock_id
            )
        manager = lock_id % self.protocol.nprocs
        req_id = self._new_req()
        self.stats.count("svm.lock_requests")
        if manager == self.index:
            granted = self._local_lock_try(lock_id, req_id)
            if not granted:
                yield from self._await_grant_via_self(lock_id, req_id)
        else:
            yield from self.link.send_request(
                manager, REQ_LOCK_ACQ, _LOCK_MSG.pack(req_id, lock_id, 0)
            )
            yield from self._await_reply(manager, REP_LOCK_GRANT, req_id)
        self._charge_wait(t0, "lock")
        yield from self._apply_invalidations()
        if tel is not None:
            tel.end(span)

    def release(self, lock_id: int) -> Generator:
        """Release a lock: close the interval, then hand the lock on."""
        yield from self._flush_access()
        t0 = self.sim.now
        tel = self.stats.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "svm.lock_release", self.endpoint.node_id, "svm", lock=lock_id
            )
        yield from self._close_interval()
        manager = lock_id % self.protocol.nprocs
        req_id = self._new_req()
        if manager == self.index:
            yield from self._local_unlock(lock_id)
        else:
            yield from self.link.send_request(
                manager, REQ_LOCK_REL, _LOCK_MSG.pack(req_id, lock_id, 0)
            )
        self._charge_wait(t0, "lock")
        if tel is not None:
            tel.end(span)

    def barrier(self) -> Generator:
        """Global barrier: close interval, rendezvous, invalidate."""
        yield from self._flush_access()
        t0 = self.sim.now
        tel = self.stats.telemetry
        span = None
        if tel is not None:
            span = tel.begin("svm.barrier", self.endpoint.node_id, "svm")
        yield from self._close_interval()
        self._barrier_epoch += 1
        manager = 0
        req_id = self._new_req()
        self.stats.count("svm.barriers")
        notice_bytes = 8 * self.protocol.nprocs
        if manager == self.index:
            yield from self._local_barrier_enter(req_id)
        else:
            yield from self.link.send_request(
                manager,
                REQ_BARRIER,
                _BARRIER_MSG.pack(req_id, self._barrier_epoch, notice_bytes),
            )
            yield from self._await_reply(manager, REP_BARRIER_GO, req_id)
        self._charge_wait(t0, "barrier")
        yield from self._apply_invalidations()
        if tel is not None:
            tel.end(span)

    def _charge_wait(self, t0: float, category: str) -> None:
        elapsed = self.sim.now - t0
        if elapsed > 0:
            self.stats.breakdown(self.endpoint.node_id).charge(category, elapsed)

    # -- interval close (release actions) ---------------------------------

    def _close_interval(self) -> Generator:
        """Publish write notices and run the protocol's flush hook."""
        if not self.dirty:
            return
        dirty = sorted(self.dirty)
        yield from self._flush_dirty(dirty)
        self.protocol.board.publish(self.index, dirty)
        self.clock[self.index] = self.protocol.board.latest(self.index)
        # Downgrade to READ so next interval's writes fault again (write
        # tracking is per interval).
        for gpage in dirty:
            region = self.protocol.region_of_gpage(gpage)
            self._set_state(region, gpage - region.first_gpage, PageState.READ)
        self.dirty.clear()
        self.twins.clear()

    def _flush_dirty(self, dirty: List[int]) -> Generator:
        """Protocol hook: propagate this interval's writes toward homes."""
        return
        yield  # pragma: no cover

    def _apply_invalidations(self) -> Generator:
        """Invalidate pages named by intervals we have not seen."""
        board = self.protocol.board
        pages, new_clock, payload = board.pages_to_invalidate(self.clock, self.index)
        self.clock = new_clock
        # Receiving and scanning the write notices costs CPU time.
        if payload:
            yield from self.endpoint.node.cpu.busy(
                payload / self.params.memcpy_bandwidth + 0.5, "overhead"
            )
        for gpage in pages:
            if self.protocol.home_of(gpage) == self.index:
                continue  # home copies stay current
            region = self.protocol.region_of_gpage(gpage)
            page_index = gpage - region.first_gpage
            if region.region_id not in self._copies:
                continue
            if gpage in self.dirty:
                # Still dirty in an open interval (properly synchronized
                # programs only hit this under false sharing across locks);
                # keep write state — our own stores are not yet flushed.
                continue
            self._set_state(region, page_index, PageState.INVALID)
            self.stats.count("svm.invalidations")

    # -- manager-side state (runs in daemon handlers) ------------------------

    def _local_lock_try(self, lock_id: int, req_id: int) -> bool:
        state = self.protocol.locks.setdefault(lock_id, _LockState())
        if not state.held:
            state.held = True
            state.holder = self.index
            return True
        state.queue.append((self.index, req_id))
        return False

    def _await_grant_via_self(self, lock_id: int, req_id: int) -> Generator:
        yield from self._await_reply(self.index, REP_LOCK_GRANT, req_id)

    def _local_unlock(self, lock_id: int) -> Generator:
        state = self.protocol.locks[lock_id]
        if state.queue:
            node, req_id = state.queue.pop(0)
            state.holder = node
            yield from self._send_grant(node, req_id, lock_id)
        else:
            state.held = False
            state.holder = -1

    def _send_reply_to(self, node: int, rtype: int, payload: bytes) -> Generator:
        """Send a reply, looping it locally when the target is this node."""
        if node == self.index:
            yield from self.endpoint.node.cpu.busy(0.5, "overhead")
            self._self_replies.put((rtype, payload))
        else:
            yield from self.link.send_reply(node, rtype, payload)

    def _send_grant(self, node: int, req_id: int, lock_id: int) -> Generator:
        board = self.protocol.board
        waiter = self.protocol.nodes[node]
        _pages, _clock, notice_bytes = board.pages_to_invalidate(waiter.clock, node)
        payload = _GRANT.pack(req_id, lock_id) + bytes(min(notice_bytes, 2048))
        yield from self._send_reply_to(node, REP_LOCK_GRANT, payload)

    def _local_barrier_enter(self, req_id: int) -> Generator:
        state = self.protocol.barrier_state
        state.arrived.append((self.index, req_id))
        if len(state.arrived) >= self.protocol.nprocs:
            yield from self._barrier_release_all()
        yield from self._await_reply(self.index, REP_BARRIER_GO, req_id)

    def _barrier_release_all(self) -> Generator:
        state = self.protocol.barrier_state
        state.epoch += 1
        arrived, state.arrived = state.arrived, []
        notice_bytes = min(2048, 8 * self.protocol.nprocs)
        for node, req_id in arrived:
            payload = _ACK.pack(req_id) + bytes(notice_bytes)
            yield from self._send_reply_to(node, REP_BARRIER_GO, payload)

    # -- daemon request handling -------------------------------------------

    def _handle_request(self, src: int, rtype: int, data: bytes):
        if rtype == REQ_FENCE:
            return None
        if rtype == REQ_PAGE:
            return self._serve_page(src, data)
        if rtype == REQ_DIFF:
            return self._serve_diff(src, data)
        if rtype == REQ_LOCK_ACQ:
            return self._serve_lock_acq(src, data)
        if rtype == REQ_LOCK_REL:
            return self._serve_lock_rel(src, data)
        if rtype == REQ_BARRIER:
            return self._serve_barrier(src, data)
        raise RuntimeError(f"unknown SVM request type {rtype}")

    def _serve_page(self, src: int, data: bytes) -> Generator:
        req_id, gpage = _PAGE_REQ.unpack(data)
        region = self.protocol.region_of_gpage(gpage)
        page_index = gpage - region.first_gpage
        if self.protocol.home_of(gpage) != self.index:
            raise RuntimeError(f"page request for {gpage} at non-home {self.index}")
        page = self._page_bytes(region, page_index)
        yield from self.endpoint.node.cpu.busy(2.0, "overhead")
        yield from self.link.send_reply(
            src, REP_PAGE, _PAGE_REP.pack(req_id, gpage) + page
        )
        self.stats.count("svm.pages_served")

    def _serve_diff(self, src: int, data: bytes) -> Generator:
        from .diffs import decode_diff

        req_id, gpage, _length = _DIFF_HDR.unpack_from(data)
        region = self.protocol.region_of_gpage(gpage)
        page_index = gpage - region.first_gpage
        diff = decode_diff(data[_DIFF_HDR.size :])
        # Charge the apply cost first, then write only the diffed runs with
        # no intervening yield: the home's application thread may be
        # writing other words of this page concurrently (multiple-writer
        # false sharing), and a full-page read-modify-write would lose its
        # updates.
        nbytes = sum(len(run) for _off, run in diff)
        yield from self.endpoint.node.cpu.busy(
            1.0 + nbytes / self.params.memcpy_bandwidth, "overhead"
        )
        page_base = page_index * region.page_size
        for offset, run in diff:
            self._poke_region(region, page_base + offset, run)
        yield from self.link.send_reply(src, REP_ACK, _ACK.pack(req_id))
        self.stats.count("svm.diffs_applied")

    def _serve_lock_acq(self, src: int, data: bytes) -> Generator:
        req_id, lock_id, _f = _LOCK_MSG.unpack(data)
        state = self.protocol.locks.setdefault(lock_id, _LockState())
        if not state.held:
            state.held = True
            state.holder = src
            yield from self._send_grant(src, req_id, lock_id)
        else:
            state.queue.append((src, req_id))

    def _serve_lock_rel(self, src: int, data: bytes) -> Generator:
        _req_id, lock_id, _f = _LOCK_MSG.unpack(data)
        yield from self._local_unlock(lock_id)

    def _serve_barrier(self, src: int, data: bytes) -> Generator:
        req_id, _epoch, _nb = _BARRIER_MSG.unpack(data)
        state = self.protocol.barrier_state
        state.arrived.append((src, req_id))
        if len(state.arrived) >= self.protocol.nprocs:
            yield from self._barrier_release_all()
