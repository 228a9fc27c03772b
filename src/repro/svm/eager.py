"""An eager single-writer protocol: the pre-LRC baseline.

The paper's SVM lineage starts from IVY-style sequential consistency
(reference [33]) and the eager AU-based shared memories it cites (PLUS
[8], Merlin [36], SESAME [45]).  This protocol reproduces that design
point on the SHRIMP hardware model:

- every page has **one writer at a time**; a write fault transfers
  ownership through the page's home and invalidates every other copy
  *immediately* (not lazily at synchronization);
- owners write **through** automatic-update bindings, so the home copy is
  always current and ownership transfer never needs a data recall;
- readers fetch from the home and are registered in the page's copyset.

Under write-write false sharing this ping-pongs ownership on every
interleaved write — the pathology that motivated lazy release consistency.
``benchmarks/test_ablations.py`` measures the gap against HLRC/AURC.

Semantics note: like the real eager AU systems, propagation is
write-through rather than invalidate-on-every-store, so the protocol is
correct for data-race-free programs (the suite's applications), not a
cycle-exact sequential-consistency implementation.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Set

from .aurc import AUBindingMixin
from .protocol import (
    PageState,
    REP_ACK,
    SVMNode,
    SVMProtocol,
    SharedRegion,
    _ACK,
)

__all__ = ["EagerProtocol", "EagerNode"]

# Additional record types (disjoint from the base protocol's).
REQ_OWN = 20
REP_OWN = 21
REQ_INVAL = 22

_OWN_REQ = struct.Struct("<II")    # req_id, gpage
_OWN_HDR = struct.Struct("<III")   # req_id, gpage, copyset size
_INVAL = struct.Struct("<III")     # req_id, gpage, requester


class EagerNode(AUBindingMixin, SVMNode):
    """Single-writer pages with immediate invalidation."""

    # -- write path -------------------------------------------------------

    def _write_fault(self, region: SharedRegion, page_index: int) -> Generator:
        """Acquire exclusive ownership of the page before writing."""
        self.write_faults += 1
        self.stats.count("svm.write_faults")
        yield from self._fault_overhead()
        gpage = region.gpage(page_index)
        yield from self._acquire_ownership(region, page_index, gpage)
        self.dirty.add(gpage)
        self._set_state(region, page_index, PageState.WRITE)

    def _acquire_ownership(
        self, region: SharedRegion, page_index: int, gpage: int
    ) -> Generator:
        home = self.protocol.home_of(gpage)
        yield from self._flush_access()
        self.stats.count("svm.ownership_transfers")
        if home == self.index:
            # The home grants itself ownership locally.
            copyset = self._home_take_ownership(gpage, self.index)
        else:
            req_id = self._new_req()
            yield from self.link.send_request(
                home, REQ_OWN, _OWN_REQ.pack(req_id, gpage)
            )
            _rtype, payload = yield from self._await_reply(home, REP_OWN, req_id)
            _id, _g, count = _OWN_HDR.unpack_from(payload)
            members = list(
                struct.unpack_from(f"<{count}I", payload, _OWN_HDR.size)
            )
            page = payload[_OWN_HDR.size + 4 * count :]
            yield from self.endpoint.copy_in(
                self._local_addr(region, page_index * region.page_size), page
            )
            copyset = members
        # Invalidate every other copy, synchronously.
        acks = []
        for member in copyset:
            if member == self.index:
                continue
            req_id = self._new_req()
            yield from self.link.send_request(
                member, REQ_INVAL, _INVAL.pack(req_id, gpage, self.index)
            )
            acks.append((member, req_id))
        for member, req_id in acks:
            yield from self._await_reply(member, REP_ACK, req_id)
            self.stats.count("svm.invalidations")

    def _home_take_ownership(self, gpage: int, new_owner: int) -> List[int]:
        """Home-side bookkeeping; returns the previous copyset."""
        proto: EagerProtocol = self.protocol  # type: ignore[assignment]
        previous = sorted(proto.copysets.get(gpage, set()))
        proto.owners[gpage] = new_owner
        proto.copysets[gpage] = {new_owner}
        return previous

    # -- stores write through (home always current) ------------------------

    def _store(self, region: SharedRegion, offset: int, chunk: bytes) -> Generator:
        gpage = region.gpage(offset // region.page_size)
        if self.protocol.home_of(gpage) == self.index:
            yield from self._charge_access(len(chunk))
            self._poke_region(region, offset, chunk)
        else:
            yield from self._flush_access()
            yield from self.endpoint.au_write(
                self._local_addr(region, offset), chunk, category="computation"
            )

    # -- releases only need the AU fence (home already current) -------------

    def _flush_dirty(self, dirty: List[int]) -> Generator:
        yield from self._au_fence(dirty)

    # -- read path registers the reader in the copyset ----------------------

    def _fetch_page(self, region: SharedRegion, page_index: int) -> Generator:
        gpage = region.gpage(page_index)
        home = self.protocol.home_of(gpage)
        if home == self.index:
            self.protocol.copysets.setdefault(gpage, set()).add(self.index)
            return
        yield from super()._fetch_page(region, page_index)

    # -- daemon handlers ----------------------------------------------------

    def _handle_request(self, src: int, rtype: int, data: bytes):
        if rtype == REQ_OWN:
            return self._serve_ownership(src, data)
        if rtype == REQ_INVAL:
            return self._serve_invalidate(src, data)
        return super()._handle_request(src, rtype, data)

    def _serve_page(self, src: int, data: bytes) -> Generator:
        """Read fetch: also record the reader in the copyset."""
        from .protocol import _PAGE_REQ

        _req_id, gpage = _PAGE_REQ.unpack(data)
        proto: EagerProtocol = self.protocol  # type: ignore[assignment]
        proto.copysets.setdefault(gpage, set()).add(src)
        yield from super()._serve_page(src, data)

    def _serve_ownership(self, src: int, data: bytes) -> Generator:
        req_id, gpage = _OWN_REQ.unpack(data)
        region = self.protocol.region_of_gpage(gpage)
        page_index = gpage - region.first_gpage
        previous = self._home_take_ownership(gpage, src)
        page = self._page_bytes(region, page_index)
        yield from self.endpoint.node.cpu.busy(2.0, "overhead")
        payload = (
            _OWN_HDR.pack(req_id, gpage, len(previous))
            + struct.pack(f"<{len(previous)}I", *previous)
            + page
        )
        yield from self._send_reply_to(src, REP_OWN, payload)

    def _serve_invalidate(self, src: int, data: bytes) -> Generator:
        req_id, gpage, requester = _INVAL.unpack(data)
        region = self.protocol.region_of_gpage(gpage)
        page_index = gpage - region.first_gpage
        if region.region_id in self._copies:
            self._set_state(region, page_index, PageState.INVALID)
            self.dirty.discard(gpage)
        yield from self.endpoint.node.cpu.busy(1.0, "overhead")
        yield from self.link.send_reply(requester, REP_ACK, _ACK.pack(req_id))


class EagerProtocol(SVMProtocol):
    name = "eager"
    uses_au_bindings = True

    def __init__(self, runtime, nprocs, ring_bytes: int = 32 * 1024,
                 au_combine: bool = False):
        super().__init__(runtime, nprocs, ring_bytes, au_combine)
        #: Home-side ownership bookkeeping (touched by home daemons only).
        self.owners: Dict[int, int] = {}
        self.copysets: Dict[int, Set[int]] = {}

    def make_node(self, index, endpoint) -> EagerNode:
        return EagerNode(self, index, endpoint)
