"""AURC: Automatic Update Release Consistency.

The protocol of paper reference [25]: shared pages whose home is remote are
bound for **automatic update** to the home's copy, so every write
propagates eagerly as a side-effect of the store — no twins, no diffs, no
home-side apply.  At release time the writer only has to make sure its AU
traffic has reached the homes (an ordering fence), publish write notices,
and move on.  Figure 4 (left) shows this eliminating HLRC's diff overhead,
especially under write-write false sharing.

The AU bindings combine stores only when the protocol is built with
``au_combine=True``, an :class:`~repro.svm.protocol.SVMProtocol` argument
every AU protocol shares (off by default: the paper found combining buys
<1% for AURC's sparse writes, section 4.5.1).  A protocol without AU
bindings rejects it.
"""

from __future__ import annotations

from typing import Generator, List, Set

from .protocol import PageState, SVMNode, SVMProtocol, SharedRegion

__all__ = ["AURCProtocol", "AURCNode", "AUBindingMixin"]


class AUBindingMixin:
    """Region setup that binds every non-home page for automatic update."""

    def _setup_region(self, region: SharedRegion) -> Generator:
        tag = self.protocol.fabric.tag
        imports = {}
        base_vaddr, _states = self._copies[region.region_id]
        for page_index in range(region.npages):
            gpage = region.gpage(page_index)
            home = self.protocol.home_of(gpage)
            if home == self.index:
                continue
            if home not in imports:
                imports[home] = yield from self.endpoint.import_buffer(
                    f"svm{tag}.copy.{region.name}.{home}"
                )
            yield from self.endpoint.bind_au(
                imports[home],
                base_vaddr + page_index * region.page_size,
                1,
                remote_page_index=page_index,
                combine=self.protocol.au_combine,
            )

    def _au_fence(self, dirty: List[int]) -> Generator:
        """Drain the outgoing AU path and fence every home written this
        interval, so later page fetches observe the updates."""
        yield from self.endpoint.au_drain()
        homes: Set[int] = set()
        for gpage in dirty:
            home = self.protocol.home_of(gpage)
            if home != self.index:
                homes.add(home)
        for home in sorted(homes):
            yield from self.link.send_fence(home)
            self.stats.count("svm.au_fences")


class AURCNode(AUBindingMixin, SVMNode):
    def _store(self, region: SharedRegion, offset: int, chunk: bytes) -> Generator:
        """Stores to remotely-homed pages go through the write-through AU
        path (bus + snoop + outgoing FIFO); home-page stores are ordinary."""
        gpage = region.gpage(offset // region.page_size)
        if self.protocol.home_of(gpage) == self.index:
            yield from self._charge_access(len(chunk))
            self._poke_region(region, offset, chunk)
        else:
            yield from self._flush_access()
            yield from self.endpoint.au_write(
                self._local_addr(region, offset), chunk, category="computation"
            )

    def _flush_dirty(self, dirty: List[int]) -> Generator:
        yield from self._au_fence(dirty)


class AURCProtocol(SVMProtocol):
    name = "aurc"
    uses_au_bindings = True

    def make_node(self, index, endpoint) -> AURCNode:
        return AURCNode(self, index, endpoint)
