"""HLRC-AU: HLRC with diffs propagated by automatic update.

The middle bar of Figure 4 (left): identical to HLRC — write faults twin
the page, releases compute diffs — but instead of packing the diff into an
explicit deliberate-update message that the home's CPU applies, the
releaser rewrites the changed words through an automatic-update binding;
the updates land on the home page directly, with no home-side apply and no
acknowledgment (an ordering fence suffices).  The paper found this buys
very little over HLRC — the diff *computation*, not its transmission, is
the real cost — and our model reproduces that.
"""

from __future__ import annotations

from typing import Generator, List

from .aurc import AUBindingMixin
from .diffs import compute_diff, diff_wire_bytes
from .hlrc import DIFF_CYCLES_PER_WORD, HLRCNode
from .protocol import SVMProtocol

__all__ = ["HLRCAUProtocol", "HLRCAUNode"]


class HLRCAUNode(AUBindingMixin, HLRCNode):
    def _flush_dirty(self, dirty: List[int]) -> Generator:
        """Diff against twins, then push the changed runs through AU."""
        for gpage in dirty:
            home = self.protocol.home_of(gpage)
            if home == self.index:
                continue
            region = self.protocol.region_of_gpage(gpage)
            page_index = gpage - region.first_gpage
            twin = self.twins[gpage]
            current = self._page_bytes(region, page_index)
            yield from self.endpoint.node.cpu.busy(
                self.params.cycles(DIFF_CYCLES_PER_WORD * (region.page_size // 4)),
                "overhead",
            )
            diff = compute_diff(twin, current)
            self.stats.count("svm.diffs_computed")
            self.stats.count("svm.diff_bytes", diff_wire_bytes(diff))
            page_base = self._local_addr(region, page_index * region.page_size)
            for offset, run in diff:
                # Re-store the changed words through the AU window; the
                # snoop logic carries them to the home page.
                yield from self.endpoint.au_write(
                    page_base + offset, run, category="overhead"
                )
        yield from self._au_fence(dirty)


class HLRCAUProtocol(SVMProtocol):
    name = "hlrc-au"
    uses_au_bindings = True

    def make_node(self, index, endpoint) -> HLRCAUNode:
        return HLRCAUNode(self, index, endpoint)
