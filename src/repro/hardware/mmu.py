"""Virtual memory: per-process address spaces, protections, page modes.

The SHRIMP design leans on three Pentium/Xpress properties (paper S2.1):
caches snoop the bus and stay consistent, caching mode is selectable
**per page** (write-back / write-through / uncached), and the bus is not
cycle-shared.  The per-page write-through mode is what makes automatic
update possible — stores to AU-bound pages must appear on the bus so the
NIC's snoop logic can see them.  The MMU records that mode per page.

Shared virtual memory builds on the protection machinery: SVM protocols set
pages to ``PROT_NONE``/``PROT_READ`` and catch :class:`PageFault` to drive
invalidation-based consistency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from .memory import PhysicalMemory

__all__ = [
    "Protection",
    "PageMode",
    "PageFault",
    "PageTableEntry",
    "AddressSpace",
]


class Protection(enum.IntEnum):
    """Access rights on a virtual page."""

    NONE = 0
    READ = 1
    WRITE = 2  # implies read


class PageMode(enum.Enum):
    """Per-page cache mode (Pentium PCD/PWT page-table bits)."""

    WRITE_BACK = "write-back"
    WRITE_THROUGH = "write-through"
    UNCACHED = "uncached"


class PageFault(Exception):
    """An access violated the page's protection (or the page is unmapped)."""

    def __init__(self, vpage: int, access: Protection, mapped: bool):
        self.vpage = vpage
        self.access = access
        self.mapped = mapped
        kind = "write" if access == Protection.WRITE else "read"
        state = "protected" if mapped else "unmapped"
        super().__init__(f"{kind} fault on {state} virtual page {vpage}")


@dataclass
class PageTableEntry:
    frame: int
    protection: Protection
    mode: PageMode


class AddressSpace:
    """One process's page table over a node's physical memory."""

    def __init__(self, memory: PhysicalMemory):
        self.memory = memory
        self.page_size = memory.page_size
        self._table: Dict[int, PageTableEntry] = {}
        self._next_vpage = 16  # leave low pages unmapped to catch bad addresses

    # -- mapping ------------------------------------------------------------

    def map_page(
        self,
        vpage: int,
        frame: int,
        protection: Protection = Protection.WRITE,
        mode: PageMode = PageMode.WRITE_BACK,
    ) -> None:
        if vpage in self._table:
            raise ValueError(f"virtual page {vpage} already mapped")
        self._table[vpage] = PageTableEntry(frame, protection, mode)

    def unmap_page(self, vpage: int) -> PageTableEntry:
        try:
            return self._table.pop(vpage)
        except KeyError:
            raise ValueError(f"virtual page {vpage} not mapped") from None

    def alloc_region(
        self,
        npages: int,
        protection: Protection = Protection.WRITE,
        mode: PageMode = PageMode.WRITE_BACK,
    ) -> int:
        """Allocate fresh frames and map them contiguously; returns the base
        virtual address."""
        base_vpage = self._next_vpage
        self._next_vpage += npages
        frames = self.memory.alloc_frames(npages)
        for i, frame in enumerate(frames):
            self.map_page(base_vpage + i, frame, protection, mode)
        return base_vpage * self.page_size

    def entry(self, vpage: int) -> Optional[PageTableEntry]:
        return self._table.get(vpage)

    def is_mapped(self, vpage: int) -> bool:
        return vpage in self._table

    # -- protection / mode -----------------------------------------------

    def protect(self, vpage: int, protection: Protection) -> None:
        self._require(vpage).protection = protection

    def set_mode(self, vpage: int, mode: PageMode) -> None:
        self._require(vpage).mode = mode

    def _require(self, vpage: int) -> PageTableEntry:
        entry = self._table.get(vpage)
        if entry is None:
            raise ValueError(f"virtual page {vpage} not mapped")
        return entry

    # -- translation ------------------------------------------------------

    def translate(self, vaddr: int, access: Protection) -> int:
        """Virtual address -> physical address, enforcing protection."""
        vpage, offset = divmod(vaddr, self.page_size)
        entry = self._table.get(vpage)
        if entry is None:
            raise PageFault(vpage, access, mapped=False)
        if entry.protection < access:
            raise PageFault(vpage, access, mapped=True)
        return entry.frame * self.page_size + offset

    # -- data access (performs translation page by page) --------------------

    def read(self, vaddr: int, length: int) -> bytes:
        chunks = []
        for start, size in self._page_spans(vaddr, length):
            phys = self.translate(start, Protection.READ)
            chunks.append(self.memory.read(phys, size))
        return b"".join(chunks)

    def write(self, vaddr: int, payload: bytes) -> None:
        offset = 0
        for start, size in self._page_spans(vaddr, len(payload)):
            phys = self.translate(start, Protection.WRITE)
            self.memory.write(phys, payload[offset : offset + size])
            offset += size

    def _page_spans(self, vaddr: int, length: int):
        """Split [vaddr, vaddr+length) into per-page (start, size) spans."""
        remaining = length
        addr = vaddr
        while remaining > 0:
            in_page = self.page_size - (addr % self.page_size)
            size = min(in_page, remaining)
            yield addr, size
            addr += size
            remaining -= size
        if length == 0:
            # Permit zero-length accesses (they still translate the base).
            yield vaddr, 0
