"""Physical memory: a flat byte array divided into page frames.

Every node owns one ``PhysicalMemory``.  All real data handled by the
communication stack — receive buffers, SVM pages, socket streams — lives in
these byte arrays, so transfers move *actual bytes* end to end and the test
suite can check data integrity, not just timing.

Memory is committed lazily, so building a node costs O(1) and holding it
costs O(pages touched).  The bytes live in an anonymous private mapping
that the OS zero-fills a page at a time on first touch, and the frame
allocator hands out never-used frames from a high-water mark.  Frames come
out in exactly the order an eager descending free stack would give them:
freed frames first (last freed, first reused), then ascending fresh ones.
"""

from __future__ import annotations

import mmap
from typing import List

__all__ = ["PhysicalMemory", "OutOfMemoryError"]


class OutOfMemoryError(MemoryError):
    """No free page frames remain on the node."""


class PhysicalMemory:
    """Byte-addressable memory with a simple page-frame allocator."""

    def __init__(self, size_bytes: int, page_size: int):
        if size_bytes % page_size != 0:
            raise ValueError("memory size must be a whole number of pages")
        self.page_size = page_size
        self.size = size_bytes
        self.num_frames = size_bytes // page_size
        # MAP_PRIVATE, not Python's default MAP_SHARED: a forked fleet
        # worker must not write through into its parent's memory.  An
        # empty mapping is invalid, so a zero-size memory maps one byte
        # that ``_check_range`` never lets anyone reach.
        self.data = mmap.mmap(-1, size_bytes or 1, flags=mmap.MAP_PRIVATE)
        self._freed: List[int] = []
        self._next_frame = 0
        self._allocated = bytearray(self.num_frames)

    # -- frame allocation -------------------------------------------------

    @property
    def free_frames(self) -> int:
        return len(self._freed) + self.num_frames - self._next_frame

    def alloc_frame(self) -> int:
        """Allocate one page frame; returns the frame number."""
        if self._freed:
            frame = self._freed.pop()
        elif self._next_frame < self.num_frames:
            frame = self._next_frame
            self._next_frame += 1
        else:
            raise OutOfMemoryError(
                f"out of physical memory ({self.num_frames} frames in use)"
            )
        self._allocated[frame] = 1
        return frame

    def alloc_frames(self, count: int) -> List[int]:
        if count > self.free_frames:
            raise OutOfMemoryError(
                f"requested {count} frames, only {self.free_frames} free"
            )
        return [self.alloc_frame() for _ in range(count)]

    def free_frame(self, frame: int) -> None:
        base = self.frame_base(frame)
        if not self._allocated[frame]:
            raise ValueError(f"double free of frame {frame}")
        self._allocated[frame] = 0
        # Zero on free so stale data never leaks between owners.
        self.data[base : base + self.page_size] = bytes(self.page_size)
        self._freed.append(frame)

    def is_allocated(self, frame: int) -> bool:
        self.frame_base(frame)  # range check
        return self._allocated[frame] == 1

    # -- byte access --------------------------------------------------------

    def frame_base(self, frame: int) -> int:
        if not 0 <= frame < self.num_frames:
            raise ValueError(f"frame {frame} out of range")
        return frame * self.page_size

    def read(self, addr: int, length: int) -> bytes:
        end = addr + length
        if addr < 0 or length < 0 or end > self.size:
            self._check_range(addr, length)
        return self.data[addr:end]

    def write(self, addr: int, payload: bytes) -> None:
        end = addr + len(payload)
        if addr < 0 or end > self.size:
            self._check_range(addr, len(payload))
        self.data[addr:end] = payload

    def read_page(self, frame: int) -> bytes:
        base = self.frame_base(frame)
        return self.data[base : base + self.page_size]

    def write_page(self, frame: int, payload: bytes) -> None:
        if len(payload) != self.page_size:
            raise ValueError("write_page payload must be exactly one page")
        base = self.frame_base(frame)
        self.data[base : base + self.page_size] = payload

    def _check_range(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise ValueError(
                f"physical access [{addr}, {addr + length}) outside memory "
                f"of {self.size} bytes"
            )
