"""Radix-SVM: the SPLASH-2 radix sort kernel on shared virtual memory.

The dominant phase is key permutation: each node reads its contiguous
block of source keys and writes them to scattered positions of the
destination array.  For a uniform key distribution a node's writes to its
r*p destination sets interleave unpredictably, inducing substantial
write-write **false sharing at page granularity** (paper section 3) — the
workload where AURC's diff elimination pays off most (Figure 4).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..svm import SVMProtocol, SharedArray, make_protocol
from .base import Application, RunContext
from .radix import digit_of, local_histogram, make_keys, passes_needed, radix_sort

__all__ = ["RadixSVM"]

#: CPU cycles charged per key for histogramming / digit extraction
#: (dependent loads missing the tiny 60 MHz Pentium cache).
CYCLES_PER_KEY = 80.0


class RadixSVM(Application):
    name = "Radix-SVM"
    api = "SVM"

    def __init__(
        self,
        mode: str = "au",
        n_keys: int = 4096,
        radix: int = 16,
        max_key: int = 4096,
        protocol: Optional[str] = None,
    ):
        super().__init__(mode)
        self.n_keys = n_keys
        self.radix = radix
        self.max_key = max_key
        #: Figure 4 compares hlrc / hlrc-au / aurc explicitly; Figure 3 and
        #: the tables use mode: au -> aurc, du -> hlrc.
        self.protocol_name = protocol or ("aurc" if mode == "au" else "hlrc")
        #: Combining on the protocol's AU bindings (section 4.5.1 study).
        self.au_combine = False
        self.passes = passes_needed(max_key, radix)
        self._keys: List[int] = []
        self._final: List[int] = []

    def workers(self, ctx: RunContext) -> List[Generator]:
        rng = ctx.rng.split("radix-svm")
        self._keys = make_keys(rng, self.n_keys, self.max_key)
        svm = make_protocol(self.protocol_name, ctx.vmmc, ctx.nprocs,
                            au_combine=self.au_combine)
        return [self._worker(ctx, svm, i) for i in range(ctx.nprocs)]

    def _worker(self, ctx: RunContext, svm: SVMProtocol, index: int) -> Generator:
        nprocs = ctx.nprocs
        node = yield from svm.join(index, ctx.machine.create_process(index))
        cpu = node.endpoint.node.cpu
        arrays = []
        for which in ("a", "b"):
            arr = yield from SharedArray.create(
                node, f"radix.keys.{which}", self.n_keys, "i4"
            )
            arrays.append(arr)
        hist = yield from SharedArray.create(
            node, "radix.hist", nprocs * self.radix, "i4"
        )
        yield from node.barrier()
        if index == 0:
            arrays[0].init_global(self._keys)
            arrays[1].init_global([0] * self.n_keys)
            hist.init_global([0] * nprocs * self.radix)
        yield from node.barrier()
        ctx.mark_start()

        n_per = self.n_keys // nprocs
        lo = index * n_per
        hi = self.n_keys if index == nprocs - 1 else lo + n_per

        for pass_no in range(self.passes):
            src, dst = arrays[pass_no % 2], arrays[(pass_no + 1) % 2]
            my_keys = yield from src.get_range(lo, hi - lo)
            yield from cpu.compute(CYCLES_PER_KEY * len(my_keys))
            counts = local_histogram(my_keys, self.radix, pass_no)
            yield from hist.set_range(index * self.radix, counts)
            yield from node.barrier()

            # Compute this node's starting offset for every digit from the
            # global histogram (all nodes read all counts).
            all_counts = yield from hist.get_range(0, nprocs * self.radix)
            yield from cpu.compute(2.0 * nprocs * self.radix)
            offsets = self._my_offsets(all_counts, index, nprocs)

            # Permutation: scattered single-key writes -> false sharing.
            for key in my_keys:
                digit = digit_of(key, self.radix, pass_no)
                yield from dst.set(offsets[digit], key)
                offsets[digit] += 1
            yield from node.barrier()

        ctx.mark_end()
        if index == 0:
            final = arrays[self.passes % 2]
            self._final = yield from final.get_range(0, self.n_keys)

    def _my_offsets(self, all_counts: List[int], index: int, nprocs: int) -> List[int]:
        """Global write offset of this node's first key of each digit."""
        digit_totals = [
            sum(all_counts[p * self.radix + d] for p in range(nprocs))
            for d in range(self.radix)
        ]
        offsets = []
        base = 0
        for d in range(self.radix):
            before_me = sum(
                all_counts[p * self.radix + d] for p in range(index)
            )
            offsets.append(base + before_me)
            base += digit_totals[d]
        return offsets

    def validate(self) -> None:
        expected = radix_sort(self._keys, self.radix, self.max_key)
        if self._final != expected:
            raise AssertionError("Radix-SVM produced an unsorted result")
