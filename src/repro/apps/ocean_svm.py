"""Ocean-SVM: the grid solver on shared virtual memory.

Work is assigned by statically splitting the grid into blocks of whole
contiguous rows (paper section 3).  Nearest-neighbor communication appears
as page faults on the partition-boundary rows each sweep; with rows much
smaller than a page, neighboring processors' rows share pages, producing
the moderate write-write false sharing that gives AURC its Ocean advantage
(Figure 4).
"""

from __future__ import annotations

import struct
from typing import Generator, List, Optional

from ..svm import SharedArray, make_protocol
from .base import Application, RunContext
from .ocean import CYCLES_PER_POINT, make_grid, relax_row, row_partition, sequential_solve

__all__ = ["OceanSVM"]


class OceanSVM(Application):
    name = "Ocean-SVM"
    api = "SVM"

    def __init__(
        self,
        mode: str = "au",
        n: int = 34,
        sweeps: int = 10,
        protocol: Optional[str] = None,
    ):
        super().__init__(mode)
        if n < 4:
            raise ValueError("grid too small")
        self.n = n
        self.sweeps = sweeps
        self.protocol_name = protocol or ("aurc" if mode == "au" else "hlrc")
        #: Combining on the protocol's AU bindings (section 4.5.1 study).
        self.au_combine = False
        self._grid: List[List[float]] = []
        self._final: List[float] = []

    def workers(self, ctx: RunContext) -> List[Generator]:
        rng = ctx.rng.split("ocean")
        self._grid = make_grid(self.n, rng)
        svm = make_protocol(self.protocol_name, ctx.vmmc, ctx.nprocs,
                            au_combine=self.au_combine)
        return [self._worker(ctx, svm, i) for i in range(ctx.nprocs)]

    def _worker(self, ctx: RunContext, svm, index: int) -> Generator:
        n = self.n
        node = yield from svm.join(index, ctx.machine.create_process(index))
        cpu = node.endpoint.node.cpu
        arrays = []
        for which in ("a", "b"):
            arr = yield from SharedArray.create(node, f"ocean.{which}", n * n, "f8")
            arrays.append(arr)
        yield from node.barrier()
        if index == 0:
            flat = [v for row in self._grid for v in row]
            arrays[0].init_global(flat)
            arrays[1].init_global(flat)
        yield from node.barrier()
        ctx.mark_start()

        lo, hi = row_partition(n, ctx.nprocs, index)
        for sweep in range(self.sweeps):
            cur, nxt = arrays[sweep % 2], arrays[(sweep + 1) % 2]
            if hi <= lo:
                yield from node.barrier()
                continue
            # Read my rows plus the two boundary rows of my neighbors.
            raw = yield from cur.get_range((lo - 1) * n, (hi + 1 - (lo - 1)) * n)
            yield from cpu.compute(CYCLES_PER_POINT * (hi - lo) * n)
            rows = [raw[r * n : (r + 1) * n] for r in range(hi + 1 - (lo - 1))]
            new_rows: List[float] = []
            for r in range(1, len(rows) - 1):
                new_rows.extend(relax_row(rows[r - 1], rows[r], rows[r + 1]))
            yield from nxt.set_range(lo * n, new_rows)
            yield from node.barrier()

        ctx.mark_end()
        if index == 0:
            final = arrays[self.sweeps % 2]
            self._final = yield from final.get_range(0, n * n)

    def validate(self) -> None:
        expected = sequential_solve(self._grid, self.sweeps)
        flat = [v for row in expected for v in row]
        if self._final != flat:
            bad = sum(1 for a, b in zip(self._final, flat) if a != b)
            raise AssertionError(f"Ocean-SVM diverged from reference ({bad} points)")
