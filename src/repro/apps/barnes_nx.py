"""Barnes-NX: the message-passing version of the N-body simulation.

Every step, each rank exchanges body state all-to-all in small
octree-cell-sized batches (the real Barnes-NX communicates tree cells,
making it by far the most message-intensive application in Table 3),
rebuilds the octree locally, computes forces for its block of bodies, and
advances them.  The paper notes that beyond eight nodes the octree
introduces communication into an otherwise compute-only phase, limiting
speedup; the fine-grained exchange reproduces that pressure — and the
52% syscall sensitivity of Table 2.
"""

from __future__ import annotations

import struct
from typing import Generator, List

from ..msg import NXWorld
from .base import Application, RunContext
from .barnes import (
    CYCLES_PER_BODY_BUILD,
    CYCLES_PER_INTERACTION,
    Body,
    advance,
    build_octree,
    check_reference,
    compute_force,
    make_bodies,
)

__all__ = ["BarnesNX"]


class BarnesNX(Application):
    name = "Barnes-NX"
    api = "NX"

    def __init__(
        self,
        mode: str = "du",
        n_bodies: int = 256,
        steps: int = 3,
        theta: float = 0.6,
        dt: float = 0.05,
        batch_bodies: int = 2,
        coll=None,
    ):
        super().__init__(mode)
        self.n_bodies = n_bodies
        self.steps = steps
        self.theta = theta
        self.dt = dt
        #: Optional :class:`repro.coll.CollConfig`: run gsync on the
        #: in-network collective engines instead of the host dissemination
        #: barrier.
        self.coll = coll
        #: Bodies per exchange message.  The real Barnes-NX communicates
        #: octree cells individually, making it by far the most
        #: message-intensive application (1M messages in Table 3 and the
        #: worst case, 52%, for the syscall-per-send what-if in Table 2);
        #: a small batch size reproduces that fine-grained traffic.
        self.batch_bodies = batch_bodies
        self._bodies: List[Body] = []
        self._final: List[float] = []

    def workers(self, ctx: RunContext) -> List[Generator]:
        rng = ctx.rng.split("barnes")
        self._bodies = make_bodies(self.n_bodies, rng)
        self._final = []
        world = NXWorld(ctx.vmmc, ctx.nprocs, transport=self.mode, coll=self.coll)
        return [self._worker(ctx, world, i) for i in range(ctx.nprocs)]

    def _worker(self, ctx: RunContext, world: NXWorld, index: int) -> Generator:
        n = self.n_bodies
        nx = yield from world.join(index, ctx.machine.create_process(index))
        cpu = nx.endpoint.node.cpu
        yield from nx.gsync()
        ctx.mark_start()

        masses = [b.mass for b in self._bodies]
        n_per = n // ctx.nprocs
        lo = index * n_per
        hi = n if index == ctx.nprocs - 1 else lo + n_per
        # Rank-local copy of its block's state.
        mine = [
            (b.x, b.y, b.z, b.vx, b.vy, b.vz) for b in self._bodies[lo:hi]
        ]

        for _step in range(self.steps):
            flat = yield from self._exchange_bodies(ctx, nx, mine, lo, hi, _step)
            bodies = [
                Body(
                    flat[i * 6], flat[i * 6 + 1], flat[i * 6 + 2],
                    masses[i], flat[i * 6 + 3], flat[i * 6 + 4], flat[i * 6 + 5],
                )
                for i in range(n)
            ]
            root, levels = build_octree(bodies)
            yield from cpu.compute(CYCLES_PER_BODY_BUILD * levels)
            interactions = 0
            new_mine = []
            for i in range(lo, hi):
                fx, fy, fz, count = compute_force(root, bodies[i], self.theta)
                interactions += count
                advance(bodies[i], fx, fy, fz, self.dt)
                b = bodies[i]
                new_mine.append((b.x, b.y, b.z, b.vx, b.vy, b.vz))
            yield from cpu.compute(CYCLES_PER_INTERACTION * interactions)
            mine = new_mine

        ctx.mark_end()
        packed = struct.pack(f"<{len(mine) * 6}d", *[v for t in mine for v in t])
        parts = yield from nx.allgather(packed)
        if index == 0:
            flat = []
            for part in parts:
                flat.extend(struct.unpack(f"<{len(part) // 8}d", part))
            self._final = flat

    def _exchange_bodies(self, ctx: RunContext, nx, mine, lo: int, hi: int, step: int):
        """All-to-all body exchange in octree-cell-sized batches.

        The batch payload carries its starting body index so receivers
        place batches positionally; the message type carries the step
        number so a fast peer's next-step batches are never consumed as
        this step's.
        """
        n = self.n_bodies
        flat: List[float] = [0.0] * (n * 6)
        for i, t in enumerate(mine):
            flat[(lo + i) * 6 : (lo + i + 1) * 6] = list(t)
        batch = self.batch_bodies
        for dest in range(ctx.nprocs):
            if dest == self.world_index(nx):
                continue
            for start in range(0, len(mine), batch):
                chunk = mine[start : start + batch]
                payload = struct.pack(
                    f"<i{len(chunk) * 6}d", lo + start,
                    *[v for t in chunk for v in t],
                )
                yield from nx.csend(200 + step, payload, dest)
        expected = 0
        for src in range(ctx.nprocs):
            if src == self.world_index(nx):
                continue
            src_lo = src * (n // ctx.nprocs)
            src_hi = n if src == ctx.nprocs - 1 else src_lo + n // ctx.nprocs
            expected += -(-(src_hi - src_lo) // batch) if src_hi > src_lo else 0
        for _ in range(expected):
            _src, _t, payload = yield from nx.crecv(200 + step)
            start = struct.unpack_from("<i", payload)[0]
            values = struct.unpack_from(f"<{(len(payload) - 4) // 8}d", payload, 4)
            flat[start * 6 : start * 6 + len(values)] = list(values)
        return flat

    @staticmethod
    def world_index(nx) -> int:
        return nx.rank

    def validate(self) -> None:
        check_reference(
            self.name, self._final, self._bodies, self.steps, self.theta, self.dt
        )
