"""Barnes-SVM: the N-body simulation on shared virtual memory.

Body state (positions, velocities, masses) lives in shared arrays.  Each
time step every node reads the full position set (faulting in the pages
its peers updated last step), rebuilds the octree, computes forces for its
block of bodies, and writes its bodies' new state back — the irregular
read-mostly sharing plus block-scattered writes of the SPLASH-2 original.
A lock-protected global bounding-box/energy cell is updated every step,
exercising the lock path (Barnes is the most notification-heavy SVM app in
Table 3).
"""

from __future__ import annotations

import struct
from typing import Generator, List, Optional

from ..svm import SharedArray, make_protocol
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

__all__ = ["BarnesSVM"]

_BBOX_LOCK = 1


class BarnesSVM(Application):
    name = "Barnes-SVM"
    api = "SVM"

    def __init__(
        self,
        mode: str = "au",
        n_bodies: int = 256,
        steps: int = 3,
        theta: float = 0.6,
        dt: float = 0.05,
        protocol: Optional[str] = None,
    ):
        super().__init__(mode)
        self.n_bodies = n_bodies
        self.steps = steps
        self.theta = theta
        self.dt = dt
        self.protocol_name = protocol or ("aurc" if mode == "au" else "hlrc")
        #: Extra protocol constructor kwargs (e.g. au_combine=True).
        self.svm_kwargs = {}
        self._bodies: List[Body] = []
        self._final: List[float] = []

    def workers(self, ctx: RunContext) -> List[Generator]:
        rng = ctx.rng.split("barnes")
        self._bodies = make_bodies(self.n_bodies, rng)
        svm = make_protocol(self.protocol_name, ctx.vmmc, ctx.nprocs, **self.svm_kwargs)
        return [self._worker(ctx, svm, i) for i in range(ctx.nprocs)]

    def _worker(self, ctx: RunContext, svm, index: int) -> Generator:
        n = self.n_bodies
        node = yield from svm.join(index, ctx.machine.create_process(index))
        cpu = node.endpoint.node.cpu
        # State layout: 6 doubles per body (x, y, z, vx, vy, vz); masses
        # are static and replicated.
        state = yield from SharedArray.create(node, "barnes.state", n * 6, "f8")
        bbox = yield from SharedArray.create(node, "barnes.bbox", 8, "f8")
        yield from node.barrier()
        if index == 0:
            flat: List[float] = []
            for b in self._bodies:
                flat.extend((b.x, b.y, b.z, b.vx, b.vy, b.vz))
            state.init_global(flat)
            bbox.init_global([0.0] * 8)
        yield from node.barrier()
        ctx.mark_start()

        masses = [b.mass for b in self._bodies]
        n_per = n // ctx.nprocs
        lo = index * n_per
        hi = n if index == ctx.nprocs - 1 else lo + n_per

        for _step in range(self.steps):
            # Read the full body state (remote pages fault in).
            flat = yield from state.get_range(0, n * 6)
            bodies = [
                Body(
                    flat[i * 6], flat[i * 6 + 1], flat[i * 6 + 2],
                    masses[i], flat[i * 6 + 3], flat[i * 6 + 4], flat[i * 6 + 5],
                )
                for i in range(n)
            ]
            # Everyone must finish reading the old state before anyone
            # writes the new one (the state array is updated in place).
            yield from node.barrier()
            root, levels = build_octree(bodies)
            yield from cpu.compute(CYCLES_PER_BODY_BUILD * levels)

            # Update the global bounding box under a lock.
            span = max(max(abs(b.x), abs(b.y), abs(b.z)) for b in bodies[lo:hi])
            yield from node.acquire(_BBOX_LOCK)
            current = yield from bbox.get(0)
            yield from bbox.set(0, max(current, span))
            yield from node.release(_BBOX_LOCK)

            interactions = 0
            updates: List[float] = []
            for i in range(lo, hi):
                fx, fy, fz, count = compute_force(root, bodies[i], self.theta)
                interactions += count
                advance(bodies[i], fx, fy, fz, self.dt)
                updates.extend(
                    (bodies[i].x, bodies[i].y, bodies[i].z,
                     bodies[i].vx, bodies[i].vy, bodies[i].vz)
                )
            yield from cpu.compute(CYCLES_PER_INTERACTION * interactions)
            if hi > lo:
                yield from state.set_range(lo * 6, updates)
            yield from node.barrier()

        ctx.mark_end()
        if index == 0:
            self._final = yield from state.get_range(0, n * 6)

    def validate(self) -> None:
        check_reference(
            self.name, self._final, self._bodies, self.steps, self.theta, self.dt
        )
