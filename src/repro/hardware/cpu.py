"""CPU cost model.

Application code does not execute on a simulated ISA; instead it charges
cycle costs through this model (``yield from cpu.compute(cycles)``).  The
model also implements **interrupt stealing**: interrupt handlers run on the
node's CPU, so their cost is added to the next timed operation the
application performs.  If the application is blocked waiting for a message
when the interrupt fires, the handler's time overlaps the wait — exactly why
the paper's polling-based libraries (VMMC, sockets) suffer little from
arrival interrupts while compute-heavy phases suffer a lot (Table 4).
"""

from __future__ import annotations

from typing import Generator

from ..sim import Simulator, StatsRegistry
from .params import MachineParams

__all__ = ["CPU"]


class CPU:
    """One node's processor: charges compute time and absorbs interrupts."""

    def __init__(
        self,
        sim: Simulator,
        params: MachineParams,
        node_id: int,
        stats: StatsRegistry,
    ):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.stats = stats
        self._pending_steal = 0.0
        self._busy_depth = 0
        self.total_compute_us = 0.0
        self.total_interrupt_us = 0.0

    # -- time charging ----------------------------------------------------

    def compute(self, cycles: float, category: str = "computation") -> Generator:
        """Charge ``cycles`` of computation (plus any stolen interrupt time)."""
        yield from self.busy(self.params.cycles(cycles), category)

    def busy(self, duration: float, category: str = "computation") -> Generator:
        """Charge a fixed-duration CPU activity."""
        stolen, self._pending_steal = self._pending_steal, 0.0
        if duration + stolen > 0:
            tel = self.stats.telemetry
            if tel is not None:
                # Busy-depth timeline: >0 means some process is burning CPU
                # (vs. stalled on communication) — busy_fraction gives the
                # compute-vs-stall split against virtual time.
                self._busy_depth += 1
                tel.timeline(f"cpu.n{self.node_id}", node=self.node_id).record(
                    self.sim.now, self._busy_depth
                )
            try:
                yield duration + stolen
            finally:
                if tel is not None:
                    self._busy_depth -= 1
                    tel.timeline(f"cpu.n{self.node_id}", node=self.node_id).record(
                        self.sim.now, self._busy_depth
                    )
        # Looked up per call on purpose: apps/base.py clears the registry's
        # breakdowns to scope the measured section, replacing the objects —
        # a cached handle would silently charge an orphan.
        breakdown = self.stats.breakdown(self.node_id)
        breakdown.charge(category, duration)
        if stolen:
            breakdown.charge("overhead", stolen)
        self.total_compute_us += duration

    # -- interrupts ---------------------------------------------------------

    def steal(self, duration: float) -> None:
        """Charge interrupt-handler time against this CPU.

        The time is added to the application's next timed operation; when
        the application is blocked, the handler overlaps the wait.
        """
        self._pending_steal += duration
        self.total_interrupt_us += duration
        self.stats.count("cpu.interrupts")

    @property
    def pending_steal(self) -> float:
        return self._pending_steal
