"""Application harness: run contexts, results, and the runner.

Every application in the suite follows the same shape: it spawns one worker
process per node, the workers set up their communication layer, rendezvous,
and then execute the measured parallel section between ``ctx.mark_start()``
and ``ctx.mark_end()``.  The harness collects elapsed time and the
Figure 4 execution-time breakdown over exactly the measured section.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional  # noqa: F401

from ..sim import TimeBreakdown
from ..hardware import MachineParams
from ..nic import NICConfig
from ..node import Machine
from ..vmmc import VMMCRuntime

__all__ = ["AppResult", "RunContext", "Application", "run_app"]


@dataclass
class AppResult:
    """The outcome of one application run."""

    app: str
    api: str
    mode: str
    nprocs: int
    elapsed_us: float
    breakdown: TimeBreakdown
    stats: Dict[str, float]

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_us / 1000.0

    def stat(self, name: str, default: float = 0.0) -> float:
        return self.stats.get(name, default)

    def __repr__(self) -> str:
        return (
            f"AppResult({self.app} {self.mode} P={self.nprocs}: "
            f"{self.elapsed_ms:.2f} ms)"
        )


class RunContext:
    """Shared state for one application run."""

    def __init__(self, machine: Machine, vmmc: VMMCRuntime, nprocs: int):
        self.machine = machine
        self.vmmc = vmmc
        self.nprocs = nprocs
        self.sim = machine.sim
        self.stats = machine.stats
        self.rng = machine.rng
        self._started = 0
        self._ended = 0
        self.t_start: Optional[float] = None
        self.t_end: Optional[float] = None
        self._rendezvous: Dict[str, list] = {}

    def rendezvous(self, name: str, count: Optional[int] = None) -> Generator:
        """Zero-cost control-plane barrier for setup/teardown alignment.

        Unlike the in-band barriers of the communication libraries, this
        consumes no simulated time; use it only outside measured sections.
        ``count`` defaults to the number of workers.
        """
        from ..sim import Signal

        needed = count or self.nprocs
        state = self._rendezvous.setdefault(
            name, [0, Signal(self.sim, f"rendezvous.{name}")]
        )
        state[0] += 1
        if state[0] >= needed:
            state[0] = 0
            signal = state[1]
            state[1] = Signal(self.sim, f"rendezvous.{name}")
            signal.fire()
        else:
            yield from state[1].wait()

    def mark_start(self) -> None:
        """Worker signal: measured section begins (call after a barrier).

        When the last worker marks, the clock is noted and the breakdown
        accounting is reset so only the measured section is attributed.
        """
        self._started += 1
        if self._started == self.nprocs:
            self.t_start = self.sim.now
            self.stats.breakdowns.clear()

    def mark_end(self) -> None:
        self._ended += 1
        self.t_end = self.sim.now

    @property
    def elapsed_us(self) -> float:
        if self.t_start is None or self.t_end is None:
            raise RuntimeError("run did not mark start/end")
        return self.t_end - self.t_start


class Application(abc.ABC):
    """Base class for the paper's application suite."""

    #: Display name, e.g. "Radix-SVM".
    name: str = "app"
    #: Which API the app exercises: "VMMC", "NX", "Sockets", or "SVM".
    api: str = "?"

    def __init__(self, mode: str = "au"):
        if mode not in ("au", "du"):
            raise ValueError(f"mode must be 'au' or 'du', got {mode!r}")
        self.mode = mode

    @abc.abstractmethod
    def workers(self, ctx: RunContext) -> List[Generator]:
        """One worker generator per node (index == node id)."""

    def validate(self) -> None:
        """Post-run correctness check; raise on failure."""

    def describe(self) -> str:
        return f"{self.name} ({self.api}, {self.mode})"


def run_app(
    app: Application,
    nprocs: int,
    params: Optional[MachineParams] = None,
    nic_config: Optional[NICConfig] = None,
    seed: int = 1998,
    machine: Optional[Machine] = None,
) -> AppResult:
    """Run ``app`` on a fresh ``nprocs``-node machine; returns the result.

    Pass a pre-built ``machine`` (e.g. one with telemetry enabled) to run
    on it instead; ``params``/``nic_config``/``seed`` are ignored then.
    """
    if machine is None:
        machine = Machine(nprocs, params=params, nic_config=nic_config, seed=seed)
    vmmc = VMMCRuntime(machine)
    ctx = RunContext(machine, vmmc, nprocs)
    generators = app.workers(ctx)
    if len(generators) != nprocs:
        raise RuntimeError(
            f"{app.name} produced {len(generators)} workers for {nprocs} nodes"
        )
    procs = [
        machine.sim.spawn(gen, f"{app.name}.w{i}")
        for i, gen in enumerate(generators)
    ]
    machine.sim.run()
    stuck = [p.name for p in procs if not p.done]
    if stuck:
        raise RuntimeError(f"{app.name}: workers deadlocked: {stuck}")
    app.validate()
    return AppResult(
        app=app.name,
        api=app.api,
        mode=app.mode,
        nprocs=nprocs,
        elapsed_us=ctx.elapsed_us,
        breakdown=machine.stats.mean_breakdown(),
        stats=machine.stats.snapshot(),
    )
