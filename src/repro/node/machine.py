"""The assembled SHRIMP machine: nodes + backplane + shared registries."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..sim import DeterministicRandom, RngStreams, Simulator, StatsRegistry
from ..hardware import DEFAULT_PARAMS, MachineParams
from ..network import Backplane
from ..nic import DEFAULT_NIC_CONFIG, NICConfig
from .node import Node, NodeProcess

__all__ = ["Machine"]


def _mesh_for(num_nodes: int) -> Tuple[int, int]:
    """Smallest near-square mesh holding ``num_nodes``."""
    width = max(1, math.isqrt(num_nodes))
    while width * math.ceil(num_nodes / width) < num_nodes:  # pragma: no cover
        width += 1
    height = math.ceil(num_nodes / width)
    return max(width, 1), max(height, 1)


class Machine:
    """A SHRIMP system of ``num_nodes`` nodes on a 2-D mesh backplane.

    This is the top-level object applications and experiments build
    against::

        machine = Machine(num_nodes=16)
        machine.start()
        vmmc = VMMCRuntime(machine)
        ...
        machine.sim.run()

    Node count and mesh shape are fully parametric.  ``Machine()`` fills
    the params mesh (16 nodes on the default 4x4); ``Machine(num_nodes=N)``
    widens the mesh to a near-square holding ``N`` when needed; explicit
    ``width``/``height`` (given together) force an exact — possibly
    non-square — mesh shape: ``Machine(width=16, height=4)`` is a 64-node
    machine on a 16x4 mesh.
    """

    def __init__(
        self,
        num_nodes: Optional[int] = None,
        params: Optional[MachineParams] = None,
        nic_config: Optional[NICConfig] = None,
        seed: int = 1998,
        fault_config=None,
        telemetry: bool = False,
        width: Optional[int] = None,
        height: Optional[int] = None,
    ):
        base = params or DEFAULT_PARAMS
        if (width is None) != (height is None):
            raise ValueError("width and height must be given together")
        if width is not None:
            if width < 1 or height < 1:
                raise ValueError("mesh dimensions must be positive")
            base = base.with_overrides(mesh_width=width, mesh_height=height)
            if num_nodes is None:
                num_nodes = width * height
            elif num_nodes > width * height:
                raise ValueError(
                    f"{num_nodes} nodes do not fit a {width}x{height} mesh"
                )
        elif num_nodes is None:
            num_nodes = base.mesh_width * base.mesh_height
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if base.mesh_width * base.mesh_height < num_nodes:
            mesh_width, mesh_height = _mesh_for(num_nodes)
            base = base.with_overrides(
                mesh_width=mesh_width, mesh_height=mesh_height
            )
        self.params = base
        self.nic_config = nic_config or DEFAULT_NIC_CONFIG
        self.num_nodes = num_nodes
        self.sim = Simulator()
        self.stats = StatsRegistry()
        # Rewind the run-scoped debug counters (packet/channel/buffer/...
        # numbering): their values reach telemetry through reprs and span
        # labels, so same-seed runs in one process must start them equal.
        from ..sim.ids import reset_run_counters

        reset_run_counters()
        self.rng = DeterministicRandom(seed)
        #: Named seed-derived RNG streams (see :class:`repro.sim.RngStreams`).
        #: Subsystems draw from their own labeled stream — e.g. serve traffic
        #: from ``("serve", "arrivals", i)``, the fault plan from its
        #: ``"faults"``-derived seed — so the draws of one subsystem can
        #: never shift another's under the same seed.
        self.streams = RngStreams(seed)
        self.backplane = Backplane(self.sim, self.params, self.stats)
        self.nodes: List[Node] = [
            Node(self.sim, i, self.params, self.nic_config, self.backplane, self.stats)
            for i in range(num_nodes)
        ]
        #: Machine-wide name registries used by the communication libraries
        #: for connection setup (out-of-band in the real system).
        self.registries: Dict[str, Dict] = {}
        #: The installed fault plan (None: perfect fabric, zero overhead).
        self.fault_plan = None
        if fault_config is not None and fault_config.any_faults:
            from ..faults import FaultPlan

            self.install_fault_plan(FaultPlan(fault_config, seed))
        #: The installed telemetry collector (None: no profiling, zero
        #: overhead — one predicate check per instrumented site).
        self.telemetry = None
        if telemetry:
            self.enable_telemetry()
        #: The installed health monitor (None: no monitoring, zero
        #: overhead — one predicate check per hook site).
        self.monitor = None
        #: The installed live-metrics registry (None: no sampling, zero
        #: overhead — one predicate check on the run loop's heap branch).
        self.obs = None
        self._started = False

    def enable_telemetry(self, limit: int = 1_000_000):
        """Install (or return) the machine's telemetry collector.

        Arms every instrumented layer: spans, histograms and utilization
        timelines start recording against virtual time.  Recording never
        consumes virtual time, so enabling telemetry does not change what
        the simulated machine does — only what is observed about it.
        """
        if self.telemetry is None:
            from ..telemetry import Telemetry

            self.telemetry = Telemetry(
                lambda: self.sim.now,
                limit=limit,
                current_process=lambda: self.sim.current,
            )
            self.stats.telemetry = self.telemetry
            self.sim.telemetry = self.telemetry
        return self.telemetry

    def enable_monitor(self, config=None):
        """Install (or return) the machine's health monitor.

        Arms the watchdogs (process-stall and livelock detection) and
        invariant monitors (FIFO watermarks, wait-queue depth, retransmit
        storms, link saturation) described in DESIGN.md section 12, plus a
        flight recorder over the telemetry stream — enabling telemetry if
        it is not armed yet.  Like telemetry, the monitor only observes:
        it consumes no virtual time and cannot change what the simulated
        machine does.  Install before the first ``sim.run()`` (the run
        loop hoists the handle).  ``config`` applies only on first call.
        """
        if self.monitor is None:
            from ..monitor import HealthMonitor

            self.monitor = HealthMonitor(self, config)
        return self.monitor

    def enable_obs(self, config=None):
        """Install (or return) the machine's live-metrics registry.

        Arms the virtual-time sampling cadence (DESIGN.md section 17):
        read-only probes over state the machine already maintains are
        sampled into bounded ring-buffered series from the run loop's
        heap branch.  Like the monitor, the registry only observes — it
        consumes no virtual time, schedules nothing and draws no
        sequence numbers, so arming it cannot change what the simulated
        machine does.  Install before the first ``sim.run()`` (the run
        loop hoists the handle).  ``config`` applies only on first call.
        """
        if self.obs is None:
            from ..obs import MetricsRegistry

            self.obs = MetricsRegistry(self, config)
            self.sim.observers.append(self.obs)
        return self.obs

    def install_fault_plan(self, plan) -> None:
        """Bind ``plan`` to this machine and arm every injection site."""
        plan.bind(self)
        self.fault_plan = plan
        self.backplane.fault_plan = plan
        for node in self.nodes:
            node.nic.fault_plan = plan

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for node in self.nodes:
            node.start()

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def create_process(self, node_id: int) -> NodeProcess:
        return self.nodes[node_id].create_process()

    def registry(self, name: str) -> Dict:
        """A machine-wide dictionary namespace (e.g. exported buffers)."""
        return self.registries.setdefault(name, {})

    def stream(self, *labels) -> DeterministicRandom:
        """The named seed-derived RNG stream for ``labels`` (memoized)."""
        return self.streams.stream(*labels)

    @property
    def now(self) -> float:
        return self.sim.now
