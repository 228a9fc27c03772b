"""repro: a behavioral reproduction of the SHRIMP multicomputer.

Reproduces "Design Choices in the SHRIMP System: An Empirical Study"
(Blumrich et al., ISCA 1998): the VMMC communication model, the SHRIMP
network interface with automatic and deliberate update, a Paragon-style
mesh backplane, the NX / stream-sockets / shared-virtual-memory software
stacks, the paper's application suite, and the what-if experiment harness
that regenerates every table and figure.

Quick start::

    from repro import Machine, VMMCRuntime

    machine = Machine(num_nodes=2)
    vmmc = VMMCRuntime(machine)
    ...

See ``examples/quickstart.py`` for a complete program.
"""

from .coll import Collective, CollConfig, CollWorld
from .faults import FaultConfig, FaultPlan
from .fleet import Catalog, ExperimentSpec, RunStore, make_spec, run_specs
from .hardware import DEFAULT_PARAMS, MachineParams
from .monitor import HealthMonitor, MonitorConfig, Postmortem
from .nic import DEFAULT_NIC_CONFIG, NICConfig
from .node import Machine, Node, NodeProcess
from .obs import MetricsRegistry, ObsConfig, SamplingProfiler
from .serve import ServeCluster, ServeConfig, SloReport
from .shard import ShardSpec, run_serial, spec_for_nodes
from .sim import Simulator, Timeout
from .telemetry import Telemetry
from .vmmc import (
    DeliveryFailed,
    ReliableChannel,
    ReliableConfig,
    VMMCEndpoint,
    VMMCRuntime,
)

__version__ = "1.9.0"

__all__ = [
    "Machine",
    "Catalog",
    "Collective",
    "CollConfig",
    "CollWorld",
    "ExperimentSpec",
    "make_spec",
    "run_specs",
    "RunStore",
    "Node",
    "NodeProcess",
    "MachineParams",
    "DEFAULT_PARAMS",
    "NICConfig",
    "DEFAULT_NIC_CONFIG",
    "VMMCRuntime",
    "VMMCEndpoint",
    "FaultConfig",
    "FaultPlan",
    "ReliableChannel",
    "ReliableConfig",
    "DeliveryFailed",
    "HealthMonitor",
    "MonitorConfig",
    "MetricsRegistry",
    "ObsConfig",
    "Postmortem",
    "SamplingProfiler",
    "ServeCluster",
    "ServeConfig",
    "SloReport",
    "ShardSpec",
    "spec_for_nodes",
    "run_serial",
    "Simulator",
    "Telemetry",
    "Timeout",
    "__version__",
]
