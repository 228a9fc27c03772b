"""Large-mesh simulation: a keyed packet model past the paper's 16 nodes.

The full :class:`repro.node.Machine` simulates every NIC register and bus
transaction, which caps mesh studies at a few dozen nodes.  This package
is the scale regime's counterpart: a store-and-forward packet mesh with
XY routing and open-loop per-node traffic, run single-process on a small
keyed event loop (DESIGN.md section 16).  Every event carries the total
order key ``(time, node, src, seq)``, and a run's identity is the
sha256 of its canonical event stream
(:meth:`ShardRunResult.telemetry_digest`).

Entry points::

    from repro.shard import ShardSpec, run_serial

    result = run_serial(ShardSpec(width=16, height=16, workload="transpose"))
    print(result.summary(), result.telemetry_digest())

or from the command line::

    python -m repro.shard run --nodes 256 --workload transpose --digest
"""

from .kernel import ShardKernel
from .model import INJECT_SRC, PartitionSim, ShardSpec, spec_for_nodes
from .runner import ShardRunResult, run_serial

__all__ = [
    "INJECT_SRC",
    "PartitionSim",
    "ShardKernel",
    "ShardRunResult",
    "ShardSpec",
    "run_serial",
    "spec_for_nodes",
]
