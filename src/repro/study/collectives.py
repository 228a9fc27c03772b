"""Collectives study: host-side versus NIC-resident collective protocols.

Three placements of the same synchronization workload, across node counts:

* ``nx`` — the NX library's host-side dissemination barrier and
  recursive-doubling allreduce, synthesized from point-to-point messages:
  every round pays library send/receive CPU and (for the barrier's
  notifying sends) kernel notification cost on the critical path.
* ``tree-host`` — the spanning-tree protocol of :mod:`repro.coll` with the
  **host** backend: same tree, same wire traffic, but every tree hop
  bounces through host software (poll + state machine step + doorbell).
* ``tree-nic`` — the same protocol run by NIC firmware state machines:
  combining and replication happen in the interface, and the host CPUs
  see exactly one doorbell and one completion poll per operation.

Latencies are mean per-operation span durations from telemetry (the
barrier span wraps the full call on every rank), and each cell reports the
critical-path attribution of its barrier spans — the ``cpu``/``notify``
share collapsing between ``nx`` and ``tree-nic`` is *where the win comes
from*, and the ``sync`` component shows the residual wait for peers.

Run with ``python -m repro.study coll``.  Like ``serve``, the family is
not part of ``python -m repro.study all`` — it studies the growth
direction (ROADMAP item 2), not the paper's own tables, and ``all`` stays
byte-stable.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..fleet.workloads import COLL_MODES, spawn_nx_coll
from ..node import Machine
from ..telemetry.critpath import aggregate
from .report import format_table

__all__ = [
    "DEFAULT_COLL_MODES",
    "DEFAULT_COLL_NODES",
    "coll_cell",
    "coll_study",
    "format_coll_study",
]

DEFAULT_COLL_MODES = tuple(COLL_MODES)
DEFAULT_COLL_NODES = (4, 8, 16)


def coll_cell(mode: str, nodes: int, ops: int = 8, seed: int = 1998) -> Dict:
    """One cell: ``ops`` barriers then ``ops`` allreduces on ``nodes`` ranks."""
    machine = Machine(num_nodes=nodes, seed=seed, telemetry=True)
    marks = spawn_nx_coll(machine, nodes, mode, ops, allreduces=ops)
    machine.sim.run()

    agg = aggregate(machine.telemetry, COLL_MODES[mode][1], top=0)
    barrier_us = agg.total_us / agg.count if agg.count else 0.0
    return {
        "mode": mode,
        "nodes": nodes,
        "ops": agg.count,
        "barrier_us": barrier_us,
        "allreduce_us": (marks["end"] - marks["mid"]) / ops,
        "cpu_pct": 100.0 * agg.fraction("cpu"),
        "notify_pct": 100.0 * agg.fraction("notify"),
        "nic_dma_pct": 100.0 * agg.fraction("nic_dma"),
        "link_pct": 100.0 * agg.fraction("link"),
        "sync_pct": 100.0 * agg.fraction("sync"),
        "coll_packets": machine.stats.counter_value("coll.packets"),
    }


def coll_study(
    modes: Sequence[str] = DEFAULT_COLL_MODES,
    node_counts: Sequence[int] = DEFAULT_COLL_NODES,
    ops: int = 8,
    seed: int = 1998,
) -> List[Dict]:
    """The full mode x node-count sweep, one dict per cell."""
    cells = []
    for nodes in node_counts:
        for mode in modes:
            cells.append(coll_cell(mode, nodes, ops=ops, seed=seed))
    return cells


def format_coll_study(cells: List[Dict]) -> str:
    rows = [
        (
            cell["nodes"],
            cell["mode"],
            f"{cell['barrier_us']:.2f}",
            f"{cell['allreduce_us']:.2f}",
            f"{cell['cpu_pct']:.1f}",
            f"{cell['notify_pct']:.1f}",
            f"{cell['nic_dma_pct']:.1f}",
            f"{cell['link_pct']:.1f}",
            f"{cell['sync_pct']:.1f}",
        )
        for cell in cells
    ]
    table = format_table(
        "Collectives: host-side vs in-network (barrier attribution in %)",
        ["nodes", "mode", "barrier (us)", "allreduce (us)",
         "cpu", "notify", "nic_dma", "link", "sync"],
        rows,
    )
    lines = [table]
    peak = max((c["nodes"] for c in cells), default=0)
    nic = next(
        (c for c in cells if c["nodes"] == peak and c["mode"] == "tree-nic"),
        None,
    )
    nx = next(
        (c for c in cells if c["nodes"] == peak and c["mode"] == "nx"), None
    )
    if nic and nx and nic["barrier_us"] > 0.0:
        lines.append(
            f"NIC-side barrier speedup at {peak} nodes: "
            f"{nx['barrier_us'] / nic['barrier_us']:.2f}x "
            f"({nic['barrier_us']:.2f} us in-network vs "
            f"{nx['barrier_us']:.2f} us host dissemination)"
        )
    lines.append(
        "The dissemination barrier pays library CPU and notification cost\n"
        "every round on every rank (cpu/notify columns); the in-network\n"
        "tree leaves one doorbell and one poll per call on the host, so\n"
        "its time is almost entirely sync -- waiting for peers and the\n"
        "release wave, which is the irreducible part."
    )
    return "\n\n".join(lines)
