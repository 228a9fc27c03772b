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

Each cell is a fleet ``coll`` record (``api=nx``, eight barriers then
eight allreduces).  Latencies are mean per-operation durations (the
barrier span wraps the full call on every rank), and each cell reports
the critical-path attribution of its barrier spans — the
``cpu``/``notify`` share collapsing between ``nx`` and ``tree-nic`` is
*where the win comes from*, and the ``sync`` component shows the
residual wait for peers.

Run with ``python -m repro.study coll``.  Like ``serve``, the family is
not part of ``python -m repro.study all`` — it studies the growth
direction (ROADMAP item 2), not the paper's own tables, and ``all`` stays
byte-stable.
"""

from __future__ import annotations

from typing import Dict, List

from ..fleet.catalog import make_spec
from ..fleet.workloads import COLL_MODES
from .report import format_table

__all__ = ["coll_study", "format_coll_study"]

#: The record metrics each cell reads.
_METRICS = ("barrier_us", "allreduce_us", "cpu_pct", "notify_pct",
            "nic_dma_pct", "link_pct", "sync_pct", "coll_packets")


def coll_study(runner, nodes: int = 16) -> List[Dict]:
    """Every barrier placement at 4, 8 and ``nodes`` nodes, one dict per
    cell."""
    cells = []
    for count in sorted({4, 8, nodes}):
        for mode in COLL_MODES:
            metrics = runner.metrics(make_spec(
                "coll", nodes=count, seed=runner.seed, api="nx", mode=mode,
                ops=8, allreduces=8,
            ))
            cell = {"mode": mode, "nodes": count}
            cell.update((key, metrics[key]) for key in _METRICS)
            cells.append(cell)
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
