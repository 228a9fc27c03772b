"""Large-mesh scaling study: the shard model past the paper's 16 nodes.

The paper's machine stops at 16 nodes; this family asks how its mesh
fabric behaves as the topology grows to cabinet scale.  Each cell is a
fleet ``shard`` record: the :mod:`repro.shard` packet model —
store-and-forward XY routing with per-link output queueing — at one
(mesh, traffic pattern) point.  It reports delivered packets, latency
and hop statistics in **virtual time** only, so the tables are
byte-stable on any host.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..fleet.catalog import make_spec
from .report import format_table

__all__ = ["largemesh_study", "format_largemesh_study"]


def largemesh_study(runner, nodes: int = 16) -> List[Dict]:
    """Every traffic pattern on 16, 64 and ``max(256, nodes)`` nodes,
    mesh-major then pattern-major, read from fleet ``shard`` records."""
    cells = []
    for count in sorted({16, 64, max(256, nodes)}):
        for pattern in ("uniform", "transpose", "neighbor"):
            metrics = runner.metrics(make_spec(
                "shard", nodes=count, seed=runner.seed, pattern=pattern,
            ))
            cell = {"nodes": count, "pattern": pattern}
            cell.update((key, metrics[key]) for key in (
                "packets_delivered", "mean_latency_us", "max_latency_us",
                "mean_hops", "events", "virtual_end_us",
            ))
            cells.append(cell)
    return cells


def format_largemesh_study(cells: Sequence[Dict]) -> str:
    from ..shard import spec_for_nodes

    rows = []
    for cell in cells:
        mesh = spec_for_nodes(cell["nodes"])
        rows.append([
            f"{mesh.width}x{mesh.height}",
            cell["pattern"],
            int(cell["packets_delivered"]),
            f"{cell['mean_latency_us']:.2f}",
            f"{cell['max_latency_us']:.2f}",
            f"{cell['mean_hops']:.2f}",
            int(cell["events"]),
            f"{cell['virtual_end_us']:.2f}",
        ])
    return format_table(
        "Large-mesh scaling (shard model, virtual time; latency in us)",
        [
            "mesh", "pattern", "delivered", "mean lat", "max lat",
            "hops", "events", "end us",
        ],
        rows,
    )
