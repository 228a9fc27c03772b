"""Large-mesh scaling study: the shard model past the paper's 16 nodes.

The paper's machine stops at 16 nodes; this family asks how its mesh
fabric behaves as the topology grows to cabinet scale.  Each cell runs
the :mod:`repro.shard` packet model — store-and-forward XY routing with
per-link output queueing — at one (mesh, traffic pattern) point and
reports delivered packets, latency and hop statistics in **virtual time**
only, so the tables are byte-stable on any host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .report import format_table

__all__ = [
    "DEFAULT_LARGEMESH_NODES",
    "DEFAULT_LARGEMESH_PATTERNS",
    "LargeMeshCell",
    "largemesh_cell",
    "largemesh_study",
    "format_largemesh_study",
]

#: Mesh sizes swept by default: the paper scale and two growth steps.
DEFAULT_LARGEMESH_NODES: Tuple[int, ...] = (16, 64, 256)

#: Traffic patterns swept by default.
DEFAULT_LARGEMESH_PATTERNS: Tuple[str, ...] = ("uniform", "transpose", "neighbor")


@dataclass(frozen=True)
class LargeMeshCell:
    """One (mesh, pattern) point of the study."""

    width: int
    height: int
    pattern: str
    packets_injected: int
    packets_delivered: int
    mean_latency_us: float
    max_latency_us: float
    mean_hops: float
    events: int
    virtual_end_us: float


def largemesh_cell(
    nodes: int,
    pattern: str,
    duration_us: float = 120.0,
    seed: int = 1998,
) -> LargeMeshCell:
    """Run one cell serially and summarize it (virtual time only)."""
    from ..shard import run_serial, spec_for_nodes

    spec = spec_for_nodes(
        nodes,
        workload=pattern,
        duration_us=duration_us,
        record_deliveries=False,
        seed=seed,
    )
    result = run_serial(spec)
    return LargeMeshCell(
        width=spec.width,
        height=spec.height,
        pattern=pattern,
        packets_injected=result.packets_injected,
        packets_delivered=result.packets_delivered,
        mean_latency_us=result.mean_latency_us,
        max_latency_us=result.latency_max_us,
        mean_hops=result.mean_hops,
        events=result.events,
        virtual_end_us=result.virtual_end_us,
    )


def largemesh_study(
    node_counts: Sequence[int] = DEFAULT_LARGEMESH_NODES,
    patterns: Sequence[str] = DEFAULT_LARGEMESH_PATTERNS,
    duration_us: float = 120.0,
    seed: int = 1998,
) -> List[LargeMeshCell]:
    """The full sweep, mesh-major then pattern-major."""
    return [
        largemesh_cell(nodes, pattern, duration_us=duration_us, seed=seed)
        for nodes in node_counts
        for pattern in patterns
    ]


def format_largemesh_study(cells: Sequence[LargeMeshCell]) -> str:
    rows = [
        [
            f"{cell.width}x{cell.height}",
            cell.pattern,
            cell.packets_delivered,
            f"{cell.mean_latency_us:.2f}",
            f"{cell.max_latency_us:.2f}",
            f"{cell.mean_hops:.2f}",
            cell.events,
            f"{cell.virtual_end_us:.2f}",
        ]
        for cell in cells
    ]
    return format_table(
        "Large-mesh scaling (shard model, virtual time; latency in us)",
        [
            "mesh", "pattern", "delivered", "mean lat", "max lat",
            "hops", "events", "end us",
        ],
        rows,
    )
