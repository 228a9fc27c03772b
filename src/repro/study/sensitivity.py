"""Sensitivity sweeps: how the paper's conclusions move with the hardware.

The paper evaluates one design point (60 MHz nodes, EISA, 4 KB pages).
These sweeps vary the parameters that most influence its conclusions and
report how the headline effects respond — the ablation counterpart to the
what-if configurations:

- **page size** → magnitude of SVM false sharing (the AURC-vs-HLRC gap);
- **interrupt cost** → how much interrupt avoidance (Table 4) is worth;
- **write-through bandwidth** → whether automatic update stays attractive
  for its niche as CPU stores get faster relative to DMA;
- **network scale** (mesh hops) → latency sensitivity of the
  request/reply protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..hardware import DEFAULT_PARAMS, MachineParams
from ..apps import run_app
from ..apps.dfs import DFSSockets
from ..apps.radix_svm import RadixSVM
from .micro import au_word_latency, du_word_latency

__all__ = [
    "SweepPoint",
    "page_size_sweep",
    "interrupt_cost_sweep",
    "write_through_sweep",
    "mesh_scale_sweep",
]


@dataclass
class SweepPoint:
    """One setting of the swept parameter and its measured effect."""

    parameter: float
    metric: float
    detail: str = ""


def page_size_sweep(
    page_sizes: Sequence[int] = (512, 1024, 2048),
    nprocs: int = 8,
    n_keys: int = 4096,
) -> List[SweepPoint]:
    """AURC's advantage over HLRC as a function of SVM page size.

    Larger pages mean fewer but costlier HLRC diffs at a fixed data size,
    so AURC's advantage should stay roughly page-size invariant: every
    point above 5% and a spread under 15 points (test_ablations.py).
    """
    points = []
    for page_size in page_sizes:
        params = DEFAULT_PARAMS.with_overrides(page_size=page_size)
        elapsed = {}
        for protocol in ("hlrc", "aurc"):
            app = RadixSVM(protocol=protocol, n_keys=n_keys, radix=16,
                           max_key=4096)
            elapsed[protocol] = run_app(app, nprocs, params=params).elapsed_us
        advantage = (elapsed["hlrc"] / elapsed["aurc"] - 1.0) * 100.0
        points.append(
            SweepPoint(page_size, advantage,
                       f"AURC {advantage:+.1f}% vs HLRC at {page_size}B pages")
        )
    return points


def interrupt_cost_sweep(
    costs_us: Sequence[float] = (2.0, 9.0, 25.0),
    nprocs: int = 8,
) -> List[SweepPoint]:
    """Table 4's slowdown as interrupt handling gets cheaper/dearer.

    The paper notes a real system would see *higher* overheads than its
    null handler; this sweep quantifies how the interrupt-avoidance
    argument scales with handler cost.
    """
    from .configs import config

    points = []
    for cost in costs_us:
        params = DEFAULT_PARAMS.with_overrides(interrupt_null_us=cost)
        app_base = DFSSockets(n_files=4, blocks_per_file=24, block_size=1024,
                              reads_per_client=32, cache_blocks=8)
        base = run_app(app_base, nprocs, params=params)
        app_irq = DFSSockets(n_files=4, blocks_per_file=24, block_size=1024,
                             reads_per_client=32, cache_blocks=8)
        noisy = run_app(
            app_irq, nprocs, params=params,
            nic_config=config("interrupt_all").nic_config(),
        )
        slowdown = (noisy.elapsed_us / base.elapsed_us - 1.0) * 100.0
        points.append(
            SweepPoint(cost, slowdown,
                       f"{slowdown:+.1f}% slowdown at {cost}us per interrupt")
        )
    return points


def write_through_sweep(
    bandwidths: Sequence[float] = (12.0, 24.0, 48.0),
) -> List[SweepPoint]:
    """Automatic-update latency as write-through store speed varies.

    AU's niche is latency; its one-word time should track the store path
    only weakly (the NIC pipeline dominates).
    """
    points = []
    for bandwidth in bandwidths:
        params = DEFAULT_PARAMS.with_overrides(write_through_bandwidth=bandwidth)
        latency = au_word_latency(params=params)
        points.append(
            SweepPoint(bandwidth, latency,
                       f"AU word latency {latency:.2f}us at {bandwidth}MB/s")
        )
    return points


def mesh_scale_sweep(
    hop_pairs: Sequence[tuple] = ((0, 1), (0, 3), (0, 15)),
) -> List[SweepPoint]:
    """DU latency vs distance in the mesh (per-hop router latency).

    Wormhole routing makes distance cheap: latency should rise by well
    under a microsecond across the whole 4x4 backplane.
    """
    from ..network import MeshTopology

    topology = MeshTopology(DEFAULT_PARAMS.mesh_width, DEFAULT_PARAMS.mesh_height)
    points = []
    for src, dst in hop_pairs:
        hops = topology.hop_count(src, dst)
        latency = du_word_latency(nodes=16, src=src, dst=dst)
        points.append(
            SweepPoint(hops, latency, f"{latency:.2f}us across {hops} hops")
        )
    return points
