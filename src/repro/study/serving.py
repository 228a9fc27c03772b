"""Serving-tier study: tail latency and goodput across load, balancing and
faults.

The paper's evaluation ends at library microbenchmarks and kernels; this
family asks the system-level question they imply: *given this communication
substrate, what does a sharded serving tier deliver?*  The sweep crosses:

* **offered load** — a comfortable level and one near saturation, because
  tail latency is a queueing phenomenon: the p999 moves an order of
  magnitude while the p50 barely notices;
* **balancer** — static key hashing versus power-of-two-choices, i.e. cache
  affinity versus load awareness under Zipf-skewed keys;
* **fault plan** — a perfect fabric versus a transient link outage on a hot
  aggregate-to-shard route.  With go-back-N reliable delivery the outage is
  *absorbed*: requests crossing the dead window retransmit and complete
  late (elevated p999, SLO misses) rather than failing — graceful
  degradation, not collapse.

Each cell is one deterministic fleet ``serve`` record (4 shards, 4
aggregates, 10 ms of traffic, run without telemetry); the offered
arrival schedule is identical across every cell of the same load level
(named RNG streams), so differences between cells are attributable to
the design axis, not to traffic noise.

Run with ``python -m repro.study serve``.  The family is deliberately not
part of ``python -m repro.study all`` — it studies the growth direction,
not the paper's own tables, and ``all`` stays byte-stable.
"""

from __future__ import annotations

from typing import Dict, List

from ..fleet.catalog import make_spec
from .report import format_table

__all__ = ["serving_study", "format_serving_study"]


def serving_study(runner) -> List[Dict[str, float]]:
    """The load x balancer x fault sweep, one dict per cell."""
    cells = []
    for rps in (30_000.0, 90_000.0):
        for balancer in ("hash", "p2c"):
            for fault in ("none", "link-outage"):
                metrics = runner.metrics(make_spec(
                    "serve", nodes=8, seed=runner.seed, rps=rps,
                    balancer=balancer, duration_us=10_000.0, chaos=fault,
                    observe=False,
                ))
                cells.append({
                    "offered_rps": rps,
                    "balancer": balancer,
                    "fault": fault,
                    "offered": int(metrics["offered"]),
                    "goodput_rps": metrics["goodput_rps"],
                    "p50_us": metrics["p50_us"],
                    "p99_us": metrics["p99_us"],
                    "p999_us": metrics["p999_us"],
                    "late_pct": 100.0 * metrics["timeout_rate"],
                    "failed_pct": 100.0 * metrics["failure_rate"],
                })
    return cells


def format_serving_study(cells: List[Dict[str, float]]) -> str:
    rows = [
        (
            f"{cell['offered_rps']:,.0f}",
            cell["balancer"],
            cell["fault"],
            cell["offered"],
            f"{cell['goodput_rps']:,.0f}",
            f"{cell['p50_us']:.1f}",
            f"{cell['p99_us']:.1f}",
            f"{cell['p999_us']:.1f}",
            f"{cell['late_pct']:.1f}",
            f"{cell['failed_pct']:.1f}",
        )
        for cell in cells
    ]
    table = format_table(
        "Serving tier: load x balancer x fault (4 shards, Zipf keys)",
        ["offered rps", "balancer", "fault", "reqs", "goodput rps",
         "p50 (us)", "p99 (us)", "p999 (us)", "late %", "failed %"],
        rows,
    )
    notes = (
        "Cells of one load level share an identical offered schedule (named\n"
        "RNG streams), so balancer and fault columns are causally\n"
        "comparable.  The link-outage cells cut a hot aggregate->shard\n"
        "route for 4 ms mid-run: reliable delivery retransmits across the\n"
        "window, surfacing as elevated p999 and SLO misses, not failures."
    )
    return table + "\n" + notes
