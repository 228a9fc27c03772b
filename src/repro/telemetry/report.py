"""ASCII summaries of a profiled run: latency breakdown and utilization.

Rendered with the same :func:`repro.study.report.format_table` the study
tables use, so profiler output and paper tables share one look.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .collector import Telemetry
from .metrics import Histogram

__all__ = ["latency_breakdown", "utilization_report", "summarize"]


def latency_breakdown(telemetry: Telemetry) -> str:
    """Per-layer span latencies: count, mean and tail percentiles in us."""
    from ..study.report import format_table

    hists: Dict[str, Histogram] = {}
    for span in telemetry.spans():
        hist = hists.get(span.name)
        if hist is None:
            hist = hists[span.name] = Histogram(span.name)
        hist.add(span.duration)
    rows: List[list] = []
    for name in sorted(hists):
        hist = hists[name]
        rows.append(
            [
                name,
                hist.count,
                hist.mean,
                hist.p50,
                hist.p95,
                hist.p99,
                hist.max,
            ]
        )
    if not rows:
        return "Per-layer latency breakdown: no spans recorded"
    return format_table(
        "Per-layer latency breakdown (us)",
        ["span", "count", "mean", "p50", "p95", "p99", "max"],
        rows,
    )


def utilization_report(
    telemetry: Telemetry, t0: float = 0.0, t1: Optional[float] = None
) -> str:
    """Resource timelines: busy fraction, time-weighted mean and peak."""
    from ..study.report import format_table

    if t1 is None:
        t1 = max(
            (tl.points[-1][0] for tl in telemetry.timelines.values() if tl.points),
            default=0.0,
        )
    rows: List[list] = []
    for name in sorted(telemetry.timelines):
        timeline = telemetry.timelines[name]
        if not timeline.points or t1 <= t0:
            continue
        rows.append(
            [
                name,
                f"{100.0 * timeline.busy_fraction(t0, t1):.1f}%",
                timeline.time_weighted_mean(t0, t1),
                timeline.max_value,
            ]
        )
    if not rows:
        return "Resource utilization: no timelines recorded"
    return format_table(
        f"Resource utilization over [{t0:.0f}, {t1:.0f}] us",
        ["resource", "busy", "mean", "peak"],
        rows,
    )


def summarize(telemetry: Telemetry, label: Optional[str] = None) -> str:
    """The full plain-text profile: latencies, utilization, event counts."""
    parts = [latency_breakdown(telemetry), utilization_report(telemetry)]
    if label:
        parts.insert(0, f"Profile: {label}")
    parts.append(
        f"events={len(telemetry.events)} spans={len(telemetry.spans())} "
        f"open={len(telemetry.open_spans())} dropped={telemetry.dropped}"
    )
    return "\n\n".join(parts)
