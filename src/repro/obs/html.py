"""The HTML evidence renderer: one static page over the stored evidence.

``python -m repro.obs html TARGET`` renders, depending on the target:

* a **run-store directory** — the run list, per-record critical-path
  attribution tables, median-vs-nodes trend charts (one per workload with
  enough points, via the explorer's machine-readable trend rows),
  per-record sample series, monitor trips and postmortem links (a tripped
  chaos run names its dead link right in the report);
* a **``BENCH_*`` JSON document** — the benchmark table with per-entry
  sample charts and attribution;
* an **obs JSONL / series JSON export** — one time-series chart per
  recorded metric;
* a **text report** (serve SLO report, monitor report) — verbatim.

Everything is a single self-contained file: inline CSS, inline SVG, no
JavaScript, no external assets — it renders identically from a CI
artifact tab, ``file://``, or a code-review attachment.
"""

from __future__ import annotations

import html as _html
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "svg_chart",
    "render_store_html",
    "render_bench_html",
    "render_series_html",
    "render_text_html",
    "render_target",
]

_PALETTE = ("#2563eb", "#dc2626", "#059669", "#d97706", "#7c3aed", "#0891b2")


def _esc(value: object) -> str:
    return _html.escape(str(value), quote=True)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


# -- inline SVG ---------------------------------------------------------


def svg_chart(
    series: Dict[str, Sequence[Tuple[float, float]]],
    title: str,
    x_label: str = "",
    y_label: str = "",
    width: int = 640,
    height: int = 200,
) -> str:
    """A line chart of named (x, y) series as a self-contained ``<svg>``."""
    points = [
        (float(x), float(y))
        for rows in series.values()
        for x, y in rows
    ]
    if not points:
        return "<p class='empty'>no data points</p>"
    xs = [x for x, _y in points]
    ys = [y for _x, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_l, pad_r, pad_t, pad_b = 56, 12, 26, 34
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b

    def sx(x: float) -> float:
        return pad_l + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y: float) -> float:
        return pad_t + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}' "
        f"height='{height}' role='img' xmlns='http://www.w3.org/2000/svg'>",
        f"<text x='{pad_l}' y='16' class='ct'>{_esc(title)}</text>",
        f"<rect x='{pad_l}' y='{pad_t}' width='{plot_w}' height='{plot_h}' "
        "fill='none' stroke='#cbd5e1'/>",
        f"<text x='{pad_l - 6}' y='{pad_t + 10}' class='ca' "
        f"text-anchor='end'>{_esc(_fmt(y_hi))}</text>",
        f"<text x='{pad_l - 6}' y='{pad_t + plot_h}' class='ca' "
        f"text-anchor='end'>{_esc(_fmt(y_lo))}</text>",
        f"<text x='{pad_l}' y='{height - 6}' class='ca'>"
        f"{_esc(_fmt(x_lo))}</text>",
        f"<text x='{pad_l + plot_w}' y='{height - 6}' class='ca' "
        f"text-anchor='end'>{_esc(_fmt(x_hi))} {_esc(x_label)}</text>",
    ]
    if y_label:
        parts.append(
            f"<text x='{pad_l - 6}' y='{pad_t + plot_h // 2}' class='ca' "
            f"text-anchor='end'>{_esc(y_label)}</text>"
        )
    legend_x = pad_l + 8
    for index, (name, rows) in enumerate(series.items()):
        color = _PALETTE[index % len(_PALETTE)]
        coords = sorted(
            (float(x), float(y)) for x, y in rows
        )
        if len(coords) > 1:
            path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in coords)
            parts.append(
                f"<polyline points='{path}' fill='none' stroke='{color}' "
                "stroke-width='1.6'/>"
            )
        for x, y in coords if len(coords) <= 64 else coords[:: max(1, len(coords) // 64)]:
            parts.append(
                f"<circle cx='{sx(x):.1f}' cy='{sy(y):.1f}' r='2' "
                f"fill='{color}'/>"
            )
        if len(series) > 1 or name:
            parts.append(
                f"<rect x='{legend_x}' y='{pad_t + 5 + 14 * index}' "
                f"width='10' height='3' fill='{color}'/>"
            )
            parts.append(
                f"<text x='{legend_x + 14}' y='{pad_t + 10 + 14 * index}' "
                f"class='ca'>{_esc(name)}</text>"
            )
    parts.append("</svg>")
    return "".join(parts)


# -- shared fragments ---------------------------------------------------


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _attribution_table(entry: Dict) -> Optional[str]:
    attribution = entry.get("attribution")
    if not attribution:
        return None
    share = entry.get("attribution_share", {})
    rows = [
        [component, f"{value:.3f}", f"{100.0 * share.get(component, 0.0):.1f}%"]
        for component, value in attribution.items()
        if value > 0.0
    ]
    if not rows:
        return None
    return (
        "<h4>Critical-path attribution "
        f"({entry.get('ops', 0)} ops, mean us/op)</h4>"
        + _table(["component", "us/op", "share"], rows)
    )


def _samples_chart(name: str, entry: Dict) -> Optional[str]:
    samples = entry.get("samples")
    if not samples:
        return None
    return svg_chart(
        {name: [(i, s) for i, s in enumerate(samples)]},
        f"{name} samples ({entry.get('unit', '?')})",
        x_label="sample",
    )


def _page(title: str, body: str) -> str:
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{_esc(title)}</title>
<style>
body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; padding: 0 1rem; color: #0f172a; }}
h1 {{ font-size: 1.5rem; border-bottom: 2px solid #cbd5e1; }}
h2 {{ font-size: 1.2rem; margin-top: 2rem; }}
table {{ border-collapse: collapse; margin: .5rem 0; }}
th, td {{ border: 1px solid #cbd5e1; padding: .25rem .6rem;
          text-align: left; font-variant-numeric: tabular-nums; }}
th {{ background: #f1f5f9; }}
.card {{ border: 1px solid #cbd5e1; border-radius: 6px;
         padding: .75rem 1rem; margin: 1rem 0; }}
.trip {{ color: #b91c1c; }}
.healthy {{ color: #047857; }}
.meta {{ color: #64748b; font-size: .85rem; }}
pre {{ background: #f8fafc; border: 1px solid #e2e8f0;
       padding: .75rem; overflow-x: auto; }}
svg {{ margin: .5rem 0; }}
svg .ct {{ font: 600 13px system-ui, sans-serif; fill: #0f172a; }}
svg .ca {{ font: 11px system-ui, sans-serif; fill: #475569; }}
</style></head><body>
<h1>{_esc(title)}</h1>
{body}
<p class="meta">generated by python -m repro.obs html</p>
</body></html>
"""


# -- run-store rendering ------------------------------------------------


def _record_card(store, fingerprint: str, record: Dict) -> str:
    from ..fleet.catalog import ExperimentSpec

    spec = ExperimentSpec.from_json(record["spec"])
    parts = [f"<div class='card' id='r{_esc(fingerprint[:12])}'>"]
    parts.append(
        f"<h3>{_esc(spec.describe())} "
        f"<span class='meta'>@{_esc(fingerprint[:12])}</span></h3>"
    )
    metrics = record.get("metrics") or {}
    if metrics:
        parts.append(
            "<p class='meta'>"
            + ", ".join(
                f"{_esc(k)}={_esc(_fmt(float(v)))}"
                for k, v in sorted(metrics.items())
            )
            + "</p>"
        )
    entry = record.get("bench")
    if entry:
        parts.append(
            "<p>"
            f"n={len(entry['samples'])} median={entry['median']:.3f} "
            f"mean={entry['mean']:.3f} p95={entry['p95']:.3f} "
            f"{_esc(entry['unit'])}</p>"
        )
        attribution = _attribution_table(entry)
        if attribution:
            parts.append(attribution)
        chart = _samples_chart(record["workload"], entry)
        if chart:
            parts.append(chart)
    monitor = record.get("monitor")
    if monitor is not None:
        if monitor.get("healthy", True):
            parts.append("<p class='healthy'>monitor: healthy</p>")
        else:
            trips = monitor.get("trips", [])
            parts.append(
                f"<p class='trip'>monitor: {len(trips)} trip(s)</p>"
            )
            parts.append(
                _table(
                    ["t (us)", "kind", "subject", "detail"],
                    [
                        [
                            f"{trip['time']:.1f}",
                            trip["kind"],
                            trip["subject"],
                            trip["detail"],
                        ]
                        for trip in trips
                    ],
                )
            )
            down = _postmortem_links(store, record)
            if down:
                parts.append(down)
    artifacts = record.get("artifacts", {})
    if artifacts:
        links = []
        for kind in sorted(artifacts):
            path = store.artifact_path(record, kind)
            if path:
                rel = os.path.relpath(path, store.root)
                links.append(f"<a href='{_esc(rel)}'>{_esc(kind)}</a>")
        if links:
            parts.append("<p class='meta'>artifacts: " + " · ".join(links) + "</p>")
    parts.append("</div>")
    return "".join(parts)


def _postmortem_links(store, record: Dict) -> Optional[str]:
    """Name the dead links straight from the postmortem sidecar."""
    path = store.artifact_path(record, "postmortem")
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    down = doc.get("down_links") or []
    rel = os.path.relpath(path, store.root)
    if not down:
        return f"<p class='meta'>postmortem: <a href='{_esc(rel)}'>{_esc(rel)}</a></p>"
    names = ", ".join(f"link{tuple(link)}" for link, _s, _e in down)
    return (
        f"<p class='trip'>dead links at capture: {_esc(names)} "
        f"(<a href='{_esc(rel)}'>postmortem</a>)</p>"
    )


def _store_trends(store) -> List[str]:
    from ..explore.core import trend_rows

    workloads = sorted(
        {record["workload"] for _fp, record in store.records()}
    )
    charts = []
    for workload in workloads:
        try:
            doc = trend_rows(store, workload)
        except ValueError:
            continue
        series = {
            label: [(float(x), y) for x, y in rows]
            for label, rows in doc["series"].items()
            if all(_is_number(x) for x, _y in rows)
        }
        series = {k: v for k, v in series.items() if v}
        if not series:
            continue
        charts.append(
            svg_chart(
                series,
                f"{workload}: median ({doc['unit']}) vs {doc['x']}",
                x_label=doc["x"],
                y_label=doc["unit"],
            )
        )
    return charts


def _is_number(value) -> bool:
    try:
        float(value)
        return True
    except (TypeError, ValueError):
        return False


def render_store_html(store) -> str:
    """The full evidence page over one run-store directory."""
    from ..fleet.catalog import ExperimentSpec

    records = list(store.records())
    rows = []
    for fingerprint, record in records:
        spec = ExperimentSpec.from_json(record["spec"])
        entry = record.get("bench")
        monitor = record.get("monitor") or {}
        rows.append(
            [
                fingerprint[:12],
                spec.workload,
                " ".join(f"{k}={v}" for k, v in spec.params) or "-",
                spec.nodes,
                spec.fault_plan,
                len(entry["samples"]) if entry else 0,
                f"{entry['median']:.2f}" if entry else "-",
                record.get("unit", "?"),
                len(monitor.get("trips", [])),
            ]
        )
    body = [f"<h2>Run list ({len(records)} records)</h2>"]
    body.append(
        _table(
            ["fingerprint", "workload", "params", "nodes", "faults",
             "n", "median", "unit", "trips"],
            rows,
        )
    )
    invalid = store.invalid()
    if invalid:
        body.append("<h2>Invalid records</h2>")
        body.append(
            _table(["fingerprint", "reason"], [[f, r] for f, r in invalid])
        )
    trends = _store_trends(store)
    if trends:
        body.append("<h2>Trends</h2>")
        body.extend(trends)
    body.append("<h2>Records</h2>")
    for fingerprint, record in records:
        body.append(_record_card(store, fingerprint, record))
    return _page(f"Run store: {store.root}", "".join(body))


# -- document rendering -------------------------------------------------


def render_bench_html(doc: Dict, source: str) -> str:
    """A BENCH_* document as one page."""
    body = []
    rows = [
        [
            name,
            len(entry.get("samples", [])),
            f"{entry['median']:.4g}" if "median" in entry else "-",
            f"{entry['mean']:.4g}" if "mean" in entry else "-",
            entry.get("unit", "?"),
        ]
        for name, entry in sorted(doc.get("benchmarks", {}).items())
    ]
    body.append(f"<h2>Benchmarks ({len(rows)})</h2>")
    body.append(_table(["benchmark", "n", "median", "mean", "unit"], rows))
    for name, entry in sorted(doc.get("benchmarks", {}).items()):
        section = []
        attribution = _attribution_table(entry)
        if attribution:
            section.append(attribution)
        chart = _samples_chart(name, entry)
        if chart:
            section.append(chart)
        if section:
            body.append(f"<div class='card'><h3>{_esc(name)}</h3>")
            body.extend(section)
            body.append("</div>")
    label = doc.get("label", "?")
    return _page(f"Bench document: {label} ({source})", "".join(body))


def render_series_html(doc: Dict, source: str) -> str:
    """An obs metrics export (series doc or JSONL rows) as one page."""
    series = doc.get("series", {})
    body = [
        f"<p class='meta'>cadence {doc.get('cadence_us', '?')} us, "
        f"{doc.get('samples', '?')} sample ticks, "
        f"{len(series)} series</p>"
    ]
    rows = [
        [
            name,
            data.get("kind", "gauge"),
            len(data.get("points", [])),
            _fmt(float(data["points"][-1][1])) if data.get("points") else "-",
        ]
        for name, data in sorted(series.items())
    ]
    body.append(_table(["metric", "kind", "points", "last"], rows))
    for name, data in sorted(series.items()):
        points = data.get("points", [])
        if len(points) < 2:
            continue
        body.append(
            svg_chart(
                {name: [(p[0], p[1]) for p in points]},
                name,
                x_label="us",
            )
        )
    return _page(f"Metrics series: {source}", "".join(body))


def render_text_html(text: str, source: str) -> str:
    return _page(f"Report: {source}", f"<pre>{_esc(text)}</pre>")


def _jsonl_to_series_doc(path: str) -> Dict:
    """Fold streamed JSONL sample rows back into a series document."""
    series: Dict[str, Dict] = {}
    samples = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            samples += 1
            t = row.get("t_us", 0.0)
            for name, value in row.get("metrics", {}).items():
                series.setdefault(name, {"points": []})["points"].append(
                    [t, value]
                )
    return {"schema": 1, "samples": samples, "series": series}


def render_target(target: str) -> Tuple[str, str]:
    """Dispatch on the target path; returns (kind, html)."""
    if os.path.isdir(target):
        from ..fleet.store import RunStore

        return "store", render_store_html(RunStore(target))
    if target.endswith(".jsonl"):
        return "series", render_series_html(
            _jsonl_to_series_doc(target), target
        )
    if target.endswith(".json"):
        with open(target, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if "series" in doc:
            return "series", render_series_html(doc, target)
        if "benchmarks" in doc:
            return "bench", render_bench_html(doc, target)
        raise ValueError(
            f"{target}: unrecognized JSON document (want a BENCH_* "
            "doc with 'benchmarks' or an obs series doc with 'series')"
        )
    with open(target, "r", encoding="utf-8") as fh:
        return "text", render_text_html(fh.read(), target)
