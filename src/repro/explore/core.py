"""Cross-run exploration over the fleet store and committed baselines.

The resolver (:func:`resolve`) turns a command-line *reference* into a
``(label, name, bench-entry, record)`` tuple.  Three reference forms:

* a **fingerprint prefix** — ``3417`` matches the unique store record
  whose fingerprint starts with it;
* a **spec query** — ``workload=coll,mode=tree-nic,nodes=16`` matches
  the unique record whose spec fields and params satisfy every clause
  (so scripts never have to parse fingerprints out of listings);
* a **baseline reference** — ``benchmarks/baseline/BENCH_seed.json#du_ping_word``
  names one entry of a committed ``BENCH_*`` document (the ``#`` part
  may be omitted when the document holds exactly one benchmark).

Every comparison funnels through :func:`repro.bench.compare.compare_docs`
— records embed a ``BENCH``-schema entry, so stored runs and committed
baselines go down the *same* paired-bootstrap stats path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench.compare import Comparison, compare_docs
from ..bench.core import SCHEMA_VERSION, load_bench
from ..fleet.catalog import ExperimentSpec
from ..fleet.store import RunStore, StoreError
from ..study.report import format_bars, format_series, format_table

__all__ = [
    "Resolved",
    "resolve",
    "record_resolved",
    "list_table",
    "entry_text",
    "show_resolved",
    "show_record",
    "compare_refs",
    "attr_diff",
    "trend_rows",
    "trend_table",
    "drill",
]


@dataclass
class Resolved:
    """One side of a comparison: where it came from and its stats entry."""

    label: str
    name: str  # benchmark-style name used for pairing
    entry: Dict  # BENCH-schema benchmarks entry
    record: Optional[Dict] = None  # present for store records
    fingerprint: Optional[str] = None


def _is_query(ref: str) -> bool:
    return "=" in ref


def _query_clauses(ref: str) -> Dict[str, str]:
    clauses = {}
    for part in ref.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad query clause {part!r} (want key=value)")
        key, value = part.split("=", 1)
        clauses[key.strip()] = value.strip()
    if not clauses:
        raise ValueError(f"empty query {ref!r}")
    return clauses


def _spec_value(spec: ExperimentSpec, key: str):
    if key in ("workload", "platform", "fault_plan", "nodes", "seed"):
        return getattr(spec, key)
    return spec.param(key)


def _matches(record: Dict, clauses: Dict[str, str]) -> bool:
    spec = ExperimentSpec.from_json(record["spec"])
    for key, want in clauses.items():
        have = _spec_value(spec, key)
        if have is None or str(have) != want:
            return False
    return True


def record_resolved(fingerprint: str, record: Dict) -> Resolved:
    """A loaded store record as the resolver would return it."""
    entry = record.get("bench")
    spec = ExperimentSpec.from_json(record["spec"])
    label = f"{spec.describe()} @{fingerprint[:8]}"
    return Resolved(
        label=label,
        name=record["workload"],
        entry=entry,
        record=record,
        fingerprint=fingerprint,
    )


def resolve(store: RunStore, ref: str) -> Resolved:
    """Resolve one reference against the store or a ``BENCH_*`` file."""
    if ref.endswith(".json") or ".json#" in ref:
        path, _, bench = ref.partition("#")
        doc = load_bench(path)
        benchmarks = doc["benchmarks"]
        if not bench:
            if len(benchmarks) != 1:
                raise ValueError(
                    f"{path} holds {len(benchmarks)} benchmarks; pick one "
                    f"with {path}#<name> (available: {sorted(benchmarks)})"
                )
            bench = next(iter(benchmarks))
        if bench not in benchmarks:
            raise ValueError(
                f"no benchmark {bench!r} in {path} "
                f"(available: {sorted(benchmarks)})"
            )
        return Resolved(
            label=f"{doc.get('label', '?')}:{bench}",
            name=bench,
            entry=benchmarks[bench],
        )
    if _is_query(ref):
        clauses = _query_clauses(ref)
        hits = [
            (fingerprint, record)
            for fingerprint, record in store.records()
            if _matches(record, clauses)
        ]
        if not hits:
            raise ValueError(f"no stored record matches {ref!r}")
        if len(hits) > 1:
            listing = ", ".join(fingerprint for fingerprint, _ in hits[:8])
            raise ValueError(
                f"{ref!r} is ambiguous: {len(hits)} records match "
                f"({listing}{'...' if len(hits) > 8 else ''})"
            )
        return record_resolved(*hits[0])
    hits = [
        fingerprint
        for fingerprint in store.fingerprints()
        if fingerprint.startswith(ref)
    ]
    if not hits:
        raise ValueError(
            f"no stored record fingerprint starts with {ref!r} "
            f"(store: {store.root})"
        )
    if len(hits) > 1:
        raise ValueError(
            f"fingerprint prefix {ref!r} is ambiguous: {', '.join(hits)}"
        )
    return record_resolved(hits[0], store.load(hits[0]))


# -- list ---------------------------------------------------------------


def list_table(store: RunStore) -> str:
    rows = []
    for fingerprint, record in store.records():
        spec = ExperimentSpec.from_json(record["spec"])
        entry = record.get("bench")
        monitor = record.get("monitor") or {}
        knobs = " ".join(f"{k}={v}" for k, v in spec.params)
        rows.append(
            [
                fingerprint,
                spec.workload,
                knobs or "-",
                spec.nodes,
                spec.fault_plan,
                spec.seed,
                len(entry["samples"]) if entry else 0,
                f"{entry['median']:.2f}" if entry else "-",
                record.get("unit", "?"),
                len(monitor.get("trips", [])),
            ]
        )
    invalid = store.invalid()
    if rows:
        table = format_table(
            f"Run store: {store.root} ({len(rows)} records)",
            ["fingerprint", "workload", "params", "nodes", "faults", "seed",
             "n", "median", "unit", "trips"],
            rows,
        )
    elif not invalid:
        return f"run store {store.root}: no records"
    else:
        table = f"run store {store.root}: no valid records"
    if invalid:
        lines = [table, ""]
        for fingerprint, reason in invalid:
            lines.append(f"INVALID {fingerprint}: {reason}")
        return "\n".join(lines)
    return table


# -- show ---------------------------------------------------------------


def entry_text(entry: Optional[Dict]) -> str:
    """A bench entry's samples line and its attribution bars."""
    if entry is None:
        return "no samples (report-only record; see drill)"
    parts = [
        f"samples: n={len(entry['samples'])} "
        f"median={entry['median']:.3f} mean={entry['mean']:.3f} "
        f"min={entry['min']:.3f} max={entry['max']:.3f} "
        f"p95={entry['p95']:.3f} {entry['unit']}"
    ]
    if "attribution" in entry:
        parts.append(
            format_bars(
                f"Critical-path attribution "
                f"({entry.get('ops', 0)} ops, mean us/op)",
                [
                    (component, value)
                    for component, value in entry["attribution"].items()
                    if value > 0.0
                ],
                unit="us",
            )
        )
    return "\n\n".join(parts)


def show_resolved(store: RunStore, resolved: Resolved) -> str:
    """One resolved reference in full: what ``explore show`` prints."""
    parts: List[str] = []
    if resolved.record is None:
        parts.append(f"Baseline entry: {resolved.label}")
    else:
        record = resolved.record
        parts.append(f"Record {resolved.fingerprint}: {resolved.label}")
        parts.append(
            "spec: " + json.dumps(record["spec"], sort_keys=True)
        )
        parts.append(f"code version: {record['code_version']}")
        if record.get("virtual_end_us"):
            parts.append(f"virtual end: {record['virtual_end_us']:.2f} us")
        if record.get("metrics"):
            parts.append(
                "metrics: "
                + ", ".join(
                    f"{key}={value:g}"
                    for key, value in sorted(record["metrics"].items())
                )
            )
        monitor = record.get("monitor")
        if monitor is not None:
            if monitor.get("healthy", True):
                parts.append("monitor: healthy")
            else:
                trips = monitor.get("trips", [])
                parts.append(f"monitor: {len(trips)} trip(s)")
                for trip in trips:
                    parts.append(
                        f"  [t={trip['time']:.1f}us] {trip['kind']} "
                        f"{trip['subject']}: {trip['detail']}"
                    )
        artifacts = record.get("artifacts", {})
        if artifacts:
            parts.append(
                "artifacts: "
                + ", ".join(
                    f"{kind}={store.artifact_path(record, kind)}"
                    for kind in sorted(artifacts)
                )
            )
    parts.append(entry_text(resolved.entry))
    return "\n\n".join(parts)


def show_record(store: RunStore, ref: str) -> str:
    return show_resolved(store, resolve(store, ref))


# -- compare ------------------------------------------------------------


def _mini_doc(resolved: Resolved, name: str) -> Dict:
    if resolved.entry is None:
        raise ValueError(
            f"{resolved.label} has no samples (report-only record); "
            "nothing to compare"
        )
    return {
        "schema": SCHEMA_VERSION,
        "label": resolved.label,
        "benchmarks": {name: resolved.entry},
    }


def compare_refs(
    store: RunStore,
    base_ref: str,
    new_ref: str,
    threshold: float = 0.05,
    n_boot: int = 2000,
) -> Comparison:
    """Paired-bootstrap comparison of any two references."""
    base = resolve(store, base_ref)
    new = resolve(store, new_ref)
    name = base.name if base.name == new.name else f"{base.name}->{new.name}"
    return compare_docs(
        _mini_doc(new, name),
        _mini_doc(base, name),
        threshold=threshold,
        n_boot=n_boot,
    )


# -- attr-diff ----------------------------------------------------------


def attr_diff(store: RunStore, base_ref: str, new_ref: str) -> str:
    """Where did the time go between two runs, in us/op and share points."""
    base = resolve(store, base_ref)
    new = resolve(store, new_ref)
    for side in (base, new):
        if side.entry is None or "attribution" not in side.entry:
            raise ValueError(
                f"{side.label} carries no attribution vector; "
                "attr-diff needs records with critical-path attribution"
            )
    base_attr = base.entry["attribution"]
    new_attr = new.entry["attribution"]
    base_share = base.entry.get("attribution_share", {})
    new_share = new.entry.get("attribution_share", {})
    components = sorted(set(base_attr) | set(new_attr))
    rows = []
    movers: List[Tuple[float, str]] = []
    for component in components:
        b_us = base_attr.get(component, 0.0)
        n_us = new_attr.get(component, 0.0)
        b_pct = 100.0 * base_share.get(component, 0.0)
        n_pct = 100.0 * new_share.get(component, 0.0)
        if b_us == 0.0 and n_us == 0.0:
            continue
        rows.append(
            [
                component,
                f"{b_us:.3f}",
                f"{n_us:.3f}",
                f"{n_us - b_us:+.3f}",
                f"{b_pct:.1f}",
                f"{n_pct:.1f}",
                f"{n_pct - b_pct:+.1f}",
            ]
        )
        movers.append((abs(n_pct - b_pct), component))
    table = format_table(
        f"Attribution shift: {base.label} -> {new.label}",
        ["component", "base us/op", "new us/op", "d us/op",
         "base %", "new %", "d pp"],
        rows,
    )
    lines = [table]
    base_total = sum(base_attr.values())
    new_total = sum(new_attr.values())
    lines.append(
        f"total critical path: {base_total:.3f} -> {new_total:.3f} us/op "
        f"({'%+.1f' % (100.0 * (new_total - base_total) / base_total) if base_total else '?'}%)"
    )
    for _weight, component in sorted(movers, reverse=True)[:2]:
        b_pct = 100.0 * base_share.get(component, 0.0)
        n_pct = 100.0 * new_share.get(component, 0.0)
        lines.append(
            f"{component} share {b_pct:.1f}% -> {n_pct:.1f}% "
            f"({base_attr.get(component, 0.0):.3f} -> "
            f"{new_attr.get(component, 0.0):.3f} us/op)"
        )
    return "\n\n".join(lines)


# -- trend --------------------------------------------------------------

_SPEC_AXES = ("workload", "platform", "fault_plan", "nodes", "seed")


def trend_rows(
    store: RunStore,
    workload: str,
    x: str = "nodes",
    filters: Optional[Dict[str, str]] = None,
) -> Dict:
    """Median-vs-``x`` series for one workload, as a machine-readable doc.

    Every valid record of ``workload`` passing ``filters`` contributes a
    point; records are grouped into one series per distinct combination
    of the remaining knobs (params, platform, fault plan), which is how
    a ``mode=nx`` vs ``mode=tree-nic`` scaling sweep becomes two series
    of the same figure.  Returns ``{"workload", "x", "unit", "series":
    {label: [[x_value, median], ...]}}`` — the shape behind both the
    textual figure (:func:`trend_table`) and the HTML renderer's trend
    charts, and what ``repro.explore trend --json`` writes.
    """
    filters = filters or {}
    series: Dict[str, List[Tuple[object, float]]] = {}
    unit = "?"
    for _fingerprint, record in store.records():
        if record["workload"] != workload:
            continue
        if filters and not _matches(record, filters):
            continue
        entry = record.get("bench")
        if entry is None:
            continue
        spec = ExperimentSpec.from_json(record["spec"])
        x_value = _spec_value(spec, x)
        if x_value is None:
            continue
        unit = entry["unit"]
        knobs = [
            f"{key}={value}"
            for key, value in spec.params
            if key != x and key not in filters
        ]
        for axis in ("platform", "fault_plan", "seed"):
            value = getattr(spec, axis)
            defaults = {"platform": "shrimp", "fault_plan": "none",
                        "seed": 1998}
            if axis != x and axis not in filters and value != defaults[axis]:
                knobs.append(f"{axis}={value}")
        label = " ".join(knobs) or workload
        series.setdefault(label, []).append((x_value, entry["median"]))
    if not series:
        raise ValueError(
            f"no records of workload {workload!r} with samples match "
            f"{filters or '(no filters)'} in {store.root}"
        )
    for points in series.values():
        points.sort(key=lambda point: (str(point[0]), point[1]))
    return {
        "workload": workload,
        "x": x,
        "unit": unit,
        "series": {
            label: [[x_value, median] for x_value, median in points]
            for label, points in series.items()
        },
    }


def trend_table(
    store: RunStore,
    workload: str,
    x: str = "nodes",
    filters: Optional[Dict[str, str]] = None,
) -> str:
    """The textual figure over :func:`trend_rows` (same grouping rules)."""
    doc = trend_rows(store, workload, x=x, filters=filters)
    series = {
        label: [(x_value, median) for x_value, median in points]
        for label, points in doc["series"].items()
    }
    return format_series(
        f"Trend: {workload} median ({doc['unit']}) vs {x}", x, series
    )


# -- drill --------------------------------------------------------------


def drill(store: RunStore, ref: str) -> str:
    """Resolve a record to its on-disk evidence."""
    resolved = resolve(store, ref)
    if resolved.record is None:
        raise ValueError(
            f"{resolved.label} is a baseline entry, not a stored run; "
            "drill needs a record"
        )
    record = resolved.record
    lines = [f"Record {resolved.fingerprint}: {resolved.label}"]
    lines.append(f"record: {os.path.abspath(store.record_path(resolved.fingerprint))}")
    artifacts = record.get("artifacts", {})
    if not artifacts:
        lines.append("no sidecar artifacts")
    trace_path = store.artifact_path(record, "trace")
    if trace_path:
        with open(trace_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        lines.append(
            f"trace: {trace_path} ({len(doc.get('traceEvents', []))} "
            "events; open in chrome://tracing or ui.perfetto.dev)"
        )
    postmortem_path = store.artifact_path(record, "postmortem")
    if postmortem_path:
        lines.append(f"postmortem: {postmortem_path}")
    report_path = store.artifact_path(record, "report")
    if report_path:
        with open(report_path, "r", encoding="utf-8") as fh:
            body = fh.read()
        lines.append(f"report: {report_path}")
        lines.append("")
        lines.append(body.rstrip("\n"))
    return "\n".join(lines)
