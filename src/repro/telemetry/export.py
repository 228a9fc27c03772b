"""The exporter: Chrome ``trace_event`` JSON.

The Chrome format (loadable in ``chrome://tracing`` or Perfetto) maps the
simulated machine onto the viewer's process/thread model: **pid = node id**,
**tid = layer track** ("app", "vmmc", "nic.tx", "net", "nic.rx", ...).
Completed spans become ``"X"`` complete events; spans still open at export
time become lone ``"B"`` events (the viewer auto-closes them); instants are
``"i"``; parent links across (node, track) lanes are drawn as ``"s"``/``"f"``
flow arrows, which is what makes one deliberate-update transfer visible as a
connected tree from the sending VMMC lane through the wire to the remote
NIC lane.  Resource timelines export as ``"C"`` counter series on a
dedicated "resources" track.  ``process_name``/``process_sort_index`` and
``thread_name``/``thread_sort_index`` metadata label every track ("node 3" /
"nic.rx") and pin the pipeline ordering of :data:`TRACK_ORDER`, so a
drill-down from the results explorer lands in a readable timeline instead
of bare pids in first-seen order.

Timestamps are virtual microseconds, which is exactly the unit the format
expects.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from .collector import Telemetry
from .events import PHASE_BEGIN, PHASE_INSTANT

__all__ = [
    "TRACK_ORDER",
    "COUNTER_TRACK",
    "to_chrome_trace",
    "write_chrome_trace",
    "ensure_parent_dir",
]


def ensure_parent_dir(path: str) -> str:
    """Create the parent directories of ``path``; returns ``path``.

    Lets ``--out traces/run.json`` work without a pre-existing ``traces/``
    directory; every writer in this package (and ``repro.bench``) funnels
    through it.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path

#: pid used for machine-wide events recorded with node == -1.
SIM_PID = 1_000_000

#: Canonical viewer ordering of the per-node tracks, following the
#: message pipeline top to bottom: application first, then the libraries,
#: the kernel, the NIC send side, the wire, the NIC receive side, and
#: finally resource counters.  Tracks not listed here sort after these,
#: alphabetically (see ``_track_sort_index``).
TRACK_ORDER = (
    "app",
    "serve",
    "svm",
    "vmmc",
    "msg",
    "kernel",
    "nic.tx",
    "nic.fw",
    "net",
    "nic.rx",
    "resources",
)

#: The synthetic track carrying "C" resource-counter series.
COUNTER_TRACK = "resources"


def _track_sort_index(track: str) -> int:
    try:
        return TRACK_ORDER.index(track)
    except ValueError:
        return len(TRACK_ORDER)


def _pid(node: int) -> int:
    return SIM_PID if node < 0 else node


def _json_safe(args: Dict[str, Any]) -> Dict[str, Any]:
    return {
        key: value
        if isinstance(value, (str, int, float, bool, type(None)))
        else repr(value)
        for key, value in args.items()
    }


def to_chrome_trace(
    telemetry: Telemetry, label: str = "repro.shrimp"
) -> Dict[str, Any]:
    """Render the collector's contents as a Chrome trace-event document."""
    events: List[Dict[str, Any]] = []
    tids: Dict[tuple, int] = {}

    def tid_for(node: int, track: str) -> int:
        key = (_pid(node), track)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == key[0]]) + 1
            # Label the track and pin its position: without the metadata
            # the viewer shows bare tids in first-seen order, which for a
            # drill-down means hunting for "node 3's NIC" by number.
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": key[0],
                    "tid": tids[key],
                    "ts": 0,
                    "args": {"name": track},
                }
            )
            events.append(
                {
                    "ph": "M",
                    "name": "thread_sort_index",
                    "pid": key[0],
                    "tid": tids[key],
                    "ts": 0,
                    "args": {"sort_index": _track_sort_index(track)},
                }
            )
        return tids[key]

    seen_pids = set()

    def name_pid(node: int) -> int:
        pid = _pid(node)
        if pid not in seen_pids:
            seen_pids.add(pid)
            name = "simulator" if pid == SIM_PID else f"node {node}"
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "ts": 0,
                    "args": {"name": name},
                }
            )
            # Nodes in id order, the machine-wide pseudo-process last.
            events.append(
                {
                    "ph": "M",
                    "name": "process_sort_index",
                    "pid": pid,
                    "tid": 0,
                    "ts": 0,
                    "args": {"sort_index": node if node >= 0 else SIM_PID},
                }
            )
        return pid

    #: span_id -> (pid, tid, begin ts) for flow-arrow endpoints.
    anchors: Dict[int, tuple] = {}

    for span in telemetry.spans():
        pid = name_pid(span.node)
        tid = tid_for(span.node, span.track)
        anchors[span.span_id] = (pid, tid, span.start)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ts": span.start,
                "dur": span.duration,
                "pid": pid,
                "tid": tid,
                "args": {
                    "span": span.span_id,
                    "parent": span.parent_id,
                    **_json_safe(span.args),
                },
            }
        )

    for event in telemetry.events:
        if event.phase == PHASE_INSTANT:
            pid = name_pid(event.node)
            tid = tid_for(event.node, event.track)
            anchors[event.span_id] = (pid, tid, event.time)
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": event.name,
                    "cat": event.category,
                    "ts": event.time,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "span": event.span_id,
                        "parent": event.parent_id,
                        **_json_safe(event.args),
                    },
                }
            )

    for begin in telemetry.open_spans():
        pid = name_pid(begin.node)
        tid = tid_for(begin.node, begin.track)
        anchors[begin.span_id] = (pid, tid, begin.time)
        events.append(
            {
                "ph": "B",
                "name": begin.name,
                "cat": begin.category,
                "ts": begin.time,
                "pid": pid,
                "tid": tid,
                "args": {
                    "span": begin.span_id,
                    "parent": begin.parent_id,
                    **_json_safe(begin.args),
                },
            }
        )

    # Flow arrows for every recorded parent link whose endpoints both exist.
    flows = []
    for span in telemetry.spans():
        if span.parent_id is not None:
            flows.append((span.parent_id, span.span_id))
    for event in telemetry.events:
        if event.phase in (PHASE_INSTANT, PHASE_BEGIN) and event.parent_id:
            flows.append((event.parent_id, event.span_id))
    emitted = set()
    for parent_id, child_id in flows:
        if (parent_id, child_id) in emitted:
            continue
        emitted.add((parent_id, child_id))
        src = anchors.get(parent_id)
        dst = anchors.get(child_id)
        if src is None or dst is None:
            continue
        flow_id = (parent_id << 24) ^ child_id
        events.append(
            {
                "ph": "s",
                "id": flow_id,
                "name": "causal",
                "cat": "flow",
                "ts": src[2],
                "pid": src[0],
                "tid": src[1],
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "name": "causal",
                "cat": "flow",
                "ts": max(dst[2], src[2]),
                "pid": dst[0],
                "tid": dst[1],
            }
        )

    for timeline in telemetry.timelines.values():
        pid = name_pid(timeline.node)
        tid = tid_for(timeline.node, COUNTER_TRACK)
        for time, value in timeline.points:
            events.append(
                {
                    "ph": "C",
                    "name": timeline.name,
                    "cat": "resource",
                    "ts": time,
                    "pid": pid,
                    "tid": tid,
                    "args": {"value": value},
                }
            )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "events_dropped": telemetry.dropped,
        },
    }


def write_chrome_trace(
    telemetry: Telemetry, path: str, label: str = "repro.shrimp"
) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    with open(ensure_parent_dir(path), "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(telemetry, label), fh)
    return path
