"""repro.telemetry: causal spans, metrics and trace export.

The profiling substrate of the reproduction (DESIGN.md section 9).  A
:class:`Telemetry` collector installed on a machine records **causal
spans** (begin/end events with parent links that follow one transfer
app -> VMMC -> NIC -> backplane -> remote NIC -> delivery) and
per-resource **utilization timelines**, all against virtual time and at
zero virtual-time cost.  The stream exports as Chrome ``trace_event`` JSON
(``chrome://tracing`` / Perfetto); reports derive per-span latency
histograms with tail percentiles and render them as ASCII tables.

Quick start::

    from repro import Machine
    machine = Machine(num_nodes=4)
    tel = machine.enable_telemetry()
    ...  # run a workload
    from repro.telemetry import write_chrome_trace, summarize
    write_chrome_trace(tel, "run.trace.json")
    print(summarize(tel))

Traced demo runs (a DU ping's span tree, a suite application) are the
fleet ``demos`` matrix; ``explore drill`` names each run's trace::

    python -m repro.fleet run --matrix demos
    python -m repro.explore drill workload=ping,reliable=0
"""

from .collector import Span, Telemetry
from .critpath import (
    Attribution,
    PathSegment,
    aggregate,
    attribute,
    attribution_report,
    critical_path,
    operation_roots,
)
from .events import TelemetryEvent
from .export import to_chrome_trace, write_chrome_trace
from .metrics import Histogram, TailHistogram, Timeline
from .report import latency_breakdown, summarize, utilization_report

__all__ = [
    "Telemetry",
    "Span",
    "TelemetryEvent",
    "Histogram",
    "TailHistogram",
    "Timeline",
    "to_chrome_trace",
    "write_chrome_trace",
    "latency_breakdown",
    "utilization_report",
    "summarize",
    "Attribution",
    "PathSegment",
    "critical_path",
    "attribute",
    "aggregate",
    "operation_roots",
    "attribution_report",
]
