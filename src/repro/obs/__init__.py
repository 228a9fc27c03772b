"""repro.obs: live observability over the telemetry/monitor substrate.

Four pillars (DESIGN.md section 17):

* :class:`MetricsRegistry` — run-scoped probes sampled on a virtual-time
  cadence into bounded ring-buffered series, with a Prometheus-style text
  exposition (``python -m repro.obs scrape``) and JSONL streaming;
* :class:`EpochProgress` / :class:`ShardProgressTicker` /
  :class:`FleetTicker` — live progress and ETA for sharded runs and fleet
  fan-outs, carried on observational side-channels provably off the
  identity streams;
* :class:`SamplingProfiler` — a host-time sampling profiler attributing
  the simulator's wall clock to its components;
* the HTML evidence renderer (``python -m repro.obs html``) over the run
  store, BENCH documents, metric series and monitor postmortems.

Everything here observes and never schedules: obs-off runs are
byte-identical to builds without the subsystem, and obs-on runs have an
unchanged trajectory (the determinism suite gates both).
"""

from .html import render_target, svg_chart
from .metrics import (
    DEFAULT_COUNTER_PROBES,
    MetricsRegistry,
    ObsConfig,
    RingSeries,
)
from .profile import SamplingProfiler, classify_path
from .progress import EpochProgress, FleetTicker, ShardProgressTicker

__all__ = [
    "ObsConfig",
    "MetricsRegistry",
    "RingSeries",
    "DEFAULT_COUNTER_PROBES",
    "SamplingProfiler",
    "classify_path",
    "EpochProgress",
    "ShardProgressTicker",
    "FleetTicker",
    "svg_chart",
    "render_target",
]
