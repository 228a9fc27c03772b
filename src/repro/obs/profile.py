"""Host-time sampling profiler: where does the *wall clock* go?

Virtual-time telemetry answers where the simulated machine spends its
microseconds; this module answers where the *simulator* spends its host
seconds.

:class:`SamplingProfiler` runs a daemon thread that grabs the profiled
thread's current Python frame stack via ``sys._current_frames()`` at a
fixed host interval and attributes the sample to a simulator **component**
by walking the stack innermost-first until a frame's file lives in a
``repro/<package>/`` directory.  The component is that package's name
(``sim``, ``hardware``, ``node``, ``nic``, ``network``, ``vmmc``, ``msg``,
``svm``, ``apps``, ``serve``, ...), the same layer names the end-to-end
benchmark in ``benchmarks/e2e`` reports.  Samples matching nothing land in
``other``, so the report's rows always sum to 100% of sampled time — no
share is silently dropped.

Pure stdlib, no signals (works off the main thread), and safe on any
workload: the sampler only *reads* frames.  Typical overhead at the 2 ms
default interval is under 2%.
"""

from __future__ import annotations

import os
import sys
import threading
import time as _time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..study.report import format_table

__all__ = ["SamplingProfiler", "classify_path", "UNCLASSIFIED"]

#: Packages that are not components: the None-gated observers and fault
#: plans the layers call into.  Their frames attribute to the nearest
#: classified frame on the stack, so their cost is charged to the layer
#: that called them, as ``benchmarks/e2e`` charges it.
UNCLASSIFIED: Tuple[str, ...] = ("faults", "monitor", "obs", "telemetry")

#: The directory holding the ``repro`` packages.
_ROOT = os.path.dirname(os.path.dirname(__file__)) + os.sep


def classify_path(path: str) -> Optional[str]:
    """The component a source path belongs to (None: not ours).

    A file inside ``repro/<package>/`` belongs to ``<package>`` unless
    that package is in :data:`UNCLASSIFIED`.
    """
    if not path.startswith(_ROOT):
        return None
    package, sep, _rest = path[len(_ROOT):].partition(os.sep)
    return package if sep and package not in UNCLASSIFIED else None


class SamplingProfiler:
    """Samples one thread's Python stack and attributes it to components.

    Usage::

        profiler = SamplingProfiler(interval_s=0.002)
        with profiler:
            run_the_workload()
        print(profiler.report())
    """

    def __init__(
        self,
        interval_s: float = 0.002,
        target_thread_id: Optional[int] = None,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval must be positive: {interval_s}")
        self.interval_s = interval_s
        self._target_id = target_thread_id
        self.component_samples: Counter = Counter()
        #: (component, innermost repro function name) -> samples.
        self.site_samples: Counter = Counter()
        self.total_samples = 0
        self.wall_s = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._t0 = 0.0

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self._target_id is None:
            self._target_id = threading.get_ident()
        self._stop.clear()
        self._t0 = _time.perf_counter()
        self._thread = threading.Thread(
            target=self._sampler_loop, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.wall_s += _time.perf_counter() - self._t0

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- sampling ---------------------------------------------------------

    def _sampler_loop(self) -> None:
        target = self._target_id
        wait = self._stop.wait
        while not wait(self.interval_s):
            frame = sys._current_frames().get(target)
            # A wake-up that won the GIL only once stop() began waiting
            # would sample the profiler's own shutdown.
            if frame is not None and not self._stop.is_set():
                self._record(frame)

    def _record(self, frame) -> None:
        self.total_samples += 1
        component = None
        site = None
        walker = frame
        while walker is not None:
            found = classify_path(walker.f_code.co_filename)
            if found is not None:
                component = found
                site = walker.f_code.co_name
                break
            walker = walker.f_back
        if component is None:
            component = "other"
            site = frame.f_code.co_name
        self.component_samples[component] += 1
        self.site_samples[(component, site)] += 1

    # -- reporting --------------------------------------------------------

    def attribution(self) -> Dict[str, float]:
        """Component -> fraction of sampled time (sums to 1.0)."""
        total = self.total_samples
        if not total:
            return {}
        return {
            component: count / total
            for component, count in self.component_samples.most_common()
        }

    def rows(self) -> List[List[str]]:
        total = self.total_samples
        rows = []
        for component, count in self.component_samples.most_common():
            top = [
                f"{site} ({100.0 * n / total:.0f}%)"
                for (comp, site), n in self.site_samples.most_common()
                if comp == component
            ][:2]
            rows.append(
                [
                    component,
                    count,
                    f"{100.0 * count / total:.1f}",
                    ", ".join(top),
                ]
            )
        return rows

    def report(self, title: str = "Wall-clock attribution") -> str:
        if not self.total_samples:
            return f"{title}: no samples (run too short for the interval?)"
        table = format_table(
            f"{title} ({self.total_samples} samples over "
            f"{self.wall_s:.2f}s wall, every {1000.0 * self.interval_s:.1f}ms)",
            ["component", "samples", "share %", "hottest frames"],
            self.rows(),
        )
        covered = 100.0 * sum(
            count
            for component, count in self.component_samples.items()
            if component != "other"
        ) / self.total_samples
        return f"{table}\n\nsimulator components cover {covered:.1f}% of samples"

    def __repr__(self) -> str:
        return (
            f"SamplingProfiler({self.total_samples} samples, "
            f"{len(self.component_samples)} components)"
        )
