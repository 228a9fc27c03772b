"""Per-layer host-time attribution from a cProfile table.

A *layer* is one package under ``src/repro/``.  Every function whose file
lives in ``repro/<layer>/`` belongs to that layer; functions in this
benchmark's own directory belong to ``bench``.  Everything else -- C
builtins, the standard library, and the repro packages the benchmark does
not treat as layers -- owns no time of its own: its ``tottime`` is folded
into the layer of whoever called it, split by the per-caller times pstats
records.

Counts are taken from the same table:

* ``<layer>.calls`` -- calls into the layer's own Python functions.
  cProfile counts every generator resumption as a call.
* ``<layer>.in_calls`` -- the part of those calls whose caller belongs to
  another layer (or to the harness), i.e. traffic across the boundary.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sys
import time
from collections import defaultdict
from typing import Dict, Optional, Tuple

#: The layers of the simulated SHRIMP machine, bottom-up.
LAYERS = (
    "sim", "hardware", "node", "nic", "network",
    "vmmc", "msg", "svm", "apps", "serve",
)

#: Packages under src/repro/ that are not layers, and why.
EXCLUDED = {
    "telemetry": "None-gated observer, off in every workload",
    "monitor": "None-gated observer, off in every workload",
    "obs": "None-gated observer, off in every workload",
    "faults": "None-gated fault injection, off in every workload",
    "coll": "collectives are not run by any workload",
    "shard": "separate store-and-forward model, measured by repro.bench perf",
    "study": "tooling (configs and app specs the harness reads)",
    "bench": "tooling",
    "fleet": "tooling",
    "explore": "tooling",
}

#: The harness's own pseudo-layer.
HARNESS = "bench"

_HERE = os.path.dirname(os.path.abspath(__file__))

Func = Tuple[str, int, str]


def layer_of_file(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None if its time is folded."""
    if os.path.dirname(filename) == _HERE:
        return HARNESS
    path = filename.replace(os.sep, "/")
    at = path.rfind("/repro/")
    if at < 0:
        return None
    package = path[at + len("/repro/"):].split("/", 1)[0]
    return package if package in LAYERS else None


def attribute(stats: dict, layer_of=layer_of_file) -> Dict[str, dict]:
    """Fold a pstats table (``pstats.Stats(...).stats``) into layers.

    Returns ``{layer: {"self_s", "calls", "in_calls"}}`` for every layer in
    :data:`LAYERS` plus :data:`HARNESS`.  The self times sum to the table's
    total ``tottime``.  A folded function nobody in the table called (the
    profiler's own ``disable``) is the harness's.
    """
    own = {func: layer_of(func[0]) for func in stats}
    time_shares: Dict[Func, Dict[str, float]] = {}
    count_owner: Dict[Func, str] = {}

    def callers(func: Func, active: set):
        entry = stats.get(func)
        if entry is None:
            return []
        return [
            (caller, edge) for caller, edge in sorted(entry[4].items())
            if caller != func and caller not in active
        ]

    def shares(func: Func, active: set) -> Dict[str, float]:
        # How a folded function's time splits across the layers that
        # (transitively) called it, weighted by per-caller tottime.
        if own.get(func):
            return {own[func]: 1.0}
        if func in time_shares:
            return time_shares[func]
        active.add(func)
        edges = callers(func, active)
        total_t = sum(edge[2] for _, edge in edges)
        total_n = sum(edge[1] for _, edge in edges)
        mix: Dict[str, float] = defaultdict(float)
        for caller, edge in edges:
            weight = edge[2] / total_t if total_t > 0 else edge[1] / total_n
            for layer, part in shares(caller, active).items():
                mix[layer] += weight * part
        active.discard(func)
        time_shares[func] = dict(mix) or {HARNESS: 1.0}
        return time_shares[func]

    def owner(func: Func, active: set) -> str:
        # The one layer a folded caller counts as, chosen by call counts
        # so that in_calls repeats exactly between runs.
        if own.get(func):
            return own[func]
        if func in count_owner:
            return count_owner[func]
        active.add(func)
        votes: Dict[str, int] = defaultdict(int)
        for caller, edge in callers(func, active):
            votes[owner(caller, active)] += edge[1]
        active.discard(func)
        count_owner[func] = (
            max(sorted(votes), key=votes.__getitem__) if votes else HARNESS
        )
        return count_owner[func]

    out = {
        layer: {"self_s": 0.0, "calls": 0, "in_calls": 0}
        for layer in LAYERS + (HARNESS,)
    }
    for func, (_, nc, tt, _, func_callers) in stats.items():
        for layer, part in shares(func, set()).items():
            out[layer]["self_s"] += tt * part
        layer = own[func]
        if layer:
            same = sum(
                edge[1] for caller, edge in func_callers.items()
                if owner(caller, set()) == layer
            )
            out[layer]["calls"] += nc
            out[layer]["in_calls"] += nc - same
    return out


class LayerProfile:
    """cProfile plus a garbage-collector clock, on only while enabled.

    cProfile charges a collection to whichever function was running when
    it triggered.  The GC clock notes that function's layer, so
    :meth:`metrics` moves collector time out of the layer's self time and
    reports it once, as ``host.gc_s``.  Use as a context manager around the
    traced sample; :meth:`enable`/:meth:`disable` bracket each timed span.
    """

    def __init__(self, layer_of=layer_of_file):
        self.layer_of = layer_of
        self.profiler = cProfile.Profile()
        #: Host seconds the profiler was on (the traced wall time).
        self.wall_s = 0.0
        self.gc_runs = 0
        self.gc_by_layer: Dict[str, float] = defaultdict(float)
        self._on = False
        self._since = 0.0
        self._gc_start = 0.0
        self._gc_layer = HARNESS

    def __enter__(self) -> "LayerProfile":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def enable(self) -> None:
        self._on = True
        self._since = time.perf_counter()
        self.profiler.enable()

    def disable(self) -> None:
        self.profiler.disable()
        self.wall_s += time.perf_counter() - self._since
        self._on = False

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._on:
            return
        if phase == "start":
            self._gc_layer = self._frame_layer(sys._getframe(1))
            self._gc_start = time.perf_counter()
        else:
            self.gc_by_layer[self._gc_layer] += (
                time.perf_counter() - self._gc_start
            )
            self.gc_runs += 1

    def _frame_layer(self, frame) -> str:
        while frame is not None:
            layer = self.layer_of(frame.f_code.co_filename)
            if layer:
                return layer
            frame = frame.f_back
        return HARNESS

    def metrics(self) -> Dict[str, float]:
        """``<layer>.self_s/.calls/.in_calls``, ``bench.self_s`` and
        ``host.gc_s/.gc_runs`` of everything profiled so far."""
        by_layer = attribute(pstats.Stats(self.profiler).stats, self.layer_of)
        out: Dict[str, float] = {}
        for layer in LAYERS:
            row = by_layer[layer]
            out[f"{layer}.self_s"] = row["self_s"] - self.gc_by_layer[layer]
            out[f"{layer}.calls"] = row["calls"]
            out[f"{layer}.in_calls"] = row["in_calls"]
        out["bench.self_s"] = (
            by_layer[HARNESS]["self_s"] - self.gc_by_layer[HARNESS]
        )
        out["host.gc_s"] = sum(self.gc_by_layer.values())
        out["host.gc_runs"] = self.gc_runs
        return out
