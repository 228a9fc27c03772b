"""Live progress for fleet fan-outs.

The ticker is an **observational side-channel**: its numbers ride the
fleet pool's heartbeat queue and are derived purely from wall-clock and
completion counts, and run records carry no wall clock, so nothing
reported here can move a stored byte.

``run_specs(..., progress=FleetTicker(...))`` prints per-spec
start/finish heartbeats with a fleet-level ETA.
"""

from __future__ import annotations

import sys
import time as _time
from typing import Optional, TextIO, Tuple

__all__ = ["FleetTicker"]


class FleetTicker:
    """Per-spec heartbeat printer for ``run_specs`` progress events.

    Receives ``("start", fingerprint, description)`` and
    ``("done", fingerprint, status)`` tuples — from the inline runner
    directly, or drained off the worker pool's heartbeat queue — and
    prints one line each, with a fleet ETA extrapolated from the
    completion rate so far.
    """

    def __init__(self, total: int, out: Optional[TextIO] = None):
        self.total = total
        self.out = out if out is not None else sys.stderr
        self.done = 0
        self.started = 0
        self._t0 = _time.perf_counter()

    def __call__(self, event: Tuple) -> None:
        kind = event[0]
        if kind == "start":
            self.started += 1
            _kind, fingerprint, description = event
            print(
                f"[{self.done}/{self.total}] start {fingerprint[:8]}  "
                f"{description}",
                file=self.out,
                flush=True,
            )
            return
        if kind != "done":
            return
        _kind, fingerprint, status = event
        self.done += 1
        elapsed = _time.perf_counter() - self._t0
        if self.done < self.total and self.done > 0:
            eta = elapsed / self.done * (self.total - self.done)
            eta_text = f"  eta {eta:.1f}s"
        else:
            eta_text = ""
        print(
            f"[{self.done}/{self.total}] {status:<6} {fingerprint[:8]}  "
            f"({elapsed:.1f}s elapsed{eta_text})",
            file=self.out,
            flush=True,
        )
