"""Tuning knobs for the health monitor.

Thresholds are expressed in the same units the monitored quantities use:
virtual microseconds for time, event and round counts, waiter depths.
Defaults are deliberately conservative — a clean run of any workload in the
repository trips nothing — and every demo or test that wants a twitchier
monitor passes its own config.  The FIFO fill watermarks and the link
saturation rule are constants of :mod:`repro.monitor.health`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MonitorConfig"]


@dataclass(frozen=True)
class MonitorConfig:
    """Configuration of one :class:`~repro.monitor.HealthMonitor`."""

    #: Virtual-time sampling period of the watchdog tick (stall scans,
    #: wait-queue depths, link saturation windows).
    check_interval_us: float = 250.0
    #: A process continuously waiting on the *same* event for longer than
    #: this trips a ``process_stall``.
    stall_timeout_us: float = 50_000.0
    #: Scheduler dispatches at a single instant of virtual time before a
    #: ``livelock`` trips (the clock is stuck while events churn).
    livelock_events: int = 1_000_000
    #: Resource/queue waiter depth that trips ``wait_queue_depth``.
    wait_queue_watermark: int = 64
    #: Window over which reliable-channel retransmit rounds are counted.
    retx_window_us: float = 2_000.0
    #: Retransmit rounds within the window that trip ``retx_storm``.
    retx_storm_rounds: int = 4
    #: Trailing telemetry events the flight recorder shows.
    flight_recorder_events: int = 256
    #: Hard cap on recorded trips (later trips are counted, not stored).
    max_trips: int = 64

    def __post_init__(self):
        if self.check_interval_us <= 0:
            raise ValueError("check_interval_us must be positive")
        if self.stall_timeout_us <= 0:
            raise ValueError("stall_timeout_us must be positive")
        if self.livelock_events < 1:
            raise ValueError("livelock_events must be >= 1")
        if self.wait_queue_watermark < 1:
            raise ValueError("wait_queue_watermark must be >= 1")
        if self.retx_window_us <= 0:
            raise ValueError("retx_window_us must be positive")
        if self.retx_storm_rounds < 1:
            raise ValueError("retx_storm_rounds must be >= 1")
        if self.flight_recorder_events < 1:
            raise ValueError("flight_recorder_events must be >= 1")
        if self.max_trips < 1:
            raise ValueError("max_trips must be >= 1")
