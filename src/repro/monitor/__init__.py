"""repro.monitor: runtime health monitoring, wait-for diagnosis, postmortems.

The observability layer for *failing* runs (DESIGN.md section 12), closing
the loop the fault injector opened: :mod:`repro.faults` makes a run break
the way the paper's bad design choices break, and this package records
what broke, who was stuck on what, and what the machine did just before.

Pieces:

* :class:`HealthMonitor` — watchdogs (process stalls, livelock) and
  invariant monitors (FIFO/receive watermarks, wait-queue depth,
  retransmit storms, link saturation) sampled from the engine's run loop;
  installed via :meth:`repro.node.machine.Machine.enable_monitor` and
  None-gated everywhere, so a monitor-off run is byte-identical.
* The flight recorder (:meth:`HealthMonitor.recording`) — the last
  ``flight_recorder_events`` events of the collector's own stream since
  the monitor armed; every trip copies it as evidence.
* :class:`Postmortem` / :func:`capture` — a wait-for state dump naming
  each blocked process, the Resource/Queue/Signal it waits on, recorded
  holders, deadlock cycles, and injected link outages.

Quick start::

    from repro import Machine
    machine = Machine(num_nodes=4)
    monitor = machine.enable_monitor()
    ...  # run a workload
    print(monitor.report())
    print(monitor.postmortem().render())

Demos (an injected link outage, receive-FIFO overflow, 15-to-1 fan-in)
are the fleet ``monitor`` workload's scenarios::

    python -m repro.fleet run --matrix demos
    python -m repro.explore drill workload=monitor,scenario=outage
"""

from .config import MonitorConfig
from .health import HealthMonitor, Trip
from .postmortem import Postmortem, capture, describe_event, events_to_json

__all__ = [
    "HealthMonitor",
    "MonitorConfig",
    "Trip",
    "Postmortem",
    "capture",
    "describe_event",
    "events_to_json",
]
