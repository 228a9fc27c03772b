#!/usr/bin/env python
"""Health monitoring and postmortem diagnosis of a link outage.

Builds a 2-node SHRIMP machine with the health monitor armed, kills the
forward link mid-transfer with a hand-pinned fault plan, and lets a
reliable VMMC channel retransmit itself to death.  The monitor trips on
the retransmission storm (naming the dead link by cross-referencing the
channel's route against the fault plan), then on the failed delivery; the
postmortem dump shows which process is still parked on which primitive
and what the machine was doing right before it wedged.

The monitor is a pure observer: it never schedules anything, so an armed
run takes exactly the same virtual-time trajectory as an unmonitored one.

Run::

    python examples/health_monitoring.py
"""

from repro import Machine
from repro.fleet.workloads import spawn_outage
from repro.monitor import MonitorConfig
from repro.vmmc import DeliveryFailed


def main() -> None:
    machine = Machine(num_nodes=2, seed=1998)
    monitor = machine.enable_monitor(
        MonitorConfig(
            check_interval_us=100.0,   # sampled-scan cadence
            stall_timeout_us=2_000.0,  # flag processes parked this long
            retx_storm_rounds=3,       # rounds within the window => storm
            retx_window_us=5_000.0,
        )
    )

    # Node 0 streams two 2 KB messages to node 1 over a reliable channel;
    # a hand-pinned fault plan kills link (0, 1) for good between them, so
    # a *known* link dies at a known time (the fleet `monitor` workload's
    # `outage` scenario runs the same program).
    spawn_outage(machine)

    try:
        machine.sim.run()
    except DeliveryFailed as exc:
        print(f"delivery failed at t={machine.sim.now:.1f}us: {exc}\n")

    # What the watchdogs saw, as it happened.
    print(monitor.report())

    # The full wait-for dump: who is stuck on what, which links are down,
    # and the flight recorder's trailing telemetry events.
    postmortem = monitor.postmortem()
    print()
    print(postmortem.render(events=8))

    assert not monitor.healthy
    assert monitor.tripped("retx_storm"), "storm should have tripped"
    assert monitor.tripped("delivery_failed"), "failure should have tripped"
    storm = monitor.tripped("retx_storm")[0]
    assert storm.data["down_links"] == [[0, 1]], "storm must name the dead link"


if __name__ == "__main__":
    main()
