#!/usr/bin/env python
"""Profiling a run with the telemetry subsystem.

Builds a 2-node machine with telemetry armed, pushes one 8 KB deliberate
update through VMMC, and shows everything the profiler collected: the
causal span tree of the transfer (app -> VMMC -> NIC DMA -> backplane ->
remote NIC -> notification), per-layer latency percentiles, resource
utilization timelines, and a Chrome trace_event JSON you can open at
chrome://tracing or https://ui.perfetto.dev.

Run::

    python examples/profiling.py

The study-suite applications profile the same way: pass a telemetry-enabled
machine to ``run_app``.  From the command line, the fleet ``demos``
matrix records traced pings and a traced suite application
(``python -m repro.fleet run --matrix demos``, then
``python -m repro.explore drill workload=ping,reliable=0``).
"""

from repro import Machine, VMMCRuntime
from repro.telemetry import summarize, write_chrome_trace

NBYTES = 8 * 1024


def main() -> None:
    machine = Machine(num_nodes=2, seed=1998, telemetry=True)
    vmmc = VMMCRuntime(machine)
    sender = vmmc.endpoint(machine.create_process(0))
    receiver = vmmc.endpoint(machine.create_process(1))
    payload = bytes(range(256)) * (NBYTES // 256)

    def receiver_side():
        buffer = yield from receiver.export(
            NBYTES, name="profiled.buf", enable_notifications=True
        )
        yield from receiver.wait_bytes(buffer, NBYTES)

    def sender_side():
        imported = yield from sender.import_buffer("profiled.buf")
        src = sender.alloc(NBYTES)
        sender.poke(src, payload)
        yield from sender.send(
            imported, src, NBYTES, interrupt=True, sync_delivered=True
        )

    machine.sim.spawn(receiver_side(), "rx")
    machine.sim.spawn(sender_side(), "tx")
    machine.sim.run()

    tel = machine.telemetry
    send = tel.spans("vmmc.send")[0]
    print("Causal span tree of the transfer:\n")
    print(tel.span_tree(send.span_id))
    print()
    print(summarize(tel, label=f"du transfer, {NBYTES} B"))

    path = write_chrome_trace(tel, "profiling.trace.json")
    print(f"\nwrote {path} — open it at chrome://tracing or ui.perfetto.dev")


if __name__ == "__main__":
    main()
