#!/usr/bin/env python
"""Finding the bottleneck of an operation with critical-path attribution.

Runs the same one-page deliberate update twice — once on an idle machine,
once with three senders fanning into the same receiving node — and uses
``repro.telemetry.critpath`` to show not just that the contended send is
slower, but *where the extra microseconds went*: the attribution vector
decomposes each operation's latency into CPU initiation, NIC DMA, link
serialization, RX-FIFO residency, notification overhead and contention
stall, summing exactly to the operation's duration (DESIGN.md section 10).

Run::

    python examples/bottleneck_analysis.py

``python -m repro.explore show workload=ping,reliable=0`` shows a DU
ping's attribution after ``python -m repro.fleet run --matrix demos``, and
``python -m repro.bench run`` records the same vectors for every curated
benchmark so regressions can be localised, not just detected.
"""

from repro import Machine, VMMCRuntime
from repro.faults import FaultConfig
from repro.telemetry import critpath
from repro.vmmc import ReliableConfig

NBYTES = 4096
OPS = 4


def fan_in(senders: int) -> Machine:
    """``senders`` nodes each stream OPS pages into node 0."""
    machine = Machine(num_nodes=senders + 1, seed=1998, telemetry=True)
    vmmc = VMMCRuntime(machine)
    receiver = vmmc.endpoint(machine.create_process(0))
    payload = bytes(range(256)) * (NBYTES // 256)

    def receiver_side():
        buffers = []
        for s in range(senders):
            buffer = yield from receiver.export(NBYTES, name=f"sink.{s}")
            buffers.append(buffer)
        for buffer in buffers:
            yield from receiver.wait_bytes(buffer, NBYTES * OPS)

    def sender_side(s):
        endpoint = vmmc.endpoint(machine.create_process(s + 1))
        imported = yield from endpoint.import_buffer(f"sink.{s}")
        src = endpoint.alloc(NBYTES)
        endpoint.poke(src, payload)
        for _ in range(OPS):
            yield from endpoint.send(imported, src, NBYTES, sync_delivered=True)

    machine.sim.spawn(receiver_side(), "rx")
    for s in range(senders):
        machine.sim.spawn(sender_side(s), f"tx{s}")
    machine.sim.run()
    return machine


def lossy_reliable() -> Machine:
    """One page over a reliable channel on a fabric dropping 30% of packets."""
    machine = Machine(
        num_nodes=2,
        seed=1998,
        telemetry=True,
        fault_config=FaultConfig(drop_rate=0.3),
    )
    vmmc = VMMCRuntime(machine)
    sender = vmmc.endpoint(machine.create_process(0))
    receiver = vmmc.endpoint(machine.create_process(1))

    def receiver_side():
        buffer = yield from receiver.export(NBYTES, name="lossy")
        yield from receiver.wait_bytes(buffer, NBYTES)

    def sender_side():
        imported = yield from sender.import_buffer("lossy")
        src = sender.alloc(NBYTES)
        sender.poke(src, bytes(range(256)) * (NBYTES // 256))
        channel = sender.open_reliable(
            imported, ReliableConfig(timeout_us=300.0)
        )
        yield from channel.send(src, NBYTES)

    machine.sim.spawn(receiver_side(), "rx")
    machine.sim.spawn(sender_side(), "tx")
    machine.sim.run()
    return machine


def main() -> None:
    idle = fan_in(senders=1)
    busy = fan_in(senders=3)

    print("One sender, idle fabric:\n")
    print(critpath.attribution_report(idle.telemetry, "vmmc.send", top=1))

    print("\n\nThree senders fanning into one node:\n")
    print(critpath.attribution_report(busy.telemetry, "vmmc.send", top=1))

    # The same numbers, programmatically: compare mean per-op components.
    idle_agg = critpath.aggregate(idle.telemetry, "vmmc.send", top=0)
    busy_agg = critpath.aggregate(busy.telemetry, "vmmc.send", top=0)
    print("\n\nWhere the extra microseconds went (mean us/op, busy - idle):")
    for component in critpath.COMPONENTS:
        delta = busy_agg.mean(component) - idle_agg.mean(component)
        if abs(delta) > 1e-9:
            print(f"  {component:8s} {delta:+9.3f}")
    print(
        "\nThe senders' own CPU and DMA costs are unchanged — the extra "
        "time is all 'link':\nwormhole backpressure while three flows "
        "serialize on the receiver's incoming link."
    )

    print("\n\nSame page over a reliable channel on a 30%-drop fabric:\n")
    print(critpath.attribution_report(lossy_reliable().telemetry, "vmmc.send"))
    print(
        "\nHere the dead time between a drop and its go-back-N retransmit "
        "is a gap between\nthe send's children, so it surfaces as 'stall' "
        "— a different bottleneck, visibly\na different component."
    )


if __name__ == "__main__":
    main()
