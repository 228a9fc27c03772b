#!/usr/bin/env python
"""Fault injection and reliable delivery on a lossy fabric.

Builds a 4-node SHRIMP machine with a deterministic fault plan that drops
2 % of packets and corrupts another 0.5 %, then pushes a 128 KB deliberate
update through a reliable VMMC channel.  The trace lines (telemetry
instants on the ``"trace"`` track) show each fault the plan injects and
each go-back-N retransmission round the channel runs to repair it; the
transfer still completes byte-exact.

Run::

    python examples/fault_injection.py
"""

from repro import FaultConfig, Machine, ReliableConfig, VMMCRuntime

NBYTES = 128 * 1024


def main() -> None:
    machine = Machine(
        num_nodes=4,
        seed=1998,
        fault_config=FaultConfig(drop_rate=0.02, corrupt_rate=0.005),
    )
    # Telemetry records every trace line; it observes without changing
    # what the simulated machine does.
    telemetry = machine.enable_telemetry()

    vmmc = VMMCRuntime(machine)
    sim = machine.sim
    sender = vmmc.endpoint(machine.create_process(0))
    receiver = vmmc.endpoint(machine.create_process(1))
    payload = bytes(range(256)) * (NBYTES // 256)
    out = {}

    def receiver_side():
        buffer = yield from receiver.export(NBYTES, name="lossy.buf")
        yield from receiver.wait_bytes(buffer, NBYTES)
        out["data"] = receiver.read_buffer(buffer, 0, NBYTES)

    def sender_side():
        imported = yield from sender.import_buffer("lossy.buf")
        channel = sender.open_reliable(imported, ReliableConfig(timeout_us=300.0))
        out["channel"] = channel
        src = sender.alloc(NBYTES)
        sender.poke(src, payload)
        yield from channel.send(src, NBYTES)

    rx = sim.spawn(receiver_side(), "receiver")
    tx = sim.spawn(sender_side(), "sender")
    sim.run()
    assert rx.done and tx.done
    assert out["data"] == payload, "reliable delivery must be byte-exact"

    print(f"Transferred {NBYTES} bytes over a lossy fabric "
          f"(2% drops, 0.5% corruption) in {sim.now:.1f} us.\n")
    print("Injected faults and repairs:")
    for event in telemetry.instants():
        if event.track == "trace" and event.name.startswith(("fault.", "vmmc.retx")):
            print(f"  [{event.time:12.3f} us] n{event.node:<3d} "
                  f"{event.name:<16s} {event.describe()}")

    stats = machine.stats
    channel = out["channel"]
    print()
    print(f"Packets dropped     : {stats.counter_value('fault.drops')}")
    print(f"Packets corrupted   : {stats.counter_value('fault.corruptions')}")
    print(f"Retransmit rounds   : {stats.counter_value('vmmc.retx.rounds')}")
    print(f"Packets retransmitted: {channel.retransmissions}")
    print(f"Acks sent           : {stats.counter_value('vmmc.acks_sent')}")
    print(f"Sequence state      : acked {channel.acked} / sent {channel.last_seq}")


if __name__ == "__main__":
    main()
