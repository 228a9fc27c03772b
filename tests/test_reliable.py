"""Tests for the reliable-delivery VMMC transport (repro.vmmc.reliable)."""

import math

import pytest

from repro import Machine
from repro.faults import FaultConfig
from repro.vmmc import DeliveryFailed, ReliableConfig, VMMCRuntime


def _reliable_transfer(
    machine,
    nbytes,
    config=None,
    src_node=0,
    dst_node=1,
    name="rel.buf",
):
    """One reliable transfer; returns (outcome dict, machine stats)."""
    vmmc = VMMCRuntime(machine)
    sim = machine.sim
    sender = vmmc.endpoint(machine.create_process(src_node))
    receiver = vmmc.endpoint(machine.create_process(dst_node))
    payload = bytes(range(256)) * (-(-nbytes // 256))
    payload = payload[:nbytes]
    out = {}

    def rx():
        buffer = yield from receiver.export(nbytes, name=name)
        out["buffer"] = buffer
        yield from receiver.wait_bytes(buffer, nbytes)
        out["data"] = receiver.read_buffer(buffer, 0, nbytes)

    def tx():
        imported = yield from sender.import_buffer(name)
        channel = sender.open_reliable(imported, config)
        out["channel"] = channel
        src = sender.alloc(nbytes)
        sender.poke(src, payload)
        try:
            yield from channel.send(src, nbytes)
        except DeliveryFailed as exc:
            out["error"] = exc

    rx_proc = sim.spawn(rx(), "rx")
    tx_proc = sim.spawn(tx(), "tx")
    sim.run()
    out["payload"] = payload
    out["rx_done"] = rx_proc.done
    out["tx_done"] = tx_proc.done
    return out


def test_reliable_send_on_perfect_fabric():
    machine = Machine(num_nodes=4)
    out = _reliable_transfer(machine, 16 * 1024)
    assert out["tx_done"] and out["rx_done"]
    assert out["data"] == out["payload"]
    assert out["channel"].retransmissions == 0
    assert out["channel"].acked == out["channel"].last_seq == 4
    assert machine.stats.counter_value("vmmc.acks_sent") == 4
    assert machine.stats.counter_value("vmmc.retx.packets") == 0


def test_reliable_send_completes_under_drops():
    machine = Machine(num_nodes=4, fault_config=FaultConfig(drop_rate=0.1))
    out = _reliable_transfer(
        machine, 128 * 1024, ReliableConfig(timeout_us=300.0)
    )
    assert out["tx_done"] and out["rx_done"]
    assert out["data"] == out["payload"]
    assert out["channel"].retransmissions > 0
    assert machine.stats.counter_value("fault.drops") > 0
    assert machine.stats.counter_value("vmmc.retx.rounds") > 0


def test_duplicates_not_double_counted():
    # Heavy loss forces retransmission rounds that re-deliver packets the
    # receiver already accepted; the buffer's byte count must still end
    # exactly at nbytes (wait_bytes would otherwise misfire forever after).
    machine = Machine(num_nodes=4, fault_config=FaultConfig(drop_rate=0.2))
    out = _reliable_transfer(
        machine, 64 * 1024, ReliableConfig(timeout_us=200.0)
    )
    assert out["tx_done"] and out["rx_done"]
    assert out["buffer"].bytes_received == 64 * 1024
    assert out["buffer"].messages_received == 1


def test_delivery_failed_after_retry_budget():
    machine = Machine(
        num_nodes=4, fault_config=FaultConfig(crash_times=((1, 0.0),))
    )
    out = _reliable_transfer(
        machine, 8192, ReliableConfig(timeout_us=50.0, max_retries=3)
    )
    assert out["tx_done"]
    error = out["error"]
    assert isinstance(error, DeliveryFailed)
    assert error.retries == 3
    assert error.first_unacked == 1
    assert error.channel == out["channel"].channel_id
    assert out["channel"].failed
    assert machine.stats.counter_value("vmmc.delivery_failures") == 1


def test_send_after_failure_raises_immediately():
    machine = Machine(
        num_nodes=4, fault_config=FaultConfig(crash_times=((1, 0.0),))
    )
    vmmc = VMMCRuntime(machine)
    sim = machine.sim
    sender = vmmc.endpoint(machine.create_process(0))
    receiver = vmmc.endpoint(machine.create_process(1))
    raised = []

    def rx():
        yield from receiver.export(4096, name="dead")

    def tx():
        imported = yield from sender.import_buffer("dead")
        channel = sender.open_reliable(
            imported, ReliableConfig(timeout_us=50.0, max_retries=1)
        )
        src = sender.alloc(4096)
        sender.poke(src, b"x" * 4096)
        try:
            yield from channel.send(src, 4096)
        except DeliveryFailed:
            raised.append("first")
        try:
            yield from channel.send(src, 4096)
        except DeliveryFailed:
            raised.append("second")

    sim.spawn(rx(), "rx")
    proc = sim.spawn(tx(), "tx")
    sim.run()
    assert proc.done
    assert raised == ["first", "second"]


def test_backoff_grows_the_retry_interval():
    # With everything dropped, round k fires timeout * backoff^k after the
    # previous: total failure time grows geometrically with max_retries.
    times = {}
    for retries in (1, 3):
        machine = Machine(num_nodes=4, fault_config=FaultConfig(drop_rate=1.0))
        out = _reliable_transfer(
            machine,
            4096,
            ReliableConfig(timeout_us=100.0, backoff=2.0, max_retries=retries),
        )
        assert isinstance(out["error"], DeliveryFailed)
        times[retries] = machine.sim.now
    # 1 retry: ~100 + 200; 3 retries: ~100 + 200 + 400 + 800.
    assert times[3] > times[1] * 2


def test_two_channels_have_independent_sequences():
    machine = Machine(num_nodes=4)
    vmmc = VMMCRuntime(machine)
    sim = machine.sim
    sender = vmmc.endpoint(machine.create_process(0))
    rx_a = vmmc.endpoint(machine.create_process(1))
    rx_b = vmmc.endpoint(machine.create_process(2))
    channels = {}

    def export(ep, name):
        yield from ep.export(8192, name=name)

    def tx():
        imp_a = yield from sender.import_buffer("chan.a")
        imp_b = yield from sender.import_buffer("chan.b")
        ch_a = sender.open_reliable(imp_a)
        ch_b = sender.open_reliable(imp_b)
        channels["a"], channels["b"] = ch_a, ch_b
        src = sender.alloc(8192)
        sender.poke(src, b"y" * 8192)
        yield from ch_a.send(src, 8192)
        yield from ch_b.send(src, 4096)

    sim.spawn(export(rx_a, "chan.a"), "rxa")
    sim.spawn(export(rx_b, "chan.b"), "rxb")
    proc = sim.spawn(tx(), "tx")
    sim.run()
    assert proc.done
    assert channels["a"].channel_id != channels["b"].channel_id
    assert channels["a"].acked == channels["a"].last_seq == 2
    assert channels["b"].acked == channels["b"].last_seq == 1


def test_lossy_reliable_runs_are_deterministic():
    snapshots = []
    for _ in range(2):
        machine = Machine(num_nodes=4, fault_config=FaultConfig(drop_rate=0.1))
        out = _reliable_transfer(
            machine, 64 * 1024, ReliableConfig(timeout_us=250.0)
        )
        assert out["tx_done"] and out["rx_done"]
        snapshots.append((machine.sim.now, machine.stats.snapshot()))
    assert snapshots[0] == snapshots[1]


def test_sixteen_node_ring_acceptance():
    """At 1% drops a 16-node deliberate-update ring completes every
    transfer in reliable mode, with retransmissions."""
    from repro.fleet import make_spec, resolve_workload

    result = resolve_workload("ring").run(
        make_spec("ring", nodes=16, fault_plan="drop1", reliable=1)
    ).metrics
    assert result["bytes_delivered"] == result["bytes_expected"]
    assert result["retransmissions"] > 0
    assert result["drops"] > 0


@pytest.mark.parametrize("params, match", [
    ({"mode": "cu"}, "unknown ring mode"),
    ({"mode": "au", "reliable": 1}, "no reliable mode"),
])
def test_ring_spec_rejects_unknown_mode(params, match):
    from repro.fleet import make_spec, resolve_workload

    with pytest.raises(ValueError, match=match):
        resolve_workload("ring").run(make_spec("ring", nodes=4, **params))


def test_async_send_and_drain():
    machine = Machine(num_nodes=4)
    vmmc = VMMCRuntime(machine)
    sim = machine.sim
    sender = vmmc.endpoint(machine.create_process(0))
    receiver = vmmc.endpoint(machine.create_process(1))
    out = {}

    def rx():
        buffer = yield from receiver.export(16 * 1024, name="async")
        yield from receiver.wait_bytes(buffer, 16 * 1024)
        out["bytes"] = buffer.bytes_received

    def tx():
        imported = yield from sender.import_buffer("async")
        channel = sender.open_reliable(imported)
        src = sender.alloc(16 * 1024)
        sender.poke(src, b"z" * (16 * 1024))
        for page in range(4):
            yield from channel.send(src + page * 4096, 4096,
                                    dst_offset=page * 4096, sync=False)
        assert channel.acked < channel.last_seq
        yield from channel.drain()
        assert channel.acked == channel.last_seq == 4

    rx_proc = sim.spawn(rx(), "rx")
    tx_proc = sim.spawn(tx(), "tx")
    sim.run()
    assert rx_proc.done and tx_proc.done
    assert out["bytes"] == 16 * 1024


@pytest.mark.parametrize("seed", range(40))
def test_channel_failing_mid_send_leaves_nothing_in_flight(seed):
    """A send still issuing packets when the timer fails the channel must
    stop issuing and raise; it must not refill the cleared unacked set."""
    machine = Machine(
        num_nodes=2, seed=seed, fault_config=FaultConfig(corrupt_rate=0.2)
    )
    vmmc = VMMCRuntime(machine)
    sender = vmmc.endpoint(machine.create_process(0))
    receiver = vmmc.endpoint(machine.create_process(1))
    nbytes = 4 * 4096
    out = {}

    def rx():
        yield from receiver.export(2 * nbytes, name="leak")

    def tx():
        imported = yield from sender.import_buffer("leak")
        channel = out["channel"] = sender.open_reliable(
            imported, ReliableConfig(timeout_us=30.0, max_retries=0)
        )
        src = sender.alloc(nbytes)
        with pytest.raises(DeliveryFailed):
            yield from channel.send(src, nbytes, sync=False)
            yield from channel.send(src, nbytes, dst_offset=nbytes, sync=False)

    machine.sim.spawn(rx(), "rx")
    tx_proc = machine.sim.spawn(tx(), "tx")
    machine.sim.run()
    assert tx_proc.done
    assert out["channel"].failed
    assert out["channel"].in_flight == 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout_us", math.nan),
        ("timeout_us", math.inf),
        ("timeout_us", 0.0),
        ("timeout_us", -1.0),
        ("backoff", math.nan),
        ("backoff", math.inf),
        ("backoff", 0.5),
    ],
)
def test_config_rejects_non_finite_and_out_of_range(field, value):
    # A NaN timeout fails every deadline comparison, so a channel would
    # burn all its retries in one instant; an infinite one never fires, so
    # a lossy send would hang instead of raising DeliveryFailed.
    with pytest.raises(ValueError, match=field):
        ReliableConfig(**{field: value})


def test_config_accepts_the_boundary_values():
    config = ReliableConfig(timeout_us=1e-3, backoff=1.0, max_retries=0)
    assert config.backoff == 1.0
