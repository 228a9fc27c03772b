"""Tests for the health-monitoring subsystem (repro.monitor).

Covers the watchdogs (stalls, livelock), the invariant monitors (FIFO and
wait-queue watermarks, retransmit storms, overflow discards), the flight
recorder (a view over the collector's own events), postmortem wait-for
dumps with deadlock-cycle detection, the enriched deadlock error from
``run_process``, deterministic auto-naming of anonymous primitives, and the
demo scenarios of the fleet ``monitor`` workload.
"""

import json
import re

import pytest

from repro import Machine
from repro.faults import FaultConfig
from repro.fleet.workloads import OUTAGE_AT_US, spawn_fan_in, spawn_outage
from repro.monitor import HealthMonitor, MonitorConfig, capture, events_to_json
from repro.sim import Queue, Resource, Signal, Simulator, SimulationError
from repro.sim.resources import PRIMITIVES
from repro.vmmc import DeliveryFailed, ReliableConfig, VMMCRuntime



# -- scenario helpers -----------------------------------------------------


def _run_outage(config=None):
    """A reliable stream hits a hand-pinned permanent link outage."""
    machine = Machine(num_nodes=2, seed=42)
    monitor = machine.enable_monitor(
        config
        or MonitorConfig(
            check_interval_us=100.0,
            stall_timeout_us=2_000.0,
            retx_window_us=5_000.0,
            retx_storm_rounds=3,
        )
    )
    spawn_outage(machine)
    with pytest.raises(DeliveryFailed):
        machine.sim.run()
    return machine, monitor


def _run_clean_transfer(config=None):
    """One clean reliable transfer with the monitor armed."""
    machine = Machine(num_nodes=2, seed=7)
    monitor = machine.enable_monitor(config or MonitorConfig())
    vmmc = VMMCRuntime(machine)
    sender = vmmc.endpoint(machine.create_process(0))
    receiver = vmmc.endpoint(machine.create_process(1))
    nbytes = 8192

    def rx():
        buffer = yield from receiver.export(nbytes, name="clean.buf")
        yield from receiver.wait_bytes(buffer, nbytes)

    def tx():
        imported = yield from sender.import_buffer("clean.buf")
        channel = sender.open_reliable(imported, ReliableConfig())
        src = sender.alloc(nbytes)
        sender.poke(src, b"\x5a" * nbytes)
        yield from channel.send(src, nbytes)
        yield from channel.drain()

    machine.sim.spawn(rx(), "clean.rx")
    machine.sim.spawn(tx(), "clean.tx")
    machine.sim.run()
    return machine, monitor


# -- outage: retransmit storm, delivery failure, dead-link naming ---------


def test_outage_trips_retx_storm_naming_dead_link():
    _machine, monitor = _run_outage()
    assert not monitor.healthy
    storms = monitor.tripped("retx_storm")
    assert len(storms) == 1
    assert storms[0].data["down_links"] == [[0, 1]]
    assert "link(0, 1)" in storms[0].detail
    failures = monitor.tripped("delivery_failed")
    assert len(failures) == 1
    assert failures[0].data["down_links"] == [[0, 1]]
    assert "unacknowledged" in failures[0].detail


def test_outage_trips_stalls_on_workload_not_daemons():
    _machine, monitor = _run_outage()
    stalled = {t.subject for t in monitor.tripped("process_stall")}
    assert stalled == {"outage.rx", "outage.tx"}


def test_outage_postmortem_names_blocked_receiver_and_dead_link():
    machine, monitor = _run_outage()
    postmortem = monitor.postmortem()
    assert postmortem.down_links == [((0, 1), OUTAGE_AT_US, float("inf"))]
    waits = {p["process"]: p["waits_on"] for p in postmortem.blocked}
    assert waits["outage.rx"] == "Signal 'arrival.outage.buf'"
    rendered = postmortem.render()
    assert "links down at capture: link(0, 1)" in rendered
    assert "'outage.rx' waiting on Signal 'arrival.outage.buf'" in rendered
    # NIC service loops (DU engine, FIFO drain and receive engine on each
    # of the two nodes) are summarized, not listed as stuck workload.
    assert "idle service processes (daemons): 6" in rendered


def test_outage_flight_recorder_holds_trailing_retx_events():
    _machine, monitor = _run_outage()
    names = [e.name for e in monitor.recording()]
    assert "vmmc.retx" in names
    assert "fault.outage_drop" in names
    # Every trip carries its own snapshot of the ring at trip time.
    storm = monitor.tripped("retx_storm")[0]
    assert storm.recording
    assert all(e.time <= storm.time for e in storm.recording)


def test_postmortem_json_roundtrip(tmp_path):
    _machine, monitor = _run_outage()
    postmortem = monitor.postmortem()
    path = tmp_path / "postmortem.json"
    postmortem.write_json(str(path))
    loaded = json.loads(path.read_text())
    assert loaded["time"] == postmortem.time
    assert loaded["down_links"] == [{"link": [0, 1], "start": OUTAGE_AT_US, "end": None}]
    kinds = {t["kind"] for t in loaded["trips"]}
    assert {"retx_storm", "delivery_failed"} <= kinds
    assert loaded["flight_recorder"], "flight recorder must serialize"


# -- fan-in: watermarks and overflow --------------------------------------


def test_fanin_overflow_trips_rx_overflow():
    from repro.hardware import DEFAULT_PARAMS
    machine = Machine(
        num_nodes=16,
        seed=5,
        params=DEFAULT_PARAMS.with_overrides(rx_fifo_bytes=4096),
        fault_config=FaultConfig(rx_overflow_discard=True),
    )
    monitor = machine.enable_monitor(MonitorConfig(check_interval_us=50.0))
    spawn_fan_in(machine, nbytes=1024)
    machine.sim.run()
    trips = monitor.tripped("rx_overflow")
    assert len(trips) == 1  # latched: one trip per FIFO, drops keep counting
    assert trips[0].subject == "rxfifo.n0"
    assert machine.stats.counter_value("fault.rx_overflow_drops") > 1


def test_fanin_trips_rx_watermark_and_wait_queue_depth():
    from repro.hardware import DEFAULT_PARAMS
    machine = Machine(
        num_nodes=16,
        seed=5,
        params=DEFAULT_PARAMS.with_overrides(rx_fifo_bytes=4096),
    )
    monitor = machine.enable_monitor(
        MonitorConfig(check_interval_us=25.0, wait_queue_watermark=6)
    )
    spawn_fan_in(machine, nbytes=256, commit_lock=True)
    machine.sim.run()
    marks = monitor.tripped("rx_watermark")
    assert marks and marks[0].subject == "rxfifo.n0"
    assert marks[0].data["fraction"] >= 0.95
    depth = monitor.tripped("wait_queue_depth")
    assert depth and depth[0].subject == "fanin.commit"
    assert depth[0].data["depth"] >= 6
    assert monitor.tripped("link_saturated"), "fan-in must saturate the mesh"


# -- clean runs trip nothing ----------------------------------------------


def test_clean_transfer_trips_nothing():
    _machine, monitor = _run_clean_transfer()
    assert monitor.healthy
    assert monitor.trips == []
    assert monitor.report().startswith("health monitor: healthy")


def test_clean_suite_app_trips_nothing():
    from repro.apps.base import run_app
    from repro.apps.radix_vmmc import RadixVMMC

    machine = Machine(4, seed=7)
    monitor = machine.enable_monitor()
    run_app(RadixVMMC(mode="du", n_keys=2048, max_key=1024), 4, machine=machine)
    assert monitor.healthy, monitor.report()


# -- watchdogs: stalls and livelock ---------------------------------------


def test_stall_detector_flags_parked_process():
    machine = Machine(num_nodes=2, seed=1)
    monitor = machine.enable_monitor(
        MonitorConfig(check_interval_us=50.0, stall_timeout_us=200.0)
    )
    sim = machine.sim
    never = sim.event("never.fired")

    def stuck():
        yield never

    def heartbeat():
        # The stall scan runs off the heap branch, so something must keep
        # virtual time moving.
        for _ in range(20):
            yield 50.0

    sim.spawn(stuck(), "stuck.proc")
    sim.spawn(heartbeat(), "ticker")
    sim.run()
    trips = monitor.tripped("process_stall")
    assert [t.subject for t in trips] == ["stuck.proc"]
    assert "event 'never.fired'" in trips[0].detail
    assert trips[0].data["waited_us"] >= 200.0


def test_stall_detector_ignores_daemons():
    machine = Machine(num_nodes=2, seed=1)
    monitor = machine.enable_monitor(
        MonitorConfig(check_interval_us=50.0, stall_timeout_us=200.0)
    )
    sim = machine.sim
    never = sim.event("never.fired")

    def stuck():
        yield never

    def heartbeat():
        for _ in range(20):
            yield 50.0

    sim.spawn(stuck(), "idle.service", daemon=True)
    sim.spawn(heartbeat(), "ticker")
    sim.run()
    assert monitor.tripped("process_stall") == []


def test_livelock_detector_flags_zero_time_storm():
    machine = Machine(num_nodes=2, seed=1)
    monitor = machine.enable_monitor(MonitorConfig(livelock_events=16_384))
    sim = machine.sim
    ping, pong = sim.event("ping"), sim.event("pong")
    rounds = 40_000
    state = {"ping": ping, "pong": pong}

    def player(mine, theirs):
        for _ in range(rounds):
            state[theirs].succeed()
            fresh = sim.event(theirs)
            state[theirs] = fresh
            got = state[mine]
            yield got

    sim.spawn(player("ping", "pong"), "a")
    sim.spawn(player("pong", "ping"), "b")
    sim.run(until=1.0)
    trips = monitor.tripped("livelock")
    assert trips
    assert trips[0].subject == "scheduler"
    assert trips[0].data["instant"] == 0.0
    assert trips[0].data["dispatches"] >= 16_384


# -- enriched deadlock error ----------------------------------------------


def test_run_process_deadlock_error_lists_blocked_processes():
    sim = Simulator()
    r1 = Resource(sim, name="lock.a")
    r2 = Resource(sim, name="lock.b")

    def forward():
        yield from r1.acquire()
        yield 10.0
        yield from r2.acquire()

    def backward():
        yield from r2.acquire()
        yield 10.0
        yield from r1.acquire()

    def main():
        a = sim.spawn(forward(), "forward")
        b = sim.spawn(backward(), "backward")
        yield a
        yield b

    with pytest.raises(SimulationError) as info:
        sim.run_process(main(), "main")
    message = str(info.value)
    assert "did not finish" in message
    assert "'forward' waiting on event 'lock.b.acquire'" in message
    assert "'backward' waiting on event 'lock.a.acquire'" in message
    assert "'main' waiting on join of process 'forward'" in message
    blocked_names = {p.name for p, _desc in info.value.blocked}
    assert blocked_names == {"main", "forward", "backward"}


def test_run_process_deadlock_error_summarizes_daemons():
    sim = Simulator()
    gate = sim.event("service.q")

    def service():
        yield gate

    def worker():
        yield sim.event("never")

    sim.spawn(service(), "svc-loop", daemon=True)
    with pytest.raises(SimulationError) as info:
        sim.run_process(worker(), "worker")
    message = str(info.value)
    assert "+1 idle service process(es): svc-loop" in message
    assert "'svc-loop' waiting" not in message


# -- postmortem cycles ----------------------------------------------------


def test_postmortem_detects_deadlock_cycle():
    machine = Machine(num_nodes=2, seed=3)
    machine.enable_monitor()  # holder tracking needs the monitor installed
    sim = machine.sim
    r1 = Resource(sim, name="cycle.a")
    r2 = Resource(sim, name="cycle.b")

    def forward():
        yield from r1.acquire()
        yield 10.0
        yield from r2.acquire()

    def backward():
        yield from r2.acquire()
        yield 10.0
        yield from r1.acquire()

    sim.spawn(forward(), "forward")
    sim.spawn(backward(), "backward")
    sim.run()
    postmortem = capture(machine)
    assert postmortem.deadlocked
    assert len(postmortem.cycles) == 1
    members = set(postmortem.cycles[0])
    assert {"'forward'", "'backward'"} <= members
    assert "Resource 'cycle.a'" in members or "Resource 'cycle.b'" in members
    rendered = postmortem.render()
    assert "DEADLOCK" in rendered
    assert "held by" in rendered


def test_postmortem_cycle_with_pending_timer_is_not_terminal():
    machine = Machine(num_nodes=2, seed=3)
    machine.enable_monitor()
    sim = machine.sim
    r1 = Resource(sim, name="soft.a")
    r2 = Resource(sim, name="soft.b")
    out = {}

    def forward():
        yield from r1.acquire()
        yield 10.0
        yield from r2.acquire()

    def backward():
        yield from r2.acquire()
        yield 10.0
        yield from r1.acquire()

    def watchdog():
        yield 10_000.0
        out["fired"] = True

    sim.spawn(forward(), "forward")
    sim.spawn(backward(), "backward")
    sim.spawn(watchdog(), "watchdog")
    sim.run(until=100.0)
    postmortem = capture(machine)
    assert postmortem.cycles
    assert not postmortem.deadlocked  # the watchdog timer could still fire
    assert "cycle (timers pending)" in postmortem.render()


# -- auto-naming of anonymous primitives ----------------------------------


def test_anonymous_primitives_get_deterministic_names():
    machine = Machine(num_nodes=2, seed=9)
    sim = machine.sim
    first = (Resource(sim), Queue(sim), Signal(sim))
    assert re.fullmatch(r"resource#\d+", first[0].name)
    assert re.fullmatch(r"queue#\d+", first[1].name)
    assert re.fullmatch(r"signal#\d+", first[2].name)
    names = tuple(p.name for p in first)

    # A fresh Machine rewinds the run-scoped counters: same construction
    # order, same names — anonymous names are stable across same-seed runs.
    machine2 = Machine(num_nodes=2, seed=9)
    second = (Resource(machine2.sim), Queue(machine2.sim), Signal(machine2.sim))
    assert tuple(p.name for p in second) == names


def test_explicit_names_never_consume_anonymous_numbers():
    machine = Machine(num_nodes=2, seed=9)
    sim = machine.sim
    a = Resource(sim)
    named = Resource(sim, name="explicit")
    b = Resource(sim)
    assert named.name == "explicit"
    first_n = int(a.name.split("#")[1])
    assert b.name == f"resource#{first_n + 1}"


def test_primitives_registry_enumerates_live_primitives():
    machine = Machine(num_nodes=2, seed=9)
    baseline = len(PRIMITIVES)
    r = Resource(machine.sim, name="reg.check")
    assert len(PRIMITIVES) == baseline + 1
    assert r in list(PRIMITIVES)
    # A fresh machine resets the registry along with the counters.
    Machine(num_nodes=2, seed=9)
    assert r not in list(PRIMITIVES)


# -- flight recorder ------------------------------------------------------


def test_flight_recorder_ring_is_bounded():
    machine, monitor = _run_clean_transfer(
        MonitorConfig(flight_recorder_events=16)
    )
    assert monitor.observed > 16
    recording = monitor.recording()
    assert len(recording) == 16
    assert recording == machine.telemetry.events[-16:]


def _run_outage_armed_late(limit, armed_after, size):
    """The outage run on a collector that keeps ``limit`` events, with
    ``armed_after`` trace lines recorded before the monitor arms."""
    machine = Machine(num_nodes=2, seed=42)
    telemetry = machine.enable_telemetry(limit=limit)
    for i in range(armed_after):
        machine.stats.trace("pre", 0, str(i))
    monitor = machine.enable_monitor(
        MonitorConfig(
            check_interval_us=100.0,
            stall_timeout_us=2_000.0,
            retx_window_us=5_000.0,
            retx_storm_rounds=3,
            flight_recorder_events=size,
        )
    )
    spawn_outage(machine)
    with pytest.raises(DeliveryFailed):
        machine.sim.run()
    return telemetry, monitor


@pytest.mark.parametrize(
    "limit,armed_after,size",
    [(30, 12, 16), (30, 12, 40), (5, 12, 256)],
    ids=["window-past-limit", "window-across-limit", "armed-past-limit"],
)
def test_flight_recorder_matches_an_unlimited_collector(limit, armed_after, size):
    full, full_monitor = _run_outage_armed_late(1_000_000, armed_after, size)
    bounded, monitor = _run_outage_armed_late(limit, armed_after, size)
    assert full.dropped == 0 and bounded.dropped > 0
    events = full.events
    # Each trip copies the window just before its own ``monitor.trip``.
    trip_at = [i for i, e in enumerate(events) if e.name == "monitor.trip"]
    for observer in (full_monitor, monitor):
        assert len(observer.trips) == len(trip_at) == 4
        for trip, at in zip(observer.trips, trip_at):
            assert events_to_json(trip.recording) == events_to_json(
                events[armed_after:at][-size:]
            )
        postmortem = observer.postmortem()
        assert postmortem.total_recorded == len(events) - armed_after
        assert events_to_json(postmortem.recording) == events_to_json(
            events[armed_after:][-size:]
        )


# -- monitor contract ------------------------------------------------------


def test_enable_monitor_is_idempotent_and_arms_telemetry():
    machine = Machine(num_nodes=2, seed=1)
    monitor = machine.enable_monitor()
    assert machine.enable_monitor() is monitor
    assert machine.monitor is monitor
    assert machine.sim.monitor is monitor
    assert machine.telemetry is not None
    assert isinstance(monitor, HealthMonitor)


def test_trip_cap_counts_dropped_trips():
    machine = Machine(num_nodes=2, seed=1)
    monitor = machine.enable_monitor(MonitorConfig(max_trips=2))
    for index in range(5):
        monitor._trip("synthetic", f"subject{index}", "test trip")
    assert len(monitor.trips) == 2
    assert monitor.dropped_trips == 3
    assert monitor.trip_counts["synthetic"] == 5
    assert "not stored" in monitor.report()


# -- the demos: fleet `monitor` specs read back with `explore drill` -------


def _drill_demo(tmp_path, capsys, scenario):
    """Run one ``monitor`` scenario spec into a store under ``tmp_path``;
    returns the ``explore drill`` output, the store and the record."""
    from repro.explore.__main__ import main as explore_main
    from repro.fleet import RunStore, make_spec, run_specs

    store = RunStore(str(tmp_path / "runs"))
    spec = make_spec("monitor", scenario=scenario)
    assert [o.status for o in run_specs([spec], store)] == ["ran"]
    ref = f"workload=monitor,scenario={scenario}"
    assert explore_main(["--store", store.root, "drill", ref]) == 0
    return capsys.readouterr().out, store, store.load(spec.fingerprint)


def test_monitor_cli_outage_demo_writes_postmortem(tmp_path, capsys):
    stdout, store, record = _drill_demo(tmp_path, capsys, "outage")
    assert "retx_storm" in stdout
    assert "links down: link(0, 1)" in stdout
    with open(store.artifact_path(record, "postmortem"), encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert any(t["kind"] == "delivery_failed" for t in loaded["trips"])


def test_monitor_cli_fanin_demo_trips_watermarks(tmp_path, capsys):
    stdout, _store, _record = _drill_demo(tmp_path, capsys, "fanin")
    assert "rx_watermark" in stdout
    assert "wait_queue_depth" in stdout
