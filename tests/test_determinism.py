"""End-to-end determinism regression tests.

The engine's ordering contract (strict ``(time, seq)`` execution, FIFO
among same-time entries) must make any two runs of the same seeded program
bit-for-bit identical — including fault injection, reliable-delivery
retransmission and telemetry.  These tests run two demanding workloads
twice each and require the full stats snapshot *and* the complete
telemetry streams (spans and instants) to match exactly.  Any fast-path
change that perturbs scheduling order fails here before it can corrupt
the benchmark baselines.
"""

import pytest

from repro import Machine
from repro.faults import FaultConfig
from repro.monitor import MonitorConfig
from repro.telemetry import critpath
from repro.vmmc import ReliableConfig, VMMCRuntime


def _telemetry_streams(machine):
    """The full telemetry record in emission order, as comparable values."""
    tel = machine.telemetry
    return tel.spans(), tel.instants()


def _run_lossy_reliable(seed, monitor=False):
    """A reliable stream over a 15%-drop fabric: retransmission timers,
    ack control traffic and fault fates all in play."""
    nbytes = 4096
    ops = 6
    machine = Machine(
        num_nodes=4,
        seed=seed,
        telemetry=True,
        fault_config=FaultConfig(drop_rate=0.15),
    )
    if monitor:
        # A twitchy config so the run actually records trips.
        machine.enable_monitor(
            MonitorConfig(retx_storm_rounds=2, retx_window_us=10_000.0)
        )
    vmmc = VMMCRuntime(machine)
    receiver = vmmc.endpoint(machine.create_process(0))
    sender = vmmc.endpoint(machine.create_process(1))
    payload = (bytes(range(256)) * 16)[:nbytes]

    def rx():
        buffer = yield from receiver.export(nbytes, name="det.buf")
        yield from receiver.wait_bytes(buffer, nbytes * ops)

    def tx():
        imported = yield from sender.import_buffer("det.buf")
        channel = sender.open_reliable(imported, ReliableConfig(timeout_us=300.0))
        src = sender.alloc(nbytes)
        sender.poke(src, payload)
        for _ in range(ops):
            yield from channel.send(src, nbytes)
        yield from channel.drain()

    machine.sim.spawn(rx(), "det.rx")
    machine.sim.spawn(tx(), "det.tx")
    machine.sim.run()
    return machine


def _run_suite_app(seed):
    """A small Radix-VMMC run from the paper's application suite."""
    from repro.apps.radix_vmmc import RadixVMMC
    from repro.apps.base import run_app

    machine = Machine(4, seed=seed, telemetry=True)
    app = RadixVMMC(mode="du", n_keys=2048, max_key=1024)
    run_app(app, 4, machine=machine)
    return machine


def _assert_identical(first, second):
    assert first.stats.snapshot() == second.stats.snapshot()
    first_spans, first_instants = _telemetry_streams(first)
    second_spans, second_instants = _telemetry_streams(second)
    assert first_spans == second_spans
    assert first_instants == second_instants
    assert first.sim.now == second.sim.now
    assert first.sim.events_processed == second.sim.events_processed


def test_lossy_reliable_stream_is_deterministic():
    first = _run_lossy_reliable(seed=2024)
    second = _run_lossy_reliable(seed=2024)
    # Sanity: the fault plan actually dropped packets, so the comparison
    # covers the retransmission machinery rather than a clean run.
    assert first.stats.snapshot().get("fault.drops", 0) > 0
    assert first.stats.counter_value("vmmc.retransmissions") >= 0
    _assert_identical(first, second)


def test_suite_app_run_is_deterministic():
    first = _run_suite_app(seed=7)
    second = _run_suite_app(seed=7)
    _assert_identical(first, second)


@pytest.mark.parametrize("app_name,mode", [("Radix-VMMC", "du"),
                                           ("Radix-SVM", "au")])
def test_back_to_back_app_runs_name_the_same_primitives(app_name, mode):
    """Barrier-group and SVM-fabric tags name exported buffers and
    channels, so they are run-scoped: a second same-seed run in one process
    lists the same primitive names as the first (``vg1.*``, ``svm1.*``),
    as a fresh process would."""
    from repro.apps.base import run_app
    from repro.sim.resources import PRIMITIVES
    from repro.study.suite import spec

    def names():
        suite_app = spec(app_name)
        run_app(suite_app.factory(mode), 2, params=suite_app.params)
        return [prim.name for prim in PRIMITIVES]

    first = names()
    assert any(".vg1." in name or ".svm1." in name for name in first)
    assert names() == first


def _nx_coll_run():
    from repro.fleet import make_spec
    from repro.fleet.workloads import resolve_workload

    spec = make_spec("coll", nodes=4, api="nx", mode="nx")
    resolve_workload(spec.workload).run(spec)


def _bsp_run():
    from repro.msg import BSPWorld

    machine = Machine(num_nodes=2, seed=1998)
    world = BSPWorld(VMMCRuntime(machine), 2)

    def worker(pid):
        bsp = yield from world.join(pid, machine.create_process(pid))
        yield from bsp.put(1 - pid, 7, bytes([pid]) * 8)
        yield from bsp.sync()

    for pid in range(2):
        machine.sim.spawn(worker(pid), f"bsp{pid}")
    machine.sim.run()


@pytest.mark.parametrize("run,marker", [(_nx_coll_run, "nx1.0.from.1"),
                                        (_bsp_run, "bsp1.0.from.1")],
                         ids=["nx", "bsp"])
def test_back_to_back_message_worlds_name_the_same_primitives(run, marker):
    """NX and BSP world tags name the ring buffers, so they are run-scoped:
    a second same-seed run in one process lists the same primitive names
    (``nx1.0.from.1``, ``bsp1.0.from.1``) as the first."""
    from repro.sim.resources import PRIMITIVES

    run()
    first = [prim.name for prim in PRIMITIVES]
    assert any(marker in name for name in first)
    run()
    assert [prim.name for prim in PRIMITIVES] == first


def _span_shapes(machine):
    """Spans projected without ids: the monitor's trip instants consume
    span-id numbers, so id-free shapes are what an observing monitor must
    leave untouched."""
    return [
        (s.name, s.node, s.track, s.start, s.end)
        for s in machine.telemetry.spans()
    ]


def test_monitored_lossy_run_is_deterministic():
    first = _run_lossy_reliable(seed=2024, monitor=True)
    second = _run_lossy_reliable(seed=2024, monitor=True)
    # Sanity: the monitor saw something, so trip bookkeeping is exercised.
    assert first.monitor.tripped("retx_storm")
    assert [repr(t) for t in first.monitor.trips] == [
        repr(t) for t in second.monitor.trips
    ]
    assert first.monitor.trip_counts == second.monitor.trip_counts
    _assert_identical(first, second)


def test_monitor_observation_does_not_perturb_the_run():
    """The monitor observes only: a monitored run takes the exact same
    virtual-time trajectory as an unmonitored one."""
    plain = _run_lossy_reliable(seed=2024, monitor=False)
    watched = _run_lossy_reliable(seed=2024, monitor=True)
    assert plain.sim.now == watched.sim.now
    assert plain.sim.events_processed == watched.sim.events_processed
    assert plain.stats.snapshot() == watched.stats.snapshot()
    assert _span_shapes(plain) == _span_shapes(watched)
    # The only telemetry the monitor adds is its own trip instants.
    plain_instants = [
        (e.name, e.time, e.node) for e in plain.telemetry.instants()
    ]
    watched_instants = [
        (e.name, e.time, e.node)
        for e in watched.telemetry.instants()
        if e.name != "monitor.trip"
    ]
    assert plain_instants == watched_instants


def test_monitor_off_clean_run_is_byte_identical():
    """With no trips, arming the monitor adds nothing at all to the
    telemetry record — the streams compare equal including span ids."""
    plain = _run_suite_app(seed=7)
    watched_machine = Machine(4, seed=7, telemetry=True)
    watched_machine.enable_monitor()
    from repro.apps.radix_vmmc import RadixVMMC
    from repro.apps.base import run_app

    run_app(
        RadixVMMC(mode="du", n_keys=2048, max_key=1024),
        4,
        machine=watched_machine,
    )
    assert watched_machine.monitor.healthy
    _assert_identical(plain, watched_machine)


def test_critical_path_attribution_is_deterministic():
    first = critpath.aggregate(_run_lossy_reliable(seed=11).telemetry, None, top=0)
    second = critpath.aggregate(_run_lossy_reliable(seed=11).telemetry, None, top=0)
    assert first.components == second.components
    assert first.count == second.count

def _run_chaos_serve(seed, monitor=False):
    """A small serving-tier run through a permanent link outage: open-loop
    generators, reliable-channel lanes, go-back-N retransmission storms and
    circuit-breaker failures all in play."""
    from repro.serve import ServeCluster, ServeConfig, make_chaos

    config = ServeConfig(
        num_shards=2,
        num_aggregates=2,
        offered_rps=20_000.0,
        duration_us=3_000.0,
        retx_timeout_us=150.0,
        retx_max_retries=2,
    )
    cluster = ServeCluster(config, seed=seed, telemetry=True)
    if monitor:
        cluster.machine.enable_monitor(
            MonitorConfig(
                check_interval_us=250.0,
                retx_storm_rounds=2,
                retx_window_us=10_000.0,
            )
        )
    cluster.setup()
    make_chaos("link-outage", at_us=800.0, duration_us=None).apply(cluster)
    report = cluster.run()
    return cluster.machine, report


def test_chaos_serve_run_is_deterministic():
    first_machine, first_report = _run_chaos_serve(seed=2026)
    second_machine, second_report = _run_chaos_serve(seed=2026)
    # Sanity: the outage actually broke channels, so the comparison covers
    # retransmission exhaustion and the fail-fast path, not a clean run.
    assert first_report.overall.failed > 0
    assert (
        first_report.overall.offered,
        first_report.overall.ok,
        first_report.overall.late,
        first_report.overall.failed,
    ) == (
        second_report.overall.offered,
        second_report.overall.ok,
        second_report.overall.late,
        second_report.overall.failed,
    )
    _assert_identical(first_machine, second_machine)


def test_monitored_serve_run_does_not_perturb_the_trajectory():
    """Arming the health monitor over a chaotic serve run changes nothing
    but its own trip instants."""
    plain, plain_report = _run_chaos_serve(seed=2026, monitor=False)
    watched, watched_report = _run_chaos_serve(seed=2026, monitor=True)
    # Sanity: the monitor observed the storm the outage caused.
    assert watched.monitor.trips
    assert plain.sim.now == watched.sim.now
    assert plain.sim.events_processed == watched.sim.events_processed
    assert plain.stats.snapshot() == watched.stats.snapshot()
    assert plain_report.overall.failed == watched_report.overall.failed
    assert plain_report.p999_us == watched_report.p999_us
    assert _span_shapes(plain) == _span_shapes(watched)
    plain_instants = [
        (e.name, e.time, e.node) for e in plain.telemetry.instants()
    ]
    watched_instants = [
        (e.name, e.time, e.node)
        for e in watched.telemetry.instants()
        if e.name != "monitor.trip"
    ]
    assert plain_instants == watched_instants


def _run_collectives(seed, backend):
    """A collective-heavy 16-rank run: overlapping barriers, combining
    allreduces, fetch-and-add tickets and a multi-chunk broadcast, so the
    engine queues, firmware daemons and control-packet trains are all in
    play."""
    from repro.coll import CollConfig, CollWorld

    machine = Machine(num_nodes=16, seed=seed, telemetry=True)
    world = CollWorld(machine, 16, CollConfig(backend=backend))
    payload = (bytes(range(256)) * 32)[:8000]

    def worker(rank):
        for i in range(3):
            yield from world_coll[rank].barrier()
            yield from world_coll[rank].allreduce(float(rank + i), op="sum")
            yield from world_coll[rank].fetch_and_add(1.0)
            data = payload if rank == 0 else None
            yield from world_coll[rank].bcast(0, data)

    world_coll = [
        world.join(rank, machine.create_process(rank)) for rank in range(16)
    ]
    for rank in range(16):
        machine.sim.spawn(worker(rank), f"det.coll.r{rank}")
    machine.sim.run()
    return machine


def test_collective_run_is_deterministic():
    first = _run_collectives(seed=1998, backend="nic")
    second = _run_collectives(seed=1998, backend="nic")
    assert first.stats.counter_value("coll.packets") > 0
    _assert_identical(first, second)


def test_host_backend_collective_run_is_deterministic():
    first = _run_collectives(seed=1998, backend="host")
    second = _run_collectives(seed=1998, backend="host")
    _assert_identical(first, second)


def test_obs_observation_does_not_perturb_the_run():
    """Arming live metrics over the suite app changes nothing at all:
    the registry samples read-only probes from the run loop's heap
    branch and writes only its own ring buffers, so the full telemetry
    record — span ids included — compares equal."""
    from repro.apps.base import run_app
    from repro.apps.radix_vmmc import RadixVMMC
    from repro.obs import ObsConfig

    plain = _run_suite_app(seed=7)
    observed = Machine(4, seed=7, telemetry=True)
    obs = observed.enable_obs(ObsConfig(cadence_us=25.0))
    run_app(
        RadixVMMC(mode="du", n_keys=2048, max_key=1024),
        4,
        machine=observed,
    )
    # Sanity: the cadence actually fired and probes recorded history.
    assert obs.samples_taken > 0
    assert obs.series["sim.heap_depth"].points
    _assert_identical(plain, observed)


def test_obs_observation_does_not_perturb_chaos_serve():
    """Same contract under the serving tier's worst case: open-loop
    traffic, a permanent link outage, retransmission storms and breaker
    failures — with the serve SLO probes registered mid-run."""
    from repro.obs import ObsConfig
    from repro.serve import ServeCluster, ServeConfig, make_chaos

    config = ServeConfig(
        num_shards=2,
        num_aggregates=2,
        offered_rps=20_000.0,
        duration_us=3_000.0,
        retx_timeout_us=150.0,
        retx_max_retries=2,
    )
    plain, plain_report = _run_chaos_serve(seed=2026)
    cluster = ServeCluster(config, seed=2026, telemetry=True)
    machine = cluster.machine
    obs = machine.enable_obs(ObsConfig(cadence_us=50.0))
    cluster.setup()
    make_chaos("link-outage", at_us=800.0, duration_us=None).apply(cluster)
    report = cluster.run()
    assert obs.samples_taken > 0
    assert obs.series["serve.slo.failed"].points[-1][1] > 0
    assert (
        report.overall.offered,
        report.overall.ok,
        report.overall.late,
        report.overall.failed,
    ) == (
        plain_report.overall.offered,
        plain_report.overall.ok,
        plain_report.overall.late,
        plain_report.overall.failed,
    )
    _assert_identical(plain, machine)
