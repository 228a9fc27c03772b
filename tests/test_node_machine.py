"""Unit tests for nodes, kernel, machine assembly and tracing."""

import pytest

from repro import Machine, MachineParams, NICConfig
from repro.node.machine import _mesh_for


# ---------------------------------------------------------------- machine --

def test_machine_builds_requested_nodes():
    machine = Machine(num_nodes=6)
    assert machine.num_nodes == 6
    assert len(machine.nodes) == 6
    assert machine.node(3).node_id == 3


def test_machine_rejects_zero_nodes():
    with pytest.raises(ValueError):
        Machine(num_nodes=0)


def test_mesh_grows_for_large_machines():
    machine = Machine(num_nodes=25)
    topo = machine.backplane.topology
    assert topo.num_nodes >= 25


def test_mesh_for_helper():
    assert _mesh_for(1) == (1, 1)
    assert _mesh_for(16) == (4, 4)
    width, height = _mesh_for(17)
    assert width * height >= 17


def test_machine_start_is_idempotent():
    machine = Machine(num_nodes=2)
    machine.start()
    machine.start()
    assert machine._started


def test_create_process_assigns_fresh_pids():
    machine = Machine(num_nodes=2)
    a = machine.create_process(0)
    b = machine.create_process(0)
    c = machine.create_process(1)
    assert a.pid != b.pid
    assert (c.node_id, a.node_id) == (1, 0)


def test_registry_namespaces_are_shared():
    machine = Machine(num_nodes=2)
    machine.registry("x")["k"] = 1
    assert machine.registry("x")["k"] == 1
    assert machine.registry("y") == {}


def test_machine_accepts_custom_params_and_config():
    params = MachineParams().with_overrides(page_size=1024)
    config = NICConfig(du_queue_depth=2)
    machine = Machine(num_nodes=2, params=params, nic_config=config)
    assert machine.params.page_size == 1024
    assert machine.nodes[0].nic.du.queue_depth == 2


def test_now_tracks_simulator():
    machine = Machine(num_nodes=1)
    machine.sim.schedule(5.0, lambda: None)
    machine.sim.run()
    assert machine.now == 5.0


# ----------------------------------------------------------------- kernel --

def test_kernel_syscall_cost():
    machine = Machine(num_nodes=1)
    kernel = machine.nodes[0].kernel

    def proc():
        yield from kernel.syscall()
        return machine.now

    assert machine.sim.run_process(proc()) == pytest.approx(
        machine.params.syscall_us
    )
    assert machine.stats.counter_value("kernel.syscalls") == 1


def test_kernel_pin_pages_scales_with_count():
    machine = Machine(num_nodes=1)
    kernel = machine.nodes[0].kernel

    def proc():
        yield from kernel.pin_pages(4)
        return machine.now

    assert machine.sim.run_process(proc()) == pytest.approx(
        4 * machine.params.pin_page_us
    )


def test_kernel_au_blocked_reflects_fifo():
    machine = Machine(num_nodes=1)
    node = machine.nodes[0]
    assert not node.kernel.au_blocked
    node.nic.fifo.over_threshold = True
    assert node.kernel.au_blocked


# ------------------------------------------------------------------ trace --

def test_tracer_disabled_by_default_and_costs_nothing():
    """Trace lines go to telemetry only; without it they are dropped."""
    machine = Machine(num_nodes=1)
    assert machine.stats.telemetry is None
    machine.stats.trace("cat", 0, "msg")
    assert machine.telemetry is None


def _trace_lines(machine):
    return [e for e in machine.telemetry.instants() if e.track == "trace"]


def test_tracer_records_when_enabled():
    machine = Machine(num_nodes=1, telemetry=True)
    machine.sim.schedule(3.0, lambda: machine.stats.trace("a.b", 0, "hello"))
    machine.sim.run()
    lines = _trace_lines(machine)
    assert len(lines) == 1
    event = lines[0]
    assert (event.time, event.name, event.node) == (3.0, "a.b", 0)
    assert event.describe() == "hello"


def test_tracer_category_filter():
    machine = Machine(num_nodes=1, telemetry=True)
    machine.stats.trace("nic.tx", 0, "yes")
    machine.stats.trace("svm.fault", 0, "no")
    assert [e.describe() for e in machine.telemetry.instants("nic.")] == ["yes"]
    assert len(machine.telemetry.instants()) == 2


def test_tracer_select_by_node_and_window():
    machine = Machine(num_nodes=2, telemetry=True)
    stats = machine.stats
    for t, node in ((1.0, 0), (2.0, 1), (3.0, 0)):
        machine.sim.schedule(t, lambda t=t, node=node: stats.trace("x", node, f"at {t}"))
    machine.sim.run()
    lines = _trace_lines(machine)
    assert [e.time for e in lines if e.node == 0] == [1.0, 3.0]
    assert [e.describe() for e in lines if 1.5 <= e.time <= 2.5] == ["at 2.0"]


def test_tracer_limit_drops_overflow():
    machine = Machine(num_nodes=1)
    telemetry = machine.enable_telemetry(limit=3)
    for i in range(5):
        machine.stats.trace("x", 0, str(i))
    assert [e.describe() for e in telemetry.events] == ["0", "1", "2"]
    assert telemetry.dropped == 2


def test_machine_tracing_captures_nic_traffic():
    from repro import VMMCRuntime

    machine = Machine(num_nodes=2, telemetry=True)
    runtime = VMMCRuntime(machine)
    tx = runtime.endpoint(machine.create_process(0))
    rx = runtime.endpoint(machine.create_process(1))

    def receiver():
        buffer = yield from rx.export(4096, name="t")
        yield from rx.wait_bytes(buffer, 4)

    def sender():
        imported = yield from tx.import_buffer("t")
        src = tx.alloc(4096)
        yield from tx.send(imported, src, 4)

    machine.sim.spawn(receiver(), "r")
    machine.sim.spawn(sender(), "s")
    machine.sim.run()
    lines = _trace_lines(machine)
    assert sum(e.name == "nic.tx" for e in lines) >= 1
    assert sum(e.name == "nic.rx" for e in lines) >= 1


def test_posted_store_tracking():
    machine = Machine(num_nodes=1)
    node = machine.nodes[0]
    space = machine.create_process(0).address_space
    base = space.alloc_region(1)

    def proc():
        yield from node.au_store_run(space, base, b"WORD")
        assert node.pending_posted >= 0
        yield from node.wait_posted_drained()
        return node.pending_posted

    assert machine.sim.run_process(proc()) == 0
