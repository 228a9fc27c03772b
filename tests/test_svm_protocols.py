"""Integration tests for the three SVM protocols (HLRC, HLRC-AU, AURC)."""

import pytest

from repro import Machine, MachineParams, VMMCRuntime
from repro.svm import PROTOCOLS, PageState, SharedArray, make_protocol

PAGE_1K = MachineParams().with_overrides(page_size=1024)
ALL_PROTOCOLS = sorted(PROTOCOLS)


def _run_workers(nprocs, body, protocol="hlrc", params=None, **proto_kwargs):
    """Run ``body(node, arr, index)`` on every node against one shared
    int32 array of 1024 elements."""
    machine = Machine(num_nodes=nprocs, params=params or PAGE_1K)
    vmmc = VMMCRuntime(machine)
    svm = make_protocol(protocol, vmmc, nprocs, **proto_kwargs)
    results = {}

    def worker(i):
        node = yield from svm.join(i, machine.create_process(i))
        arr = yield from SharedArray.create(node, "arr", 1024, "i4")
        yield from node.barrier()
        if i == 0:
            arr.init_global([0] * 1024)
        yield from node.barrier()
        results[i] = yield from body(node, arr, i)

    procs = [machine.sim.spawn(worker(i), f"w{i}") for i in range(nprocs)]
    machine.sim.run()
    stuck = [p.name for p in procs if not p.done]
    assert not stuck, f"deadlocked: {stuck}"
    return machine, results


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_disjoint_writes_visible_after_barrier(protocol):
    def body(node, arr, i):
        nprocs = node.protocol.nprocs
        share = 1024 // nprocs
        yield from arr.set_range(i * share, [i * 100 + k for k in range(share)])
        yield from node.barrier()
        values = yield from arr.get_range(0, 1024)
        return values

    machine, results = _run_workers(4, body, protocol)
    expected = [owner * 100 + k for owner in range(4) for k in range(256)]
    for values in results.values():
        assert values == expected


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_false_sharing_merges_at_home(protocol):
    """Interleaved (strided) writes put many writers on every page."""

    def body(node, arr, i):
        nprocs = node.protocol.nprocs
        for k in range(1024 // nprocs):
            yield from arr.set(k * nprocs + i, (i + 1) * 1000 + k)
        yield from node.barrier()
        values = yield from arr.get_range(0, 1024)
        return values

    machine, results = _run_workers(4, body, protocol)
    expected = [(idx % 4 + 1) * 1000 + idx // 4 for idx in range(1024)]
    for values in results.values():
        assert values == expected


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_lock_protected_counter(protocol):
    def body(node, arr, i):
        for _ in range(5):
            yield from node.acquire(7)
            value = yield from arr.get(0)
            yield from arr.set(0, value + 1)
            yield from node.release(7)
        yield from node.barrier()
        value = yield from arr.get(0)
        return value

    machine, results = _run_workers(4, body, protocol)
    assert all(v == 20 for v in results.values())


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_producer_consumer_through_lock(protocol):
    """Release-then-acquire must publish the producer's writes."""

    def body(node, arr, i):
        if i == 0:
            yield from node.acquire(1)
            yield from arr.set_range(0, list(range(100, 164)))
            yield from node.release(1)
            yield from node.barrier()
            return None
        yield from node.barrier()
        yield from node.acquire(1)
        values = yield from arr.get_range(0, 64)
        yield from node.release(1)
        return values

    machine, results = _run_workers(2, body, protocol)
    assert results[1] == list(range(100, 164))


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_repeated_write_read_phases(protocol):
    """Multiple interval cycles: states must downgrade and re-track."""

    def body(node, arr, i):
        nprocs = node.protocol.nprocs
        share = 1024 // nprocs
        for phase in range(3):
            yield from arr.set_range(
                i * share, [phase * 10 + i] * share
            )
            yield from node.barrier()
            values = yield from arr.get_range(0, 1024)
            expected = [
                phase * 10 + (idx // share) for idx in range(1024)
            ]
            assert values == expected, f"phase {phase}"
            yield from node.barrier()
        return True

    machine, results = _run_workers(2, body, protocol)
    assert all(results.values())


def test_hlrc_computes_diffs_aurc_does_not():
    def body(node, arr, i):
        yield from arr.set(i, 42 + i)
        yield from node.barrier()
        return True

    machine_h, _ = _run_workers(2, body, "hlrc")
    machine_a, _ = _run_workers(2, body, "aurc")
    assert machine_h.stats.counter_value("svm.diffs_computed") > 0
    assert machine_a.stats.counter_value("svm.diffs_computed") == 0
    assert machine_a.stats.counter_value("svm.au_fences") > 0
    assert machine_a.stats.counter_value("au.bytes") > 0


def test_hlrc_au_diffs_travel_by_au():
    def body(node, arr, i):
        yield from arr.set(i, 7)
        yield from node.barrier()
        return True

    machine, _ = _run_workers(2, body, "hlrc-au")
    assert machine.stats.counter_value("svm.diffs_computed") > 0
    assert machine.stats.counter_value("svm.diffs_applied") == 0  # no home apply
    assert machine.stats.counter_value("au.bytes") > 0


def test_svm_uses_notifications():
    def body(node, arr, i):
        yield from arr.set(512 + i, 1)  # fault on a remote-homed page
        yield from node.barrier()
        values = yield from arr.get_range(0, 1024)
        return sum(values)

    machine, _ = _run_workers(4, body, "hlrc")
    assert machine.stats.counter_value("vmmc.notifications") > 0


def test_page_faults_and_states():
    def body(node, arr, i):
        if i == 1:
            # Page 0 (elements 0..255) is homed at node 0.
            value = yield from arr.get(3)
            region = arr.region
            assert node._state(region, 0) == PageState.READ
            yield from arr.set(3, 9)
            assert node._state(region, 0) == PageState.WRITE
            return value
        return 0
        yield  # pragma: no cover

    machine, results = _run_workers(2, body, "hlrc")
    assert results[1] == 0
    assert machine.stats.counter_value("svm.read_faults") >= 1
    assert machine.stats.counter_value("svm.write_faults") >= 1
    assert machine.stats.counter_value("svm.pages_fetched") >= 1


def test_single_node_protocol_degenerates_gracefully():
    def body(node, arr, i):
        yield from arr.set_range(0, list(range(64)))
        yield from node.barrier()
        yield from node.acquire(0)
        yield from node.release(0)
        values = yield from arr.get_range(0, 64)
        return values

    for protocol in ALL_PROTOCOLS:
        machine, results = _run_workers(1, body, protocol)
        assert results[0] == list(range(64))


def test_make_protocol_rejects_unknown():
    machine = Machine(num_nodes=2)
    vmmc = VMMCRuntime(machine)
    with pytest.raises(ValueError):
        make_protocol("sequential-consistency", vmmc, 2)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_au_combine_needs_au_bindings(protocol):
    vmmc = VMMCRuntime(Machine(num_nodes=2))
    if PROTOCOLS[protocol].uses_au_bindings:
        assert make_protocol(protocol, vmmc, 2, au_combine=True).au_combine
    else:
        with pytest.raises(ValueError, match=repr(protocol)):
            make_protocol(protocol, vmmc, 2, au_combine=True)
    assert not make_protocol(protocol, vmmc, 2).au_combine


def test_shared_array_validation():
    machine = Machine(num_nodes=1, params=PAGE_1K)
    vmmc = VMMCRuntime(machine)
    svm = make_protocol("hlrc", vmmc, 1)

    def worker():
        node = yield from svm.join(0, machine.create_process(0))
        with pytest.raises(ValueError):
            yield from SharedArray.create(node, "bad", 10, "complex128")
        arr = yield from SharedArray.create(node, "ok", 16, "f8")
        with pytest.raises(IndexError):
            yield from arr.get(16)
        yield from arr.set(3, 2.5)
        value = yield from arr.get(3)
        return value

    assert machine.sim.run_process(worker()) == 2.5
