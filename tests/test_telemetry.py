"""Tests for the telemetry subsystem (repro.telemetry)."""

import json

import pytest

from repro import Machine
from repro.faults import FaultConfig
from repro.telemetry import (
    Histogram,
    Timeline,
    latency_breakdown,
    summarize,
    to_chrome_trace,
    utilization_report,
)
from repro.telemetry.export import SIM_PID
from repro.vmmc import ReliableConfig, VMMCRuntime


def _du_ping(machine, nbytes=2048, reliable=False, rel_config=None):
    """One DU message node 0 -> node 1; returns the machine (run to idle)."""
    vmmc = VMMCRuntime(machine)
    sender = vmmc.endpoint(machine.create_process(0))
    receiver = vmmc.endpoint(machine.create_process(1))
    payload = (bytes(range(256)) * (-(-nbytes // 256)))[:nbytes]

    def rx():
        buffer = yield from receiver.export(
            nbytes, name="ping", enable_notifications=True
        )
        yield from receiver.wait_bytes(buffer, nbytes)

    def tx():
        imported = yield from sender.import_buffer("ping")
        src = sender.alloc(nbytes)
        sender.poke(src, payload)
        if reliable:
            channel = sender.open_reliable(imported, rel_config)
            yield from channel.send(src, nbytes)
        else:
            yield from sender.send(
                imported, src, nbytes, interrupt=True, sync_delivered=True
            )

    machine.sim.spawn(rx(), "rx")
    machine.sim.spawn(tx(), "tx")
    machine.sim.run()
    return machine


# -- causal spans ---------------------------------------------------------


def test_du_transfer_span_chain_crosses_four_layers():
    machine = _du_ping(Machine(num_nodes=2, telemetry=True))
    tel = machine.telemetry
    rx_spans = tel.spans("nic.rx")
    assert len(rx_spans) == 1
    chain = tel.ancestry(rx_spans[0].span_id)
    names = [span.name for span in chain]
    # remote NIC -> backplane -> local NIC DMA -> VMMC library send.
    assert names == ["nic.rx", "net.transmit", "nic.du", "vmmc.send"]
    # The chain crosses nodes: receive on 1, everything else issued on 0.
    assert chain[0].node == 1
    assert {span.node for span in chain[1:]} == {0}
    # Parent spans fully enclose or precede their children in virtual time.
    for child, parent in zip(chain, chain[1:]):
        assert child.start >= parent.start
    assert not tel.open_spans()


def test_delivery_and_notification_instants_link_to_rx_span():
    machine = _du_ping(Machine(num_nodes=2, telemetry=True))
    tel = machine.telemetry
    rx_span = tel.spans("nic.rx")[0]
    delivers = tel.instants("vmmc.deliver")
    notifies = tel.instants("vmmc.notify")
    assert delivers and notifies
    assert delivers[0].parent_id == rx_span.span_id
    assert notifies[0].parent_id == rx_span.span_id


def test_forced_retransmit_parents_to_original_send():
    machine = _du_ping(
        Machine(
            num_nodes=2,
            telemetry=True,
            fault_config=FaultConfig(drop_rate=0.4),
        ),
        nbytes=16 * 1024,
        reliable=True,
        rel_config=ReliableConfig(timeout_us=300.0),
    )
    tel = machine.telemetry
    sends = tel.spans("vmmc.send")
    assert len(sends) == 1
    # The "vmmc" track carries the protocol's own retx instants (the
    # stats.trace mirror of the same name lands on the "trace" track).
    retx = [e for e in tel.instants("vmmc.retx") if e.track == "vmmc"]
    assert retx, "drop_rate=0.4 should force at least one retransmission"
    assert all(event.parent_id == sends[0].span_id for event in retx)
    # Re-issued transfers spawn nic.du spans under the same send.
    du_spans = tel.spans("nic.du")
    assert len(du_spans) > 4  # 4 pages + at least one retransmit
    assert all(span.parent_id == sends[0].span_id for span in du_spans)


def test_implicit_parenting_uses_process_span_stack():
    machine = Machine(num_nodes=1, telemetry=True)
    tel = machine.telemetry

    def proc():
        outer = tel.begin("outer", 0, "app")
        inner = tel.begin("inner", 0, "app")  # implicit parent: outer
        tel.end(inner)
        tel.end(outer)
        yield from ()

    machine.sim.spawn(proc(), "p")
    machine.sim.run()
    inner = tel.spans("inner")[0]
    outer = tel.spans("outer")[0]
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None


# -- zero-overhead gating -------------------------------------------------


def test_telemetry_off_is_byte_identical():
    plain = _du_ping(Machine(num_nodes=2, seed=7))
    profiled = _du_ping(Machine(num_nodes=2, seed=7, telemetry=True))
    assert plain.telemetry is None
    assert plain.sim.now == profiled.sim.now
    assert plain.stats.snapshot() == profiled.stats.snapshot()


def test_telemetry_off_app_run_identical():
    from repro.apps.base import run_app
    from repro.study.suite import spec

    app_spec = spec("Radix-VMMC")
    plain = run_app(app_spec.factory("du"), 2)
    machine = Machine(2, telemetry=True)
    profiled = run_app(app_spec.factory("du"), 2, machine=machine)
    assert plain.elapsed_us == profiled.elapsed_us
    assert plain.stats == profiled.stats
    assert machine.telemetry.spans("vmmc.send")


def test_telemetry_off_contended_fan_in_identical():
    """Fifteen senders into one 4 KB receive FIFO: worms wait for links
    and hold their paths under backpressure.  Telemetry on and off take
    the same trajectory, and each link's utilization timeline integrates
    to that link's own busy time."""
    from repro.fleet.workloads import spawn_fan_in
    from repro.hardware import DEFAULT_PARAMS

    def fan_in(telemetry):
        machine = Machine(
            num_nodes=16,
            seed=7,
            telemetry=telemetry,
            params=DEFAULT_PARAMS.with_overrides(rx_fifo_bytes=4096),
        )
        spawn_fan_in(machine, nbytes=256)
        machine.sim.run()
        return machine

    plain, traced = fan_in(False), fan_in(True)
    assert plain.sim.now == traced.sim.now
    assert plain.sim.events_processed == traced.sim.events_processed
    assert plain.stats.snapshot() == traced.stats.snapshot()
    assert traced.stats.counter_value("rx.backpressure") > 0
    timelines = traced.telemetry.timelines
    used = 0
    for (a, b), link in traced.backplane._links.items():
        timeline = timelines.get(f"link.{a}-{b}")
        if timeline is None:
            assert link.busy_time == 0.0
            continue
        used += 1
        assert timeline.integrate(0.0, traced.now) == link.busy_time
    assert used > 1


# -- exporters ------------------------------------------------------------


def test_chrome_trace_round_trips_json():
    machine = _du_ping(Machine(num_nodes=2, telemetry=True))
    doc = json.loads(json.dumps(to_chrome_trace(machine.telemetry)))
    events = doc["traceEvents"]
    assert events
    valid_phases = {"B", "E", "X", "i", "s", "f", "C", "M"}
    for event in events:
        assert event["ph"] in valid_phases
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] != "M":
            assert isinstance(event["ts"], (int, float))
            assert event["ts"] >= 0
    # Complete spans for the whole DU chain, plus flow arrows linking them.
    span_names = {e["name"] for e in events if e["ph"] == "X"}
    assert {"vmmc.send", "nic.du", "net.transmit", "nic.rx"} <= span_names
    assert any(e["ph"] == "s" for e in events)
    assert any(e["ph"] == "f" for e in events)
    # pid 0/1 are the two nodes; counters use the node pid too.
    pids = {e["pid"] for e in events}
    assert {0, 1} <= pids
    assert all(pid in (0, 1, SIM_PID) for pid in pids)


def test_chrome_trace_track_metadata_names_and_orders_lanes():
    """Every (pid, tid) lane carries thread_name/thread_sort_index metadata
    pinning the pipeline ordering of TRACK_ORDER, and every pid carries
    process_name/process_sort_index — so a drill-down from the explorer
    lands in a labeled, ordered timeline."""
    from repro.telemetry.export import COUNTER_TRACK, TRACK_ORDER

    machine = _du_ping(Machine(num_nodes=2, telemetry=True))
    events = to_chrome_trace(machine.telemetry)["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    names = {}
    orders = {}
    for event in meta:
        key = (event["pid"], event["tid"])
        if event["name"] == "thread_name":
            names[key] = event["args"]["name"]
        elif event["name"] == "thread_sort_index":
            orders[key] = event["args"]["sort_index"]
    # Every named lane also has a sort index, and vice versa.
    assert set(names) == set(orders)
    # Every non-metadata event's lane is named.
    for event in events:
        if event["ph"] in ("M", "s", "f"):
            continue
        assert (event["pid"], event["tid"]) in names, event
    # Sort indices realize TRACK_ORDER: tx lanes sort before the wire,
    # which sorts before rx lanes.
    by_name = {}
    for key, track in names.items():
        by_name.setdefault(track, orders[key])
    assert by_name["nic.tx"] < by_name["net"] < by_name["nic.rx"]
    for track, index in by_name.items():
        if track in TRACK_ORDER:
            assert index == TRACK_ORDER.index(track)
    # Counters live on their own named track, not a bare tid.
    counter_lanes = {
        (e["pid"], e["tid"]) for e in events if e["ph"] == "C"
    }
    assert counter_lanes
    for lane in counter_lanes:
        assert names[lane] == COUNTER_TRACK
    # Processes are named and ordered: nodes by id, simulator last.
    process_names = {
        e["pid"]: e["args"]["name"]
        for e in meta if e["name"] == "process_name"
    }
    process_orders = {
        e["pid"]: e["args"]["sort_index"]
        for e in meta if e["name"] == "process_sort_index"
    }
    assert set(process_names) == set(process_orders)
    assert process_names[0] == "node 0"
    assert process_names[1] == "node 1"
    assert process_orders[0] < process_orders[1]
    if SIM_PID in process_names:
        assert process_names[SIM_PID] == "simulator"
        assert process_orders[SIM_PID] > process_orders[1]


def test_exporters_create_parent_directories(tmp_path):
    from repro.telemetry.export import write_chrome_trace

    machine = _du_ping(Machine(num_nodes=2, telemetry=True))
    trace_path = tmp_path / "not" / "yet" / "there" / "ping.trace.json"
    write_chrome_trace(machine.telemetry, str(trace_path))
    assert json.loads(trace_path.read_text())["traceEvents"]


def test_reports_render():
    machine = _du_ping(Machine(num_nodes=2, telemetry=True))
    text = summarize(machine.telemetry, label="test")
    assert "Profile: test" in text
    assert "Per-layer latency breakdown" in text
    assert "vmmc.send" in latency_breakdown(machine.telemetry)
    assert "rxfifo.n1" in utilization_report(machine.telemetry)


def _run_ping_demo(tmp_path, store_root):
    """The ``demos`` DU ping (a fleet ``ping`` spec) run through the fleet
    CLI into ``store_root``; returns the record and its trace document."""
    from repro.explore.__main__ import main as explore_main
    from repro.fleet import RunStore, load_catalog
    from repro.fleet.__main__ import main as fleet_main

    (spec,) = [
        s for s in load_catalog("demos")
        if s.workload == "ping" and s.param("reliable") == 0
    ]
    catalog = tmp_path / "du-ping.json"
    catalog.write_text(json.dumps({"specs": [spec.to_json()]}))
    assert fleet_main(
        ["run", "--matrix", str(catalog), "--store", str(store_root)]
    ) == 0
    store = RunStore(str(store_root))
    record = store.load(spec.fingerprint)
    assert explore_main(
        ["--store", str(store_root), "drill", "workload=ping,reliable=0"]
    ) == 0
    with open(store.artifact_path(record, "trace"), encoding="utf-8") as fh:
        return record, json.load(fh)


def test_cli_smoke(tmp_path, capsys):
    _record, doc = _run_ping_demo(tmp_path, tmp_path / "runs")
    assert doc["traceEvents"]
    captured = capsys.readouterr()
    assert "trace: " in captured.out
    assert "vmmc.send" in {event["name"] for event in doc["traceEvents"]}


def test_cli_out_creates_parent_dirs_and_attr_report(tmp_path, capsys):
    from repro.explore.__main__ import main as explore_main

    store_root = tmp_path / "new" / "dirs" / "runs"
    _record, doc = _run_ping_demo(tmp_path, store_root)
    assert doc["traceEvents"]
    capsys.readouterr()
    assert explore_main(
        ["--store", str(store_root), "show", "workload=ping,reliable=0"]
    ) == 0
    assert "Critical-path attribution" in capsys.readouterr().out


# -- metrics --------------------------------------------------------------


def test_histogram_percentiles():
    hist = Histogram("h")
    for value in range(1, 101):
        hist.add(float(value))
    assert hist.count == 100
    assert hist.p50 == 50.0
    assert hist.p95 == 95.0
    assert hist.p99 == 99.0
    assert hist.min == 1.0 and hist.max == 100.0
    assert hist.mean == 50.5


def test_histogram_percentile_validates_p_even_when_empty():
    hist = Histogram("h")
    # The bounds check must fire before the empty-histogram early return.
    with pytest.raises(ValueError):
        hist.percentile(999)
    with pytest.raises(ValueError):
        hist.percentile(-1)
    assert hist.percentile(50) == 0.0
    hist.add(7.0)
    with pytest.raises(ValueError):
        hist.percentile(100.5)
    assert hist.percentile(100) == 7.0


def test_timeline_busy_fraction_and_integral():
    timeline = Timeline("t", 0)
    timeline.record(0.0, 0)
    timeline.record(10.0, 2)
    timeline.record(30.0, 0)
    assert timeline.value_at(5.0) == 0
    assert timeline.value_at(15.0) == 2
    assert timeline.busy_fraction(0.0, 40.0) == 0.5
    assert timeline.integrate(0.0, 40.0) == 40.0
    assert timeline.time_weighted_mean(0.0, 40.0) == 1.0
    assert timeline.max_value == 2


def test_timeline_rejects_backwards_time():
    timeline = Timeline("t", 0)
    timeline.record(10.0, 1)
    try:
        timeline.record(5.0, 2)
    except ValueError:
        pass
    else:
        raise AssertionError("backwards record must raise")


def _breakdown_rows(telemetry):
    """``latency_breakdown``'s table as {span name: [cells]}."""
    lines = latency_breakdown(telemetry).splitlines()[4:]
    return {
        cells[0]: cells[1:]
        for cells in ([c.strip() for c in line.split(" | ")] for line in lines)
    }


def test_span_durations_feed_histograms():
    """The breakdown has one row per exact span name, over every span."""
    machine = _du_ping(Machine(num_nodes=2, telemetry=True))
    tel = machine.telemetry
    rows = _breakdown_rows(tel)
    assert set(rows) == {span.name for span in tel.spans()}
    spans = tel.spans("nic.du")
    assert rows["nic.du"][0] == str(len(spans))
    assert rows["nic.du"][-1] == f"{max(span.duration for span in spans):.2f}"
    # ``spans(name)`` matches by prefix; the breakdown groups exact names.
    from repro.telemetry import Telemetry

    clock = [0.0]
    tel = Telemetry(lambda: clock[0])
    for name, start, end in [("a", 0.0, 1.0), ("a.b", 1.0, 11.0), ("a", 11.0, 14.0)]:
        clock[0] = start
        span_id = tel.begin(name, 0, "app")
        clock[0] = end
        tel.end(span_id)
    rows = _breakdown_rows(tel)
    assert len(tel.spans("a")) == 3
    assert rows["a"] == ["2", "2.00", "1.00", "3.00", "3.00", "3.00"]
    assert rows["a.b"] == ["1", "10.00", "10.00", "10.00", "10.00", "10.00"]


def test_telemetry_events_hold_spans_and_trace_instants():
    """The stream keeps every record: spans and the trace-track instants,
    and a tail over it since the first event is the whole stream."""
    machine = Machine(num_nodes=2, telemetry=True)
    _du_ping(machine)
    seen = machine.telemetry.events
    assert machine.telemetry.tail(len(seen)) == seen
    assert sum(e.name == "vmmc.send" for e in seen) >= 2  # begin + end
    assert sum(e.name == "nic.rx" for e in seen) >= 2
    assert any(e.name == "nic.rx" and e.track == "trace" for e in seen)


class TestTailHistogram:
    """TailHistogram vs. the exact keep-every-sample Histogram oracle."""

    def _paired(self, samples, sub_bits=7):
        from repro.telemetry import TailHistogram

        exact = Histogram("oracle")
        tail = TailHistogram("tail", resolution=0.1, sub_bits=sub_bits)
        for s in samples:
            exact.add(s)
            tail.add(s)
        return exact, tail

    def test_quantiles_track_the_exact_oracle(self):
        import random

        rng = random.Random(1998)
        # Heavy-tailed: median ~ e^2, p999 two orders of magnitude higher —
        # the regime a plain linear histogram gets wrong.
        samples = [rng.lognormvariate(2.0, 1.2) for _ in range(50_000)]
        exact, tail = self._paired(samples)
        assert tail.count == exact.count
        assert tail.min == exact.min
        assert tail.max == exact.max
        assert tail.mean == pytest.approx(exact.mean)
        for p in (10.0, 50.0, 90.0, 99.0, 99.9, 99.99):
            approx = tail.percentile(p)
            oracle = exact.percentile(p)
            # Buckets report their upper bound, so the estimate never falls
            # below the oracle, and relative width is bounded by 2**-sub_bits
            # in every major bucket — tail resolution does not degrade.
            assert oracle <= approx <= oracle * (1 + 2 * 2.0 ** -7)

    def test_bounds_checked_even_when_empty(self):
        from repro.telemetry import TailHistogram

        tail = TailHistogram("empty")
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            tail.percentile(101.0)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            tail.percentile(-0.1)
        assert tail.percentile(99.9) == 0.0
        exact = Histogram("empty-oracle")
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            exact.percentile(100.5)
        assert exact.p999 == 0.0

    def test_zero_bucket_and_extreme_clamps(self):
        from repro.telemetry import TailHistogram

        tail = TailHistogram("clamp", resolution=1.0)
        for s in (0.0, 0.5, 0.99):  # all below resolution
            tail.add(s)
        tail.add(1000.0)
        assert tail.percentile(50.0) == 0.0
        # The covering bucket's upper bound is clamped to the true max.
        assert tail.percentile(100.0) == 1000.0
        with pytest.raises(ValueError, match="negative"):
            tail.add(-1.0)

    def test_constructor_validation(self):
        from repro.telemetry import TailHistogram

        with pytest.raises(ValueError, match="resolution"):
            TailHistogram("bad", resolution=0.0)
        with pytest.raises(ValueError, match="sub_bits"):
            TailHistogram("bad", sub_bits=0)
