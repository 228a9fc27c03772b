"""Unit and integration tests for the repro.obs observability layer.

Covers the ring-buffer decimation contract, the Prometheus-style scrape
format, the host-time sampling profiler's component attribution, the
HTML evidence renderer, the JSONL sample stream and the bounded
Timeline/Gauge retention satellites.  Determinism of obs-on runs is
gated separately in ``tests/test_determinism.py``.
"""

import json
import re

import pytest

from repro import Machine
from repro.obs import (
    DEFAULT_COUNTER_PROBES,
    MetricsRegistry,
    ObsConfig,
    RingSeries,
    SamplingProfiler,
    classify_path,
    svg_chart,
)


# -- RingSeries ----------------------------------------------------------


def test_ring_series_keeps_everything_below_cap():
    ring = RingSeries("x", "gauge", cap=16)
    for i in range(15):
        ring.append(float(i), float(i * i))
    assert len(ring.points) == 15
    assert ring.stride == 1
    assert ring.offered == 15
    assert ring.points[0] == (0.0, 0.0)
    assert ring.points[-1] == (14.0, 196.0)


def test_ring_series_decimates_by_stride_doubling():
    ring = RingSeries("x", "gauge", cap=8)
    for i in range(1000):
        ring.append(float(i), float(i))
    # Bounded: never reaches the cap again after a halving.
    assert len(ring.points) < 8
    assert ring.offered == 1000
    assert ring.stride > 1 and ring.stride & (ring.stride - 1) == 0
    # Uniform grid: retained offers are multiples of the final stride.
    times = [t for t, _v in ring.points]
    assert all(int(t) % ring.stride == 0 for t in times)
    assert times == sorted(times)


def test_ring_series_rejects_bad_caps():
    with pytest.raises(ValueError):
        RingSeries("x", "gauge", cap=7)
    with pytest.raises(ValueError):
        RingSeries("x", "gauge", cap=4)


def test_obs_config_rejects_bad_cadence():
    with pytest.raises(ValueError):
        ObsConfig(cadence_us=0.0)


# -- the registry over a live run ---------------------------------------


def _run_stream(machine, ops=60, nbytes=512):
    from repro.vmmc import VMMCRuntime

    vmmc = VMMCRuntime(machine)
    receiver = vmmc.endpoint(machine.create_process(0))
    sender = vmmc.endpoint(machine.create_process(1))
    payload = (bytes(range(256)) * 2)[:nbytes]

    def rx():
        buffer = yield from receiver.export(nbytes, name="t.obs")
        yield from receiver.wait_bytes(buffer, nbytes * ops)

    def tx():
        imported = yield from sender.import_buffer("t.obs")
        src = sender.alloc(nbytes)
        sender.poke(src, payload)
        for _ in range(ops):
            yield from sender.send(imported, src, nbytes, sync_delivered=True)

    machine.sim.spawn(rx(), "t.rx")
    machine.sim.spawn(tx(), "t.tx")
    machine.sim.run()


def _observed_machine(tmp_path=None, cadence=25.0):
    jsonl = str(tmp_path / "obs.jsonl") if tmp_path is not None else None
    machine = Machine(num_nodes=4, seed=3)
    obs = machine.enable_obs(ObsConfig(cadence_us=cadence, jsonl_path=jsonl))
    _run_stream(machine)
    obs.sample_now()
    obs.close()
    return machine, obs


def test_registry_samples_on_the_virtual_cadence():
    machine, obs = _observed_machine()
    assert obs.samples_taken >= 2
    for name in ("sim.heap_depth", "net.packets", "net.link_utilization"):
        assert obs.series[name].points, name
    # Sample times are strictly increasing and within the run.
    times = [t for t, _v in obs.series["sim.heap_depth"].points]
    assert times == sorted(times)
    assert times[-1] <= machine.now
    # The final forced sample caught the drained end state.
    assert obs.series["net.packets"].points[-1][1] == float(
        machine.stats.counter_value("net.packets")
    )


def test_enable_obs_is_idempotent():
    machine = Machine(num_nodes=4, seed=3)
    first = machine.enable_obs(ObsConfig(cadence_us=10.0))
    second = machine.enable_obs(ObsConfig(cadence_us=99.0))
    assert first is second
    assert first.config.cadence_us == 10.0
    assert machine.sim.observers == [first]


def test_duplicate_probe_name_is_rejected():
    machine = Machine(num_nodes=4, seed=3)
    obs = machine.enable_obs()
    with pytest.raises(ValueError):
        obs.add_probe("sim.heap_depth", lambda: 0.0)


def test_scrape_is_prometheus_shaped():
    _machine, obs = _observed_machine()
    text = obs.scrape()
    lines = text.strip().split("\n")
    sample_re = re.compile(r"^repro_[a-z0-9_]+ -?[0-9.e+-]+$")
    for line in lines:
        assert (
            line.startswith("# HELP ")
            or line.startswith("# TYPE ")
            or sample_re.match(line)
        ), line
    # Every registered series appears, correctly typed, plus the
    # scrape's own sample counter.
    assert "# TYPE repro_net_packets counter" in text
    assert "# TYPE repro_sim_heap_depth gauge" in text
    assert re.search(r"^repro_obs_samples [1-9]", text, re.M)
    assert re.search(r"^repro_net_packets [1-9]", text, re.M)


def test_jsonl_stream_round_trips(tmp_path):
    _machine, obs = _observed_machine(tmp_path)
    rows = [
        json.loads(line)
        for line in (tmp_path / "obs.jsonl").read_text().splitlines()
    ]
    assert len(rows) == obs.samples_taken
    for row in rows:
        assert set(row) == {"t_us", "metrics"}
        assert "sim.heap_depth" in row["metrics"]
    assert rows[-1]["metrics"]["net.packets"] == float(
        _machine.stats.counter_value("net.packets")
    )


def test_series_doc_shape():
    _machine, obs = _observed_machine()
    doc = obs.series_doc()
    assert doc["schema"] == 1
    assert doc["samples"] == obs.samples_taken
    for name, series in doc["series"].items():
        assert series["kind"] in ("gauge", "counter"), name
        assert series["offered"] >= len(series["points"])


def test_default_counter_probes_exist_in_the_stats_registry():
    machine, _obs = _observed_machine()
    # The default probe list names real counters: after a VMMC stream at
    # least the network and vmmc ones must have moved.
    snapshot = machine.stats.snapshot()
    for name in ("net.packets", "net.bytes", "rx.packets"):
        assert name in DEFAULT_COUNTER_PROBES
        assert snapshot.get(name, 0) > 0


# -- profiler ------------------------------------------------------------


def _e2e_layers():
    """The layer names ``benchmarks/e2e/layers.py`` reports."""
    import importlib.util
    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "e2e", "layers.py"
    )
    spec = importlib.util.spec_from_file_location("e2e_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _repro_path(*parts):
    import os

    import repro

    return os.path.join(os.path.dirname(repro.__file__), *parts)


def test_classify_path_maps_components():
    # A frame's component is its repro/<package>/ name.
    assert classify_path(_repro_path("sim", "engine.py")) == "sim"
    assert classify_path(_repro_path("nic", "fifo.py")) == "nic"
    assert classify_path(_repro_path("serve", "cluster.py")) == "serve"
    assert classify_path(_repro_path("fleet", "workloads.py")) == "fleet"
    # Unclassified packages, files outside a package and foreign frames
    # classify to None; the profiler buckets a sample as "other" only
    # after the whole stack misses.
    assert classify_path(_repro_path("telemetry", "spans.py")) is None
    assert classify_path(_repro_path("__init__.py")) is None
    assert classify_path("/x/repro/examples/quickstart.py") is None
    assert classify_path("/usr/lib/python3/threading.py") is None


def test_every_package_is_classified_or_explicitly_excluded():
    import os

    from repro.obs.profile import UNCLASSIFIED

    root = _repro_path()
    packages = {
        name for name in os.listdir(root)
        if os.path.isfile(os.path.join(root, name, "__init__.py"))
    }
    assert set(UNCLASSIFIED) <= packages, "dead UNCLASSIFIED entries"
    components = set()
    for package in packages:
        found = classify_path(_repro_path(package, "module.py"))
        assert found == (None if package in UNCLASSIFIED else package)
        if found is not None:
            components.add(found)
    # One vocabulary: every e2e layer is a profiler component.
    assert set(_e2e_layers()) <= components


def test_profiler_attributes_a_perf_run():
    from repro.fleet import make_spec
    from repro.fleet.workloads import resolve_workload

    spec = make_spec("ping", nodes=4, ops=200)
    profiler = SamplingProfiler(interval_s=0.001)
    with profiler:
        resolve_workload(spec.workload).run(spec)
    assert profiler.total_samples >= 1
    attribution = profiler.attribution()
    assert attribution
    # Fractions are a partition of the samples: they sum to 1 exactly
    # (the "other" bucket absorbs unmatched frames).
    assert sum(attribution.values()) == pytest.approx(1.0)
    simulator = sum(
        share for comp, share in attribution.items() if comp != "other"
    )
    assert simulator >= 0.9
    largest = max(attribution, key=attribution.get)
    assert largest in _e2e_layers()
    report = profiler.report("t")
    assert "samples" in report


# -- renderer ------------------------------------------------------------


def test_svg_chart_renders_polylines():
    svg = svg_chart(
        {"a": [(0.0, 1.0), (1.0, 3.0)], "b": [(0.0, 2.0), (1.0, 0.5)]},
        title="t", x_label="x", y_label="y",
    )
    assert svg.count("<polyline") == 2
    assert "<svg" in svg and "</svg>" in svg


def test_render_series_target(tmp_path):
    _machine, obs = _observed_machine()
    path = tmp_path / "series.json"
    path.write_text(json.dumps(obs.series_doc()))
    from repro.obs.html import render_target

    kind, page = render_target(str(path))
    assert kind == "series"
    assert page.lstrip().startswith("<!DOCTYPE html>")
    assert "<svg" in page
    assert "net.packets" in page


def test_render_store_target(tmp_path):
    from repro.fleet.catalog import load_catalog
    from repro.fleet.runner import run_specs
    from repro.fleet.store import RunStore
    from repro.obs.html import render_target

    store = RunStore(str(tmp_path / "runs"))
    catalog = load_catalog("smoke")
    outcomes = run_specs(catalog.specs[:2], store)
    assert all(o.status == "ran" for o in outcomes)
    kind, page = render_target(str(tmp_path / "runs"))
    assert kind == "store"
    assert "<svg" in page
    # Run list and at least one attribution table made it in.
    for outcome in outcomes:
        assert outcome.fingerprint[:12] in page
    assert "attribution" in page.lower()


def test_fleet_progress_events(tmp_path):
    from repro.fleet.catalog import load_catalog
    from repro.fleet.runner import run_specs
    from repro.fleet.store import RunStore

    store = RunStore(str(tmp_path / "runs"))
    specs = load_catalog("smoke").specs[:2]
    events = []
    run_specs(specs, store, progress=events.append)
    starts = [e for e in events if e[0] == "start"]
    dones = [e for e in events if e[0] == "done"]
    assert len(starts) == 2 and len(dones) == 2
    assert all(status == "ran" for _k, _fp, status in dones)
    # Second pass: all cache hits, reported as lone done events.
    events.clear()
    run_specs(specs, store, progress=events.append)
    assert [e[2] for e in events] == ["cached", "cached"]


# -- bounded telemetry retention ----------------------------------------


def test_timeline_cap_bounds_and_preserves_endpoints():
    from repro.telemetry.metrics import Timeline

    capped = Timeline("x", cap=16)
    exact = Timeline("x")
    for i in range(5000):
        capped.record(float(i), float(i % 7))
        exact.record(float(i), float(i % 7))
    assert len(exact.points) == 5000
    assert len(capped.points) <= 16
    assert capped.points[0] == exact.points[0]
    assert capped.last_value == exact.last_value
    with pytest.raises(ValueError):
        Timeline("bad", cap=7)


def test_telemetry_timeline_cap_threads_through():
    machine = Machine(num_nodes=4, seed=3, telemetry=False)
    telemetry = machine.enable_telemetry(timeline_cap=32)
    timeline = telemetry.timeline("t.test")
    assert timeline.cap == 32
    uncapped = Machine(num_nodes=4, seed=3, telemetry=True)
    assert uncapped.telemetry.timeline("t.test").cap is None


def test_gauge_history_is_bounded():
    from repro.telemetry.metrics import Gauge

    gauge = Gauge("g", history=8)
    for i in range(100):
        gauge.set(float(i))
    assert list(gauge.history) == [float(i) for i in range(92, 100)]
    assert gauge.max == 99.0
    assert Gauge("plain").history is None
