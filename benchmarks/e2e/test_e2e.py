"""Self-tests of the end-to-end benchmark harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import os
import re

import pytest

import harness
from layers import EXCLUDED, HARNESS, LAYERS, attribute
from workloads import Serve, Stream, Suite

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _small_stream():
    return Stream(messages=30, du_senders=2, au_senders=2)


def test_every_package_is_a_layer_or_an_exclusion():
    src = os.path.join(ROOT, "src", "repro")
    packages = {
        name for name in os.listdir(src)
        if os.path.isfile(os.path.join(src, name, "__init__.py"))
    }
    assert not set(LAYERS) & set(EXCLUDED)
    assert packages == set(LAYERS) | set(EXCLUDED)


def test_builtins_fold_into_the_calling_layer():
    sim = ("/x/src/repro/sim/engine.py", 1, "run")
    nic = ("/x/src/repro/nic/dma.py", 1, "engine")
    nic_helper = ("/x/src/repro/nic/fifo.py", 1, "push")
    serve = ("/x/src/repro/serve/cluster.py", 1, "complete")
    hist = ("/x/src/repro/telemetry/metrics.py", 1, "add")
    length = ("~", 0, "<built-in method builtins.len>")
    heap = ("/usr/lib/python3/heapq.py", 1, "merge")
    disable = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        # func: (cc, nc, tottime, cumtime, {caller: (cc, nc, tt, ct)})
        sim: (10, 10, 1.0, 5.0, {}),
        nic: (4, 4, 2.0, 3.0, {sim: (4, 4, 2.0, 3.0)}),
        nic_helper: (8, 8, 0.5, 0.5, {nic: (8, 8, 0.5, 0.5)}),
        serve: (3, 3, 0.1, 0.2, {}),
        hist: (3, 3, 0.25, 0.25, {serve: (3, 3, 0.25, 0.25)}),
        length: (6, 6, 0.6, 0.6, {sim: (2, 2, 0.2, 0.2), nic: (4, 4, 0.4, 0.4)}),
        heap: (1, 1, 0.3, 0.3, {length: (1, 1, 0.3, 0.3)}),
        disable: (1, 1, 0.05, 0.05, {}),
    }
    out = attribute(stats)
    assert out["sim"]["self_s"] == pytest.approx(1.0 + 0.2 + 0.3 * 0.2 / 0.6)
    assert out["nic"]["self_s"] == pytest.approx(2.0 + 0.5 + 0.4 + 0.3 * 0.4 / 0.6)
    assert out["serve"]["self_s"] == pytest.approx(0.1 + 0.25)
    assert out[HARNESS]["self_s"] == pytest.approx(0.05)
    total = sum(row["self_s"] for row in out.values())
    assert total == pytest.approx(sum(entry[2] for entry in stats.values()))
    # Calls count the layer's own functions; in_calls those from outside.
    assert out["nic"]["calls"] == 12 and out["nic"]["in_calls"] == 4
    assert out["sim"]["calls"] == 10 and out["sim"]["in_calls"] == 10
    assert out["serve"]["calls"] == 3 and "telemetry" not in out
    assert out["hardware"] == {"self_s": 0.0, "calls": 0, "in_calls": 0}


def test_summaries_give_median_quartiles_and_count():
    assert harness.summarize([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5,
    }
    assert harness.summarize([2.0]) == {
        "median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1,
    }


def test_declared_metrics_match_the_harness():
    end_to_end, per_layer = _declared()
    assert end_to_end == harness.END_TO_END
    assert per_layer == harness.PER_LAYER
    assert len(per_layer) == 46
    for name in list(end_to_end) + list(per_layer):
        assert NAME.match(name), name


@pytest.mark.parametrize("trace", [False, True])
def test_reduced_stream_passes_and_emits_declared_metrics(trace):
    result = harness.measure(_small_stream(), seed=3, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 120 * (3 if trace else 6)
    declared = _declared()[1 if trace else 0]
    assert set(result["metrics"]) == set(declared)
    for name, record in result["metrics"].items():
        assert record["unit"] == declared[name]
    if trace:
        metrics = result["metrics"]
        assert metrics["nic.calls"]["value"] > 0
        assert metrics["apps.calls"]["value"] == 0
        assert metrics["sim.events"]["value"] > 0
    else:
        assert result["detail"]["metrics"]["run_s"]["n"] == 5


def test_reduced_serve_slice_passes_its_checks():
    result = harness.measure(Serve(duration_us=5_000.0), seed=3)
    assert result["correct"] and result["failed"] == 0
    assert result["detail"]["check"] == "internal"
    assert result["metrics"]["ops_per_s"]["value"] > 0


def test_reduced_suite_passes_its_checks():
    result = harness.measure(Suite(items=[("Radix-VMMC", "au", 4)]), seed=3)
    assert result["correct"] and result["attempted"] == 3


def test_tampered_reference_fails_every_op(tmp_path, monkeypatch, capsys):
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"stream": {"5": {"slice": "0" * 64}}}))
    monkeypatch.setattr(harness, "REFERENCE_PATH", str(reference))
    monkeypatch.setitem(harness.WORKLOADS, "stream", _small_stream())
    status = harness.main(["--workload", "stream", "--seed", "5"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert status != 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert json.loads(lines[-2])["check"] == "reference"
