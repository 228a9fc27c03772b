"""Tests for the continuous benchmark harness (repro.bench)."""

import copy
import json

import pytest

from repro.bench import (
    REGISTRY,
    bootstrap_median_diff,
    compare_docs,
    load_bench,
    render_comparison,
    render_summary,
    run_benchmarks,
    select,
    write_bench,
)
from repro.bench import (
    PERF_REGISTRY,
    PerfResult,
    load_perf,
    render_perf,
    render_perf_comparison,
    run_perf,
    select_perf,
    write_perf,
)
from repro.bench.__main__ import main
from repro.telemetry.critpath import COMPONENTS

TOL = 1e-6


@pytest.fixture(scope="module")
def doc():
    """One small, real bench document shared by the read-only tests."""
    return run_benchmarks(
        "t", names=["du_ping_word", "du_bulk_bandwidth"], seeds=[1998, 1999]
    )


# -- registry and document shape ------------------------------------------


def test_registry_has_curated_set():
    assert {
        "du_word_latency", "du_bulk_bandwidth", "du_ping_word",
        "du_fanin_4k", "rel_ping_lossy", "radix_vmmc_du",
    } <= set(REGISTRY)
    from repro.bench.workloads import BENCHMARKS

    assert len(REGISTRY) == len(BENCHMARKS)  # entry names are unique


def test_select_quick_excludes_apps_and_validates_names():
    quick = {spec.name for spec in select(quick=True)}
    assert "du_ping_word" in quick
    assert "radix_vmmc_du" not in quick
    with pytest.raises(ValueError, match="no_such_bench"):
        select(names=["no_such_bench"])


def test_run_benchmarks_document_shape(doc):
    assert doc["schema"] == 1
    assert doc["label"] == "t"
    assert doc["seeds"] == [1998, 1999]
    assert "version" in doc["meta"] and "params" in doc["meta"]
    entry = doc["benchmarks"]["du_ping_word"]
    assert entry["unit"] == "us"
    assert entry["higher_is_better"] is False
    assert entry["min"] <= entry["median"] <= entry["max"]
    assert len(entry["samples"]) > 1
    bw = doc["benchmarks"]["du_bulk_bandwidth"]
    assert bw["higher_is_better"] is True


def test_ping_benchmark_carries_attribution(doc):
    entry = doc["benchmarks"]["du_ping_word"]
    assert entry["ops"] > 0
    assert set(entry["attribution"]) == set(COMPONENTS)
    # Shares are a probability vector over the components.
    assert sum(entry["attribution_share"].values()) == pytest.approx(
        1.0, abs=TOL
    )
    # Mean attribution per op sums to the mean critical-path total, which
    # for a ping equals the mean operation latency (samples exclude each
    # sender's warm-up op, so allow the small resulting skew).
    per_op_total = sum(entry["attribution"].values())
    assert per_op_total == pytest.approx(entry["mean"], rel=0.35)


def test_runs_are_deterministic(doc):
    again = run_benchmarks(
        "t", names=["du_ping_word", "du_bulk_bandwidth"], seeds=[1998, 1999]
    )
    assert again == doc


def test_write_load_roundtrip_creates_parent_dirs(doc, tmp_path):
    path = tmp_path / "deep" / "nested" / "BENCH_t.json"
    write_bench(doc, str(path))
    assert load_bench(str(path)) == doc


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "benchmarks": {}}))
    with pytest.raises(ValueError, match="schema"):
        load_bench(str(path))


def test_render_summary(doc):
    text = render_summary(doc)
    assert "du_ping_word" in text
    assert "median" in text


# -- regression detection -------------------------------------------------


def test_bootstrap_identical_samples_gives_zero_ci():
    samples = [10.0, 11.0, 12.0, 10.5, 11.5]
    point, lo, hi = bootstrap_median_diff(samples, samples)
    assert point == lo == hi == 0.0


def test_bootstrap_shifted_samples_excludes_zero():
    base = [10.0 + 0.01 * i for i in range(20)]
    new = [value * 1.2 for value in base]
    point, lo, hi = bootstrap_median_diff(base, new)
    assert point == pytest.approx(2.0, rel=0.1)
    assert lo > 0.0


def test_bootstrap_rejects_empty():
    with pytest.raises(ValueError):
        bootstrap_median_diff([], [])


def _scaled(doc, name, factor):
    worse = copy.deepcopy(doc)
    entry = worse["benchmarks"][name]
    entry["samples"] = [value * factor for value in entry["samples"]]
    entry["median"] *= factor
    entry["mean"] *= factor
    return worse


def test_compare_identical_is_clean(doc):
    comparison = compare_docs(doc, doc)
    assert [d.verdict for d in comparison.deltas] == ["ok", "ok"]
    assert not comparison.regressions and not comparison.improvements


def test_compare_flags_latency_regression(doc):
    comparison = compare_docs(_scaled(doc, "du_ping_word", 1.2), doc)
    (delta,) = comparison.regressions
    assert delta.name == "du_ping_word"
    assert delta.rel == pytest.approx(0.2, abs=1e-9)
    assert delta.ci_lo > 0.0
    # Latency up on the same doc is an improvement in the other direction.
    flipped = compare_docs(doc, _scaled(doc, "du_ping_word", 1.2))
    assert [d.name for d in flipped.improvements] == ["du_ping_word"]


def test_compare_respects_higher_is_better(doc):
    # Bandwidth going DOWN is the regression.
    comparison = compare_docs(_scaled(doc, "du_bulk_bandwidth", 0.8), doc)
    assert [d.name for d in comparison.regressions] == ["du_bulk_bandwidth"]
    up = compare_docs(_scaled(doc, "du_bulk_bandwidth", 1.2), doc)
    assert [d.name for d in up.improvements] == ["du_bulk_bandwidth"]


def test_compare_below_threshold_is_ok(doc):
    # A 2% shift is real (CI excludes zero) but under the 5% gate.
    comparison = compare_docs(_scaled(doc, "du_ping_word", 1.02), doc)
    assert not comparison.regressions


def test_compare_reports_disjoint_benchmarks(doc):
    partial = copy.deepcopy(doc)
    del partial["benchmarks"]["du_bulk_bandwidth"]
    comparison = compare_docs(partial, doc)
    assert comparison.only_in_base == ["du_bulk_bandwidth"]
    assert len(comparison.deltas) == 1


def test_render_comparison_shows_attribution_shift(doc):
    worse = _scaled(doc, "du_ping_word", 1.3)
    entry = worse["benchmarks"]["du_ping_word"]
    entry["attribution"] = {
        key: value * 1.3 for key, value in entry["attribution"].items()
    }
    comparison = compare_docs(worse, doc)
    text = render_comparison(comparison)
    assert "REGRESSION" in text
    assert "where the microseconds moved" in text
    assert "1 regression(s)" in text


# -- CLI ------------------------------------------------------------------


def test_cli_run_and_compare(tmp_path, capsys):
    out = tmp_path / "sub" / "BENCH_a.json"
    rc = main([
        "run", "--label", "a", "--bench", "du_ping_word",
        "--repeats", "1", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    assert f"wrote {out}" in capsys.readouterr().out

    rc = main(["compare", str(out), str(out)])
    assert rc == 0
    assert "0 regression(s)" in capsys.readouterr().out


def test_cli_compare_fail_on_regression(tmp_path, capsys):
    doc = run_benchmarks("b", names=["du_ping_word"], seeds=[1998])
    base = tmp_path / "base.json"
    write_bench(doc, str(base))
    worse_path = tmp_path / "worse.json"
    write_bench(_scaled(doc, "du_ping_word", 1.5), str(worse_path))

    rc = main(["compare", str(worse_path), str(base)])
    assert rc == 0  # report-only by default

    rc = main([
        "compare", str(worse_path), str(base),
        "--fail-on-regression", "--github-annotations",
    ])
    assert rc == 1
    captured = capsys.readouterr().out
    assert "::warning title=bench regression::du_ping_word" in captured


# -- wall-clock perf mode ---------------------------------------------------


def test_perf_registry_covers_engine_system_scaling_families():
    assert {
        "engine_ring", "engine_timeouts", "queue_handoff",
        "resource_contention", "du_ping", "fanin_15",
        "scaling_256_w1", "scaling_256_w2", "scaling_256_w4",
    } == set(PERF_REGISTRY)
    families = {spec.family for spec in PERF_REGISTRY.values()}
    assert families == {"engine", "system", "scaling"}
    assert PERF_REGISTRY["du_ping"].family == "system"
    assert PERF_REGISTRY["scaling_256_w4"].family == "scaling"
    with pytest.raises(ValueError, match="no_such_perf"):
        select_perf(names=["no_such_perf"])


def test_perf_runner_returns_timed_result():
    result = PERF_REGISTRY["engine_ring"].runner(500)
    assert isinstance(result, PerfResult)
    assert result.events > 0
    assert result.elapsed_s > 0
    assert result.events_per_sec > 0
    assert result.ops == 500


def test_perf_system_runner_counts_packets():
    result = PERF_REGISTRY["du_ping"].runner(5)
    assert result.packets > 0
    assert result.packets_per_sec > 0
    assert result.sim_time_us > 0


@pytest.fixture(scope="module")
def perf_doc():
    """A tiny real perf document shared by the read-only perf tests."""
    return run_perf("t", names=["engine_ring", "du_ping"], repeats=1, quick=True)


def test_run_perf_document_shape(perf_doc):
    assert perf_doc["kind"] == "perf"
    assert perf_doc["schema"] == 2
    assert {"python", "implementation", "platform"} <= set(perf_doc["host"])
    ring = perf_doc["benchmarks"]["engine_ring"]
    assert ring["family"] == "engine"
    assert ring["events_per_sec"] > 0
    assert "packets_per_sec" not in ring
    stats = ring["stats"]
    assert stats["repeats"] == 1
    assert len(stats["samples_events_per_sec"]) == 1
    assert stats["ci95_lo"] <= ring["events_per_sec"] <= stats["ci95_hi"]
    assert stats["min"] <= stats["mean"] <= stats["max"]
    ping = perf_doc["benchmarks"]["du_ping"]
    assert ping["family"] == "system"
    assert ping["packets_per_sec"] > 0


def test_perf_write_load_roundtrip_and_kind_guard(perf_doc, tmp_path):
    path = tmp_path / "PERF_t.json"
    write_perf(perf_doc, str(path))
    assert load_perf(str(path)) == perf_doc
    # A virtual-time BENCH document must be rejected by the perf loader:
    # the two regimes are never comparable.
    bench_path = tmp_path / "BENCH_t.json"
    bench_path.write_text(json.dumps({"schema": 1, "benchmarks": {}}))
    with pytest.raises(ValueError, match="not a readable perf document"):
        load_perf(str(bench_path))


def test_render_perf_and_comparison(perf_doc):
    table = render_perf(perf_doc)
    assert "engine_ring" in table and "events/s" in table
    comparison = render_perf_comparison(perf_doc, perf_doc)
    assert "1.00x" in comparison


def test_cli_perf_writes_perf_file_not_bench(tmp_path, capsys):
    out = tmp_path / "PERF_ci.json"
    rc = main([
        "perf", "--label", "ci", "--quick", "--repeats", "1",
        "--bench", "engine_ring", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    doc = load_perf(str(out))
    assert doc["label"] == "ci" and doc["quick"] is True
    # The host-dependent mode must never produce BENCH_* artifacts.
    assert not list(tmp_path.glob("BENCH_*"))
    assert f"wrote {out}" in capsys.readouterr().out


def test_bootstrap_ci_is_deterministic_and_brackets_median():
    from repro.bench import bootstrap_ci

    samples = [100.0, 104.0, 98.0, 110.0, 102.0]
    lo1, hi1 = bootstrap_ci(samples)
    lo2, hi2 = bootstrap_ci(samples)
    assert (lo1, hi1) == (lo2, hi2)
    assert lo1 <= 102.0 <= hi1
    assert min(samples) <= lo1 and hi1 <= max(samples)
    # Single sample: the interval collapses to a point.
    assert bootstrap_ci([7.0]) == (7.0, 7.0)
    with pytest.raises(ValueError, match="no samples"):
        bootstrap_ci([])


def test_run_perf_kalibera_stats_across_repeats():
    doc = run_perf("t", names=["engine_ring"], repeats=3, quick=True)
    stats = doc["benchmarks"]["engine_ring"]["stats"]
    assert stats["repeats"] == 3
    assert len(stats["samples_events_per_sec"]) == 3
    assert stats["min"] <= doc["benchmarks"]["engine_ring"]["events_per_sec"]
    assert doc["benchmarks"]["engine_ring"]["events_per_sec"] <= stats["max"]
    assert stats["ci95_lo"] <= stats["ci95_hi"]


def test_run_perf_scaling_family_reports_speedup():
    doc = run_perf(
        "t", names=["scaling_256_w1", "scaling_256_w2"], repeats=1, quick=True
    )
    w1 = doc["benchmarks"]["scaling_256_w1"]
    w2 = doc["benchmarks"]["scaling_256_w2"]
    # The determinism contract: both worker counts simulate the same run.
    assert w1["events"] == w2["events"]
    assert w1["packets"] == w2["packets"]
    assert "speedup_vs_w1" not in w1
    assert w2["speedup_vs_w1"] == pytest.approx(
        w2["events_per_sec"] / w1["events_per_sec"]
    )
    table = render_perf(doc)
    assert "vs w1" in table and "(baseline)" in table


def test_load_perf_accepts_schema1_documents(tmp_path):
    legacy = {
        "schema": 1,
        "kind": "perf",
        "label": "old",
        "benchmarks": {
            "engine_ring": {
                "family": "engine",
                "events": 10,
                "elapsed_s": 0.1,
                "events_per_sec": 100.0,
            }
        },
        "host": {"python": "3", "implementation": "C", "platform": "x"},
    }
    path = tmp_path / "PERF_old.json"
    path.write_text(json.dumps(legacy))
    doc = load_perf(str(path))
    # Schema-1 docs render (no CI column data) and compare against new docs.
    assert "engine_ring" in render_perf(doc)
    new = run_perf("new", names=["engine_ring"], repeats=1, quick=True)
    assert "engine_ring" in render_perf_comparison(new, doc)


def test_cli_perf_baseline_prints_speedup(tmp_path, capsys):
    first = tmp_path / "PERF_before.json"
    second = tmp_path / "PERF_after.json"
    args = ["perf", "--quick", "--repeats", "1", "--bench", "engine_ring"]
    assert main(args + ["--label", "before", "--out", str(first)]) == 0
    capsys.readouterr()
    rc = main(
        args
        + ["--label", "after", "--out", str(second), "--baseline", str(first)]
    )
    assert rc == 0
    assert "Perf speedup: after vs before" in capsys.readouterr().out
