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
