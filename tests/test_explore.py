"""Tests for the cross-run results explorer over the fleet run store.

A small store (the published host-vs-NIC collective comparison at 4
nodes plus a scaling point) is built once per module; every command is
then exercised as a library call and through the CLI entry point,
including the reference resolver's three forms (fingerprint prefix,
spec query, BENCH baseline file) and their ambiguity errors.
"""

import json

import pytest

from repro.explore import (
    attr_diff,
    compare_refs,
    drill,
    list_table,
    resolve,
    show_record,
    trend_table,
)
from repro.explore.__main__ import main as explore_main
from repro.fleet import RunStore, make_spec, run_specs

SPEC_NX = make_spec("coll", nodes=4, mode="nx", ops=4)
SPEC_NIC = make_spec("coll", nodes=4, mode="tree-nic", ops=4)
SPEC_NIC8 = make_spec("coll", nodes=8, mode="tree-nic", ops=4)
SPEC_REPORT = make_spec("monitor", scenario="outage")


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("explore") / "runs"
    store = RunStore(str(root))
    outcomes = run_specs(
        [SPEC_NX, SPEC_NIC, SPEC_NIC8, SPEC_REPORT], store
    )
    assert all(o.status == "ran" for o in outcomes)
    return store


# -- resolver ------------------------------------------------------------


def test_resolve_by_fingerprint_prefix(store):
    full = SPEC_NX.fingerprint
    resolved = resolve(store, full[:6])
    assert resolved.fingerprint == full
    assert resolved.name == "coll"
    assert resolved.entry["samples"]


def test_resolve_by_spec_query(store):
    resolved = resolve(store, "workload=coll,mode=nx,nodes=4")
    assert resolved.fingerprint == SPEC_NX.fingerprint
    # Whitespace-tolerant; param and field clauses mix freely.
    same = resolve(store, " mode=nx , workload=coll , nodes=4 ")
    assert same.fingerprint == resolved.fingerprint


def test_resolve_by_bench_baseline_file(store):
    ref = "benchmarks/baseline/BENCH_seed.json#du_ping_word"
    resolved = resolve(store, ref)
    assert resolved.record is None
    assert resolved.name == "du_ping_word"
    assert resolved.entry["unit"] == "us"


def test_resolver_errors(store):
    with pytest.raises(ValueError, match="ambiguous"):
        resolve(store, "workload=coll")  # three coll records
    with pytest.raises(ValueError, match="no stored record matches"):
        resolve(store, "workload=coll,mode=flooded")
    with pytest.raises(ValueError, match="no stored record fingerprint"):
        resolve(store, "zzzz")
    with pytest.raises(ValueError, match="bad query clause"):
        resolve(store, "workload=coll,nonsense")
    with pytest.raises(ValueError, match="pick one"):
        resolve(store, "benchmarks/baseline/BENCH_seed.json")
    with pytest.raises(ValueError, match="no benchmark"):
        resolve(store, "benchmarks/baseline/BENCH_seed.json#nope")


# -- list / show ---------------------------------------------------------


def test_list_table_shows_every_record(store):
    text = list_table(store)
    for spec in (SPEC_NX, SPEC_NIC, SPEC_NIC8, SPEC_REPORT):
        assert spec.fingerprint in text
    assert "INVALID" not in text
    assert "4 records" in text


def test_list_table_calls_out_invalid_records(store, tmp_path):
    # Copy one record into a fresh store and corrupt it.
    import shutil

    other = RunStore(str(tmp_path / "runs"))
    shutil.copytree(
        store.run_dir(SPEC_NX.fingerprint),
        other.run_dir(SPEC_NX.fingerprint),
    )
    with open(other.record_path(SPEC_NX.fingerprint), "w") as fh:
        fh.write("{ truncated")
    text = list_table(other)
    assert "INVALID" in text and SPEC_NX.fingerprint in text


def test_show_record_renders_spec_stats_and_attribution(store):
    text = show_record(store, SPEC_NX.fingerprint)
    assert f"Record {SPEC_NX.fingerprint}" in text
    assert '"workload": "coll"' in text
    assert "monitor: healthy" in text
    assert "samples: n=" in text
    assert "Critical-path attribution" in text
    assert "cpu" in text


def test_show_report_only_record(store):
    text = show_record(store, SPEC_REPORT.fingerprint)
    assert "no samples (report-only record; see drill)" in text


# -- compare / attr-diff -------------------------------------------------


def test_compare_refs_paired_bootstrap(store):
    comparison = compare_refs(
        store,
        "workload=coll,mode=nx,nodes=4",
        "workload=coll,mode=tree-nic,nodes=4",
        n_boot=200,
    )
    assert len(comparison.deltas) == 1
    delta = comparison.deltas[0]
    assert delta.name == "coll"
    # The NIC tree is faster than host dissemination at any scale.
    assert delta.new_median < delta.base_median


def test_attr_diff_recovers_cpu_share_collapse(store):
    text = attr_diff(
        store,
        "workload=coll,mode=nx,nodes=4",
        "workload=coll,mode=tree-nic,nodes=4",
    )
    assert "Attribution shift" in text
    assert "cpu" in text and "d pp" in text
    assert "total critical path:" in text
    # The headline mover: cpu share falls when the barrier moves onto
    # the NIC (the paper's collapse, here at the 4-node test scale).
    assert "cpu share" in text
    head = next(
        line for line in text.splitlines() if line.startswith("cpu share")
    )
    base_pct = float(head.split()[2].rstrip("%"))
    new_pct = float(head.split()[4].rstrip("%"))
    assert new_pct < base_pct


def test_attr_diff_rejects_report_only_records(store):
    with pytest.raises(ValueError, match="no attribution|no samples"):
        attr_diff(store, SPEC_REPORT.fingerprint, SPEC_NX.fingerprint)


# -- trend / drill -------------------------------------------------------


def test_trend_table_one_series_per_leftover_knob_combo(store):
    text = trend_table(store, "coll", x="nodes")
    assert "Trend: coll median" in text
    assert "mode=nx" in text and "mode=tree-nic" in text
    with pytest.raises(ValueError, match="no records"):
        trend_table(store, "serve")


def test_trend_table_filters(store):
    text = trend_table(store, "coll", x="nodes",
                       filters={"mode": "tree-nic"})
    assert "mode=nx" not in text


def test_drill_resolves_artifacts(store):
    text = drill(store, SPEC_NX.fingerprint)
    assert "trace.json" in text
    assert "chrome://tracing" in text
    report = drill(store, SPEC_REPORT.fingerprint)
    assert "report.txt" in report and "DeliveryFailed" in report
    with pytest.raises(ValueError, match="not a stored run"):
        drill(store, "benchmarks/baseline/BENCH_seed.json#du_ping_word")


# -- CLI -----------------------------------------------------------------


def test_cli_compare_json_and_exit_codes(store, tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code = explore_main([
        "--store", store.root, "compare",
        "workload=coll,mode=nx,nodes=4",
        "workload=coll,mode=tree-nic,nodes=4",
        "--boot", "200", "--json", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "coll" in text and f"wrote {out}" in text
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["kind"] == "bench-comparison"
    assert doc["summary"]["compared"] == 1
    assert doc["deltas"][0]["attribution_shift"]

    assert explore_main(["--store", store.root, "list"]) == 0
    assert "coll" in capsys.readouterr().out

    code = explore_main(["--store", store.root, "show", "zzzz"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
