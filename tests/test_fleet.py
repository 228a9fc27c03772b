"""Tests for the experiment fleet: specs, store, runner, resumability.

The load-bearing properties pinned here:

* fingerprints are stable content hashes — param order, construction
  order and JSON round-trips never change them;
* a fresh run and a cache hit yield **byte-identical** ``record.json``;
* a two-worker parallel fan-out produces the same records as a serial
  run of the same catalog;
* a corrupted or partially-written record is detected and re-run, never
  served.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

import repro

from repro.fleet import (
    BUILTIN_MATRICES,
    Catalog,
    ExperimentSpec,
    RunStore,
    StoreError,
    expand_matrix,
    load_catalog,
    make_spec,
    run_specs,
)
from repro.fleet.runner import build_record, execute_spec
from repro.fleet.workloads import resolve_workload, workload_names

# Small, fast specs reused across the module: the published comparison
# (host dissemination vs NIC-resident tree) shrunk to 4 nodes / 4 ops.
SPEC_NX = make_spec("coll", nodes=4, mode="nx", ops=4)
SPEC_NIC = make_spec("coll", nodes=4, mode="tree-nic", ops=4)


# -- specs and fingerprints ----------------------------------------------


def test_fingerprint_is_stable_and_param_order_invariant():
    a = make_spec("coll", nodes=16, mode="nx", ops=8)
    b = make_spec("coll", ops=8, mode="nx", nodes=16)
    assert a == b
    assert a.fingerprint == b.fingerprint
    assert len(a.fingerprint) == 16
    int(a.fingerprint, 16)  # hex
    # Different content, different identity.
    assert a.fingerprint != make_spec("coll", nodes=16, mode="nx").fingerprint
    assert a.fingerprint != make_spec(
        "coll", nodes=16, mode="nx", ops=8, seed=7
    ).fingerprint


def test_fingerprint_pinned_against_accidental_schema_drift():
    """The content hash is an on-disk identity (runs/<fp>/): changing the
    canonical JSON form silently orphans every stored run, so pin one."""
    spec = make_spec("coll", nodes=16, mode="nx", ops=8)
    assert spec.fingerprint == ExperimentSpec.from_json(
        spec.to_json()
    ).fingerprint
    blob = json.dumps(spec.to_json(), sort_keys=True)
    assert '"schema": 1' in blob
    assert '"workload": "coll"' in blob


def test_spec_round_trips_through_json():
    spec = make_spec(
        "ping", platform="myrinet", fault_plan="drop1", nodes=8, seed=7,
        nbytes=256, reliable=True,
    )
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    assert again.param("nbytes") == 256
    assert again.param("missing", "dflt") == "dflt"


def test_spec_rejects_unsorted_or_non_scalar_params():
    with pytest.raises(ValueError):
        ExperimentSpec(workload="coll", params=(("b", 1), ("a", 2)))
    with pytest.raises(ValueError):
        make_spec("coll", bad={"nested": 1})
    with pytest.raises(ValueError):
        ExperimentSpec.from_json({"schema": 99, "workload": "coll"})


# -- catalogs and matrices -----------------------------------------------


def test_smoke_matrix_expands_to_four_specs():
    catalog = load_catalog("smoke")
    assert catalog.name == "smoke"
    assert len(catalog) == 4
    cells = {(s.param("mode"), s.nodes) for s in catalog}
    assert cells == {
        ("nx", 8), ("nx", 16), ("tree-nic", 8), ("tree-nic", 16),
    }


def test_matrix_cross_product_and_explicit_specs(tmp_path):
    doc = {
        "name": "mixed",
        "matrix": {
            "workload": ["coll"],
            "params": [{"mode": "nx"}, {"mode": "tree-nic"}],
            "nodes": [4, 8],
            "seed": [1, 2],
        },
        "specs": [{"workload": "ping", "nodes": 4}],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    catalog = load_catalog(str(path))
    assert catalog.name == "mixed"
    assert len(catalog) == 2 * 2 * 2 + 1
    assert catalog.specs[-1].workload == "ping"


def test_catalog_dedups_by_fingerprint_and_bad_names_rejected():
    spec = make_spec("coll", nodes=4, mode="nx")
    same = make_spec("coll", mode="nx", nodes=4)
    assert len(Catalog(name="d", specs=[spec, same, SPEC_NIC])) == 2
    with pytest.raises(ValueError):
        load_catalog("no-such-matrix")
    with pytest.raises(ValueError):
        expand_matrix({"name": "empty"})


def test_builtin_matrices_and_workload_registry_expand():
    for name in BUILTIN_MATRICES:
        assert len(load_catalog(name)) > 0
    names = workload_names()
    assert "coll" in names and "ping" in names and "serve" in names
    with pytest.raises(ValueError):
        resolve_workload("no-such-workload")


# -- record building -----------------------------------------------------


def test_record_schema_and_sidecars(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    execute_spec(SPEC_NX, store)
    record = store.load(SPEC_NX.fingerprint)
    for key in ("schema", "fingerprint", "spec", "code_version", "workload",
                "unit", "metrics", "bench", "monitor", "artifacts"):
        assert key in record, key
    assert record["fingerprint"] == SPEC_NX.fingerprint
    assert record["bench"]["samples"], "per-op samples embedded"
    assert record["bench"]["attribution_share"]["cpu"] > 0.5
    assert record["monitor"]["healthy"] is True
    trace_path = store.artifact_path(record, "trace")
    assert trace_path and os.path.exists(trace_path)
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["otherData"]["label"] == f"coll@{SPEC_NX.fingerprint}"
    # No wall-clock anywhere: records must be pure functions of the spec.
    blob = json.dumps(record)
    assert "wall" not in blob and "timestamp" not in blob


def test_study_workload_produces_report_sidecar(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    spec = make_spec("study:micro", nodes=4)
    execute_spec(spec, store)
    record = store.load(spec.fingerprint)
    assert "bench" not in record  # report-only family: no samples
    report = store.artifact_path(record, "report")
    assert report and "latency" in open(report, encoding="utf-8").read()


# -- resumability and determinism ----------------------------------------


def _record_bytes(store, fingerprint):
    with open(store.record_path(fingerprint), "rb") as fh:
        return fh.read()


def test_fresh_run_then_cache_hit_is_byte_identical(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    first = run_specs([SPEC_NX], store)
    assert [o.status for o in first] == ["ran"]
    before = _record_bytes(store, SPEC_NX.fingerprint)

    second = run_specs([SPEC_NX], store)
    assert [o.status for o in second] == ["cached"]
    assert second[0].cached
    assert _record_bytes(store, SPEC_NX.fingerprint) == before

    # Even a forced re-execution reproduces the record byte-for-byte:
    # the run is virtual-time deterministic and carries no clock fields.
    forced = run_specs([SPEC_NX], store, force=True)
    assert [o.status for o in forced] == ["ran"]
    assert _record_bytes(store, SPEC_NX.fingerprint) == before


def test_two_worker_fanout_matches_serial_records(tmp_path):
    specs = [SPEC_NX, SPEC_NIC]
    serial = RunStore(str(tmp_path / "serial"))
    run_specs(specs, serial, workers=1)
    fanout = RunStore(str(tmp_path / "fanout"))
    outcomes = run_specs(specs, fanout, workers=2)
    assert [o.status for o in outcomes] == ["ran", "ran"]
    for spec in specs:
        assert _record_bytes(serial, spec.fingerprint) == _record_bytes(
            fanout, spec.fingerprint
        )


def test_corrupted_record_is_detected_and_rerun(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    run_specs([SPEC_NX], store)
    good = _record_bytes(store, SPEC_NX.fingerprint)
    path = store.record_path(SPEC_NX.fingerprint)

    # Truncation (the partial-write shape): invalid, re-run, not served.
    with open(path, "wb") as fh:
        fh.write(good[: len(good) // 2])
    assert store.status(SPEC_NX) == "invalid"
    assert [o.status for o in run_specs([SPEC_NX], store)] == ["reran"]
    assert _record_bytes(store, SPEC_NX.fingerprint) == good

    # Tampering (spec no longer hashes to the directory name): same.
    record = json.loads(good)
    record["spec"]["nodes"] = 99
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    assert store.status(SPEC_NX) == "invalid"
    with pytest.raises(StoreError):
        store.load(SPEC_NX.fingerprint)
    assert [o.status for o in run_specs([SPEC_NX], store)] == ["reran"]
    assert _record_bytes(store, SPEC_NX.fingerprint) == good

    # A missing sidecar also invalidates the record.
    trace = store.artifact_path(store.load(SPEC_NX.fingerprint), "trace")
    os.unlink(trace)
    assert store.status(SPEC_NX) == "invalid"
    assert [o.status for o in run_specs([SPEC_NX], store)] == ["reran"]
    assert os.path.exists(trace)


def test_missing_record_is_a_miss_not_an_error(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    assert store.status(SPEC_NX) == "miss"
    assert store.fingerprints() == []
    with pytest.raises(StoreError):
        store.load(SPEC_NX.fingerprint)


def test_duplicate_specs_collapse_and_errors_are_reported(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    bogus = make_spec("no-such-workload", nodes=4)
    outcomes = run_specs([SPEC_NX, SPEC_NX, bogus], store)
    assert len(outcomes) == 2  # duplicate collapsed
    by_status = {o.status for o in outcomes}
    assert by_status == {"ran", "error"}
    err = next(o for o in outcomes if o.status == "error")
    assert "no-such-workload" in err.error
    assert store.status(bogus) == "miss"  # nothing committed for the error


_KILLED_WORKER = textwrap.dedent(
    """
    import json, os, signal, sys

    from repro.fleet import RunStore, make_spec, run_specs
    from repro.fleet.workloads import WORKLOADS, FleetWorkload

    def die(spec):
        os.kill(os.getpid(), signal.SIGKILL)

    # The pool forks, so the workers inherit this registration.
    WORKLOADS["die"] = FleetWorkload("die", "SIGKILLs its process", die)
    killed = make_spec("die", nodes=4)
    specs = [make_spec("coll", nodes=4, mode="nx", ops=4), killed]
    report = []
    for name, progress in (("plain", None), ("progress", [])):
        store = RunStore(os.path.join(sys.argv[1], name))
        outcomes = run_specs(
            specs, store, workers=2,
            progress=None if progress is None else progress.append,
        )
        report.append({
            "fingerprints": [o.fingerprint for o in outcomes],
            "statuses": [o.status for o in outcomes],
            "killed_error": outcomes[1].error,
            "killed_store_status": store.status(killed),
            "killed_done": [
                e[2] for e in (progress or [])
                if e[0] == "done" and e[1] == killed.fingerprint
            ],
        })
    print(json.dumps(report))
    """
)


@pytest.mark.skipif(
    sys.platform != "linux", reason="the pool must fork to see the workload"
)
def test_killed_worker_fails_its_spec_instead_of_wedging_the_run(tmp_path):
    # A workload that SIGKILLs its own pool worker.  run_specs runs in a
    # child with a hard timeout, so a wedged pool fails this test rather
    # than hanging the suite.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    child = subprocess.Popen(
        [sys.executable, "-c", _KILLED_WORKER, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("run_specs wedged after a pool worker was killed")
    assert child.returncode == 0, err
    killed = make_spec("die", nodes=4)
    for run in json.loads(out.splitlines()[-1]):
        # Outcome order is the input order; the killed spec is an error
        # with the broken-pool text and committed no record.
        assert run["fingerprints"][1] == killed.fingerprint
        assert run["statuses"][1] == "error"
        assert run["statuses"][0] in ("ran", "error")
        assert "BrokenProcessPool" in run["killed_error"]
        assert run["killed_store_status"] == "miss"
    assert json.loads(out.splitlines()[-1])[1]["killed_done"] == ["error"]


def test_fault_plan_runs_trip_the_monitor(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    spec = make_spec("ping", nodes=2, fault_plan="drop1", reliable=True,
                     ops=4, nbytes=64)
    execute_spec(spec, store)
    record = store.load(spec.fingerprint)
    assert record["spec"]["fault_plan"] == "drop1"
    monitor = record["monitor"]
    if not monitor["healthy"]:
        assert store.artifact_path(record, "postmortem")


def test_build_record_embeds_bench_schema_entry():
    workload = resolve_workload("coll")
    result = workload.run(SPEC_NX)
    record, sidecars = build_record(SPEC_NX, result)
    entry = record["bench"]
    # Field-compatible with BENCH_* entries so the explorer can feed two
    # records straight into bench.compare.compare_docs.
    for key in ("unit", "higher_is_better", "samples", "median", "mean",
                "min", "max", "p95"):
        assert key in entry, key
    assert "trace.json" in sidecars


def test_stale_code_version_record_is_rerun_not_served(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    run_specs([SPEC_NX], store)
    good = _record_bytes(store, SPEC_NX.fingerprint)
    record = json.loads(good)
    record["code_version"] = "0.0.0"
    with open(store.record_path(SPEC_NX.fingerprint), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    assert store.status(SPEC_NX) == "invalid"
    with pytest.raises(StoreError, match="code version"):
        store.load(SPEC_NX.fingerprint)
    assert [o.status for o in run_specs([SPEC_NX], store)] == ["reran"]
    assert _record_bytes(store, SPEC_NX.fingerprint) == good


def test_record_from_edited_sources_is_stale(tmp_path):
    """``code_version`` hashes the package sources: the same version
    with one source byte changed must re-run, not serve, an older
    record."""
    import shutil

    from repro.fleet.store import code_version

    spec = make_spec("micro", measure="du_word_latency")
    store = RunStore(str(tmp_path / "runs"))
    run_specs([spec], store)
    assert code_version().startswith(repro.__version__ + "+")
    package = os.path.dirname(repro.__file__)
    copy = tmp_path / "src" / "repro"
    shutil.copytree(package, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "fleet" / "store.py", "a", encoding="utf-8") as fh:
        fh.write("#")
    script = textwrap.dedent(f"""
        import repro
        from repro.fleet import RunStore, make_spec, run_specs
        from repro.fleet.store import code_version
        assert repro.__file__.startswith({str(copy)!r}), repro.__file__
        spec = make_spec("micro", measure="du_word_latency")
        store = RunStore({store.root!r})
        print(code_version(), store.status(spec),
              run_specs([spec], store)[0].status)
    """)
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.split()
    assert out[0] != code_version()
    assert out[0].startswith(repro.__version__ + "+")
    assert out[1:] == ["invalid", "reran"]
    assert store.status(spec) == "invalid"  # now from the edited tree


# -- the workload registry -----------------------------------------------


def test_serve_workload_runs_through_execute_spec(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    spec = make_spec("serve", nodes=4, duration_us=1000.0)
    execute_spec(spec, store)
    record = store.load(spec.fingerprint)
    assert record["metrics"]["ok"] > 0
    assert record["bench"]["samples"]
    assert store.artifact_path(record, "report")


def test_bench_prefix_runs_the_entry_spec():
    from repro.bench import REGISTRY

    via_prefix = resolve_workload("bench:du_ping_word").run(
        make_spec("bench:du_ping_word", seed=7)
    )
    entry_spec = REGISTRY["du_ping_word"].spec
    direct = resolve_workload(entry_spec.workload).run(
        make_spec("ping", seed=7, nodes=entry_spec.nodes,
                  **dict(entry_spec.params))
    )
    assert via_prefix.samples == direct.samples
    assert via_prefix.attribution == direct.attribution
    with pytest.raises(ValueError, match="fixes its own machine"):
        resolve_workload("bench:du_ping_word").run(
            make_spec("bench:du_ping_word", nodes=4)
        )


def test_coll_workload_selects_program_by_api():
    nx = resolve_workload("coll").run(SPEC_NX)
    tree = resolve_workload("coll").run(
        make_spec("coll", nodes=4, api="coll", mode="tree-nic",
                  op="allreduce", ops=4)
    )
    # nx: warm-up barrier then 4 measured ops per rank; coll: no warm-up,
    # so each rank's first measured op is the dropped cold one.
    assert len(nx.samples) == 4 * 4
    assert len(tree.samples) == 4 * 3
    assert tree.metrics["coll_packets"] > 0
    for bad in (
        make_spec("coll", nodes=4, api="nx", op="bcast"),
        make_spec("coll", nodes=4, api="coll", mode="nx"),
        make_spec("coll", nodes=4, api="mpi"),
        make_spec("coll", nodes=4, api="coll", op="scan"),
    ):
        with pytest.raises(ValueError):
            resolve_workload("coll").run(bad)


def test_app_and_micro_workloads():
    app = resolve_workload("app").run(
        make_spec("app", nodes=2, app="Radix-VMMC", mode="du")
    )
    assert len(app.samples) == 1 and app.ops > 0
    bandwidth = resolve_workload("micro").run(
        make_spec("micro", measure="du_bulk_bandwidth")
    )
    assert (bandwidth.unit, bandwidth.higher_is_better) == ("MB/s", True)
    with pytest.raises(ValueError, match="measure"):
        resolve_workload("micro").run(make_spec("micro", measure="nope"))
