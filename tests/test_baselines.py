"""Tier-1 parity with the committed virtual-time baselines.

Runs a CI-sized slice of each ``benchmarks/baseline/BENCH_*.json`` suite
at the first baseline seed and requires every sample to equal the
matching prefix of the committed samples (baselines pool seeds in order,
so the first seed's samples come first).  The same slice then runs at
every baseline seed, on one and on two workers, and must reproduce whole
entries, and ``BENCH_coll.json`` (four attributed entries) regenerates
byte for byte.  The full byte-identity gate regenerates every document
in CI; this catches drift in a local run.
"""

import json
import os

import pytest

from repro.bench import run_benchmarks, select, write_bench

BASELINE_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "baseline"
)


def _baseline(suite):
    with open(os.path.join(BASELINE_DIR, f"BENCH_{suite}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


CASES = [("seed", entry.name) for entry in select(quick=True)] + [
    ("serve", "serve_request_latency"),
    ("coll", "coll_barrier_nic_16"),
]


@pytest.mark.parametrize("suite,name", CASES)
def test_first_seed_samples_match_committed_baseline(suite, name):
    baseline = _baseline(suite)
    seed = baseline["seeds"][0]
    doc = run_benchmarks("parity", names=[name], seeds=[seed])
    got = doc["benchmarks"][name]
    want = baseline["benchmarks"][name]
    assert got["samples"] == want["samples"][: len(got["samples"])]
    assert (got["unit"], got["higher_is_better"]) == (
        want["unit"], want["higher_is_better"]
    )


#: Every field of an entry that pooling across seeds produces.
POOLED = ("samples", "ops", "attribution", "attribution_share")


@pytest.mark.parametrize("workers", [1, 2])
def test_slice_entries_match_committed_baseline_at_every_seed(workers):
    # Pooling attribution from the per-op figures times ``ops`` instead of
    # each run's raw sums changes du_ping_4k's ``attribution_share``.
    for suite in ("seed", "serve", "coll"):
        baseline = _baseline(suite)
        names = [name for case_suite, name in CASES if case_suite == suite]
        doc = run_benchmarks("parity", names=names, seeds=baseline["seeds"],
                             workers=workers)
        for name in names:
            got = doc["benchmarks"][name]
            want = baseline["benchmarks"][name]
            for field in POOLED:
                assert got.get(field) == want.get(field), (name, field)


def test_coll_baseline_regenerates_byte_identically(tmp_path):
    """The whole document on a pool: key order, ``meta`` and every
    summary statistic, not only the pooled fields."""
    baseline_path = os.path.join(BASELINE_DIR, "BENCH_coll.json")
    path = write_bench(
        run_benchmarks("coll", suite="coll", workers=2),
        str(tmp_path / "BENCH_coll.json"),
    )
    with open(path, "rb") as got, open(baseline_path, "rb") as want:
        assert got.read() == want.read()
