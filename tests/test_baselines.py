"""Tier-1 parity with the committed virtual-time baselines.

Runs a CI-sized slice of each ``benchmarks/baseline/BENCH_*.json`` suite
at the first baseline seed and requires every sample to equal the
matching prefix of the committed samples (baselines pool seeds in order,
so the first seed's samples come first).  The full byte-identity gate
regenerates whole documents in CI; this catches drift in a local run.
"""

import json
import os

import pytest

from repro.bench import run_benchmarks, select

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
