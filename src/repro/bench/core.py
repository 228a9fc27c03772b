"""The benchmark harness: run the curated set, emit ``BENCH_<label>.json``.

Every benchmark is a :class:`~repro.bench.workloads.BenchEntry` naming a
fleet spec.  The harness plans it once per seed and runs every entry's
specs together through :func:`repro.fleet.runner.run_specs`, with no
store and no sidecars; each run's record holds one or more
**virtual-time** samples plus an optional critical-path attribution
vector.  Samples are pooled (paired across files by position, so two runs
with the same seed list compare sample-for-sample) and serialized as a
deterministic JSON document: no wall-clock or host fields, so a committed
baseline reproduces byte-for-byte on any machine and any worker count.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from .workloads import REGISTRY, BenchEntry

__all__ = [
    "SCHEMA_VERSION",
    "REGISTRY",
    "select",
    "make_entry",
    "run_benchmarks",
    "write_bench",
    "load_bench",
    "render_summary",
]

SCHEMA_VERSION = 1


def select(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    suite: str = "seed",
) -> List[BenchEntry]:
    """The benchmarks to run, validating any explicit name list.

    An explicit ``names`` list overrides the suite filter; otherwise only
    entries of ``suite`` are selected.
    """
    if names:
        unknown = [n for n in names if n not in REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown benchmarks {unknown}; choose from {sorted(REGISTRY)}"
            )
        return [REGISTRY[n] for n in names]
    entries = [e for e in REGISTRY.values() if e.suite == suite]
    if not entries:
        suites = sorted({e.suite for e in REGISTRY.values()})
        raise ValueError(f"unknown suite {suite!r}; choose from {suites}")
    if quick:
        entries = [e for e in entries if e.quick]
    return entries


def _percentile(samples: List[float], p: float) -> float:
    ordered = sorted(samples)
    rank = max(1, -(-int(p) * len(ordered) // 100))
    return ordered[rank - 1]


def make_entry(
    unit: str,
    higher_is_better: bool,
    samples: List[float],
    attribution: Optional[Dict[str, float]] = None,
    ops: int = 0,
) -> Dict:
    """One ``benchmarks`` entry of the ``BENCH_*`` schema.

    Shared with :mod:`repro.fleet`, whose ``RunRecord`` documents embed
    the same entry shape — which is what lets the explorer feed stored
    run records straight into :func:`repro.bench.compare.compare_docs`.
    """
    if not samples:
        raise ValueError("a bench entry needs at least one sample")
    entry: Dict = {
        "unit": unit,
        "higher_is_better": higher_is_better,
        "samples": samples,
        "median": statistics.median(samples),
        "mean": statistics.fmean(samples),
        "min": min(samples),
        "max": max(samples),
        "p95": _percentile(samples, 95),
    }
    if ops and attribution is not None:
        total = sum(attribution.values())
        entry["ops"] = ops
        entry["attribution"] = {
            key: value / ops for key, value in attribution.items()
        }
        entry["attribution_share"] = {
            key: (value / total if total else 0.0)
            for key, value in attribution.items()
        }
    return entry


def run_benchmarks(
    label: str,
    quick: bool = False,
    seeds: Sequence[int] = (1998, 1999, 2000),
    names: Optional[Sequence[str]] = None,
    log: Optional[Callable[[str], None]] = None,
    suite: str = "seed",
    workers: int = 1,
) -> Dict:
    """Run the selected benchmarks and build the ``BENCH_*`` document.

    Every entry x seed is a spec, and all of them run once, with no
    store, on ``workers`` processes; a failed spec raises, naming its
    entry and seed.  Records pool in entry order, then seed order.

    The document schema is suite-independent (no suite field), so the
    committed ``BENCH_seed.json`` baseline is unaffected by new suites.
    """
    from .. import __version__
    from ..fleet.runner import run_specs
    from ..hardware import DEFAULT_PARAMS

    entries = select(names, quick=quick, suite=suite)
    specs = [replace(bench.spec, seed=seed)
             for bench in entries for seed in seeds]
    outcomes = {o.fingerprint: o for o in run_specs(specs, None, workers)}
    benchmarks: Dict[str, Dict] = {}
    for bench in entries:
        samples: List[float] = []
        attribution: Dict[str, float] = {}
        ops = 0
        for seed in seeds:
            outcome = outcomes[replace(bench.spec, seed=seed).fingerprint]
            if outcome.error is not None:
                raise RuntimeError(f"benchmark {bench.name} seed {seed} "
                                   f"failed:\n{outcome.error}")
            run = outcome.record.get("bench")
            if run is None:
                raise RuntimeError(f"benchmark {bench.name} produced no samples")
            samples.extend(run["samples"])
            sums = outcome.record.get("attribution_sums")
            if sums is not None:
                ops += run.get("ops", 0)
                for key, value in sums.items():
                    attribution[key] = attribution.get(key, 0.0) + value
        entry = make_entry(run["unit"], run["higher_is_better"], samples,
                           attribution=attribution, ops=ops)
        benchmarks[bench.name] = entry
        if log is not None:
            log(
                f"{bench.name}: n={len(samples)} median={entry['median']:.3f} "
                f"{run['unit']}"
            )
    return {
        "schema": SCHEMA_VERSION,
        "label": label,
        "quick": quick,
        "seeds": list(seeds),
        "meta": {
            "version": __version__,
            "params": DEFAULT_PARAMS.describe(),
        },
        "benchmarks": benchmarks,
    }


def write_bench(doc: Dict, path: str) -> str:
    """Serialize a bench document, or any JSON document the CLIs write
    (sorted keys, stable floats, parent directories created)."""
    from ..telemetry.export import ensure_parent_dir

    with open(ensure_parent_dir(path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_bench(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return doc


def render_summary(doc: Dict) -> str:
    """ASCII table of one bench document's headline numbers."""
    from ..study.report import format_table

    rows = []
    for name, entry in doc["benchmarks"].items():
        rows.append(
            [
                name,
                entry["unit"],
                len(entry["samples"]),
                entry["median"],
                entry["mean"],
                entry["p95"],
            ]
        )
    return format_table(
        f"Benchmarks: {doc['label']} (seeds {doc['seeds']})",
        ["benchmark", "unit", "n", "median", "mean", "p95"],
        rows,
    )
