"""Measurement, checking and reporting for the end-to-end benchmark.

One *invocation* measures one workload at one seed and prints, as its last
stdout line, ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it is a detail record (per-sample values, quartiles, spans, check
mode) that the all-workloads mode reads back from its children.

With ``--trace 0`` the metrics are the end-to-end ones, timed with tracing
off.  With ``--trace 1`` they are the per-layer ones: one untraced sample
(for the simulated counters, ``sim.ns_per_event`` and the baseline of
``trace.overhead``) followed by the same sample under cProfile.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from layers import LAYERS, LayerProfile
from workloads import COUNTERS, WORKLOADS, Spans

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEEDS = (1998, 1999, 2000)

#: End-to-end metric -> unit (tracing off).
END_TO_END = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit (traced run).
PER_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER.update({
        f"{_layer}.self_s": "s",
        f"{_layer}.calls": "count",
        f"{_layer}.in_calls": "count",
    })
PER_LAYER.update({name: "count" for name in COUNTERS})
PER_LAYER.update({
    "network.bytes": "bytes",
    "sim.ns_per_event": "ns",
    "host.gc_s": "s",
    "host.gc_runs": "count",
    "bench.self_s": "s",
    "trace.overhead": "ratio",
})


def summarize(values: List[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def host_fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" else rss / 1024.0


def load_reference(seed: int, workload: str) -> Optional[Dict[str, str]]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _rate(ops: float, seconds: float) -> float:
    # A sample whose every item failed at once has no elapsed time.
    return ops / seconds if seconds > 0 else 0.0


def _check(samples, reference: Optional[Dict[str, str]]):
    """(check mode, ops attempted, ops failed) over every sample run.

    An item whose digest differs from the expectation fails all its ops;
    otherwise it fails the ops its own checks failed.
    """
    check = "reference" if reference else "internal"
    expected = reference or {
        item.label: item.digest for item in samples[0].items if item.digest
    }
    attempted = failed = 0
    for sample in samples:
        for item in sample.items:
            attempted += item.ops
            if item.digest != expected.get(item.label):
                print(f"FAILED check ({check}): {item.label}", file=sys.stderr)
                failed += item.ops
            else:
                failed += item.failed
    return check, attempted, failed


def _end_to_end(timed) -> Dict[str, dict]:
    """setup_s and run_s sum each item's median over the samples; the
    quartiles and ``samples`` are of whole-sample totals."""
    ops = sum(item.ops for item in timed[0].items)
    value = {
        field: sum(
            statistics.median(getattr(s.items[k], field) for s in timed)
            for k in range(len(timed[0].items))
        )
        for field in ("setup_s", "run_s")
    }
    value["ops_per_s"] = _rate(ops, value["setup_s"] + value["run_s"])
    value["peak_rss_mb"] = peak_rss_mb()
    per_sample = {
        field: [sum(getattr(i, field) for i in s.items) for s in timed]
        for field in ("setup_s", "run_s")
    }
    per_sample["ops_per_s"] = [
        _rate(ops, setup + run)
        for setup, run in zip(per_sample["setup_s"], per_sample["run_s"])
    ]
    out = {}
    for name, unit in END_TO_END.items():
        record = {"value": value[name], "unit": unit, "n": 1}
        if name in per_sample:
            record.update(summarize(per_sample[name]))
            record["samples"] = per_sample[name]
        out[name] = record
    return out


def _per_layer(untraced, profile: LayerProfile) -> Dict[str, dict]:
    """Layer times and counts of the traced sample, simulated counters of
    the untraced one, and the untraced wall as overhead baseline."""
    value = profile.metrics()
    value.update(untraced.counters)
    wall = sum(item.setup_s + item.run_s for item in untraced.items)
    run_s = sum(item.run_s for item in untraced.items)
    value["sim.ns_per_event"] = 1e9 * _rate(run_s, value["sim.events"])
    value["trace.overhead"] = _rate(profile.wall_s, wall)
    out = {name: {"value": value[name], "unit": unit}
           for name, unit in PER_LAYER.items()}
    out["trace.wall_s"] = {"value": profile.wall_s, "unit": "s"}
    return out


def measure(workload, seed: int, seconds: float = 0.0, trace: bool = False,
            reference: Optional[Dict[str, str]] = None) -> dict:
    """Run one invocation's samples, check them, and compute its metrics.

    Untraced, samples run until both ``workload.min_samples`` are done and
    another would end past ``seconds``.  ``reference`` maps item labels to
    expected digests; without it the first sample's digests are the
    expectation for the rest.
    """
    inputs = workload.inputs(seed)
    spans = Spans()

    def one():
        span, start = spans.new_id(), time.perf_counter()
        sample = workload.sample(seed, inputs, spans)
        spans.mark(workload.span, span, start)
        gc.collect()
        return sample

    warm = [one() for _ in range(workload.warmup)]
    begin = time.perf_counter()
    timed = [one()]
    if trace:
        with LayerProfile() as profile:
            spans.profile = profile
            traced = [one()]
            spans.profile = None
        metrics = _per_layer(timed[0], profile)
        units = PER_LAYER
    else:
        traced = []
        while len(timed) < workload.min_samples or (
            (time.perf_counter() - begin) * (len(timed) + 1) / len(timed)
            <= seconds
        ):
            timed.append(one())
        metrics = _end_to_end(timed)
        units = END_TO_END
    check, attempted, failed = _check(warm + timed + traced, reference)

    origin = min(start for _, start, _, _ in spans.events)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit in units.items()
        },
        "detail": {
            "workload": workload.name,
            "seed": seed,
            "trace": int(trace),
            "check": check,
            "op_unit": workload.unit,
            "metrics": metrics,
            "spans": [
                [name, 1e6 * (start - origin), 1e6 * (end - start), span]
                for name, start, end, span in spans.events
            ],
            "host": host_fingerprint(),
        },
    }


def _print_invocation(result: dict) -> None:
    detail = result["detail"]
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{detail['workload']} seed={detail['seed']} trace={detail['trace']} "
        f"check: {detail['check']}  attempted={attempted} {detail['op_unit']}"
        f"  failed={failed}  error_rate={failed / attempted:.6g}"
    )
    for name, record in detail["metrics"].items():
        spread = (
            f"  n={record['n']}  q1..q3 {record['q1']:.6g}..{record['q3']:.6g}"
            if "q1" in record else ""
        )
        print(f"  {name:20s} {record['value']:>14.6g} {record['unit']}{spread}")


def invocation(args) -> int:
    workload = WORKLOADS[args.workload]
    result = measure(
        workload, args.seed, args.seconds, bool(args.trace),
        load_reference(args.seed, workload.name),
    )
    _print_invocation(result)
    print(json.dumps(result.pop("detail")))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_all(seed: int, seconds: float):
    """Every workload untraced, then every workload traced, each in a
    fresh child process, one at a time.  Returns (runs, all_ok)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    runs = {}
    ok = True
    for trace in (0, 1):
        for name in WORKLOADS:
            command = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            child = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, env=env,
                timeout=900,
            )
            lines = child.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                result["detail"] = json.loads(lines[-2])
            except (IndexError, ValueError):
                print(f"{name} trace={trace}: no result "
                      f"(exit {child.returncode})", file=sys.stderr)
                ok = False
                continue
            ok = ok and child.returncode == 0 and result["correct"]
            runs[(name, trace)] = result
            _print_invocation(result)
    return runs, ok


def all_workloads(args) -> int:
    """The all-workloads run: tables on stdout, files under ``--out``."""
    runs, ok = _run_all(args.seed, args.seconds)
    _print_layer_table(runs)
    if args.out:
        _write_out(args, runs)
    return 0 if ok else 1


def _print_layer_table(runs: dict) -> None:
    names = [n for n in WORKLOADS if (n, 1) in runs]
    if not names:
        return
    print("\nper-layer (traced run; self_s share of traced wall)")
    print(f"  {'metric':20s}" + "".join(f"{n:>22s}" for n in names))
    for metric, unit in PER_LAYER.items():
        cells = []
        for n in names:
            metrics = runs[(n, 1)]["detail"]["metrics"]
            value = metrics[metric]["value"]
            cell = f"{value:.6g}"
            if metric.endswith("self_s") or metric == "host.gc_s":
                share = value / metrics["trace.wall_s"]["value"]
                cell += f" ({100 * share:4.1f}%)"
            cells.append(f"{cell:>22s}")
        print(f"  {metric:20s}" + "".join(cells) + f"  {unit}")


def _write_out(args, runs: dict) -> None:
    os.makedirs(args.out, exist_ok=True)
    result = {"seed": args.seed, "host": host_fingerprint(), "workloads": {}}
    events = []
    for pid, name in enumerate(WORKLOADS, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
        for trace in (0, 1):
            run = runs.get((name, trace))
            if run is None:
                continue
            detail = run["detail"]
            entry = result["workloads"].setdefault(name, {})
            entry["traced" if trace else "untraced"] = {
                "check": detail["check"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "error_rate": run["failed"] / run["attempted"],
                "metrics": detail["metrics"],
            }
            events.extend(
                {"name": span, "cat": name, "ph": "X", "ts": ts, "dur": dur,
                 "pid": pid, "tid": trace, "args": {"id": span_id}}
                for span, ts, dur, span_id in detail["spans"]
            )
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    with open(os.path.join(args.out, "trace.json"), "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def regenerate_reference(args) -> int:
    """Recompute reference.json: one sample per workload and seed."""
    table = {}
    for name, workload in WORKLOADS.items():
        for seed in REFERENCE_SEEDS:
            sample = workload.sample(seed, workload.inputs(seed), Spans())
            if any(item.failed or not item.digest for item in sample.items):
                print(f"{name} seed {seed} failed its checks", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = {
                item.label: item.digest for item in sample.items
            }
            del sample
            gc.collect()
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def regenerate_baseline(args) -> int:
    """Recompute baseline.json: two sets of five all-workload runs.

    Report-only evidence for this host; never a gate.
    """
    per_set = 5
    values = []  # per set: {(workload, metric): [value per invocation]}
    for _ in range(2):
        collected: Dict[tuple, list] = {}
        for _ in range(per_set):
            runs, ok = _run_all(args.seed, args.seconds)
            if not ok:
                return 1
            for (name, _trace), run in runs.items():
                for metric, record in run["metrics"].items():
                    collected.setdefault((name, metric), []).append(
                        record["value"])
        values.append(collected)
    units = {**END_TO_END, **PER_LAYER}
    counted = [m for m, unit in PER_LAYER.items() if unit in ("count", "bytes")]
    baseline = {
        "report_only": "host-specific evidence; never a gate",
        "host": host_fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "invocations_per_set": per_set,
        "sets": [
            {name: {metric: dict(summarize(collected[(name, metric)]),
                                 unit=units[metric])
                    for metric in units if (name, metric) in collected}
             for name in WORKLOADS}
            for collected in values
        ],
        "median_shift": {
            name: {
                metric: abs(
                    statistics.median(values[1][(name, metric)])
                    / statistics.median(values[0][(name, metric)]) - 1.0)
                for metric in END_TO_END
            }
            for name in WORKLOADS
        },
        "counts_that_varied": sorted(
            f"{name}/{metric}" for name in WORKLOADS for metric in counted
            if len({v for collected in values
                    for v in collected[(name, metric)]}) > 1
        ),
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the SHRIMP simulator.")
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "reference", "baseline"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.command == "reference":
        return regenerate_reference(args)
    if args.command == "baseline":
        return regenerate_baseline(args)
    if args.workload:
        return invocation(args)
    return all_workloads(args)
