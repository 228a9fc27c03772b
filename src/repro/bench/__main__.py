"""The continuous-benchmark CLI: ``python -m repro.bench run|compare``.

``run`` executes the curated benchmark set under telemetry and writes
``BENCH_<label>.json`` — latency samples, throughput, critical-path
attribution vectors, and run metadata, all in virtual time (no wall-clock
fields, so output is reproducible across machines).  ``compare`` performs
paired-bootstrap regression detection against a baseline document.

Examples::

    python -m repro.bench run --label demo
    python -m repro.bench run --label ci --quick
    python -m repro.bench compare BENCH_demo.json \\
        benchmarks/baseline/BENCH_seed.json
    python -m repro.bench compare BENCH_ci.json \\
        benchmarks/baseline/BENCH_seed.json --fail-on-regression
"""

from __future__ import annotations

import argparse
import os
import sys

from .compare import compare_docs, comparison_to_json, render_comparison
from .core import load_bench, render_summary, run_benchmarks, write_bench


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the curated benchmark set / compare against a baseline.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run benchmarks, write BENCH_<label>.json")
    run.add_argument("--label", default="local", help="label (default: local)")
    run.add_argument(
        "--quick", action="store_true",
        help="CI-sized subset: micro + pings, no suite applications",
    )
    run.add_argument(
        "--seed", type=int, default=1998, help="first seed (default: 1998)"
    )
    run.add_argument(
        "--repeats", type=int, default=3,
        help="number of consecutive seeds to run (default: 3)",
    )
    run.add_argument(
        "--bench", action="append", default=None, metavar="NAME",
        help="run only NAME (repeatable; overrides --quick selection)",
    )
    run.add_argument(
        "--suite", default="seed", metavar="SUITE",
        help="benchmark suite to run (default: seed; e.g. serve)",
    )
    run.add_argument(
        "--out", default=None, metavar="FILE",
        help="output path (default: BENCH_<label>.json in the cwd)",
    )

    compare = commands.add_parser(
        "compare", help="compare a bench file against a baseline"
    )
    compare.add_argument("new", help="the freshly produced BENCH_*.json")
    compare.add_argument("baseline", help="the baseline BENCH_*.json")
    compare.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative-change gate (default: 0.05 = 5%%)",
    )
    compare.add_argument(
        "--boot", type=int, default=2000,
        help="bootstrap resamples (default: 2000)",
    )
    compare.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when a regression is detected (default: report only)",
    )
    compare.add_argument(
        "--github-annotations", action="store_true",
        help="emit ::warning:: workflow annotations for flagged benchmarks",
    )
    compare.add_argument(
        "--json", default=None, metavar="FILE", dest="json_out",
        help="also write the comparison (verdicts, deltas, CIs, "
        "attribution shifts) as machine-readable JSON to FILE",
    )
    return parser


def _cmd_run(args) -> int:
    seeds = [args.seed + i for i in range(max(1, args.repeats))]
    doc = run_benchmarks(
        args.label,
        quick=args.quick,
        seeds=seeds,
        names=args.bench,
        log=lambda line: print(line, file=sys.stderr),
        suite=args.suite,
        workers=len(os.sched_getaffinity(0)),
    )
    path = args.out or f"BENCH_{args.label}.json"
    write_bench(doc, path)
    print(render_summary(doc))
    print(f"\nwrote {path}")
    return 0


def _cmd_compare(args) -> int:
    comparison = compare_docs(
        load_bench(args.new),
        load_bench(args.baseline),
        threshold=args.threshold,
        n_boot=args.boot,
    )
    print(render_comparison(comparison))
    if args.json_out:
        write_bench(comparison_to_json(comparison), args.json_out)
        print(f"\nwrote {args.json_out}")
    if args.github_annotations:
        for delta in comparison.regressions:
            print(
                f"::warning title=bench regression::{delta.name}: "
                f"{delta.base_median:.3f} -> {delta.new_median:.3f} "
                f"{delta.unit} ({100 * delta.rel:+.1f}%, 95% CI "
                f"[{delta.ci_lo:+.3f}, {delta.ci_hi:+.3f}])"
            )
    if comparison.regressions and args.fail_on_regression:
        return 1
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
