"""The explorer CLI: ``python -m repro.explore <command>``.

Commands (all take ``--store DIR``, default ``runs``):

* ``list`` — every stored record: fingerprint, spec knobs, sample count,
  median, monitor trips (invalid records are called out, never served);
* ``show REF`` — one record in full: spec, stats, attribution bars,
  monitor trips, artifact paths;
* ``compare BASE NEW`` — paired-bootstrap verdict between two records
  (or a record and a committed ``BENCH_*.json#benchmark`` entry), with
  ``--json`` for the machine-readable document;
* ``attr-diff BASE NEW`` — the attribution-shift table: which component
  the microseconds (and share points) moved to;
* ``trend --workload W --x nodes`` — median-vs-x textual figure over
  the store's history of one workload, with ``--json`` for the
  machine-readable series document;
* ``drill REF`` — resolve a record to its Chrome trace / postmortem /
  report sidecars on disk.

``REF`` is a fingerprint prefix (``3417``), a spec query
(``workload=coll,mode=tree-nic,nodes=16``), or a baseline reference
(``benchmarks/baseline/BENCH_seed.json#du_ping_word``).
"""

from __future__ import annotations

import argparse
import sys

from ..bench.compare import comparison_to_json, render_comparison
from ..bench.core import write_bench
from ..fleet.store import RunStore
from .core import (
    attr_diff,
    compare_refs,
    drill,
    list_table,
    show_record,
    trend_rows,
    trend_table,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Explore accumulated experiment records and baselines.",
    )
    parser.add_argument(
        "--store", default="runs", metavar="DIR",
        help="run-store root directory (default: runs)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list stored records")

    show = commands.add_parser("show", help="show one record in full")
    show.add_argument("ref", help="fingerprint prefix, spec query, or "
                      "BENCH_*.json#benchmark")

    compare = commands.add_parser(
        "compare", help="paired-bootstrap comparison of two references"
    )
    compare.add_argument("base", help="baseline reference")
    compare.add_argument("new", help="candidate reference")
    compare.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative-change gate (default: 0.05 = 5%%)",
    )
    compare.add_argument(
        "--boot", type=int, default=2000,
        help="bootstrap resamples (default: 2000)",
    )
    compare.add_argument(
        "--json", default=None, metavar="FILE", dest="json_out",
        help="also write the comparison as machine-readable JSON",
    )

    diff = commands.add_parser(
        "attr-diff",
        help="attribution-shift table between two references",
    )
    diff.add_argument("base")
    diff.add_argument("new")

    trend = commands.add_parser(
        "trend", help="median-vs-x trend over one workload's records"
    )
    trend.add_argument("--workload", required=True)
    trend.add_argument(
        "--x", default="nodes",
        help="x axis: nodes, seed, platform, fault_plan, or a param key "
        "(default: nodes)",
    )
    trend.add_argument(
        "--filter", action="append", default=[], metavar="K=V",
        help="only records whose spec matches (repeatable)",
    )
    trend.add_argument(
        "--json", default=None, metavar="FILE", dest="json_out",
        help="also write the trend series as machine-readable JSON",
    )

    drill_cmd = commands.add_parser(
        "drill", help="resolve a record to its trace/postmortem artifacts"
    )
    drill_cmd.add_argument("ref")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    store = RunStore(args.store)
    try:
        if args.command == "list":
            print(list_table(store))
        elif args.command == "show":
            print(show_record(store, args.ref))
        elif args.command == "compare":
            comparison = compare_refs(
                store, args.base, args.new,
                threshold=args.threshold, n_boot=args.boot,
            )
            print(render_comparison(comparison))
            if args.json_out:
                write_bench(comparison_to_json(comparison), args.json_out)
                print(f"\nwrote {args.json_out}")
        elif args.command == "attr-diff":
            print(attr_diff(store, args.base, args.new))
        elif args.command == "trend":
            filters = {}
            for clause in args.filter:
                key, _, value = clause.partition("=")
                if not value:
                    raise ValueError(f"bad --filter {clause!r} (want K=V)")
                filters[key] = value
            print(trend_table(store, args.workload, x=args.x, filters=filters))
            if args.json_out:
                write_bench(
                    trend_rows(store, args.workload, x=args.x, filters=filters),
                    args.json_out,
                )
                print(f"\nwrote {args.json_out}")
        elif args.command == "drill":
            print(drill(store, args.ref))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
