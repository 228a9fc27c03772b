"""The fleet CLI: ``python -m repro.fleet run|list|workloads``.

``run`` expands a catalog (a JSON matrix file or a built-in name) into
experiment specs and fans them out over a worker pool, serving unchanged
specs from the run store as cache hits::

    python -m repro.fleet run --matrix smoke --workers 2
    python -m repro.fleet run --matrix experiments.json --workers 4 --store runs

``list`` prints the expanded specs and their fingerprints without
running anything; ``workloads`` prints the registered workloads and
named fault plans a catalog can reference.  Explore the accumulated
records with ``python -m repro.explore``.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import BUILTIN_MATRICES, load_catalog
from .runner import run_specs
from .store import RunStore
from .workloads import FAULT_PLANS, WORKLOADS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Catalog-driven experiment fleet runner.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run a catalog's specs (cache hits are free)"
    )
    run.add_argument(
        "--matrix", required=True, metavar="CATALOG",
        help="JSON catalog path or built-in matrix name "
        f"({', '.join(sorted(BUILTIN_MATRICES))})",
    )
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default: 1 = in-process serial)",
    )
    run.add_argument(
        "--store", default="runs", metavar="DIR",
        help="run-store root directory (default: runs)",
    )
    run.add_argument(
        "--force", action="store_true",
        help="re-run even on valid cached records",
    )
    run.add_argument(
        "--progress", action="store_true",
        help="print per-spec start/finish heartbeats with a fleet ETA "
        "to stderr (records are unaffected: they carry no wall clock)",
    )

    lst = commands.add_parser(
        "list", help="expand a catalog and print specs + fingerprints"
    )
    lst.add_argument("--matrix", required=True, metavar="CATALOG")

    commands.add_parser(
        "workloads", help="print registered workloads and fault plans"
    )
    return parser


def _cmd_run(args) -> int:
    catalog = load_catalog(args.matrix)
    store = RunStore(args.store)
    progress = None
    if args.progress:
        from ..obs.progress import FleetTicker

        unique = len({spec.fingerprint for spec in catalog.specs})
        progress = FleetTicker(total=unique)
    outcomes = run_specs(
        catalog.specs,
        store,
        workers=max(1, args.workers),
        force=args.force,
        log=print,
        progress=progress,
    )
    hits = sum(1 for outcome in outcomes if outcome.cached)
    errors = [outcome for outcome in outcomes if outcome.status == "error"]
    print(
        f"\n{catalog.name}: {len(outcomes)} spec(s), "
        f"cache hits: {hits}/{len(outcomes)} "
        f"({100.0 * hits / len(outcomes):.0f}%), "
        f"executed: {len(outcomes) - hits - len(errors)}, "
        f"errors: {len(errors)}"
    )
    for outcome in errors:
        print(f"\n{outcome.fingerprint} failed:\n{outcome.error}",
              file=sys.stderr)
    print(f"store: {store.root}")
    return 1 if errors else 0


def _cmd_list(args) -> int:
    catalog = load_catalog(args.matrix)
    for spec in catalog:
        print(f"{spec.fingerprint}  {spec.describe()}")
    print(f"\n{catalog.name}: {len(catalog)} spec(s)")
    return 0


def _cmd_workloads() -> int:
    print("workloads:")
    for name, workload in sorted(WORKLOADS.items()):
        print(f"  {name:<8}{workload.description}")
    print("  bench:<name>   any benchmark in repro.bench (see `python -m "
          "repro.bench run --help`)")
    print("  study:<family> any study family (see `python -m repro.study "
          "--help`)")
    print("\nfault plans:")
    for name, knobs in FAULT_PLANS.items():
        print(f"  {name:<10}{knobs if knobs is not None else 'perfect fabric'}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list(args)
    return _cmd_workloads()


if __name__ == "__main__":
    sys.exit(main())
