"""Sharded large-mesh CLI: ``python -m repro.shard run|verify|scaling``.

``run`` executes one spec (serial or sharded) and prints the summary;
``verify`` runs the same spec both ways and hard-gates byte identity of
the telemetry streams (the CI ``shard-smoke`` job); ``scaling`` sweeps
node and worker counts and prints an events/s table with speedups over
the serial run — wall-clock numbers, host-dependent by design and never
gated.

Examples::

    python -m repro.shard run --nodes 256 --workers 4
    python -m repro.shard run --width 16 --height 4 --workload transpose
    python -m repro.shard verify --nodes 64 --workers 4
    python -m repro.shard scaling --node-list 64,256 --workers 1,2,4
"""

from __future__ import annotations

import argparse
import sys

from .model import WORKLOADS, ShardSpec, spec_for_nodes
from .partition import plan_partitions
from .runner import run_serial, run_sharded


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="node count; expands to the nearest-square width x height",
    )
    parser.add_argument("--width", type=int, default=None)
    parser.add_argument("--height", type=int, default=None)
    parser.add_argument(
        "--workload", default="uniform", choices=sorted(WORKLOADS),
        help="traffic pattern (default: uniform)",
    )
    parser.add_argument(
        "--duration", type=float, default=200.0, metavar="US",
        help="injection window, us of virtual time (default: 200)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="US",
        help="mean per-node injection gap, us (default: 1.0)",
    )
    parser.add_argument(
        "--bytes", type=int, default=256, dest="packet_bytes",
        help="packet payload bytes (default: 256)",
    )
    parser.add_argument("--seed", type=int, default=1998)


def _spec_from(args, record_deliveries: bool = True) -> ShardSpec:
    knobs = dict(
        workload=args.workload,
        duration_us=args.duration,
        inject_interval_us=args.interval,
        packet_bytes=args.packet_bytes,
        seed=args.seed,
        record_deliveries=record_deliveries,
    )
    if args.width is not None or args.height is not None:
        if args.width is None or args.height is None:
            raise SystemExit("--width and --height must be given together")
        if args.nodes is not None and args.nodes != args.width * args.height:
            raise SystemExit("--nodes contradicts --width x --height")
        return ShardSpec(width=args.width, height=args.height, **knobs)
    return spec_for_nodes(args.nodes if args.nodes is not None else 64, **knobs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard",
        description="Parametric large meshes under conservative parallel DES.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one spec and print the summary")
    _add_spec_args(run)
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = single-process reference)",
    )
    run.add_argument(
        "--digest", action="store_true",
        help="also print the telemetry stream's sha256",
    )
    run.add_argument(
        "--progress", action="store_true",
        help="print a per-epoch progress/ETA ticker to stderr "
        "(sharded runs only; off the identity stream by construction)",
    )

    verify = commands.add_parser(
        "verify",
        help="serial vs sharded byte-identity gate (exit 1 on divergence)",
    )
    _add_spec_args(verify)
    verify.add_argument(
        "--workers", type=int, default=4,
        help="worker processes for the sharded side (default: 4)",
    )

    scaling = commands.add_parser(
        "scaling", help="events/s table over nodes x workers (wall clock)"
    )
    _add_spec_args(scaling)
    scaling.add_argument(
        "--workers", default="1,2,4", metavar="LIST",
        help="comma-separated worker counts (default: 1,2,4)",
    )
    scaling.add_argument(
        "--node-list", default=None, metavar="LIST", dest="node_list",
        help="comma-separated node counts (default: the single --nodes)",
    )
    return parser


def _cmd_run(args) -> int:
    spec = _spec_from(args)
    plan = plan_partitions(spec, args.workers)
    print(f"partitioning: {plan.describe()}")
    progress = None
    if getattr(args, "progress", False) and args.workers > 1:
        from ..obs.progress import ShardProgressTicker

        progress = ShardProgressTicker()
    result = (
        run_sharded(spec, args.workers, progress=progress)
        if args.workers > 1
        else run_serial(spec)
    )
    print(result.summary())
    if args.digest:
        print(f"telemetry sha256: {result.telemetry_digest()}")
    return 0


def _cmd_verify(args) -> int:
    spec = _spec_from(args)
    serial = run_serial(spec)
    sharded = run_sharded(spec, args.workers)
    print(f"serial : {serial.summary()}")
    print(f"sharded: {sharded.summary()}")
    if serial.telemetry_bytes() == sharded.telemetry_bytes():
        print(
            f"byte-identical across 1 and {sharded.workers} workers: "
            f"sha256 {serial.telemetry_digest()}"
        )
        return 0
    a, b = serial.telemetry_lines(), sharded.telemetry_lines()
    for index, (left, right) in enumerate(zip(a, b)):
        if left != right:
            print(f"DIVERGED at line {index}:", file=sys.stderr)
            print(f"  serial : {left}", file=sys.stderr)
            print(f"  sharded: {right}", file=sys.stderr)
            break
    else:
        print(
            f"DIVERGED: line counts {len(a)} vs {len(b)}", file=sys.stderr
        )
    return 1


def _cmd_scaling(args) -> int:
    from ..study.report import format_table

    worker_counts = [int(w) for w in str(args.workers).split(",") if w]
    if args.node_list:
        node_counts = [int(n) for n in args.node_list.split(",") if n]
    else:
        node_counts = [args.nodes if args.nodes is not None else 64]
    rows = []
    for nodes in node_counts:
        base_eps = None
        for workers in worker_counts:
            args.nodes, args.width, args.height = nodes, None, None
            spec = _spec_from(args, record_deliveries=False)
            result = (
                run_sharded(spec, workers) if workers > 1 else run_serial(spec)
            )
            if workers == 1 or base_eps is None:
                base_eps = result.events_per_sec
            rows.append(
                [
                    f"{spec.width}x{spec.height}",
                    result.workers,
                    result.events,
                    f"{result.wall_s:.3f}",
                    f"{result.events_per_sec:,.0f}",
                    f"{result.events_per_sec / base_eps:.2f}x"
                    if base_eps else "-",
                    result.epochs,
                    result.boundary_msgs,
                ]
            )
    print(
        format_table(
            f"Scaling (wall-clock, host-dependent): {args.workload} "
            f"interval={args.interval}us",
            [
                "mesh", "workers", "events", "seconds", "events/s",
                "speedup", "epochs", "boundary",
            ],
            rows,
        )
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_scaling(args)


if __name__ == "__main__":
    sys.exit(main())
