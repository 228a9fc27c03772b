"""Large-mesh CLI: ``python -m repro.shard run``.

``run`` executes one spec on the keyed packet model and prints the
summary; ``--digest`` adds the sha256 of the run's canonical event stream
(the CI ``largemesh-smoke`` entry greps it).

Examples::

    python -m repro.shard run --nodes 256 --workload transpose --digest
    python -m repro.shard run --width 16 --height 4 --workload transpose
"""

from __future__ import annotations

import argparse
import sys

from .model import WORKLOADS, ShardSpec, spec_for_nodes
from .runner import run_serial


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


def _spec_from(args) -> ShardSpec:
    knobs = dict(
        workload=args.workload,
        duration_us=args.duration,
        inject_interval_us=args.interval,
        packet_bytes=args.packet_bytes,
        seed=args.seed,
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
        description="Parametric large meshes on the keyed packet model.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one spec and print the summary")
    _add_spec_args(run)
    run.add_argument(
        "--digest", action="store_true",
        help="also print the telemetry stream's sha256",
    )
    return parser


def _cmd_run(args) -> int:
    result = run_serial(_spec_from(args))
    print(result.summary())
    if args.digest:
        print(f"telemetry sha256: {result.telemetry_digest()}")
    return 0


def main(argv=None) -> int:
    return _cmd_run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
