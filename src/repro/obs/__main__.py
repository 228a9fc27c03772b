"""The obs CLI: ``python -m repro.obs scrape|html|profile``.

* ``scrape`` — run a built-in workload with live metrics armed and print
  the Prometheus-style exposition of the final sample; ``--jsonl`` streams
  every sample tick, ``--series-out`` writes the retained history as JSON
  (both feed ``html``)::

      python -m repro.obs scrape --workload serve-chaos --jsonl obs.jsonl

* ``html`` — render a run store, BENCH document, metrics export or text
  report into one self-contained HTML page::

      python -m repro.obs html runs --out report.html

* ``profile`` — run a fleet catalog's specs in-process under the sampling
  profiler and print the component-attributed wall-clock table; nothing
  is written to a run store::

      python -m repro.obs profile --matrix smoke
"""

from __future__ import annotations

import argparse
import sys

from .metrics import ObsConfig
from .profile import SamplingProfiler


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Live metrics, wall-clock profiling, HTML evidence.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    scrape = commands.add_parser(
        "scrape", help="run a workload with metrics on; print the exposition"
    )
    scrape.add_argument(
        "--workload", choices=("seed", "serve-chaos"), default="seed",
        help="seed: a 4-node VMMC stream; serve-chaos: a small serving "
        "tier through a permanent link outage (default: seed)",
    )
    scrape.add_argument(
        "--cadence-us", type=float, default=50.0,
        help="virtual microseconds between samples (default: 50)",
    )
    scrape.add_argument(
        "--cap", type=int, default=512,
        help="retained points per series before decimation (default: 512)",
    )
    scrape.add_argument("--ops", type=int, default=400,
                        help="seed workload: sends to stream (default: 400)")
    scrape.add_argument("--seed", type=int, default=1998)
    scrape.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="stream one JSON object per sample tick to FILE",
    )
    scrape.add_argument(
        "--series-out", default=None, metavar="FILE",
        help="write the retained series history as JSON to FILE",
    )

    html = commands.add_parser(
        "html", help="render evidence into one self-contained HTML page"
    )
    html.add_argument(
        "target",
        help="runs-dir, BENCH_* json, obs series json/jsonl, "
        "or a text report",
    )
    html.add_argument(
        "--out", default="report.html", metavar="FILE",
        help="output path (default: report.html)",
    )

    profile = commands.add_parser(
        "profile", help="wall-clock component attribution of fleet specs"
    )
    profile.add_argument(
        "--matrix", default="smoke", metavar="CATALOG",
        help="JSON catalog path or built-in fleet matrix name, as for "
        "`python -m repro.fleet run --matrix` (default: smoke)",
    )
    profile.add_argument(
        "--interval-ms", type=float, default=2.0,
        help="sampling interval, host milliseconds (default: 2.0)",
    )
    return parser


# -- scrape workloads ---------------------------------------------------


def _scrape_seed(args, config: ObsConfig):
    """The fleet stream program, 3 senders into node 0, metrics armed."""
    from ..fleet.workloads import spawn_stream
    from ..node import Machine

    machine = Machine(num_nodes=4, seed=args.seed)
    obs = machine.enable_obs(config)
    senders = machine.num_nodes - 1
    spawn_stream(machine, senders, nbytes=1024, ops=max(1, args.ops // senders))
    machine.sim.run()
    return obs


def _scrape_serve_chaos(args, config: ObsConfig):
    """A small serving tier through a permanent link outage, metrics on."""
    from ..node import Machine
    from ..serve import ServeCluster, ServeConfig
    from ..serve.chaos import make_chaos

    serve_config = ServeConfig(
        num_shards=2,
        num_aggregates=2,
        balancer="hash",
        arrivals="poisson",
        offered_rps=25_000.0,
        duration_us=4_000.0,
        slo_timeout_us=1_000.0,
        retx_timeout_us=200.0,
        retx_max_retries=2,
    )
    machine = Machine(num_nodes=serve_config.num_nodes, seed=args.seed)
    obs = machine.enable_obs(config)
    cluster = ServeCluster(serve_config, seed=args.seed, machine=machine)
    cluster.setup()
    chaos = make_chaos("link-outage", at_us=1_000.0, duration_us=None)
    chaos.apply(cluster)
    print(f"# chaos: {chaos.describe(cluster)}", file=sys.stderr)
    report = cluster.run()
    print(
        f"# serve: ok={report.overall.ok} late={report.overall.late} "
        f"failed={report.overall.failed}",
        file=sys.stderr,
    )
    return obs


def _cmd_scrape(args) -> int:
    config = ObsConfig(
        cadence_us=args.cadence_us, cap=args.cap, jsonl_path=args.jsonl
    )
    if args.workload == "serve-chaos":
        obs = _scrape_serve_chaos(args, config)
    else:
        obs = _scrape_seed(args, config)
    # One final sample at the drained clock, so the exposition reflects
    # the end state even if the last event fell between cadence marks.
    obs.sample_now()
    obs.close()
    sys.stdout.write(obs.scrape())
    if args.series_out:
        import json

        from ..telemetry.export import ensure_parent_dir

        with open(
            ensure_parent_dir(args.series_out), "w", encoding="utf-8"
        ) as fh:
            json.dump(obs.series_doc(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"# series written to {args.series_out}", file=sys.stderr)
    if args.jsonl:
        print(f"# jsonl stream written to {args.jsonl}", file=sys.stderr)
    return 0


def _cmd_html(args) -> int:
    from ..telemetry.export import ensure_parent_dir
    from .html import render_target

    kind, page = render_target(args.target)
    with open(ensure_parent_dir(args.out), "w", encoding="utf-8") as fh:
        fh.write(page)
    print(f"rendered {kind} evidence: {args.target} -> {args.out}")
    return 0


def _cmd_profile(args) -> int:
    from ..fleet.catalog import load_catalog
    from ..fleet.workloads import resolve_workload

    catalog = load_catalog(args.matrix)
    profiler = SamplingProfiler(interval_s=args.interval_ms / 1000.0)
    for spec in catalog:
        workload = resolve_workload(spec.workload)
        with profiler:
            result = workload.run(spec)
        print(
            f"{spec.describe()}: {len(result.samples)} samples, "
            f"virtual end {result.virtual_end_us:.1f} us"
        )
    print()
    print(profiler.report(f"Wall-clock attribution: {catalog.name}"))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "scrape":
        return _cmd_scrape(args)
    if args.command == "html":
        return _cmd_html(args)
    return _cmd_profile(args)


if __name__ == "__main__":
    sys.exit(main())
