"""Regenerate the full evaluation from the command line.

Usage::

    python -m repro.study [FAMILY] [--nodes N]

``python -m repro.study --help`` lists every family with a one-line
description.  The selected families' app runs are planned first, then
run once each on as many processes as this process may use
(:func:`repro.study.experiment.run_families`).  A family that raises, or
that reads a run that failed, is reported on stderr, prints nothing,
and makes the exit status non-zero.  ``all`` regenerates the
paper-grounded families only; growth-direction families (``serve``,
``coll``, ``largemesh``) are excluded so that the output of ``all``
stays byte-stable as new families are added — run them by name.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from . import (
    coll_study,
    combining_study,
    figure3,
    figure4_du_au,
    figure4_svm,
    fifo_study,
    format_coll_study,
    format_largemesh_study,
    largemesh_study,
    format_combining_study,
    format_fifo_study,
    format_figure3,
    format_figure4_du_au,
    format_figure4_svm,
    format_queueing_study,
    format_reliability_study,
    format_table1,
    format_table2,
    format_serving_study,
    format_table3,
    format_table4,
    queueing_study,
    serving_study,
    reliability_study,
    run_families,
    run_microbenchmarks,
    table1,
    table2,
    table3,
    table4,
)


def _micro(runner, nodes):
    micro = run_microbenchmarks()
    return (
        "Microbenchmarks (paper: DU 6 us, AU 3.71 us, UDMA < 2 us):\n"
        f"  DU one-word latency : {micro.du_word_latency_us:6.2f} us\n"
        f"  AU one-word latency : {micro.au_word_latency_us:6.2f} us\n"
        f"  DU send overhead    : {micro.du_send_overhead_us:6.2f} us\n"
        f"  DU bulk bandwidth   : {micro.du_bulk_bandwidth_mbs:6.1f} MB/s\n"
        f"  AU bulk bandwidth   : {micro.au_bulk_bandwidth_mbs:6.1f} MB/s"
    )


#: Every study family: name -> (description, in_all, emit(runner, nodes)).
#: ``in_all`` families reproduce the paper's own tables/figures and run
#: under ``all``; the others study growth directions and are excluded so
#: ``all`` stays byte-stable — run them by name.
FAMILIES = {
    "micro": (
        "latency/bandwidth microbenchmarks vs the paper's numbers",
        True,
        _micro,
    ),
    "table1": (
        "Table 1: communication-layer latencies by API",
        True,
        lambda runner, nodes: format_table1(table1(runner)),
    ),
    "figure3": (
        "Figure 3: application speedups over one node",
        True,
        lambda runner, nodes: format_figure3(figure3(runner)),
    ),
    "figure4": (
        "Figure 4: SVM and DU-vs-AU improvement breakdowns",
        True,
        lambda runner, nodes: "\n\n".join(
            (
                format_figure4_svm(figure4_svm(runner, nodes)),
                format_figure4_du_au(figure4_du_au(runner, nodes)),
            )
        ),
    ),
    "table2": (
        "Table 2: system call on every send (what-if)",
        True,
        lambda runner, nodes: format_table2(table2(runner, nodes)),
    ),
    "table3": (
        "Table 3: notification counts and costs",
        True,
        lambda runner, nodes: format_table3(table3(runner, nodes)),
    ),
    "table4": (
        "Table 4: interrupt on every arriving message (what-if)",
        True,
        lambda runner, nodes: format_table4(table4(runner, nodes)),
    ),
    "combining": (
        "AU combining engine on/off across applications",
        True,
        lambda runner, nodes: format_combining_study(
            combining_study(runner, nodes)
        ),
    ),
    "fifo": (
        "outgoing-FIFO sizing and flow-control sensitivity",
        True,
        lambda runner, nodes: format_fifo_study(fifo_study(runner, nodes)),
    ),
    "queueing": (
        "receive-side queueing and ejection-channel sensitivity",
        True,
        lambda runner, nodes: format_queueing_study(queueing_study(runner, nodes)),
    ),
    "reliability": (
        "fault injection: drops/corruption vs go-back-N recovery",
        True,
        lambda runner, nodes: format_reliability_study(reliability_study(nodes)),
    ),
    "serve": (
        "serving tier: load x balancer x fault SLO sweep (not in `all`)",
        False,
        lambda runner, nodes: format_serving_study(serving_study()),
    ),
    "coll": (
        "collectives: host-side vs NIC-resident barrier/allreduce "
        "(not in `all`)",
        False,
        lambda runner, nodes: format_coll_study(
            coll_study(node_counts=sorted({4, 8, nodes}))
        ),
    ),
    "largemesh": (
        "large-mesh scaling: shard model at 16/64/256 nodes (not in `all`)",
        False,
        lambda runner, nodes: format_largemesh_study(
            largemesh_study(node_counts=sorted({16, 64, max(256, nodes)}))
        ),
    ),
}


def _epilog() -> str:
    lines = ["families:"]
    width = max(len(name) for name in FAMILIES) + 2
    for name, (description, in_all, _emit) in FAMILIES.items():
        lines.append(f"  {name:<{width}}{description}")
    lines.append(f"  {'all':<{width}}every family marked paper-grounded above")
    lines.append(
        "\n`all` excludes the growth-direction families (serve, coll,\n"
        "largemesh): they extend the paper rather than reproduce it, and\n"
        "excluding them keeps the byte-stable `all` output from changing\n"
        "as families are added.  Run those by name."
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.study",
        description="Regenerate the SHRIMP design-study tables and figures.",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "what",
        nargs="?",
        default="all",
        choices=list(FAMILIES) + ["all"],
        metavar="FAMILY",
        help="which family to regenerate (default: all)",
    )
    parser.add_argument("--nodes", type=int, default=16)
    args = parser.parse_args(argv)
    selected = {
        name: (lambda runner, emitter=emitter: emitter(runner, args.nodes))
        for name, (_description, in_all, emitter) in FAMILIES.items()
        if args.what == name or (args.what == "all" and in_all)
    }
    workers = len(os.sched_getaffinity(0))
    emit = []
    failures = []
    for name, value in run_families(selected, workers=workers).items():
        if isinstance(value, Exception):
            failures.append(name)
            trace = "".join(traceback.format_exception(
                type(value), value, value.__traceback__
            ))
            print(f"family {name} raised:\n{trace}", file=sys.stderr)
        else:
            emit.append(value)
    print("\n\n".join(emit))
    if failures:
        print(
            f"FAILED famil{'y' if len(failures) == 1 else 'ies'}: "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
