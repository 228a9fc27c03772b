"""Generators for the paper's tables (1-4) and the section 4.5 studies.

Every function takes an :class:`~repro.study.experiment.ExperimentRunner`
and the node count, returns structured rows, and has a ``format_*``
companion that renders the paper-style table.
"""

from __future__ import annotations

import math
from typing import List

from .experiment import ExperimentRunner
from .report import format_table
from .suite import SUITE

__all__ = [
    "table1", "format_table1",
    "table2", "format_table2", "TABLE2_PAPER",
    "table3", "format_table3", "TABLE3_PAPER",
    "table4", "format_table4", "TABLE4_PAPER",
    "combining_study", "format_combining_study",
    "fifo_study", "format_fifo_study",
    "queueing_study", "format_queueing_study",
]

#: Paper values for side-by-side reporting.
TABLE2_PAPER = {
    "Barnes-SVM": 23.2, "Ocean-SVM": 17.7, "Radix-SVM": 2.3,
    "Radix-VMMC": 5.9, "Barnes-NX": 52.2, "Ocean-NX": 10.1,
    "Render-sockets": 6.8,
}
TABLE3_PAPER = {
    "Barnes-SVM": 33, "Ocean-SVM": 8, "Radix-SVM": 42, "Radix-VMMC": 0,
    "Barnes-NX": 1, "Ocean-NX": 1, "DFS-sockets": 0, "Render-sockets": 0,
}
TABLE4_PAPER = {
    "Barnes-SVM": 18.1, "Ocean-SVM": 25.1, "Radix-SVM": 1.1,
    "Radix-VMMC": 0.3, "Barnes-NX": 6.3, "Ocean-NX": 15.7,
    "DFS-sockets": 18.3, "Render-sockets": 8.5,
}


# --------------------------------------------------------------------------
# Table 1: application characteristics
# --------------------------------------------------------------------------

def table1(runner: ExperimentRunner) -> List[dict]:
    """App, API, problem size, and sequential (1-node) execution time."""
    rows = []
    for name, app_spec in SUITE.items():
        result = runner.run(name, 1)
        rows.append(
            {
                "app": name,
                "api": app_spec.api,
                "problem_size": app_spec.problem_size,
                "seq_time_ms": result.elapsed_ms,
                "paper_seq_time_s": app_spec.paper_seq_time_s,
            }
        )
    return rows


def format_table1(rows: List[dict]) -> str:
    return format_table(
        "Table 1: Characteristics of the applications",
        ["Application", "API", "Problem size (scaled)", "Seq time (ms, sim)",
         "Paper seq (s)"],
        [
            (r["app"], r["api"], r["problem_size"], r["seq_time_ms"],
             "n/a" if math.isnan(r["paper_seq_time_s"]) else r["paper_seq_time_s"])
            for r in rows
        ],
    )


# --------------------------------------------------------------------------
# Table 2: cost of a system call on every send
# --------------------------------------------------------------------------

#: App -> variant.  The user-level-DMA what-if concerns deliberate-update
#: initiation, so the NX/sockets libraries run their (default) DU
#: transports; SVM and VMMC apps run as in the rest of the evaluation —
#: their protocol/control messages are deliberate updates either way.
TABLE2_APPS = {
    "Barnes-SVM": None, "Ocean-SVM": None, "Radix-SVM": None,
    "Radix-VMMC": None, "Barnes-NX": "du", "Ocean-NX": "du",
    "Render-sockets": "du",
}


def table2(runner: ExperimentRunner, nprocs: int = 16) -> List[dict]:
    rows = []
    for name, mode in TABLE2_APPS.items():
        increase = runner.slowdown_percent(name, nprocs, "kernel_send", mode=mode)
        rows.append(
            {
                "app": name,
                "increase_pct": increase,
                "paper_pct": TABLE2_PAPER[name],
            }
        )
    return rows


def format_table2(rows: List[dict]) -> str:
    return format_table(
        "Table 2: Execution time increase due to a system call per send",
        ["Application", "Measured (%)", "Paper (%)"],
        [(r["app"], r["increase_pct"], r["paper_pct"]) for r in rows],
    )


# --------------------------------------------------------------------------
# Table 3: notifications vs total messages
# --------------------------------------------------------------------------

def table3(runner: ExperimentRunner, nprocs: int = 16) -> List[dict]:
    rows = []
    for name in SUITE:
        result = runner.run(name, nprocs)
        notifications = int(result.stat("vmmc.notifications"))
        messages = int(result.stat("vmmc.messages_received"))
        pct = 100.0 * notifications / messages if messages else 0.0
        rows.append(
            {
                "app": name,
                "notifications": notifications,
                "messages": messages,
                "pct": pct,
                "paper_pct": TABLE3_PAPER[name],
            }
        )
    return rows


def format_table3(rows: List[dict]) -> str:
    return format_table(
        "Table 3: Notifications as a fraction of total messages",
        ["Application", "Notifications", "Total messages", "Measured (%)",
         "Paper (%)"],
        [
            (r["app"], r["notifications"], r["messages"], r["pct"], r["paper_pct"])
            for r in rows
        ],
    )


# --------------------------------------------------------------------------
# Table 4: cost of an interrupt on every arriving message
# --------------------------------------------------------------------------

#: Variants for Table 4 (same policy as Table 2: the interrupt-per-message
#: what-if concerns deliberate-update message arrival, so the NX/sockets
#: libraries run their DU transports).
TABLE4_MODES = {
    "Barnes-NX": "du", "Ocean-NX": "du",
    "DFS-sockets": "du", "Render-sockets": "du",
}


def table4(runner: ExperimentRunner, nprocs: int = 16) -> List[dict]:
    rows = []
    for name in SUITE:
        # The paper measures Barnes-NX at 8 nodes (footnote of Table 4).
        n = 8 if name == "Barnes-NX" else nprocs
        slowdown = runner.slowdown_percent(
            name, n, "interrupt_all", mode=TABLE4_MODES.get(name)
        )
        rows.append(
            {
                "app": name,
                "nprocs": n,
                "slowdown_pct": slowdown,
                "paper_pct": TABLE4_PAPER[name],
            }
        )
    return rows


def format_table4(rows: List[dict]) -> str:
    return format_table(
        "Table 4: Execution time increase due to an interrupt per message",
        ["Application", "Nodes", "Measured (%)", "Paper (%)"],
        [(r["app"], r["nprocs"], r["slowdown_pct"], r["paper_pct"]) for r in rows],
    )


# --------------------------------------------------------------------------
# Section 4.5.1: automatic-update combining
# --------------------------------------------------------------------------

def combining_study(runner: ExperimentRunner, nprocs: int = 16) -> List[dict]:
    """Combining enabled vs disabled for the sparse-AU apps, plus DFS
    forced onto AU.

    Paper findings: <1% effect for Radix-VMMC and the AURC SVM apps (their
    writes are sparse, so little combining takes place); about 2x slowdown
    for DFS when forced to use AU without combining (bulk transfers are
    ideal combining targets).
    """
    rows = []
    for name in ("Radix-VMMC", "Radix-SVM", "Ocean-SVM", "Barnes-SVM"):
        with_combining = runner.run(name, nprocs, mode="au", combine=True)
        without = runner.run(name, nprocs, mode="au")
        effect = (without.elapsed_us / with_combining.elapsed_us - 1.0) * 100.0
        rows.append({"app": f"{name} (AU)", "effect_pct": effect,
                     "paper": "<1%"})
    # DFS on the AU transport, with and without combining.
    with_combining = runner.run("DFS-sockets", nprocs, "baseline", mode="au")
    without = runner.run("DFS-sockets", nprocs, "no_combining", mode="au")
    factor = without.elapsed_us / with_combining.elapsed_us
    rows.append(
        {
            "app": "DFS-sockets (forced AU, no combining vs combining)",
            "effect_pct": (factor - 1.0) * 100.0,
            "paper": "~2x slower",
        }
    )
    return rows


def format_combining_study(rows: List[dict]) -> str:
    return format_table(
        "Section 4.5.1: Effect of automatic-update combining",
        ["Workload", "Slowdown without combining (%)", "Paper"],
        [(r["app"], r["effect_pct"], r["paper"]) for r in rows],
    )


# --------------------------------------------------------------------------
# Section 4.5.2: outgoing FIFO capacity
# --------------------------------------------------------------------------

FIFO_APPS = ["Radix-SVM", "Ocean-SVM", "Radix-VMMC", "Ocean-NX"]


def fifo_study(runner: ExperimentRunner, nprocs: int = 16) -> List[dict]:
    """1 KB vs 32 KB outgoing FIFO: the paper found no detectable
    difference (applications have low enough communication volume and the
    bus arbitration already throttles automatic update)."""
    rows = []
    for name in FIFO_APPS:
        small = runner.run(name, nprocs, "fifo_1k", mode="au")
        large = runner.run(name, nprocs, "fifo_32k", mode="au")
        delta = (small.elapsed_us / large.elapsed_us - 1.0) * 100.0
        rows.append(
            {
                "app": name,
                "fifo_1k_ms": small.elapsed_ms,
                "fifo_32k_ms": large.elapsed_ms,
                "delta_pct": delta,
                "threshold_interrupts_1k": int(
                    small.stat("kernel.fifo_threshold_interrupts")
                ),
            }
        )
    return rows


def format_fifo_study(rows: List[dict]) -> str:
    return format_table(
        "Section 4.5.2: Outgoing FIFO capacity (1 KB vs 32 KB)",
        ["Application", "1KB FIFO (ms)", "32KB FIFO (ms)", "Delta (%)",
         "Threshold irqs @1KB"],
        [
            (r["app"], r["fifo_1k_ms"], r["fifo_32k_ms"], r["delta_pct"],
             r["threshold_interrupts_1k"])
            for r in rows
        ],
    )


# --------------------------------------------------------------------------
# Section 4.5.3: deliberate-update queueing
# --------------------------------------------------------------------------

QUEUE_APPS = ["Radix-SVM", "Ocean-SVM", "Barnes-SVM"]


def queueing_study(runner: ExperimentRunner, nprocs: int = 16) -> List[dict]:
    """2-deep DU request queue vs none, on the small-transfer SVM apps.

    The paper expected SVM to benefit most and measured <1%: the memory
    bus cannot cycle-share, so a queued transfer still serializes against
    the CPU on the bus.
    """
    rows = []
    for name in QUEUE_APPS:
        base = runner.run(name, nprocs, "baseline", mode="du")
        queued = runner.run(name, nprocs, "du_queue_2", mode="du")
        effect = (base.elapsed_us / queued.elapsed_us - 1.0) * 100.0
        rows.append(
            {
                "app": name,
                "no_queue_ms": base.elapsed_ms,
                "queue2_ms": queued.elapsed_ms,
                "improvement_pct": effect,
            }
        )
    return rows


def format_queueing_study(rows: List[dict]) -> str:
    return format_table(
        "Section 4.5.3: Deliberate-update queueing (2-deep vs none)",
        ["Application", "No queue (ms)", "2-deep queue (ms)",
         "Improvement (%)"],
        [
            (r["app"], r["no_queue_ms"], r["queue2_ms"], r["improvement_pct"])
            for r in rows
        ],
    )
