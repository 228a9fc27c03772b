"""Generators for the paper's figures.

Figure 3: speedup curves (1-16 processors) for six applications, each in
its better AU/DU variant.

Figure 4 (left): the three SVM protocols — HLRC, HLRC-AU, AURC — compared
by normalized execution time with the computation / communication / lock /
barrier / overhead breakdown, on Barnes-SVM, Ocean-SVM and Radix-SVM.

Figure 4 (right): automatic vs deliberate update for Radix-VMMC, Ocean-NX
and Barnes-NX.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..sim import BREAKDOWN_CATEGORIES
from .experiment import ExperimentRunner
from .report import format_series, format_table

__all__ = [
    "figure3", "format_figure3", "FIGURE3_APPS",
    "figure4_svm", "format_figure4_svm", "FIGURE4_PAPER_IMPROVEMENT",
    "figure4_du_au", "format_figure4_du_au",
]

#: Applications and the variant Figure 3 plots (the better of AU/DU).
FIGURE3_APPS = {
    "Ocean-NX": "au",
    "Radix-VMMC": "au",
    "Barnes-NX": "du",
    "Radix-SVM": "au",
    "Ocean-SVM": "au",
    "Barnes-SVM": "au",
}

#: AURC-over-HLRC improvements the paper reports in Figure 4 (left).
FIGURE4_PAPER_IMPROVEMENT = {
    "Barnes-SVM": 9.1,
    "Ocean-SVM": 30.2,
    "Radix-SVM": 79.3,
}


def figure3(
    runner: ExperimentRunner,
    node_counts: Sequence[int] = (1, 2, 4, 8, 16),
) -> Dict[str, List[tuple]]:
    """Speedup curves; returns {app: [(nprocs, speedup), ...]}."""
    curves: Dict[str, List[tuple]] = {}
    for app, mode in FIGURE3_APPS.items():
        points = []
        for nprocs in node_counts:
            points.append((nprocs, runner.speedup(app, nprocs, mode=mode)))
        curves[app] = points
    return curves


def format_figure3(curves: Dict[str, List[tuple]]) -> str:
    labeled = {
        f"{app} ({FIGURE3_APPS[app].upper()})": points
        for app, points in curves.items()
    }
    return format_series(
        "Figure 3: Speedup curves on the SHRIMP system", "Nodes", labeled
    )


def figure4_svm(runner: ExperimentRunner, nprocs: int = 16) -> List[dict]:
    """The HLRC / HLRC-AU / AURC comparison with time breakdowns."""
    rows = []
    for app in ("Barnes-SVM", "Ocean-SVM", "Radix-SVM"):
        base_elapsed = None
        for protocol in ("hlrc", "hlrc-au", "aurc"):
            result = runner.run(app, nprocs, protocol=protocol)
            seq = runner.run(app, 1, protocol=protocol)
            if base_elapsed is None:
                base_elapsed = result.elapsed_us
            breakdown = result.breakdown.as_dict()
            rows.append(
                {
                    "app": app,
                    "protocol": protocol,
                    "elapsed_ms": result.elapsed_ms,
                    "normalized": result.elapsed_us / base_elapsed,
                    "speedup": seq.elapsed_us / result.elapsed_us,
                    **{f"bd_{k}": v / 1000.0 for k, v in breakdown.items()},
                }
            )
    return rows


def format_figure4_svm(rows: List[dict]) -> str:
    headers = (
        ["Application", "Protocol", "Elapsed (ms)", "Normalized", "Speedup"]
        + [c.capitalize() + " (ms)" for c in BREAKDOWN_CATEGORIES]
    )
    table_rows = [
        [r["app"], r["protocol"], r["elapsed_ms"], r["normalized"], r["speedup"]]
        + [r[f"bd_{c}"] for c in BREAKDOWN_CATEGORIES]
        for r in rows
    ]
    return format_table(
        "Figure 4 (left): HLRC vs HLRC-AU vs AURC on 16 nodes",
        headers,
        table_rows,
    )


def figure4_du_au(runner: ExperimentRunner, nprocs: int = 16) -> List[dict]:
    """Automatic vs deliberate update for the non-SVM comparison apps."""
    rows = []
    for app in ("Radix-VMMC", "Ocean-NX", "Barnes-NX"):
        du = runner.run(app, nprocs, mode="du")
        au = runner.run(app, nprocs, mode="au")
        rows.append(
            {
                "app": app,
                "du_ms": du.elapsed_ms,
                "au_ms": au.elapsed_ms,
                "normalized_au": au.elapsed_us / du.elapsed_us,
                "au_speedup_factor": du.elapsed_us / au.elapsed_us,
            }
        )
    return rows


def format_figure4_du_au(rows: List[dict]) -> str:
    return format_table(
        "Figure 4 (right): deliberate vs automatic update on 16 nodes",
        ["Application", "DU (ms)", "AU (ms)", "AU normalized to DU",
         "AU speedup factor"],
        [
            (r["app"], r["du_ms"], r["au_ms"], r["normalized_au"],
             r["au_speedup_factor"])
            for r in rows
        ],
    )
