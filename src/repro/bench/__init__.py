"""repro.bench: the continuous benchmark harness with regression gating.

Runs a curated set of microbenchmarks, telemetry-instrumented message
streams, and study-suite applications; emits a deterministic
``BENCH_<label>.json`` (virtual-time latency/throughput samples plus
critical-path attribution vectors from :mod:`repro.telemetry.critpath`);
and detects regressions against a committed baseline with a paired
bootstrap on the medians (DESIGN.md section 10).

How fast the simulator itself runs on the host is measured by the
end-to-end benchmark in ``benchmarks/e2e``, never here.

Quick start::

    python -m repro.bench run --label demo
    python -m repro.bench compare BENCH_demo.json \\
        benchmarks/baseline/BENCH_seed.json

Programmatic::

    from repro.bench import run_benchmarks, compare_docs
    doc = run_benchmarks("demo", quick=True, seeds=[1998, 1999])
    comparison = compare_docs(doc, baseline_doc)
"""

from .compare import (
    Comparison,
    Delta,
    bootstrap_median_diff,
    compare_docs,
    render_comparison,
)
from .core import (
    REGISTRY,
    load_bench,
    render_summary,
    run_benchmarks,
    select,
    write_bench,
)
from .workloads import BenchEntry

__all__ = [
    "BenchEntry",
    "REGISTRY",
    "select",
    "run_benchmarks",
    "write_bench",
    "load_bench",
    "render_summary",
    "Delta",
    "Comparison",
    "bootstrap_median_diff",
    "compare_docs",
    "render_comparison",
]
