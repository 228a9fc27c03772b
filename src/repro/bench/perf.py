"""Wall-clock throughput mode: ``python -m repro.bench perf``.

Everything in :mod:`repro.bench.core` is measured in **virtual time** and is
a pure function of the code, which is what lets ``BENCH_*.json`` documents be
committed and compared byte-for-byte.  This module is the deliberate
opposite: it measures how fast the simulator core itself executes on the
host — events per wall-clock second through the scheduler, packets per
second through the backplane — so results are host-dependent by design.

To keep the two regimes from ever being confused, perf results go to a
separate ``PERF_<label>.json`` document (``"kind": "perf"``, its own schema)
that records the host fingerprint and is **never** fed to the virtual-time
regression gate in :mod:`repro.bench.compare`.

The suite has two families:

* **engine** — microbenchmarks that hammer one scheduler path in isolation:
  the immediate resume path (event ring), the time-ordered heap path
  (timeout wheel), queue handoff and resource contention;
* **system** — end-to-end VMMC message streams (the DU ping and the 15-to-1
  fan-in) run without telemetry, exercising the NIC, backplane and
  notification fast paths together;
* **scaling** — the large-mesh shard model (:mod:`repro.shard`) at a fixed
  256-node spec across worker counts, so one document captures the
  parallel-simulation speedup curve of the host it ran on.

Each benchmark is measured ``repeats`` times and summarized in the
Kalibera & Jones repeated-measurement style: the document stores every
per-run throughput sample plus the median (the headline
``events_per_sec``), mean, min/max and a bootstrap 95% confidence
interval of the median, instead of the old schema-1 best-of-N single
number.  The bootstrap resampling is deterministically seeded, so
re-summarizing the same samples always yields the same interval.
"""

from __future__ import annotations

import functools
import json
import platform
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim import Queue, Resource, Signal, Simulator, Timeout

__all__ = [
    "PERF_SCHEMA_VERSION",
    "PerfResult",
    "PerfSpec",
    "PERF_REGISTRY",
    "select_perf",
    "run_perf",
    "write_perf",
    "load_perf",
    "render_perf",
    "render_perf_comparison",
    "bootstrap_ci",
]

PERF_SCHEMA_VERSION = 2

#: Schemas ``load_perf`` accepts: 1 (best-of-N) is readable as a baseline
#: for comparisons; new documents are always written at the current schema.
PERF_READABLE_SCHEMAS = (1, 2)


@dataclass
class PerfResult:
    """One timed invocation of a perf workload."""

    #: Wall-clock seconds spent inside ``sim.run()``.
    elapsed_s: float
    #: Scheduler dispatches executed during the run.
    events: int
    #: Packets delivered by the backplane (system family only).
    packets: int = 0
    #: Logical operations the workload performed (sends, hops, items...).
    ops: int = 0
    #: Virtual time at the end of the run (sanity cross-check).
    sim_time_us: float = 0.0

    @property
    def events_per_sec(self) -> float:
        return self.events / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def packets_per_sec(self) -> float:
        return self.packets / self.elapsed_s if self.elapsed_s > 0 else 0.0


@dataclass(frozen=True)
class PerfSpec:
    """One wall-clock benchmark: a runner mapping a scale to a result."""

    name: str
    runner: Callable[[int], PerfResult]
    #: Operation count for a full run.
    scale: int
    #: Operation count under ``--quick`` (CI-sized).
    quick_scale: int
    family: str = "engine"
    description: str = ""


#: name -> spec, in registration order.
PERF_REGISTRY: Dict[str, PerfSpec] = {}


def _register(spec: PerfSpec) -> PerfSpec:
    if spec.name in PERF_REGISTRY:
        raise ValueError(f"duplicate perf benchmark {spec.name!r}")
    PERF_REGISTRY[spec.name] = spec
    return spec


def select_perf(
    names: Optional[Sequence[str]] = None, quick: bool = False
) -> List[PerfSpec]:
    if names:
        unknown = [n for n in names if n not in PERF_REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown perf benchmarks {unknown}; "
                f"choose from {sorted(PERF_REGISTRY)}"
            )
        return [PERF_REGISTRY[n] for n in names]
    return list(PERF_REGISTRY.values())


def _timed_run(sim: Simulator, ops: int, packets_of=None) -> PerfResult:
    """Time ``sim.run()`` and collect the scheduler's dispatch count."""
    start_events = getattr(sim, "events_processed", 0)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return PerfResult(
        elapsed_s=elapsed,
        events=getattr(sim, "events_processed", 0) - start_events,
        packets=packets_of() if packets_of is not None else 0,
        ops=ops,
        sim_time_us=sim.now,
    )


# -- engine family -------------------------------------------------------


def _engine_ring(scale: int) -> PerfResult:
    """A token circulating a 64-process signal ring: pure resume traffic.

    Every hop is one ``Signal.fire`` plus one immediate resume — the path
    that the immediate queue accelerates.
    """
    sim = Simulator()
    nprocs = 64
    signals = [Signal(sim, f"ring{i}") for i in range(nprocs)]

    def station(i: int):
        while True:
            count = yield from signals[i].wait()
            if count >= scale:
                return
            signals[(i + 1) % nprocs].fire(count + 1)

    for i in range(nprocs):
        sim.spawn(station(i), f"station{i}")

    def starter():
        yield Timeout(0.0)
        signals[0].fire(0)

    sim.spawn(starter(), "starter")
    return _timed_run(sim, ops=scale)


def _engine_timeouts(scale: int) -> PerfResult:
    """512 processes sleeping on staggered delays: pure heap traffic."""
    sim = Simulator()
    nprocs = 512
    per = max(1, scale // nprocs)

    def sleeper(i: int):
        delay = 0.5 + (i % 13) * 0.37
        for _ in range(per):
            yield Timeout(delay)

    for i in range(nprocs):
        sim.spawn(sleeper(i), f"sleeper{i}")
    return _timed_run(sim, ops=nprocs * per)


def _queue_handoff(scale: int) -> PerfResult:
    """Producer/consumer pairs over :class:`Queue`.

    The producer runs in bursts so the consumer alternates between the
    item-ready fast path and the blocking path.
    """
    sim = Simulator()
    npairs = 8
    per = max(1, scale // npairs)

    def producer(q: Queue):
        for i in range(per):
            q.put(i)
            if i % 8 == 0:
                yield Timeout(1.0)

    def consumer(q: Queue):
        for _ in range(per):
            yield from q.get()

    for p in range(npairs):
        q = Queue(sim, f"q{p}")
        sim.spawn(consumer(q), f"consumer{p}")
        sim.spawn(producer(q), f"producer{p}")
    return _timed_run(sim, ops=npairs * per)


def _resource_contention(scale: int) -> PerfResult:
    """Uncontended and contended acquire/release on counted resources."""
    sim = Simulator()
    per = max(1, scale // 33)
    solo = Resource(sim, capacity=1, name="solo")
    shared = Resource(sim, capacity=2, name="shared")

    def fast_path():
        # Alone on its resource: every acquire takes the no-wait path.
        for _ in range(per):
            yield from solo.acquire()
            solo.release()
            yield Timeout(0.25)

    def contender(i: int):
        for _ in range(per):
            yield from shared.acquire()
            try:
                yield Timeout(0.5)
            finally:
                shared.release()

    sim.spawn(fast_path(), "fast")
    for i in range(32):
        sim.spawn(contender(i), f"contender{i}")
    return _timed_run(sim, ops=33 * per)


# -- system family -------------------------------------------------------


def _stream(senders: int, nbytes: int, ops: int) -> PerfResult:
    """The fleet stream program on a telemetry-off machine."""
    from ..fleet.workloads import spawn_stream
    from ..node import Machine

    machine = Machine(num_nodes=senders + 1, seed=1998)
    spawn_stream(machine, senders, nbytes, ops)
    return _timed_run(
        machine.sim,
        ops=senders * ops,
        packets_of=lambda: machine.backplane.packets_delivered,
    )


def _du_ping(scale: int) -> PerfResult:
    return _stream(senders=1, nbytes=4096, ops=scale)


def _fanin_15(scale: int) -> PerfResult:
    return _stream(senders=15, nbytes=4096, ops=max(1, scale // 15))


# -- scaling family ------------------------------------------------------


def _shard_scaling(scale: int, workers: int) -> PerfResult:
    """The 256-node shard model under ``workers`` processes.

    ``scale`` is the injection window in us of virtual time.  The three
    registered worker counts share one spec, so the per-document speedup
    (``speedup_vs_w1``) isolates the parallel-execution effect: by the
    shard determinism contract every worker count computes the same bytes.
    Deliveries are not recorded — this measures the execution engine, not
    the telemetry path.
    """
    from ..shard import ShardSpec, run_serial, run_sharded

    spec = ShardSpec(
        width=16,
        height=16,
        workload="transpose",
        duration_us=float(scale),
        record_deliveries=False,
    )
    result = run_sharded(spec, workers) if workers > 1 else run_serial(spec)
    return PerfResult(
        elapsed_s=result.wall_s,
        events=result.events,
        packets=result.packets_delivered,
        ops=result.packets_delivered,
        sim_time_us=result.virtual_end_us,
    )


_register(
    PerfSpec(
        "engine_ring", _engine_ring, scale=200_000, quick_scale=30_000,
        description="64-process signal ring (immediate resume path)",
    )
)
_register(
    PerfSpec(
        "engine_timeouts", _engine_timeouts, scale=200_000, quick_scale=40_000,
        description="512 staggered sleepers (heap path)",
    )
)
_register(
    PerfSpec(
        "queue_handoff", _queue_handoff, scale=160_000, quick_scale=32_000,
        description="producer/consumer bursts over Queue",
    )
)
_register(
    PerfSpec(
        "resource_contention", _resource_contention,
        scale=100_000, quick_scale=20_000,
        description="uncontended + 32-way contended Resource acquire",
    )
)
_register(
    PerfSpec(
        "du_ping", _du_ping, scale=2000, quick_scale=200, family="system",
        description="one-page DU sends, 1 sender (end-to-end core path)",
    )
)
_register(
    PerfSpec(
        "fanin_15", _fanin_15, scale=3000, quick_scale=300, family="system",
        description="one-page DU sends, 15-to-1 fan-in (contention)",
    )
)
for _workers in (1, 2, 4):
    _register(
        PerfSpec(
            f"scaling_256_w{_workers}",
            functools.partial(_shard_scaling, workers=_workers),
            scale=300, quick_scale=60, family="scaling",
            description=(
                f"16x16 shard model, transpose traffic, {_workers} worker"
                f"{'s' if _workers > 1 else ''} (scale = duration us)"
            ),
        )
    )


# -- harness -------------------------------------------------------------


def bootstrap_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 19980513,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval of the median.

    Deterministic: the resampling RNG is seeded from ``seed`` only, so the
    same samples always produce the same interval (re-rendering a stored
    document never drifts).  With a single sample the interval collapses
    to a point.
    """
    if not samples:
        raise ValueError("no samples")
    if len(samples) == 1:
        return samples[0], samples[0]
    rng = random.Random(seed)
    n = len(samples)
    medians = sorted(
        statistics.median(rng.choices(samples, k=n)) for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    lo_index = min(resamples - 1, max(0, int(alpha * resamples)))
    hi_index = min(resamples - 1, max(0, int((1.0 - alpha) * resamples) - 1))
    return medians[lo_index], medians[hi_index]


def _summarize(spec: PerfSpec, results: List[PerfResult]) -> Dict:
    """One benchmark's schema-2 entry: representative run + sample stats.

    The headline ``events_per_sec`` is the **median** across repeats (the
    schema-1 field name is kept so comparisons work across schemas); the
    run whose throughput is closest to the median supplies the raw
    events/elapsed/packets fields.
    """
    rates = [result.events_per_sec for result in results]
    median = statistics.median(rates)
    representative = min(results, key=lambda r: abs(r.events_per_sec - median))
    ci_lo, ci_hi = bootstrap_ci(rates)
    entry: Dict = {
        "family": spec.family,
        "ops": representative.ops,
        "events": representative.events,
        "elapsed_s": representative.elapsed_s,
        "events_per_sec": median,
        "sim_time_us": representative.sim_time_us,
        "stats": {
            "repeats": len(rates),
            "samples_events_per_sec": rates,
            "mean": statistics.fmean(rates),
            "min": min(rates),
            "max": max(rates),
            "ci95_lo": ci_lo,
            "ci95_hi": ci_hi,
        },
    }
    if spec.family in ("system", "scaling"):
        entry["packets"] = representative.packets
        entry["packets_per_sec"] = representative.packets_per_sec
    return entry


def run_perf(
    label: str,
    quick: bool = False,
    repeats: int = 3,
    names: Optional[Sequence[str]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run the perf suite and build the ``PERF_*`` document."""
    from .. import __version__

    specs = select_perf(names, quick=quick)
    benchmarks: Dict[str, Dict] = {}
    for spec in specs:
        scale = spec.quick_scale if quick else spec.scale
        results = [spec.runner(scale) for _ in range(max(1, repeats))]
        entry = _summarize(spec, results)
        benchmarks[spec.name] = entry
        if log is not None:
            stats = entry["stats"]
            log(
                f"{spec.name}: {entry['events_per_sec']:,.0f} events/s "
                f"median of {stats['repeats']} "
                f"(95% CI [{stats['ci95_lo']:,.0f}, {stats['ci95_hi']:,.0f}])"
            )
    # The scaling family's headline: parallel speedup over the 1-worker
    # run of the same spec, from the medians.
    for name, entry in benchmarks.items():
        if entry["family"] != "scaling" or name.endswith("_w1"):
            continue
        base = benchmarks.get(name.rsplit("_w", 1)[0] + "_w1")
        if base is not None and base["events_per_sec"] > 0:
            entry["speedup_vs_w1"] = (
                entry["events_per_sec"] / base["events_per_sec"]
            )
    return {
        "schema": PERF_SCHEMA_VERSION,
        "kind": "perf",
        "label": label,
        "quick": quick,
        "repeats": repeats,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "meta": {"version": __version__},
        "benchmarks": benchmarks,
    }


def write_perf(doc: Dict, path: str) -> str:
    from ..telemetry.export import ensure_parent_dir

    with open(ensure_parent_dir(path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_perf(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != "perf" or doc.get("schema") not in PERF_READABLE_SCHEMAS:
        raise ValueError(
            f"{path}: not a readable perf document (kind={doc.get('kind')!r}, "
            f"schema={doc.get('schema')!r}, readable={PERF_READABLE_SCHEMAS})"
        )
    return doc


def render_perf(doc: Dict) -> str:
    """ASCII table of one perf document's throughput numbers."""
    from ..study.report import format_table

    rows = []
    for name, entry in doc["benchmarks"].items():
        stats = entry.get("stats")
        if stats is not None:
            ci = f"[{stats['ci95_lo']:,.0f}, {stats['ci95_hi']:,.0f}]"
        else:  # schema-1 document: a single best-of-N number, no interval
            ci = "-"
        if entry["family"] == "scaling":
            extra = (
                f"{entry['speedup_vs_w1']:.2f}x vs w1"
                if "speedup_vs_w1" in entry else "(baseline)"
            )
        elif entry["family"] == "system":
            extra = f"{entry.get('packets_per_sec', 0.0):,.0f} pkt/s"
        else:
            extra = "-"
        rows.append(
            [
                name,
                entry["family"],
                entry["events"],
                f"{entry['elapsed_s']:.3f}",
                f"{entry['events_per_sec']:,.0f}",
                ci,
                extra,
            ]
        )
    return format_table(
        f"Perf (wall-clock): {doc['label']} "
        f"[{doc['host']['implementation']} {doc['host']['python']}]",
        [
            "benchmark", "family", "events", "seconds", "events/s",
            "95% CI", "notes",
        ],
        rows,
    )


def render_perf_comparison(new: Dict, baseline: Dict) -> str:
    """Before/after table: events/sec speedup of ``new`` over ``baseline``."""
    from ..study.report import format_table

    rows = []
    for name, entry in new["benchmarks"].items():
        base = baseline["benchmarks"].get(name)
        if base is None:
            continue
        old_eps = base["events_per_sec"]
        new_eps = entry["events_per_sec"]
        rows.append(
            [
                name,
                f"{old_eps:,.0f}",
                f"{new_eps:,.0f}",
                f"{new_eps / old_eps:.2f}x" if old_eps > 0 else "-",
            ]
        )
    return format_table(
        f"Perf speedup: {new['label']} vs {baseline['label']}",
        ["benchmark", "base events/s", "new events/s", "speedup"],
        rows,
    )
