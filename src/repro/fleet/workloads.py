"""Fleet workloads: the one place a workload program is written.

Every workload maps an :class:`ExperimentSpec` to a :class:`FleetResult`
(samples, attribution, telemetry, monitor, metrics, report).  The other
experiment surfaces select from this registry instead of copying it:
``repro.bench`` suites are named specs run through
:func:`resolve_workload`, ``repro.obs profile`` runs catalog specs through
it, and ``repro.obs scrape`` and ``repro.study coll`` call the same
programs (:func:`spawn_stream`, :func:`spawn_nx_coll`) on machines they
build.

* ``app`` — a study-suite application (``app=NAME``, ``mode=au|du``,
  what-if ``config=NAME``, SVM ``protocol=...``, ``combine=1``); one
  sample, its elapsed time, with breakdown and counters in ``metrics``.
  Every top-level operation is attributed unless ``observe=0``, which
  runs on a plain machine, as the study tables do.
* ``coll`` — ``ops`` collectives on ``spec.nodes`` ranks: ``api=nx``
  (default) runs NX barriers after a warm-up one, ``mode`` placing the
  barrier; ``api=coll`` drives :class:`repro.coll.CollWorld` directly
  with ``op=barrier|allreduce|bcast`` and no warm-up.
* ``micro`` — a section 4.1 microbenchmark (``measure=...``).
* ``ping`` — ``spec.nodes - 1`` senders streaming into node 0
  (``reliable=1``: over go-back-N); samples are ``vmmc.send`` spans.
* ``serve`` — a :class:`repro.serve.ServeCluster` run; samples are
  ``serve.request`` spans, or with ``measure=goodput`` the goodput.
* ``shard`` — the large-mesh packet model (:mod:`repro.shard`); samples
  are per-delivery latencies, independent of the worker count.
* ``bench:<name>`` — a :mod:`repro.bench` entry's spec at ``spec.seed``.
* ``study:<family>`` — a :data:`repro.study.__main__.FAMILIES` report,
  rendered in-process (its app runs one after another).

Span samples drop each node's cold first op.  Platforms come from
:mod:`repro.study.platforms`; fault plans are the named entries of
:data:`FAULT_PLANS`, so a catalog stays declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from ..telemetry import critpath

__all__ = [
    "FleetResult",
    "FleetWorkload",
    "WORKLOADS",
    "FAULT_PLANS",
    "PLATFORMS",
    "COLL_MODES",
    "spawn_stream",
    "spawn_nx_coll",
    "spawn_coll_ops",
    "resolve_workload",
    "workload_names",
    "app_result",
]


@dataclass
class FleetResult:
    """Everything one workload run hands to a fleet record or bench entry."""

    unit: str
    higher_is_better: bool
    #: Virtual-time samples (one per operation).
    samples: List[float]
    #: Summed critical-path attribution over the run's operations (us per
    #: component; see :data:`repro.telemetry.critpath.COMPONENTS`).
    attribution: Optional[Dict[str, float]] = None
    #: Operations the attribution sums over.
    ops: int = 0
    #: The run's telemetry collector (None: no trace sidecar).
    telemetry: object = None
    #: The run's health monitor (None: not armed).
    monitor: object = None
    #: Virtual time at the end of the run.
    virtual_end_us: float = 0.0
    #: Workload-specific scalar metrics (goodput, packet counts, ...).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Rendered report text (None: no report sidecar).
    report: Optional[str] = None


@dataclass(frozen=True)
class FleetWorkload:
    """A registered workload: a description plus the spec -> result runner."""

    name: str
    description: str
    run: Callable[["ExperimentSpec"], FleetResult]


#: Named fault environments a catalog can select declaratively.
#: ``none`` maps to no plan at all (the zero-overhead gate stays closed).
FAULT_PLANS: Dict[str, Optional[dict]] = {
    "none": None,
    "drop1": {"drop_rate": 0.01},
    "drop10": {"drop_rate": 0.1},
    "corrupt1": {"corrupt_rate": 0.01},
    "outage": {"link_outages": 1, "outage_duration_us": 500.0},
    "rxdiscard": {"rx_overflow_discard": True},
}

#: Platform profiles (see repro.study.platforms).
PLATFORMS = ("shrimp", "myrinet")

#: Barrier placement -> (repro.coll backend, barrier span name).  ``nx``
#: is the NX library's host-side dissemination barrier (no coll backend).
COLL_MODES: Dict[str, tuple] = {
    "nx": (None, "nx.gsync"),
    "tree-host": ("host", "coll.barrier"),
    "tree-nic": ("nic", "coll.barrier"),
}

_COLL_OPS = ("barrier", "allreduce", "bcast")

_MICRO_MEASURES = ("du_word_latency", "au_word_latency", "du_send_overhead",
                   "du_bulk_bandwidth", "au_bulk_bandwidth")


def _fault_config(spec) -> Optional[object]:
    if spec.fault_plan not in FAULT_PLANS:
        raise ValueError(
            f"unknown fault plan {spec.fault_plan!r}; "
            f"choose from {sorted(FAULT_PLANS)}"
        )
    knobs = FAULT_PLANS[spec.fault_plan]
    if knobs is None:
        return None
    from ..faults import FaultConfig

    return FaultConfig(**knobs)


def _machine(spec, num_nodes: int, params=None, nic_config=None,
             observe: bool = True):
    """A telemetry-armed, monitor-armed machine for one spec.

    ``params``/``nic_config`` override the platform's (suite applications
    carry their own parameters and what-if NIC configurations);
    ``observe=False`` arms neither observer.
    """
    from ..node import Machine
    from ..study.platforms import (
        myrinet_nic_config,
        myrinet_params,
        shrimp_nic_config,
        shrimp_params,
    )

    if spec.platform == "shrimp":
        platform_params, platform_nic = shrimp_params(), shrimp_nic_config()
    elif spec.platform == "myrinet":
        platform_params, platform_nic = myrinet_params(), myrinet_nic_config()
    else:
        raise ValueError(
            f"unknown platform {spec.platform!r}; choose from {PLATFORMS}"
        )
    machine = Machine(
        num_nodes=num_nodes,
        params=params or platform_params,
        nic_config=nic_config or platform_nic,
        seed=spec.seed,
        fault_config=_fault_config(spec),
        telemetry=observe,
    )
    if observe:
        machine.enable_monitor()
    return machine


# -- programs: each written once, run on a machine the caller built --------


def _payload(nbytes: int) -> bytes:
    """A deterministic ``nbytes`` message body."""
    return (bytes(range(256)) * (-(-nbytes // 256)))[:nbytes]


def _span_samples(telemetry, span_name: str) -> List[float]:
    """Per-operation durations with each node's cold first op dropped.

    The first operation of each node (cold caches and trees, rank start
    skew) stays in the attribution sums but not in the latency samples.
    """
    roots = critpath.operation_roots(telemetry, span_name)
    by_node: Dict[int, list] = {}
    for root in roots:
        by_node.setdefault(root.node, []).append(root)
    samples: List[float] = []
    for spans in by_node.values():
        spans.sort(key=lambda span: span.start)
        samples.extend(span.duration for span in spans[1:])
    return samples or [span.duration for span in roots]


def spawn_stream(
    machine, senders: int, nbytes: int, ops: int, reliable: bool = False
) -> None:
    """``senders`` nodes each stream ``ops`` ``nbytes`` sends into node 0.

    Plain sends wait for delivery (``sync_delivered``); ``reliable`` sends
    go over a go-back-N channel instead.
    """
    from ..vmmc import ReliableConfig, VMMCRuntime

    vmmc = VMMCRuntime(machine)
    receiver = vmmc.endpoint(machine.create_process(0))
    data = _payload(nbytes)

    def rx():
        buffers = []
        for s in range(senders):
            buffer = yield from receiver.export(nbytes, name=f"fleet.{s}")
            buffers.append(buffer)
        for buffer in buffers:
            yield from receiver.wait_bytes(buffer, nbytes * ops)

    def tx(s: int):
        endpoint = vmmc.endpoint(machine.create_process(s + 1))
        imported = yield from endpoint.import_buffer(f"fleet.{s}")
        src = endpoint.alloc(nbytes)
        endpoint.poke(src, data)
        if reliable:
            channel = endpoint.open_reliable(
                imported, ReliableConfig(timeout_us=300.0)
            )
            for _ in range(ops):
                yield from channel.send(src, nbytes)
        else:
            for _ in range(ops):
                yield from endpoint.send(
                    imported, src, nbytes, sync_delivered=True
                )

    machine.sim.spawn(rx(), "fleet.rx")
    for s in range(senders):
        machine.sim.spawn(tx(s), f"fleet.tx{s}")


def spawn_nx_coll(
    machine, nodes: int, mode: str, ops: int, allreduces: int = 0
) -> Dict[str, float]:
    """NX ranks run a warm-up barrier, ``ops`` barriers, then
    ``allreduces`` sum-allreduces; ``mode`` places the barrier.

    Returns rank 0's virtual-time marks (``start`` after the warm-up,
    ``mid`` after the barriers, ``end`` after the allreduces), filled in
    as the run proceeds.
    """
    from ..coll import CollConfig
    from ..msg import NXWorld
    from ..vmmc import VMMCRuntime

    if mode not in COLL_MODES:
        raise ValueError(
            f"unknown coll mode {mode!r}; choose from {tuple(COLL_MODES)}"
        )
    backend = COLL_MODES[mode][0]
    vmmc = VMMCRuntime(machine)
    coll = CollConfig(backend=backend) if backend is not None else None
    world = NXWorld(vmmc, nodes, coll=coll)
    marks: Dict[str, float] = {}

    def worker(rank: int):
        nx = yield from world.join(rank, machine.create_process(rank))
        # Warm-up barrier: absorbs the join rendezvous skew, so measured
        # operations start from a common front; its spans are the cold
        # ops _span_samples drops.
        yield from nx.gsync()
        if rank == 0:
            marks["start"] = machine.now
        for _ in range(ops):
            yield from nx.gsync()
        if rank == 0:
            marks["mid"] = machine.now
        for i in range(allreduces):
            yield from nx.allreduce(float(rank + i), lambda a, b: a + b,
                                    name="sum")
        if rank == 0:
            marks["end"] = machine.now

    for rank in range(nodes):
        machine.sim.spawn(worker(rank), f"fleet.coll.r{rank}")
    return marks


def spawn_coll_ops(
    machine, nodes: int, backend: str, op: str, ops: int
) -> None:
    """``ops`` :class:`repro.coll.CollWorld` collectives on ``nodes`` ranks,
    no warm-up (``bcast`` sends a 4 KB payload from rank 0)."""
    from ..coll import CollConfig, CollWorld

    if op not in _COLL_OPS:
        raise ValueError(f"unknown collective op {op!r}; choose from {_COLL_OPS}")
    world = CollWorld(machine, nodes, CollConfig(backend=backend))

    def worker(rank: int):
        coll = world.join(rank, machine.create_process(rank))
        data = _payload(4096) if rank == 0 else None
        for i in range(ops):
            if op == "barrier":
                yield from coll.barrier()
            elif op == "allreduce":
                yield from coll.allreduce(float(rank + i), op="sum")
            else:
                yield from coll.bcast(0, data)

    for rank in range(nodes):
        machine.sim.spawn(worker(rank), f"fleet.coll.r{rank}")


# -- workloads: spec -> machine -> program -> result ------------------------


def _span_result(machine, span_name: str, metrics=None) -> FleetResult:
    """Latency samples and attribution of ``span_name`` ops in a run."""
    telemetry = machine.telemetry
    agg = critpath.aggregate(telemetry, span_name, top=0)
    return FleetResult(
        unit="us",
        higher_is_better=False,
        samples=_span_samples(telemetry, span_name),
        attribution=agg.components,
        ops=agg.count,
        telemetry=telemetry,
        monitor=machine.monitor,
        virtual_end_us=machine.now,
        metrics=metrics or {},
    )


def _run_coll(spec) -> FleetResult:
    api = spec.param("api", "nx")
    mode = spec.param("mode", "tree-nic")
    op = spec.param("op", "barrier")
    ops = int(spec.param("ops", 8))
    backend = COLL_MODES.get(mode, (None,))[0]
    if not ((api == "nx" and op == "barrier") or (api == "coll" and backend)):
        raise ValueError(
            f"unsupported coll api={api!r} mode={mode!r} op={op!r}: api=nx "
            "runs barriers, api=coll needs mode=tree-host|tree-nic"
        )
    machine = _machine(spec, spec.nodes)
    if api == "nx":
        spawn_nx_coll(machine, spec.nodes, mode, ops)
        span_name = COLL_MODES[mode][1]
    else:
        spawn_coll_ops(machine, spec.nodes, backend, op, ops)
        span_name = f"coll.{op}"
    machine.sim.run()
    return _span_result(
        machine,
        span_name,
        {"coll_packets": float(machine.stats.counter_value("coll.packets"))},
    )


def _run_ping(spec) -> FleetResult:
    senders = max(1, spec.nodes - 1)
    machine = _machine(spec, senders + 1)
    spawn_stream(
        machine,
        senders,
        nbytes=int(spec.param("nbytes", 4096)),
        ops=int(spec.param("ops", 9)),
        reliable=bool(spec.param("reliable", False)),
    )
    machine.sim.run()
    return _span_result(machine, "vmmc.send")


def _run_serve(spec) -> FleetResult:
    from ..serve import ServeCluster, ServeConfig

    # Chaos goes through repro.serve scenarios, not fleet fault plans.
    _require_defaults(spec, nodes_free=True)
    measure = spec.param("measure", "latency")
    if measure not in ("latency", "goodput"):
        raise ValueError(
            f"unknown serve measure {measure!r}; choose from latency, goodput"
        )
    num_shards = max(1, spec.nodes // 2)
    config = ServeConfig(
        num_shards=num_shards,
        num_aggregates=max(1, spec.nodes - num_shards),
        balancer=str(spec.param("balancer", "hash")),
        arrivals=str(spec.param("arrivals", "poisson")),
        offered_rps=float(spec.param("rps", 40_000.0)),
        duration_us=float(spec.param("duration_us", 5_000.0)),
    )
    cluster = ServeCluster(config, seed=spec.seed, telemetry=True)
    report = cluster.run()
    machine = cluster.machine
    telemetry = machine.telemetry
    result = FleetResult(
        unit="us",
        higher_is_better=False,
        samples=[
            span.duration
            for span in critpath.operation_roots(telemetry, "serve.request")
        ],
        telemetry=telemetry,
        monitor=machine.monitor,
        virtual_end_us=machine.now,
        metrics={
            "goodput_rps": report.goodput_rps,
            "ok": float(report.overall.ok),
            "late": float(report.overall.late),
            "failed": float(report.overall.failed),
        },
        report=report.render(),
    )
    if measure == "goodput":
        result.unit, result.higher_is_better = "rps", True
        result.samples = [report.goodput_rps]
    else:
        agg = critpath.aggregate(telemetry, "serve.request", top=0)
        result.attribution, result.ops = agg.components, agg.count
    return result


def _run_app(spec) -> FleetResult:
    from ..apps.base import run_app
    from ..study.configs import config
    from ..study.suite import spec as app_spec

    _require_defaults(spec, nodes_free=True)
    suite_app = app_spec(str(spec.param("app")))
    app = suite_app.factory(str(spec.param("mode", suite_app.best_mode)))
    if spec.param("protocol") is not None:
        if not hasattr(app, "protocol_name"):
            raise ValueError(
                f"{suite_app.name} is not an SVM application; no protocol "
                "override possible"
            )
        app.protocol_name = str(spec.param("protocol"))
    if spec.param("combine", False):
        if hasattr(app, "svm_kwargs"):
            app.svm_kwargs = {"au_combine": True}
        elif hasattr(app, "au_combine"):
            app.au_combine = True
        else:
            raise ValueError(f"{suite_app.name} has no AU combining knob")
    experiment = config(str(spec.param("config", "baseline")))
    observe = bool(spec.param("observe", True))
    machine = _machine(spec, spec.nodes, experiment.params(suite_app.params),
                       experiment.nic_config(), observe)
    run = run_app(app, spec.nodes, machine=machine)
    # The record format app_result() reads back.
    metrics = {"elapsed_us": run.elapsed_us}
    metrics.update(
        (f"breakdown.{key}", value)
        for key, value in run.breakdown.as_dict().items()
    )
    metrics.update((f"stats.{key}", value) for key, value in run.stats.items())
    result = FleetResult(
        unit="us",
        higher_is_better=False,
        samples=[run.elapsed_us],
        virtual_end_us=machine.now,
        metrics=metrics,
    )
    if observe:
        agg = critpath.aggregate(machine.telemetry, None, top=0)
        result.attribution, result.ops = agg.components, agg.count
        result.telemetry, result.monitor = machine.telemetry, machine.monitor
    return result


def app_result(spec, metrics: Dict[str, float]):
    """The :class:`repro.apps.AppResult` of an ``app`` spec whose record
    holds ``metrics``."""
    from ..apps import AppResult
    from ..sim import TimeBreakdown
    from ..study.suite import spec as app_spec

    suite_app = app_spec(str(spec.param("app")))
    groups: Dict[str, Dict[str, float]] = {"breakdown": {}, "stats": {}}
    for name, value in metrics.items():
        group, _, key = name.partition(".")
        if group in groups:
            groups[group][key] = value
    return AppResult(
        app=suite_app.name,
        api=suite_app.api,
        mode=str(spec.param("mode", suite_app.best_mode)),
        nprocs=spec.nodes,
        elapsed_us=metrics["elapsed_us"],
        breakdown=TimeBreakdown(**groups["breakdown"]),
        stats=groups["stats"],
    )


def _run_micro(spec) -> FleetResult:
    """A section 4.1 microbenchmark: deterministic and seed-independent."""
    from ..study import micro

    _require_defaults(spec)
    measure = spec.param("measure")
    if measure not in _MICRO_MEASURES:
        raise ValueError(
            f"unknown micro measure {measure!r}; choose from {_MICRO_MEASURES}"
        )
    bandwidth = measure.endswith("_bandwidth")
    return FleetResult(
        unit="MB/s" if bandwidth else "us",
        higher_is_better=bandwidth,
        samples=[getattr(micro, measure)()],
    )


def _run_shard(spec) -> FleetResult:
    """The large-mesh shard model at ``spec.nodes`` (virtual time only).

    Samples are per-delivery latencies; counters (packets, events, hops)
    land in ``metrics``.  Wall-clock figures (events/s, epochs) are
    deliberately excluded: records must regenerate byte-identically, and
    the shard contract makes the result independent of the worker count —
    ``workers`` only changes how fast the same bytes are produced.
    """
    from ..shard import run_serial, run_sharded, spec_for_nodes

    _require_defaults(spec, nodes_free=True)
    workers = int(spec.param("workers", 1))
    shard_spec = spec_for_nodes(
        spec.nodes,
        workload=str(spec.param("pattern", "uniform")),
        duration_us=float(spec.param("duration_us", 120.0)),
        inject_interval_us=float(spec.param("interval_us", 1.0)),
        packet_bytes=int(spec.param("nbytes", 256)),
        seed=spec.seed,
    )
    result = (
        run_sharded(shard_spec, workers) if workers > 1 else run_serial(shard_spec)
    )
    return FleetResult(
        unit="us",
        higher_is_better=False,
        samples=result.latency_samples(),
        ops=result.packets_delivered,
        virtual_end_us=result.virtual_end_us,
        metrics={
            "packets_injected": float(result.packets_injected),
            "packets_delivered": float(result.packets_delivered),
            "events": float(result.events),
            "mean_hops": result.mean_hops,
            "mean_latency_us": result.mean_latency_us,
        },
    )


def _require_defaults(spec, *, nodes_free: bool = False) -> None:
    """Workloads that fix their own machine shape (``bench:``, ``study:``,
    ``app``, ``micro``, ``serve``, ``shard``): the spec's platform/fault axes (and
    unless ``nodes_free`` the node count) must stay at their defaults
    rather than being silently ignored."""
    from .catalog import ExperimentSpec

    if spec.platform != "shrimp" or spec.fault_plan != "none":
        raise ValueError(
            f"workload {spec.workload!r} fixes its own machine; "
            "platform/fault_plan must be the defaults"
        )
    default_nodes = ExperimentSpec.__dataclass_fields__["nodes"].default
    if not nodes_free and spec.nodes != default_nodes:
        raise ValueError(
            f"workload {spec.workload!r} fixes its own machine; "
            f"leave nodes at the default ({default_nodes})"
        )


def _run_bench(spec) -> FleetResult:
    """A named bench entry's spec, run at this spec's seed."""
    from ..bench.core import select

    _require_defaults(spec)
    (entry,) = select([spec.workload.split(":", 1)[1]])
    bench_spec = replace(entry.spec, seed=spec.seed)
    return resolve_workload(bench_spec.workload).run(bench_spec)


def _run_study(spec) -> FleetResult:
    from ..study.__main__ import FAMILIES
    from ..study.experiment import run_families

    _require_defaults(spec, nodes_free=True)
    family = spec.workload.split(":", 1)[1]
    if family not in FAMILIES:
        raise ValueError(
            f"unknown study family {family!r}; choose from {sorted(FAMILIES)}"
        )
    _description, _in_all, emitter = FAMILIES[family]
    # One worker: this may already be a fleet pool process.
    (text,) = run_families(
        {family: lambda runner: emitter(runner, spec.nodes)}, seed=spec.seed
    ).values()
    if isinstance(text, Exception):
        raise text
    return FleetResult(
        unit="report",
        higher_is_better=False,
        samples=[],
        report=text,
    )


#: Directly registered workloads (the ``bench:``/``study:`` prefixes are
#: resolved dynamically against their own registries).
WORKLOADS: Dict[str, FleetWorkload] = {
    workload.name: workload
    for workload in (
        FleetWorkload(
            "app",
            "suite application elapsed time: app=NAME, mode=au|du, "
            "config=NAME, protocol=hlrc|hlrc-au|aurc, combine=0|1, "
            "observe=0|1",
            _run_app,
        ),
        FleetWorkload(
            "coll",
            "collective latency: api=nx|coll, mode=nx|tree-host|tree-nic, "
            "op=barrier|allreduce|bcast, ops=N",
            _run_coll,
        ),
        FleetWorkload(
            "micro",
            "section 4.1 microbenchmark: measure=" + "|".join(_MICRO_MEASURES),
            _run_micro,
        ),
        FleetWorkload(
            "ping",
            "(nodes-1)-to-1 vmmc sends: nbytes=N, ops=N, reliable=0|1",
            _run_ping,
        ),
        FleetWorkload(
            "serve",
            "serving-tier request latency: balancer=..., arrivals=..., "
            "rps=..., duration_us=..., measure=latency|goodput",
            _run_serve,
        ),
        FleetWorkload(
            "shard",
            "large-mesh packet latency: pattern=..., duration_us=..., workers=N",
            _run_shard,
        ),
    )
}


def resolve_workload(name: str) -> FleetWorkload:
    """The workload for a spec's ``workload`` field."""
    if name in WORKLOADS:
        return WORKLOADS[name]
    if name.startswith("bench:"):
        return FleetWorkload(
            name, "curated benchmark (see repro.bench)", _run_bench
        )
    if name.startswith("study:"):
        return FleetWorkload(
            name, "study family report (see repro.study)", _run_study
        )
    raise ValueError(
        f"unknown workload {name!r}; registered: {sorted(WORKLOADS)}, "
        "plus bench:<benchmark> and study:<family>"
    )


def workload_names() -> List[str]:
    """Registered workload names plus the dynamic prefixes."""
    return sorted(WORKLOADS) + ["bench:<name>", "study:<family>"]
