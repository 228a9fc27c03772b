"""Fleet workloads: the one place a workload program is written.

Every workload maps an :class:`ExperimentSpec` to a :class:`FleetResult`
(samples, attribution, telemetry, monitor, metrics, report).  The other
experiment surfaces select from this registry instead of copying it:
``repro.bench`` and ``repro.study`` read the records of specs run
through :func:`repro.fleet.runner.run_specs`, ``repro.obs profile``
runs catalog specs through :func:`resolve_workload`, ``repro.obs
scrape`` calls :func:`spawn_stream` on a machine it builds, and tests
and examples drive :func:`spawn_fan_in` and :func:`spawn_outage` the
same way.

* ``app`` — a study-suite application (``app=NAME``, ``mode=au|du``,
  what-if ``config=NAME``, SVM ``protocol=...``, ``combine=1``); one
  sample, its elapsed time, with breakdown and counters in ``metrics``.
  Every top-level operation is attributed unless ``observe=0``, which
  runs on a plain machine, as the study tables do.
* ``coll`` — ``ops`` collectives on ``spec.nodes`` ranks: ``api=nx``
  (default) runs NX barriers after a warm-up one, ``mode`` placing the
  barrier, then ``allreduces`` sum-allreduces (their mean latency, the
  barrier's and its attribution shares land in ``metrics``);
  ``api=coll`` drives :class:`repro.coll.CollWorld` directly with
  ``op=barrier|allreduce|bcast`` and no warm-up.
* ``micro`` — a section 4.1 microbenchmark (``measure=...``); one
  sample, also the ``metrics`` entry named by the measure.
* ``monitor`` — a fault scenario with the health monitor armed
  (``scenario=outage|overflow|fanin|serve-smoke``); no samples, and the
  report holds the trip report and the rendered postmortem.
* ``ping`` — ``spec.nodes - 1`` senders streaming into node 0
  (``reliable=1``: over go-back-N); samples are ``vmmc.send`` spans.
* ``ring`` — the reliability study's all-nodes ring transfer
  (``mode=du|au``, ``reliable=1``: DU over go-back-N) on the spec's
  fault plan; one sample (DU elapsed time, or the AU bytes lost in %),
  with the run's counters in ``metrics``.
* ``serve`` — a :class:`repro.serve.ServeCluster` run, optionally under
  a ``chaos`` scenario; samples are ``serve.request`` spans, or with
  ``measure=goodput`` the goodput, and the SLO report's figures land in
  ``metrics``.  ``observe=0`` runs without telemetry: no span samples.
* ``shard`` — the large-mesh packet model (:mod:`repro.shard`); samples
  are per-delivery latencies.

Span samples drop each node's cold first op.  Platforms come from
:mod:`repro.study.platforms`; fault plans are the named entries of
:data:`FAULT_PLANS`, so a catalog stays declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..serve.config import ServeConfig
from ..telemetry import critpath

__all__ = [
    "FleetResult",
    "FleetWorkload",
    "WORKLOADS",
    "FAULT_PLANS",
    "PLATFORMS",
    "COLL_MODES",
    "MICRO_MEASURES",
    "spawn_stream",
    "spawn_fan_in",
    "spawn_outage",
    "OUTAGE_AT_US",
    "SERVE_SMOKE_CONFIG",
    "SERVE_SMOKE_OUTAGE_AT_US",
    "SERVE_CHAOS_AT_US",
    "SERVE_CHAOS_DURATION_US",
    "spawn_nx_coll",
    "spawn_coll_ops",
    "resolve_workload",
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
    """A registered workload: a description, the spec -> result program,
    the names of the spec params that program reads and the fewest
    nodes it runs on."""

    name: str
    description: str
    program: Callable[["ExperimentSpec"], FleetResult]
    params: Tuple[str, ...] = ()
    min_nodes: int = 1

    def check(self, spec) -> None:
        """Reject a spec carrying a param this workload does not read, so
        a misspelt knob cannot run the defaults under its own
        fingerprint, and a spec whose machine would not have
        ``spec.nodes`` nodes."""
        if spec.nodes < self.min_nodes:
            raise ValueError(
                f"workload {self.name!r} needs nodes >= {self.min_nodes}, "
                f"got {spec.nodes}"
            )
        for key, _value in spec.params:
            if key not in self.params:
                accepted = ", ".join(self.params) or "none"
                raise ValueError(
                    f"workload {self.name!r} has no param {key!r} "
                    f"(accepted: {accepted})"
                )

    def run(self, spec) -> FleetResult:
        self.check(spec)
        return self.program(spec)


#: Named fault environments a catalog can select declaratively.
#: ``none`` maps to no plan at all (the zero-overhead gate stays closed).
FAULT_PLANS: Dict[str, Optional[dict]] = {
    "none": None,
    "drop1": {"drop_rate": 0.01},
    "drop2": {"drop_rate": 0.02},
    "drop5": {"drop_rate": 0.05},
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

#: The ``micro`` workload's ``measure`` values, in report order.
MICRO_MEASURES = ("du_word_latency", "au_word_latency", "du_send_overhead",
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


def spawn_fan_in(machine, nbytes: int, commit_lock: bool = False) -> None:
    """Every other node streams ``nbytes`` x4 into node 0 concurrently.

    With ``commit_lock`` each sender finishes by updating a shared
    completion record under one machine-wide lock, so all senders queue
    on a single Resource — the wait-queue-depth signature.
    """
    from ..sim import Resource
    from ..vmmc import VMMCRuntime

    vmmc = VMMCRuntime(machine)
    receiver = vmmc.endpoint(machine.create_process(0))
    senders = [
        vmmc.endpoint(machine.create_process(node))
        for node in range(1, machine.num_nodes)
    ]
    total = nbytes * 4 * len(senders)
    lock = Resource(machine.sim, name="fanin.commit") if commit_lock else None

    def rx():
        yield from receiver.export(total, name="fanin.buf")

    def tx(endpoint, index):
        imported = yield from endpoint.import_buffer("fanin.buf")
        src = endpoint.alloc(nbytes)
        endpoint.poke(src, bytes(nbytes))
        offset = index * 4 * nbytes
        for burst in range(4):
            yield from endpoint.send(
                imported, src, nbytes, dst_offset=offset + burst * nbytes
            )
        if lock is not None:
            yield from lock.acquire()
            yield 100.0  # serialized completion-record update
            lock.release()

    machine.sim.spawn(rx(), "fanin.rx")
    machine.start()  # NIC engines must run before the senders pile in
    machine.sim.run()  # let the export land
    for index, endpoint in enumerate(senders):
        machine.sim.spawn(tx(endpoint, index), f"fanin.tx{index + 1}")


#: Virtual time at which :func:`spawn_outage`'s link goes dark for good.
OUTAGE_AT_US = 1_000.0

#: The serve-smoke scenario (``monitor scenario=serve-smoke``, ``python -m
#: repro.obs scrape --workload serve-chaos``): a 2x2 serving tier whose
#: aggregate-to-shard route loses a link for good at
#: :data:`SERVE_SMOKE_OUTAGE_AT_US`.  The retry budget is kept small so
#: the crossing channels fail (and the monitor names the dead link) well
#: before the drain completes.
SERVE_SMOKE_CONFIG = ServeConfig(
    num_shards=2, num_aggregates=2, balancer="hash", arrivals="poisson",
    offered_rps=25_000.0, duration_us=8_000.0, slo_timeout_us=1_000.0,
    retx_timeout_us=200.0, retx_max_retries=3,
)
SERVE_SMOKE_OUTAGE_AT_US = 1_500.0


def spawn_outage(machine) -> None:
    """Node 0 sends two 2 KB messages to node 1 over a reliable channel,
    and link (0, 1) dies for good at :data:`OUTAGE_AT_US`, between them:
    ``sim.run()`` raises ``DeliveryFailed``, the receiver still blocked."""
    from ..faults import FaultConfig, FaultPlan
    from ..vmmc import ReliableConfig, VMMCRuntime

    # An empty fault config samples no random events; the outage window is
    # pinned by hand so the run kills a *known* link deterministically.
    plan = FaultPlan(FaultConfig(), machine.streams.base_seed)
    machine.install_fault_plan(plan)
    plan.outages[(0, 1)] = [(OUTAGE_AT_US, float("inf"))]

    vmmc = VMMCRuntime(machine)
    sender = vmmc.endpoint(machine.create_process(0))
    receiver = vmmc.endpoint(machine.create_process(1))
    nbytes = 2048

    def rx():
        buffer = yield from receiver.export(nbytes, name="outage.buf")
        yield from receiver.wait_bytes(buffer, 2 * nbytes)

    def tx():
        imported = yield from sender.import_buffer("outage.buf")
        channel = sender.open_reliable(
            imported, ReliableConfig(timeout_us=200.0, max_retries=4)
        )
        src = sender.alloc(nbytes)
        sender.poke(src, _payload(nbytes))
        yield from channel.send(src, nbytes)  # completes before the outage
        yield OUTAGE_AT_US + 100.0 - machine.sim.now
        yield from channel.send(src, nbytes)  # dies on the dead link

    machine.sim.spawn(rx(), "outage.rx")
    machine.sim.spawn(tx(), "outage.tx")


#: The window of a ``serve`` spec's ``chaos`` fault: 4 ms dark starting
#: 2 ms into the traffic window — long enough to force several go-back-N
#: backoff rounds, short enough for the default retry budget to ride it out.
SERVE_CHAOS_AT_US = 2_000.0
SERVE_CHAOS_DURATION_US = 4_000.0


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


def _span_result(machine, agg, metrics=None) -> FleetResult:
    """Latency samples and attribution ``agg`` of the ``agg.name`` ops in
    a run."""
    telemetry = machine.telemetry
    return FleetResult(
        unit="us",
        higher_is_better=False,
        samples=_span_samples(telemetry, agg.name),
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
    allreduces = int(spec.param("allreduces", 0))
    backend = COLL_MODES.get(mode, (None,))[0]
    if not ((api == "nx" and op == "barrier") or (api == "coll" and backend)):
        raise ValueError(
            f"unsupported coll api={api!r} mode={mode!r} op={op!r}: api=nx "
            "runs barriers, api=coll needs mode=tree-host|tree-nic"
        )
    if api == "coll" and spec.param("allreduces") is not None:
        raise ValueError("allreduces follow NX barriers: it needs api=nx")
    machine = _machine(spec, spec.nodes)
    if api == "nx":
        marks = spawn_nx_coll(machine, spec.nodes, mode, ops, allreduces)
        span_name = COLL_MODES[mode][1]
    else:
        spawn_coll_ops(machine, spec.nodes, backend, op, ops)
        span_name = f"coll.{op}"
    machine.sim.run()
    metrics = {
        "coll_packets": float(machine.stats.counter_value("coll.packets"))
    }
    agg = critpath.aggregate(machine.telemetry, span_name, top=0)
    if allreduces:
        # Shares of the barriers' total time (not of the attributed sum).
        metrics["barrier_us"] = agg.total_us / agg.count if agg.count else 0.0
        metrics["allreduce_us"] = (marks["end"] - marks["mid"]) / allreduces
        metrics.update(
            (f"{component}_pct", 100.0 * agg.fraction(component))
            for component in ("cpu", "notify", "nic_dma", "link", "sync")
        )
    return _span_result(machine, agg, metrics)


def _run_ping(spec) -> FleetResult:
    machine = _machine(spec, spec.nodes)
    spawn_stream(
        machine,
        spec.nodes - 1,
        nbytes=int(spec.param("nbytes", 4096)),
        ops=int(spec.param("ops", 9)),
        reliable=bool(spec.param("reliable", False)),
    )
    machine.sim.run()
    return _span_result(
        machine, critpath.aggregate(machine.telemetry, "vmmc.send", top=0)
    )


def _run_serve(spec) -> FleetResult:
    from ..serve import ServeCluster, make_chaos

    # Chaos goes through repro.serve scenarios, not fleet fault plans.
    _require_defaults(spec, nodes_free=True)
    measure = spec.param("measure", "latency")
    if measure not in ("latency", "goodput"):
        raise ValueError(
            f"unknown serve measure {measure!r}; choose from latency, goodput"
        )
    chaos = make_chaos(
        str(spec.param("chaos", "none")),
        at_us=SERVE_CHAOS_AT_US,
        duration_us=SERVE_CHAOS_DURATION_US,
    )
    observe = bool(spec.param("observe", True))
    num_shards = spec.nodes // 2
    config = ServeConfig(
        num_shards=num_shards,
        num_aggregates=spec.nodes - num_shards,
        balancer=str(spec.param("balancer", "hash")),
        arrivals=str(spec.param("arrivals", "poisson")),
        offered_rps=float(spec.param("rps", 40_000.0)),
        duration_us=float(spec.param("duration_us", 5_000.0)),
    )
    cluster = ServeCluster(config, seed=spec.seed, telemetry=observe)
    cluster.setup()
    chaos.apply(cluster)
    report = cluster.run()
    machine = cluster.machine
    telemetry = machine.telemetry
    overall = report.overall
    result = FleetResult(
        unit="us",
        higher_is_better=False,
        samples=[
            span.duration
            for span in critpath.operation_roots(telemetry, "serve.request")
        ] if observe else [],
        telemetry=telemetry,
        monitor=machine.monitor,
        virtual_end_us=machine.now,
        metrics={
            "goodput_rps": report.goodput_rps,
            "offered": float(overall.offered),
            "ok": float(overall.ok),
            "late": float(overall.late),
            "failed": float(overall.failed),
            "p50_us": report.p50_us,
            "p99_us": report.p99_us,
            "p999_us": report.p999_us,
            "timeout_rate": report.timeout_rate,
            "failure_rate": report.failure_rate,
            "drained_us": report.drained_us,
        },
        report=report.render(),
    )
    if measure == "goodput":
        result.unit, result.higher_is_better = "rps", True
        result.samples = [report.goodput_rps]
    elif observe:
        agg = critpath.aggregate(telemetry, "serve.request", top=0)
        result.attribution, result.ops = agg.components, agg.count
    return result


def _monitor_scenario(scenario: str, seed: int):
    """Run one monitor-armed fault scenario; returns (machine, outcome)."""
    from ..faults import FaultConfig
    from ..hardware import DEFAULT_PARAMS
    from ..monitor import MonitorConfig
    from ..node import Machine
    from ..vmmc import DeliveryFailed

    if scenario == "outage":
        # A reliable stream hits a permanently dead link mid-transfer.
        machine = Machine(num_nodes=2, seed=seed)
        machine.enable_monitor(MonitorConfig(
            check_interval_us=100.0, stall_timeout_us=2_000.0,
            retx_window_us=5_000.0, retx_storm_rounds=3,
        ))
        spawn_outage(machine)
        error = None
        try:
            machine.sim.run()
        except DeliveryFailed as exc:
            error = exc
        return machine, f"DeliveryFailed: {error}"
    # Both fan-ins run 15 senders into a 4 KB receive FIFO.  ``overflow``
    # discards on overflow (the commodity-switch behavior).  ``fanin`` is
    # the paper's 15-to-1 contention collapse under wormhole backpressure:
    # small messages pack the FIFO near capacity (rx_watermark), and the
    # serialized commit section queues all 15 senders on one lock
    # (wait_queue_depth).
    overflow = scenario == "overflow"
    machine = Machine(
        num_nodes=16,
        seed=seed,
        params=DEFAULT_PARAMS.with_overrides(rx_fifo_bytes=4096),
        fault_config=FaultConfig(rx_overflow_discard=True) if overflow else None,
    )
    if overflow:
        machine.enable_monitor(MonitorConfig(check_interval_us=50.0))
        spawn_fan_in(machine, nbytes=1024)
    else:
        machine.enable_monitor(
            MonitorConfig(check_interval_us=25.0, wait_queue_watermark=6)
        )
        spawn_fan_in(machine, nbytes=256, commit_lock=True)
    machine.sim.run()
    if overflow:
        drops = machine.stats.counter_value("fault.rx_overflow_drops")
        return machine, f"{drops} packet(s) discarded by receive-FIFO overflow"
    stalls = machine.stats.counter_value("rx.backpressure")
    return machine, f"{stalls} backpressure stall(s) at the receiver"


def _serve_smoke(seed: int):
    """A small serving tier rides through a permanent mid-run link outage:
    it must degrade without deadlocking (``smoke: PASS``), and the
    monitor's postmortem must name the dead link."""
    from ..monitor import MonitorConfig
    from ..serve import ServeCluster, make_chaos

    cluster = ServeCluster(SERVE_SMOKE_CONFIG, seed=seed, telemetry=True)
    # Serving queues legitimately sit idle between arrivals and run deep
    # under bursts; keep the generic watchdogs from crying wolf while the
    # transport-level trips (retx storms, delivery failures) stay sharp.
    monitor = cluster.machine.enable_monitor(MonitorConfig(
        check_interval_us=250.0, stall_timeout_us=100_000.0,
        wait_queue_watermark=4096, retx_window_us=3_000.0,
        retx_storm_rounds=3,
    ))
    cluster.setup()
    chaos = make_chaos(
        "link-outage", at_us=SERVE_SMOKE_OUTAGE_AT_US, duration_us=None
    )
    chaos.apply(cluster)
    head = f"chaos: {chaos.describe(cluster)}"
    report = cluster.run()
    ok, failed = report.overall.ok, report.overall.failed
    return cluster.machine, "\n".join([
        head, report.render(), "", monitor.report(),
        monitor.postmortem().render(), "",
        critpath.attribution_report(cluster.machine.telemetry, "serve.request"),
        "", f"smoke: {'PASS' if ok > 0 and failed > 0 else 'FAIL'} "
        f"(ok={ok}, failed={failed}, p999={report.p999_us:.1f}us)",
    ])


def _run_monitor(spec) -> FleetResult:
    """A fault scenario with the health monitor armed; the report holds
    the trip report and the rendered postmortem."""
    _require_defaults(spec)
    scenario = spec.param("scenario")
    if scenario == "serve-smoke":
        machine, report = _serve_smoke(spec.seed)
    elif scenario in ("outage", "overflow", "fanin"):
        machine, outcome = _monitor_scenario(scenario, spec.seed)
        report = "\n".join([
            f"run ended at t={machine.now:.1f}us; {outcome}", "",
            machine.monitor.report(), "", machine.monitor.postmortem().render(),
        ])
    else:
        raise ValueError(
            f"unknown monitor scenario {scenario!r}; choose from "
            "outage, overflow, fanin, serve-smoke"
        )
    return FleetResult(
        unit="report",
        higher_is_better=False,
        samples=[],
        telemetry=machine.telemetry,
        monitor=machine.monitor,
        virtual_end_us=machine.now,
        report=report,
    )


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
        if not hasattr(app, "au_combine"):
            raise ValueError(f"{suite_app.name} has no AU combining knob")
        app.au_combine = True
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
    if measure not in MICRO_MEASURES:
        raise ValueError(
            f"unknown micro measure {measure!r}; choose from {MICRO_MEASURES}"
        )
    bandwidth = measure.endswith("_bandwidth")
    value = getattr(micro, measure)()
    return FleetResult(
        unit="MB/s" if bandwidth else "us",
        higher_is_better=bandwidth,
        samples=[value],
        metrics={measure: value},
    )


def _run_ring(spec) -> FleetResult:
    """The reliability study's ring transfer on the spec's fault plan."""
    from ..study.reliability import au_loss_run, du_reliability_run

    mode = spec.param("mode", "du")
    reliable = bool(spec.param("reliable", False))
    if mode not in ("du", "au"):
        raise ValueError(f"unknown ring mode {mode!r}; choose from du, au")
    if mode == "au" and reliable:
        raise ValueError("automatic update has no reliable mode")
    machine = _machine(spec, spec.nodes, observe=False)
    if mode == "du":
        metrics = du_reliability_run(machine, reliable)
        unit, sample = "us", metrics["elapsed_us"]
    else:
        metrics = au_loss_run(machine)
        unit, sample = "%", metrics["loss_pct"]
    return FleetResult(unit=unit, higher_is_better=False, samples=[sample],
                       virtual_end_us=machine.now, metrics=metrics)


def _run_shard(spec) -> FleetResult:
    """The large-mesh shard model at ``spec.nodes`` (virtual time only).

    Samples are per-delivery latencies; counters (packets, events, hops)
    land in ``metrics``.  Wall-clock figures (events/s) are deliberately
    excluded, so records regenerate byte-identically on any host.
    """
    from ..shard import run_serial, spec_for_nodes

    _require_defaults(spec, nodes_free=True)
    result = run_serial(spec_for_nodes(
        spec.nodes,
        workload=str(spec.param("pattern", "uniform")),
        duration_us=float(spec.param("duration_us", 120.0)),
        inject_interval_us=float(spec.param("interval_us", 1.0)),
        packet_bytes=int(spec.param("nbytes", 256)),
        seed=spec.seed,
    ))
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
            "max_latency_us": result.latency_max_us,
            "virtual_end_us": result.virtual_end_us,
        },
    )


def _require_defaults(spec, *, nodes_free: bool = False) -> None:
    """Workloads that fix their own machine shape (``app``, ``micro``,
    ``monitor``, ``serve``, ``shard``): the spec's
    platform/fault axes (and unless ``nodes_free`` the node count) must
    stay at their defaults rather than being silently ignored, as
    :meth:`FleetWorkload.check` does for unread params."""
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


#: Every workload, by name.
WORKLOADS: Dict[str, FleetWorkload] = {
    workload.name: workload
    for workload in (
        FleetWorkload(
            "app",
            "suite application elapsed time: app=NAME, mode=au|du, "
            "config=NAME, protocol=hlrc|hlrc-au|aurc, combine=0|1, "
            "observe=0|1",
            _run_app,
            ("app", "mode", "config", "protocol", "combine", "observe"),
        ),
        FleetWorkload(
            "coll",
            "collective latency: api=nx|coll, mode=nx|tree-host|tree-nic, "
            "op=barrier|allreduce|bcast, ops=N, allreduces=N (api=nx)",
            _run_coll,
            ("allreduces", "api", "mode", "op", "ops"),
        ),
        FleetWorkload(
            "micro",
            "section 4.1 microbenchmark: measure=" + "|".join(MICRO_MEASURES),
            _run_micro,
            ("measure",),
        ),
        FleetWorkload(
            "monitor",
            "monitor-armed fault scenario report: "
            "scenario=outage|overflow|fanin|serve-smoke",
            _run_monitor,
            ("scenario",),
        ),
        FleetWorkload(
            "ping",
            "(nodes-1)-to-1 vmmc sends: nbytes=N, ops=N, reliable=0|1",
            _run_ping,
            ("nbytes", "ops", "reliable"),
            min_nodes=2,
        ),
        FleetWorkload(
            "ring",
            "reliability-study ring transfer: mode=du|au, reliable=0|1",
            _run_ring,
            ("mode", "reliable"),
        ),
        FleetWorkload(
            "serve",
            "serving-tier request latency: balancer=..., arrivals=..., "
            "rps=..., duration_us=..., chaos=none|link-outage|shard-stall|"
            "rx-overflow, measure=latency|goodput, observe=0|1",
            _run_serve,
            ("balancer", "arrivals", "rps", "duration_us", "chaos", "measure",
             "observe"),
            min_nodes=2,
        ),
        FleetWorkload(
            "shard",
            "large-mesh packet latency: pattern=..., duration_us=..., "
            "interval_us=..., nbytes=N",
            _run_shard,
            ("pattern", "duration_us", "interval_us", "nbytes"),
        ),
    )
}


def resolve_workload(name: str) -> FleetWorkload:
    """The workload for a spec's ``workload`` field."""
    if name in WORKLOADS:
        return WORKLOADS[name]
    raise ValueError(
        f"unknown workload {name!r}; registered: {sorted(WORKLOADS)}"
    )
