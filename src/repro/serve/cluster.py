"""The serving cluster: shards, client aggregates, and the request path.

One :class:`ServeCluster` stands up a complete serving tier on a
:class:`~repro.node.Machine` mesh:

* **Shard servers** on nodes ``0..num_shards-1``.  Each shard owns a request
  queue and :data:`SHARD_WORKERS` worker processes that dequeue, charge the
  service-time model against the node's CPU, and hand the response to a
  transmit lane.
* **Client aggregates** on the remaining nodes.  Each aggregate runs one
  open-loop generator standing in for
  :data:`~repro.serve.config.AGGREGATE_CLIENTS` clients: it draws
  arrivals, Zipf(:data:`ZIPF_EXPONENT`) keys over :data:`NUM_KEYS` and
  request classes from its own named RNG streams, routes each request
  through the configured balancer, and never waits for the system — when
  the tier falls behind, queues grow, exactly as in a real open-loop
  datacenter workload.

All request and response payloads travel as VMMC reliable-delivery sends
over imported buffers, so the serving tier inherits the transport's real
behavior: sequencing, cumulative acks, go-back-N retransmission under loss,
and :class:`~repro.vmmc.errors.DeliveryFailed` when a link stays dead.

**Lanes.**  Concurrent ``send`` calls on one
:class:`~repro.vmmc.reliable.ReliableChannel` are unsafe (sequence specs are
computed before the sends yield), so every channel is driven by exactly one
**lane process**.  Each (aggregate, shard) direction gets
:data:`LANES_PER_DIRECTION` parallel channels, each with its own lane
process and its own slot in the remote buffer; lanes compete on the pair's
queue, so a slow retransmitting lane does not head-of-line-block its
siblings.

**Failure containment.**  A lane that sees ``DeliveryFailed`` trips the
pair's circuit breaker: the failed request is scored against the SLO, and
every request queued behind it fails fast instead of waiting out a retry
budget each.  The tier therefore *degrades* under a permanent outage —
elevated p999 and failures on routes crossing the dead link — and never
deadlocks; the run drains to quiescence regardless.

Determinism: arrivals, keys, classes, routing probes and service times all
come from named seed-derived streams (``("serve", "arrivals", a)`` etc.), so
the offered schedule is a pure function of the seed — installing a fault
plan or swapping the balancer cannot move a single arrival.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim import Timeout
from ..vmmc import DeliveryFailed, ReliableConfig, VMMCRuntime
from .balance import make_balancer
from .config import REQUEST_CLASSES, ServeConfig
from .slo import ShardStats, SloReport, SloTracker
from .traffic import WeightedChoice, ZipfKeys, make_arrivals

__all__ = ["Request", "ServeCluster"]

#: Keys span [0, NUM_KEYS); popularity is Zipf(ZIPF_EXPONENT) over ranks
#: (0 would be uniform, ~1 is the classic hot-key skew).
NUM_KEYS = 4096
ZIPF_EXPONENT = 1.1
#: Parallel reliable-channel lanes per (aggregate, shard) direction.
LANES_PER_DIRECTION = 2
#: Service processes per shard (they share the shard node's CPU).
SHARD_WORKERS = 2


class Request:
    """One in-flight request (metadata rides out of band; payload bytes
    travel through the reliable channel)."""

    __slots__ = ("aggregate", "shard", "key", "klass", "t_arrival", "span")

    def __init__(self, aggregate: int, shard: int, key: int, klass, t_arrival: float):
        self.aggregate = aggregate
        self.shard = shard
        self.key = key
        self.klass = klass
        self.t_arrival = t_arrival
        self.span: Optional[int] = None


class _Pair:
    """One direction of one (aggregate, shard) route: a queue feeding
    :data:`LANES_PER_DIRECTION` reliable channels, plus the shared circuit
    breaker."""

    __slots__ = ("queue", "failed", "channels")

    def __init__(self, queue):
        self.queue = queue
        self.failed = False
        #: (channel, src_vaddr, lane_index) per transmit lane.
        self.channels: List[Tuple] = []


class _Shard:
    """Server-side state of one shard."""

    __slots__ = ("index", "queue", "stats")

    def __init__(self, index: int, queue, stats: ShardStats):
        self.index = index
        self.queue = queue
        self.stats = stats


class ServeCluster:
    """A sharded serving tier on its own mesh machine.

    The cluster builds ``cluster.machine`` (``config.num_nodes`` nodes,
    seeded with ``seed``).  Arm observers on it before ``setup()`` —
    ``cluster.machine.enable_monitor(...)`` or ``enable_obs(...)``.

    Usage::

        cluster = ServeCluster(ServeConfig(...), seed=1998)
        t0 = cluster.setup()        # export/import buffers, open channels
        ...                         # optionally arm chaos against t0
        report = cluster.run()      # drive traffic to quiescence
        print(report.render())
    """

    def __init__(
        self,
        config: ServeConfig,
        seed: int = 1998,
        telemetry: bool = False,
    ):
        from ..node import Machine

        self.config = config
        self.seed = seed
        self.machine = machine = Machine(
            num_nodes=config.num_nodes, seed=seed, telemetry=telemetry
        )
        self.sim = machine.sim
        self.runtime = VMMCRuntime(machine)
        self.tracker = SloTracker([c.name for c in REQUEST_CLASSES])
        #: Outstanding requests per shard — the balancer's load signal.
        self.loads: List[int] = [0] * config.num_shards
        self.shard_stats: List[ShardStats] = [
            ShardStats(s, config.shard_node(s)) for s in range(config.num_shards)
        ]
        #: Per-aggregate offered schedule [(t_local, key, class)] — recorded
        #: before any system interaction, so tests can assert the schedule
        #: is invariant under fault plans and balancer choice.
        self.arrival_schedule: List[List[Tuple[float, int, str]]] = [
            [] for _ in range(config.num_aggregates)
        ]
        #: Largest payload slot each direction must hold.
        self.req_slot = max(c.request_bytes for c in REQUEST_CLASSES)
        self.resp_slot = max(c.response_bytes for c in REQUEST_CLASSES)
        self._rel_config = ReliableConfig(
            timeout_us=config.retx_timeout_us,
            max_retries=config.retx_max_retries,
        )
        from ..sim.resources import Queue

        self._shards: List[_Shard] = [
            _Shard(s, Queue(self.sim, f"serve.shard{s}"), self.shard_stats[s])
            for s in range(config.num_shards)
        ]
        #: (aggregate, shard) -> request-direction pair.
        self.req_pairs: Dict[Tuple[int, int], _Pair] = {}
        #: (aggregate, shard) -> response-direction pair.
        self.resp_pairs: Dict[Tuple[int, int], _Pair] = {}
        for a in range(config.num_aggregates):
            for s in range(config.num_shards):
                self.req_pairs[(a, s)] = _Pair(
                    Queue(self.sim, f"serve.req.{s}.{a}")
                )
                self.resp_pairs[(a, s)] = _Pair(
                    Queue(self.sim, f"serve.resp.{a}.{s}")
                )
        self._balancers = [
            make_balancer(config.balancer) for _ in range(config.num_aggregates)
        ]
        self._shard_eps = []
        self._agg_eps = []
        self._setup_done = 0
        self._traffic_mark: Optional[int] = None
        self.t0 = 0.0
        self.drained_us = 0.0
        self._ran = False

    # -- phase 1: connection setup ----------------------------------------

    def setup(self) -> float:
        """Export, import and open every channel; returns the quiesce time
        ``t0`` at which traffic will start (chaos windows pin against it)."""
        cfg = self.config
        for s in range(cfg.num_shards):
            proc = self.machine.create_process(cfg.shard_node(s))
            self._shard_eps.append(self.runtime.endpoint(proc))
        for a in range(cfg.num_aggregates):
            proc = self.machine.create_process(cfg.aggregate_node(a))
            self._agg_eps.append(self.runtime.endpoint(proc))
        for s in range(cfg.num_shards):
            self.sim.spawn(self._setup_shard(s), f"serve.setup.shard{s}")
        for a in range(cfg.num_aggregates):
            self.sim.spawn(self._setup_aggregate(a), f"serve.setup.agg{a}")
        self.sim.run()
        expected = cfg.num_shards + cfg.num_aggregates
        if self._setup_done != expected:
            raise RuntimeError(
                f"serve setup incomplete: {self._setup_done}/{expected}"
            )
        self.t0 = self.sim.now
        return self.t0

    def _setup_shard(self, s: int):
        """Shard side: export request buffers, import response buffers."""
        cfg = self.config
        ep = self._shard_eps[s]
        # Everyone exports before importing, so the cross imports cannot
        # deadlock on the export directory.
        for a in range(cfg.num_aggregates):
            yield from ep.export(
                self.req_slot * LANES_PER_DIRECTION,
                name=f"serve.req.{s}.{a}",
            )
        for a in range(cfg.num_aggregates):
            imported = yield from ep.import_buffer(f"serve.resp.{a}.{s}")
            pair = self.resp_pairs[(a, s)]
            for lane in range(LANES_PER_DIRECTION):
                channel = ep.open_reliable(imported, self._rel_config)
                src = ep.alloc(self.resp_slot)
                ep.poke(src, bytes(self.resp_slot))
                pair.channels.append((channel, src, lane))
        self._setup_done += 1

    def _setup_aggregate(self, a: int):
        """Aggregate side: export response buffers, import request buffers."""
        cfg = self.config
        ep = self._agg_eps[a]
        for s in range(cfg.num_shards):
            yield from ep.export(
                self.resp_slot * LANES_PER_DIRECTION,
                name=f"serve.resp.{a}.{s}",
            )
        for s in range(cfg.num_shards):
            imported = yield from ep.import_buffer(f"serve.req.{s}.{a}")
            pair = self.req_pairs[(a, s)]
            for lane in range(LANES_PER_DIRECTION):
                channel = ep.open_reliable(imported, self._rel_config)
                src = ep.alloc(self.req_slot)
                ep.poke(src, bytes(self.req_slot))
                pair.channels.append((channel, src, lane))
        self._setup_done += 1

    # -- phase 2: traffic ---------------------------------------------------

    def run(self) -> SloReport:
        """Drive the open-loop window to quiescence; returns the report."""
        if self._ran:
            raise RuntimeError("a ServeCluster runs exactly once")
        self._ran = True
        if not self._shard_eps:
            self.setup()
        cfg = self.config
        obs = self.machine.obs
        if obs is not None:
            # Live-metrics probes over the tier's existing load/SLO state
            # (read-only; the registry samples them on its own cadence).
            obs.register_serve(self)
        tel = self.machine.stats.telemetry
        if tel is not None:
            # An instant is never a *completed span*, so request spans
            # parented to it still count as operation roots for the
            # critical-path analyzer — while keeping consecutive request
            # spans opened by one generator from nesting into each other.
            self._traffic_mark = tel.instant(
                "serve.traffic",
                0,
                "app",
                shards=cfg.num_shards,
                aggregates=cfg.num_aggregates,
                balancer=cfg.balancer,
                arrivals=cfg.arrivals,
            )
        for s, shard in enumerate(self._shards):
            for w in range(SHARD_WORKERS):
                self.sim.spawn(
                    self._worker(shard, w), f"serve.worker.{s}.{w}", daemon=True
                )
            for a in range(cfg.num_aggregates):
                pair = self.resp_pairs[(a, s)]
                for channel, src, lane in pair.channels:
                    self.sim.spawn(
                        self._lane(pair, channel, src, lane, self.resp_slot,
                                   response=True),
                        f"serve.resp_lane.{a}.{s}.{lane}",
                        daemon=True,
                    )
        for a in range(cfg.num_aggregates):
            for s in range(cfg.num_shards):
                pair = self.req_pairs[(a, s)]
                for channel, src, lane in pair.channels:
                    self.sim.spawn(
                        self._lane(pair, channel, src, lane, self.req_slot,
                                   response=False),
                        f"serve.req_lane.{a}.{s}.{lane}",
                        daemon=True,
                    )
            self.sim.spawn(self._generator(a), f"serve.gen.{a}")
        self.sim.run()
        self.drained_us = self.sim.now - self.t0
        return self.report()

    def _generator(self, a: int):
        """Open-loop arrival generator for aggregate ``a``.

        The whole schedule — arrival instants, keys, classes — is drawn
        from the aggregate's own named streams and laid down on a local
        clock before dispatch, so it cannot be perturbed by anything the
        system does (faults, balancing, queueing).
        """
        cfg = self.config
        machine = self.machine
        arrivals = make_arrivals(
            cfg,
            machine.stream("serve", "arrivals", a),
            cfg.rate_per_us / cfg.num_aggregates,
        )
        keys = ZipfKeys(
            machine.stream("serve", "keys", a), NUM_KEYS, ZIPF_EXPONENT
        )
        classes = WeightedChoice(
            machine.stream("serve", "classes", a),
            REQUEST_CLASSES,
            [c.weight for c in REQUEST_CLASSES],
        )
        route_rng = machine.stream("serve", "balance", a)
        schedule = self.arrival_schedule[a]
        t_local = arrivals.next_gap(0.0)
        while t_local < cfg.duration_us:
            key = keys.draw()
            klass = classes.draw()
            schedule.append((t_local, key, klass.name))
            target = self.t0 + t_local
            if target > self.sim.now:
                yield Timeout(target - self.sim.now)
            self._dispatch(a, key, klass, route_rng)
            t_local += arrivals.next_gap(t_local)

    def _dispatch(self, a: int, key: int, klass, route_rng) -> None:
        cfg = self.config
        shard = self._balancers[a].route(key, self.loads, route_rng)
        self.tracker.offer(klass.name)
        request = Request(a, shard, key, klass, self.sim.now)
        self.loads[shard] += 1
        stats = self.shard_stats[shard]
        if self.loads[shard] > stats.peak_outstanding:
            stats.peak_outstanding = self.loads[shard]
        tel = self.machine.stats.telemetry
        if tel is not None:
            request.span = tel.begin(
                "serve.request",
                cfg.aggregate_node(a),
                "app",
                parent=self._traffic_mark,
                klass=klass.name,
                key=key,
                shard=shard,
            )
        pair = self.req_pairs[(a, shard)]
        if pair.failed:
            self._finish_failed(request)
        else:
            pair.queue.put(request)

    def _lane(self, pair: _Pair, channel, src_vaddr: int, lane: int,
              slot: int, response: bool):
        """One transmit lane: the only process driving ``channel``.

        Requests (or responses) are taken from the pair's shared queue; a
        ``DeliveryFailed`` trips the pair's circuit breaker so queued work
        fails fast instead of serially exhausting retry budgets.
        """
        tel_source = self.machine.stats
        while True:
            request = yield from pair.queue.get()
            if pair.failed or channel.failed:
                self._finish_failed(request)
                continue
            nbytes = (
                request.klass.response_bytes
                if response
                else request.klass.request_bytes
            )
            tel = tel_source.telemetry
            span = None
            if tel is not None:
                span = tel.begin(
                    "serve.response" if response else "serve.rpc",
                    channel.endpoint.node_id,
                    "app",
                    parent=request.span,
                    lane=lane,
                )
            try:
                yield from channel.send(src_vaddr, nbytes, dst_offset=lane * slot)
            except DeliveryFailed:
                pair.failed = True
                if tel is not None:
                    tel.end(span, status="failed")
                self._finish_failed(request)
                continue
            if tel is not None:
                tel.end(span)
            if response:
                self._complete(request)
            else:
                self._forward(request)

    def _forward(self, request: Request) -> None:
        """Request payload acked at the shard: enqueue for service."""
        self._shards[request.shard].queue.put(request)

    def _worker(self, shard: _Shard, worker: int):
        """One shard worker: dequeue, serve, hand off the response."""
        cfg = self.config
        node = self.machine.nodes[cfg.shard_node(shard.index)]
        service_rng = self.machine.stream("serve", "service", shard.index)
        while True:
            request = yield from shard.queue.get()
            service_us = request.klass.service.draw(
                service_rng, request.klass.response_bytes
            )
            tel = self.machine.stats.telemetry
            span = None
            if tel is not None:
                span = tel.begin(
                    "serve.service",
                    node.node_id,
                    "app",
                    parent=request.span,
                    worker=worker,
                )
            yield from node.cpu.busy(service_us, "computation")
            if tel is not None:
                tel.end(span, service_us=service_us)
            shard.stats.served += 1
            shard.stats.busy_us += service_us
            pair = self.resp_pairs[(request.aggregate, shard.index)]
            if pair.failed:
                self._finish_failed(request)
            else:
                pair.queue.put(request)

    # -- terminal states ----------------------------------------------------

    def _complete(self, request: Request) -> None:
        latency = self.sim.now - request.t_arrival
        within = latency <= self.config.slo_timeout_us
        self.tracker.complete(request.klass.name, latency, within)
        self.loads[request.shard] -= 1
        tel = self.machine.stats.telemetry
        if tel is not None and request.span is not None:
            tel.end(
                request.span,
                status="ok" if within else "late",
                latency_us=latency,
            )

    def _finish_failed(self, request: Request) -> None:
        self.tracker.fail(request.klass.name)
        self.loads[request.shard] -= 1
        tel = self.machine.stats.telemetry
        if tel is not None and request.span is not None:
            tel.end(request.span, status="failed")

    # -- reporting ----------------------------------------------------------

    def report(self) -> SloReport:
        cfg = self.config
        return SloReport(
            balancer=cfg.balancer,
            arrivals=cfg.arrivals,
            num_shards=cfg.num_shards,
            num_aggregates=cfg.num_aggregates,
            total_clients=cfg.total_clients,
            offered_rps=cfg.offered_rps,
            duration_us=cfg.duration_us,
            slo_timeout_us=cfg.slo_timeout_us,
            drained_us=self.drained_us,
            classes=[self.tracker.by_class[c.name] for c in REQUEST_CLASSES],
            overall=self.tracker.overall,
            shards=self.shard_stats,
        )
