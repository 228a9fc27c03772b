"""Configuration of the serving tier.

A :class:`ServeConfig` describes what varies between serving scenarios: the
shard and client-aggregate layout on the mesh, the balancer, the open-loop
arrival process and its offered load, the SLO deadline the report scores
against, and the reliable transport's retry knobs.  The request mix
(:data:`REQUEST_CLASSES`, read-heavy) and its per-class service-time model
are fixed, as are the key popularity skew, the transmit lanes and the shard
worker pool (constants in :mod:`repro.serve.cluster`).

The client population is modeled as **aggregates**: one arrival process per
aggregate stands in for :data:`AGGREGATE_CLIENTS` real clients, so "millions
of users" costs a handful of simulation processes.  This is the standard
open-loop datacenter abstraction — each individual client contributes a
vanishing fraction of the load, so the superposition of their independent
request streams is (by Palm–Khintchine) close to Poisson, and burstier
processes (MMPP, diurnal modulation) layer rate variation on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

__all__ = ["ServiceModel", "RequestClass", "ServeConfig", "REQUEST_CLASSES"]


@dataclass(frozen=True)
class ServiceModel:
    """Per-request CPU cost at the shard.

    ``draw`` maps (rng, response bytes) to a service time in microseconds:
    a fixed base, a per-KB component for the bytes the shard must touch,
    exponential jitter, and a small heavy-tail fraction (lock collisions,
    cold caches) that multiplies the cost — the ingredient that separates a
    p999 from a p50 even before queueing starts.
    """

    base_us: float = 6.0
    per_kb_us: float = 2.0
    jitter: float = 0.25
    tail_p: float = 0.01
    tail_mult: float = 8.0

    def __post_init__(self):
        if self.base_us < 0 or self.per_kb_us < 0 or self.jitter < 0:
            raise ValueError("service-time components must be non-negative")
        if not 0.0 <= self.tail_p <= 1.0:
            raise ValueError("tail_p must be in [0, 1]")
        if self.tail_mult < 1.0:
            raise ValueError("tail_mult must be >= 1")

    def draw(self, rng, nbytes: int) -> float:
        cost = self.base_us + self.per_kb_us * (nbytes / 1024.0)
        if self.jitter:
            cost *= 1.0 + self.jitter * rng.expovariate(1.0)
        if self.tail_p and rng.random() < self.tail_p:
            cost *= self.tail_mult
        return cost


@dataclass(frozen=True)
class RequestClass:
    """One request family in the traffic mix (e.g. point reads)."""

    name: str
    weight: float
    request_bytes: int
    response_bytes: int
    service: ServiceModel = field(default_factory=ServiceModel)

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("class weight must be positive")
        if self.request_bytes < 1 or self.response_bytes < 1:
            raise ValueError("request/response bytes must be positive")


#: Read-heavy key-value mix: small gets with 1 KB responses, larger puts
#: with tiny acks and a costlier (write-path) service model.
REQUEST_CLASSES: Tuple[RequestClass, ...] = (
    RequestClass("get", weight=0.8, request_bytes=128, response_bytes=1024),
    RequestClass(
        "put",
        weight=0.2,
        request_bytes=1024,
        response_bytes=64,
        service=ServiceModel(base_us=10.0, per_kb_us=3.0),
    ),
)

#: Real clients each aggregate stands in for (reporting only).
AGGREGATE_CLIENTS = 250_000


@dataclass(frozen=True)
class ServeConfig:
    """One serving scenario: layout x traffic x SLO."""

    #: Shard servers, one per mesh node (nodes 0..num_shards-1).
    num_shards: int = 4
    #: Client aggregates, one per mesh node after the shards.
    num_aggregates: int = 4
    #: Routing policy: "hash", "p2c" or "rr" (see repro.serve.balance).
    balancer: str = "hash"
    #: Arrival process: "poisson", "mmpp" or "diurnal" (repro.serve.traffic).
    arrivals: str = "poisson"
    #: Offered load across the whole service, requests per second.
    offered_rps: float = 60_000.0
    #: Open-loop generation window, microseconds of virtual time.
    duration_us: float = 20_000.0
    #: SLO deadline: completions slower than this count as late, not good.
    slo_timeout_us: float = 1_500.0
    #: Reliable-transport knobs (base retransmission timeout, retry budget).
    retx_timeout_us: float = 300.0
    retx_max_retries: int = 6

    def __post_init__(self):
        if self.num_shards < 1 or self.num_aggregates < 1:
            raise ValueError("need at least one shard and one aggregate")
        if self.offered_rps <= 0 or self.duration_us <= 0:
            raise ValueError("offered_rps and duration_us must be positive")
        if self.slo_timeout_us <= 0:
            raise ValueError("slo_timeout_us must be positive")

    @property
    def num_nodes(self) -> int:
        """Mesh nodes the scenario occupies (shards first, then clients)."""
        return self.num_shards + self.num_aggregates

    @property
    def rate_per_us(self) -> float:
        """Aggregate offered rate in requests per microsecond."""
        return self.offered_rps / 1e6

    @property
    def total_clients(self) -> int:
        return AGGREGATE_CLIENTS * self.num_aggregates

    def shard_node(self, shard: int) -> int:
        return shard

    def aggregate_node(self, aggregate: int) -> int:
        return self.num_shards + aggregate
