"""repro.serve: a sharded serving tier on the reproduced machine.

The upper layers of the reproduction ask *microbenchmark* questions — how
fast is one message, one barrier, one page fetch.  This package asks the
*service* question those numbers exist to answer: given this communication
substrate, what tail latency and goodput does a sharded key-value tier
deliver under realistic open-loop load, and how does it degrade when the
fabric misbehaves?

* :mod:`~repro.serve.config` — scenario description (layout, balancer,
  offered load, SLO deadline) and the fixed request mix with its
  service-time models.
* :mod:`~repro.serve.traffic` — open-loop arrival processes (Poisson,
  bursty MMPP, diurnal) and Zipf key popularity; millions of clients are
  simulated as a handful of batched aggregates.
* :mod:`~repro.serve.balance` — routing policies: static key hash,
  power-of-two-choices, round-robin.
* :mod:`~repro.serve.cluster` — the tier itself: shard servers, client
  aggregates, and reliable-delivery transmit lanes over VMMC.
* :mod:`~repro.serve.slo` — p50/p99/p999, goodput and failure accounting.
* :mod:`~repro.serve.chaos` — deterministic fault scenarios (link outage,
  shard stall, receive-FIFO overflow) scored against the SLO report and
  the health monitor's postmortem.

The chaos smoke check CI gates on is the fleet spec
``workload=monitor,scenario=serve-smoke`` of ``--matrix demos``.
"""

from .balance import (
    BALANCER_KINDS,
    Balancer,
    HashBalancer,
    PowerOfTwoBalancer,
    RoundRobinBalancer,
    make_balancer,
)
from .chaos import CHAOS_KINDS, ChaosScenario, make_chaos
from .cluster import Request, ServeCluster
from .config import REQUEST_CLASSES, RequestClass, ServeConfig, ServiceModel
from .slo import ClassStats, ShardStats, SloReport, SloTracker
from .traffic import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    ZipfKeys,
    make_arrivals,
)

__all__ = [
    "ARRIVAL_KINDS",
    "BALANCER_KINDS",
    "CHAOS_KINDS",
    "ArrivalProcess",
    "Balancer",
    "ChaosScenario",
    "ClassStats",
    "DiurnalArrivals",
    "HashBalancer",
    "MMPPArrivals",
    "PoissonArrivals",
    "PowerOfTwoBalancer",
    "REQUEST_CLASSES",
    "Request",
    "RequestClass",
    "RoundRobinBalancer",
    "ServeCluster",
    "ServeConfig",
    "ServiceModel",
    "ShardStats",
    "SloReport",
    "SloTracker",
    "ZipfKeys",
    "make_arrivals",
    "make_balancer",
    "make_chaos",
]
