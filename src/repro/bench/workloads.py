"""The curated benchmark set: named selections over the fleet workloads.

Every benchmark is a :class:`BenchEntry` — a name, a suite, a quick flag,
a description and an :class:`~repro.fleet.ExperimentSpec` (a
:mod:`repro.fleet.workloads` workload plus its params).  No program is
written here: :func:`repro.bench.core.run_benchmarks` runs each entry's
spec once per seed through :func:`repro.fleet.runner.run_specs`.

The ``seed`` suite (gated by ``BENCH_seed.json``) has three families:

* **micro** — the section 4.1 microbenchmarks (word latency, send
  overhead, bulk bandwidth), one sample per seed;
* **ping** — telemetry-instrumented message streams whose per-operation
  ``vmmc.send`` spans yield latency distributions *and* critical-path
  attribution vectors (including a lossy reliable-channel variant, where
  retransmission timeouts surface as ``stall``);
* **apps** — study-suite applications (full mode only): end-to-end
  elapsed time plus the aggregate attribution of every top-level
  operation in the run.

Plus the growth-direction suites, gated by their own baselines:
**serve** (serving-tier latency/goodput) and **coll** (in-network
collectives: barrier, allreduce, broadcast).

Everything is seeded and measured in virtual time, so a benchmark's
samples are a pure function of the code — which is what makes the
committed baseline comparable across machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..fleet.catalog import ExperimentSpec, make_spec

__all__ = ["BenchEntry", "BENCHMARKS", "REGISTRY"]


@dataclass(frozen=True)
class BenchEntry:
    """One named benchmark: which suite it gates and what spec it runs."""

    name: str
    #: Which benchmark suite the entry belongs to.  The default selection
    #: runs only the ``"seed"`` suite, so the committed ``BENCH_seed.json``
    #: baseline stays byte-identical as new suites are added; select
    #: others with ``--suite``.
    suite: str
    #: Included in the --quick subset (CI-sized).
    quick: bool
    description: str
    #: The fleet spec run at each seed (its own ``seed`` is replaced).
    spec: ExperimentSpec


BENCHMARKS = (
    # -- seed: section 4.1 microbenchmarks ---------------------------------
    BenchEntry("du_word_latency", "seed", True,
               "one-word deliberate-update end-to-end latency",
               make_spec("micro", measure="du_word_latency")),
    BenchEntry("au_word_latency", "seed", True,
               "one-word automatic-update end-to-end latency",
               make_spec("micro", measure="au_word_latency")),
    BenchEntry("du_send_overhead", "seed", True,
               "send-side cost of an asynchronous deliberate update",
               make_spec("micro", measure="du_send_overhead")),
    BenchEntry("du_bulk_bandwidth", "seed", True,
               "64 KB deliberate-update bandwidth",
               make_spec("micro", measure="du_bulk_bandwidth")),
    BenchEntry("au_bulk_bandwidth", "seed", True,
               "64 KB combined automatic-update bandwidth",
               make_spec("micro", measure="au_bulk_bandwidth")),
    # -- seed: pings (sender -> node 0 streams) ----------------------------
    BenchEntry("du_ping_word", "seed", True,
               "4 B deliberate-update send, initiation to delivery",
               make_spec("ping", nodes=2, nbytes=4)),
    BenchEntry("du_ping_4k", "seed", True,
               "one-page deliberate-update send",
               make_spec("ping", nodes=2, nbytes=4096)),
    BenchEntry("du_fanin_4k", "seed", True,
               "3-to-1 fan-in of one-page sends (contention)",
               make_spec("ping", nodes=4, nbytes=4096)),
    BenchEntry("rel_ping_lossy", "seed", True,
               "reliable-channel send over a 10%-drop fabric",
               make_spec("ping", nodes=2, fault_plan="drop10", nbytes=4096,
                         reliable=True)),
    # -- seed: suite applications (full mode only) -------------------------
    BenchEntry("radix_vmmc_du", "seed", False,
               "Radix-VMMC (du, P=4) elapsed time",
               make_spec("app", nodes=4, app="Radix-VMMC", mode="du")),
    BenchEntry("barnes_nx_du", "seed", False,
               "Barnes-NX (du, P=4) elapsed time",
               make_spec("app", nodes=4, app="Barnes-NX", mode="du")),
    BenchEntry("radix_svm_au", "seed", False,
               "Radix-SVM (au, P=4) elapsed time",
               make_spec("app", nodes=4, app="Radix-SVM", mode="au")),
    # -- serve -------------------------------------------------------------
    BenchEntry("serve_request_latency", "serve", True,
               "per-request latency, 2x2 tier, hash balancer",
               make_spec("serve", nodes=4, balancer="hash")),
    BenchEntry("serve_goodput_mmpp", "serve", True,
               "goodput under bursty MMPP overload, p2c balancer",
               make_spec("serve", nodes=4, balancer="p2c", arrivals="mmpp",
                         rps=60_000.0, measure="goodput")),
    # -- coll: CollWorld trains on 16 ranks, no warm-up ---------------------
    BenchEntry("coll_barrier_nic_16", "coll", True,
               "NIC-resident tree barrier, 16 nodes",
               make_spec("coll", nodes=16, api="coll", mode="tree-nic",
                         op="barrier")),
    BenchEntry("coll_barrier_host_16", "coll", True,
               "host-backend tree barrier, 16 nodes",
               make_spec("coll", nodes=16, api="coll", mode="tree-host",
                         op="barrier")),
    BenchEntry("coll_allreduce_nic_16", "coll", True,
               "NIC-resident combining allreduce, 16 nodes",
               make_spec("coll", nodes=16, api="coll", mode="tree-nic",
                         op="allreduce")),
    BenchEntry("coll_bcast_4k_nic_16", "coll", True,
               "switch-replicated 4 KB broadcast, 16 nodes",
               make_spec("coll", nodes=16, api="coll", mode="tree-nic",
                         op="bcast")),
)

#: name -> entry, in table order.
REGISTRY: Dict[str, BenchEntry] = {entry.name: entry for entry in BENCHMARKS}
