"""Deterministic fault plans.

A :class:`FaultPlan` is the single source of truth for every fault a run
injects: packet drops, packet corruption, transient link outages, receive-
FIFO overflow discards, and node stall/crash events.  All of it is derived
from a seed via :func:`repro.sim.rng.derive_seed`, so two runs with the same
seed and machine shape see the *identical* fault schedule — the property
that makes "reliable mode under 1% loss" a reproducible experiment rather
than a flaky one.

Two kinds of decision live here:

* **Per-packet fates** (drop / corrupt / deliver) are computed by hashing
  the packet's (source, destination, per-pair attempt number) into a
  uniform variate.  This makes the fate of the *n*-th packet on a channel a
  pure function of the seed, independent of how traffic on other channels
  interleaves with it.
* **Scheduled events** (link outage windows, node stall windows, crash
  times) are sampled once, when the plan is bound to a machine, from
  dedicated derived RNG streams.

Injection sites (:mod:`repro.network.backplane`,
:mod:`repro.nic.interface`) gate on ``plan is None`` exactly the way
telemetry sites gate on ``stats.telemetry``: when no plan is installed the
hot paths pay one predicate check and nothing else, so a no-plan run is
byte-for-byte identical to a build without the subsystem.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.rng import derive_seed, named_stream

__all__ = ["Fate", "FaultConfig", "FaultPlan"]

#: Scale factor turning a 64-bit hash into a uniform variate in [0, 1).
_U64 = float(2**64)

#: Duration of each node stall window.
STALL_WINDOW_US = 100.0


class Fate(enum.Enum):
    """What the fabric does to one packet."""

    DELIVER = "deliver"
    DROP = "drop"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class FaultConfig:
    """Knobs describing the fault environment of one run.

    Rates are per-packet probabilities; scheduled events are placed
    uniformly over ``[0, horizon_us)`` when the plan is bound to a machine.
    """

    #: Probability that a packet vanishes in the fabric.
    drop_rate: float = 0.0
    #: Probability that a packet arrives with a failing CRC (the receiving
    #: NIC discards it after paying the receive-side costs).
    corrupt_rate: float = 0.0
    #: Number of transient link outages to schedule across the mesh.
    link_outages: int = 0
    #: Duration of each link outage.
    outage_duration_us: float = 200.0
    #: Number of node stall windows (a stalled node's receive engine
    #: freezes for :data:`STALL_WINDOW_US`, as under an OS-level hiccup).
    node_stalls: int = 0
    #: Time span over which scheduled events are placed.
    horizon_us: float = 100_000.0
    #: When True, a full receive FIFO discards arriving packets instead of
    #: exerting wormhole backpressure (the commodity-switch behavior).
    rx_overflow_discard: bool = False
    #: Explicit crash events: ((node_id, crash_time_us), ...).  A crashed
    #: node neither sends nor receives from its crash time onward.
    crash_times: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self):
        for name in ("drop_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.drop_rate + self.corrupt_rate > 1.0:
            raise ValueError("drop_rate + corrupt_rate must not exceed 1")
        if self.link_outages < 0 or self.node_stalls < 0:
            raise ValueError("event counts must be non-negative")
        if self.horizon_us <= 0:
            raise ValueError("horizon_us must be positive")

    @property
    def any_faults(self) -> bool:
        return bool(
            self.drop_rate
            or self.corrupt_rate
            or self.link_outages
            or self.node_stalls
            or self.rx_overflow_discard
            or self.crash_times
        )


class FaultPlan:
    """A bound, deterministic schedule of faults for one run.

    Create with a config and a seed, then install via
    :meth:`repro.node.machine.Machine.install_fault_plan` (which calls
    :meth:`bind`).  All query methods are cheap enough for per-packet use.
    """

    def __init__(self, config: FaultConfig, seed: int):
        self.config = config
        self.seed = derive_seed(seed, "faults")
        #: Per-(src, dst) packet attempt counters for fate hashing.
        self._pair_counts: Dict[Tuple[int, int], int] = {}
        #: link -> sorted list of (start, end) outage windows.
        self.outages: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        #: node -> sorted list of (start, end) stall windows.
        self.stalls: Dict[int, List[Tuple[float, float]]] = {}
        self.crashes: Dict[int, float] = dict(config.crash_times)
        self._bound = False

    # -- binding -----------------------------------------------------------

    def bind(self, machine) -> "FaultPlan":
        """Sample the scheduled events against ``machine``'s topology.

        Idempotent; deterministic given the same seed and machine shape.
        """
        if self._bound:
            return self
        self._bound = True
        topology = machine.backplane.topology
        cfg = self.config
        if cfg.link_outages:
            rng = named_stream(self.seed, "outages")
            links = sorted(topology.links())
            for _ in range(cfg.link_outages):
                link = rng.pick(links)
                start = rng.uniform(0.0, cfg.horizon_us)
                self.outages.setdefault(link, []).append(
                    (start, start + cfg.outage_duration_us)
                )
            for windows in self.outages.values():
                windows.sort()
        if cfg.node_stalls:
            rng = named_stream(self.seed, "stalls")
            for _ in range(cfg.node_stalls):
                node = rng.randrange(topology.num_nodes)
                start = rng.uniform(0.0, cfg.horizon_us)
                self.stalls.setdefault(node, []).append(
                    (start, start + STALL_WINDOW_US)
                )
            for windows in self.stalls.values():
                windows.sort()
        return self

    def schedule(self) -> dict:
        """The sampled event schedule, for inspection and determinism tests."""
        return {
            "outages": {link: list(w) for link, w in sorted(self.outages.items())},
            "stalls": {node: list(w) for node, w in sorted(self.stalls.items())},
            "crashes": dict(sorted(self.crashes.items())),
        }

    # -- per-packet fates --------------------------------------------------

    def packet_fate(self, src: int, dst: int) -> Fate:
        """Fate of the next packet on the (src, dst) channel.

        Advances the channel's attempt counter, so a retransmission of a
        dropped packet rolls a fresh (but still deterministic) variate.
        """
        cfg = self.config
        if not cfg.drop_rate and not cfg.corrupt_rate:
            return Fate.DELIVER
        n = self._pair_counts.get((src, dst), 0) + 1
        self._pair_counts[(src, dst)] = n
        u = derive_seed(self.seed, "fate", src, dst, n) / _U64
        if u < cfg.drop_rate:
            return Fate.DROP
        if u < cfg.drop_rate + cfg.corrupt_rate:
            return Fate.CORRUPT
        return Fate.DELIVER

    # -- scheduled-event queries -------------------------------------------

    def link_down(self, link: Tuple[int, int], now: float) -> bool:
        """Is the directed link inside one of its outage windows?"""
        for start, end in self.outages.get(link, ()):
            if start <= now < end:
                return True
            if start > now:
                break
        return False

    def path_down(self, path, now: float) -> bool:
        """Is any link of ``path`` down at ``now``?"""
        if not self.outages:
            return False
        return any(self.link_down(link, now) for link in path)

    def stall_until(self, node: int, now: float) -> float:
        """End of the stall window covering ``now`` at ``node`` (else 0)."""
        for start, end in self.stalls.get(node, ()):
            if start <= now < end:
                return end
            if start > now:
                break
        return 0.0

    def crashed(self, node: int, now: float) -> bool:
        """Has ``node`` crashed at or before ``now``?"""
        crash_at = self.crashes.get(node)
        return crash_at is not None and now >= crash_at

    def __repr__(self) -> str:
        return (
            f"FaultPlan(drop={self.config.drop_rate}, "
            f"corrupt={self.config.corrupt_rate}, "
            f"outages={self.config.link_outages}, "
            f"stalls={self.config.node_stalls}, "
            f"crashes={len(self.crashes)})"
        )
