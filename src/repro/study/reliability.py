"""Reliability study: what would SHRIMP's design choices cost on a lossy
fabric?

The paper's custom backplane is loss-free, so VMMC never pays for
reliability.  This experiment family installs a deterministic
:class:`~repro.faults.FaultPlan` and measures, across packet-drop rates:

* **Deliberate update** in reliable mode (sequence numbers, cumulative
  acks, go-back-N retransmit): every transfer completes, and the table
  reports the end-to-end overhead versus the perfect-fabric unreliable
  baseline, plus the retransmit/ack traffic that bought it.
* **Automatic update**, which has no endpoint to retry from (stores are
  propagated by hardware, fire-and-forget): the table reports the fraction
  of bytes that simply never arrive — the reason AU's elegance is chained
  to a reliable fabric.

The workload is an all-nodes ring transfer (the fleet ``ring`` workload):
node *i* sends :data:`RING_BYTES` into a buffer exported by node
*(i+1) mod N*, the communication pattern of the paper's microbenchmarks
scaled to the full machine.
"""

from __future__ import annotations

from typing import Dict, List

from ..fleet.catalog import make_spec
from ..fleet.workloads import FAULT_PLANS
from .report import format_table

__all__ = [
    "DROP_PLANS",
    "du_reliability_run",
    "au_loss_run",
    "reliability_study",
    "format_reliability_study",
]

#: The fault plans the study sweeps, one table row each.
DROP_PLANS = ("none", "drop1", "drop2", "drop5")

#: Bytes each node sends round the ring (AU rings carry half).
RING_BYTES = 32 * 1024


def _run_ring(machine, worker, name: str) -> float:
    """Run ``worker(i, endpoint, next_buffer_name)`` on every node to
    completion; returns the bytes that reached the ``{name}.{i}`` exports."""
    from ..vmmc import VMMCRuntime

    vmmc = VMMCRuntime(machine)
    nprocs = machine.num_nodes
    endpoints = [vmmc.endpoint(machine.create_process(i))
                 for i in range(nprocs)]
    workers = [
        machine.sim.spawn(worker(i, ep, f"{name}.{(i + 1) % nprocs}"),
                          f"{name}.w{i}")
        for i, ep in enumerate(endpoints)
    ]
    machine.sim.run()
    stuck = [p.name for p in workers if not p.done]
    if stuck:
        raise RuntimeError(f"ring deadlocked: {stuck}")
    return float(sum(
        machine.registries["vmmc.exports"][f"{name}.{i}"].bytes_received
        for i in range(nprocs)
    ))


def du_reliability_run(machine, reliable: bool = True) -> Dict[str, float]:
    """One ring transfer over deliberate update; returns timing and stats.

    With ``reliable=False`` and a nonzero drop rate the transfer may lose
    data (receivers do not wait, to avoid deadlocking on lost bytes); with
    ``reliable=True`` every byte is delivered or the run raises
    :class:`~repro.vmmc.errors.DeliveryFailed`.
    """
    nprocs, nbytes = machine.num_nodes, RING_BYTES
    payload = (bytes(range(256)) * (-(-nbytes // 256)))[:nbytes]
    started: List[float] = []
    retx = [0]

    def worker(i: int, ep, next_name: str):
        buffer = yield from ep.export(nbytes, name=f"ring.{i}")
        imported = yield from ep.import_buffer(next_name)
        src = ep.alloc(nbytes)
        ep.poke(src, payload)
        started.append(machine.sim.now)
        if reliable:
            channel = ep.open_reliable(imported)
            yield from channel.send(src, nbytes)
            retx[0] += channel.retransmissions
            yield from ep.wait_bytes(buffer, nbytes)
        else:
            yield from ep.send(imported, src, nbytes, sync_delivered=True)

    delivered = _run_ring(machine, worker, "ring")
    stats = machine.stats
    return {
        # From the moment the last node is ready to send.
        "elapsed_us": machine.sim.now - started[-1],
        "retransmissions": retx[0],
        "retx_rounds": stats.counter_value("vmmc.retx.rounds"),
        "acks": stats.counter_value("vmmc.acks_sent"),
        "drops": stats.counter_value("fault.drops"),
        "duplicates": stats.counter_value("vmmc.rx_duplicates"),
        "gaps": stats.counter_value("vmmc.rx_gaps"),
        "bytes_expected": float(nprocs * nbytes),
        "bytes_delivered": delivered,
    }


def au_loss_run(machine) -> Dict[str, float]:
    """One ring transfer over automatic update; returns the loss fraction.

    Automatic update has no retransmission path — the NIC propagates
    stores as a hardware side-effect — so under drops the receiver simply
    ends up with fewer bytes.  Receivers do not wait (that would deadlock);
    the run quiesces and the deficit is measured.
    """
    nbytes = RING_BYTES // 2
    page_size = machine.params.page_size
    npages = -(-nbytes // page_size)
    payload = (bytes(range(256)) * (-(-nbytes // 256)))[:nbytes]

    def worker(i: int, ep, next_name: str):
        yield from ep.export(npages * page_size, name=f"au.{i}")
        imported = yield from ep.import_buffer(next_name)
        local = ep.alloc(npages * page_size)
        yield from ep.bind_au(imported, local, npages, combine=True)
        yield from ep.au_write(local, payload)
        yield from ep.au_drain()

    delivered = _run_ring(machine, worker, "au")
    expected = float(machine.num_nodes * nbytes)
    return {
        "bytes_expected": expected,
        "bytes_delivered": delivered,
        "loss_pct": 100.0 * (1.0 - delivered / expected),
        "drops": machine.stats.counter_value("fault.drops"),
    }


def reliability_study(runner, nodes: int = 16) -> List[dict]:
    """Reliable-DU overhead and raw-AU loss across packet-drop rates, read
    from fleet ``ring`` records on ``nodes`` nodes.

    The overhead column is relative to the unreliable deliberate-update
    ring on a perfect fabric — i.e. it folds together the ack/seq protocol
    cost (visible at drop rate 0) and the retransmission cost (growing
    with the drop rate).
    """

    def ring(fault_plan: str = "none", **params) -> Dict[str, float]:
        return runner.metrics(make_spec(
            "ring", nodes=nodes, fault_plan=fault_plan, seed=runner.seed,
            **params,
        ))

    baseline = ring(mode="du", reliable=False)
    rows = []
    for plan in DROP_PLANS:
        du = ring(plan, mode="du", reliable=True)
        au = ring(plan, mode="au")
        rate = (FAULT_PLANS[plan] or {}).get("drop_rate", 0.0)
        rows.append(
            {
                "drop_pct": 100.0 * rate,
                "du_elapsed_ms": du["elapsed_us"] / 1000.0,
                "du_overhead_pct": (du["elapsed_us"] / baseline["elapsed_us"] - 1.0)
                * 100.0,
                "retx": int(du["retransmissions"]),
                "acks": int(du["acks"]),
                "drops": int(du["drops"]),
                "du_delivered_pct": 100.0
                * du["bytes_delivered"]
                / du["bytes_expected"],
                "au_loss_pct": au["loss_pct"],
            }
        )
    return rows


def format_reliability_study(rows: List[dict]) -> str:
    return format_table(
        "Reliability study: endpoint retry vs drop rate (ring transfer)",
        ["Drop (%)", "DU reliable (ms)", "Overhead (%)", "Retx", "Acks",
         "Drops", "DU delivered (%)", "AU lost (%)"],
        [
            (r["drop_pct"], r["du_elapsed_ms"], r["du_overhead_pct"], r["retx"],
             r["acks"], r["drops"], r["du_delivered_pct"], r["au_loss_pct"])
            for r in rows
        ],
    )
