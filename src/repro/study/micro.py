"""Communication microbenchmarks (section 4.1's published numbers).

- Deliberate-update one-word end-to-end latency: 6 us on SHRIMP.
- Automatic-update one-word latency: 3.71 us.
- User-level DMA send-side initiation overhead: < 2 us.
- Bulk deliberate-update bandwidth (EISA-DMA limited, ~23 MB/s measured on
  the real machine).

Each is one transfer between two endpoints (:func:`_transfer`).  The
``micro`` study family reads them from fleet ``micro`` records
(:func:`micro_study`).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..fleet.catalog import make_spec
from ..fleet.workloads import MICRO_MEASURES
from ..hardware import MachineParams
from ..nic import NICConfig
from ..node import Machine
from ..vmmc import VMMCRuntime

__all__ = [
    "du_word_latency",
    "au_word_latency",
    "du_send_overhead",
    "du_bulk_bandwidth",
    "au_bulk_bandwidth",
    "micro_study",
    "format_micro_study",
]

_WORD = b"WORD"


def _transfer(
    transport: str,
    payload: bytes,
    params: Optional[MachineParams],
    nic: Optional[NICConfig],
    nodes: int = 4,
    src: int = 0,
    dst: int = 1,
    sync: bool = True,
    combine: bool = False,
) -> Dict[str, float]:
    """Node ``src`` sends ``payload`` into a buffer node ``dst`` exports.

    ``transport`` is ``du`` (one deliberate update, ``sync`` or not) or
    ``au`` (automatic-update stores through a bound page; ``combine``
    turns combining on and flushes the combined tail).  Returns the
    virtual-time marks: ``tx`` just before the send, ``sent`` when it
    returns and ``rx`` when the receiver sees every byte (absent for an
    asynchronous send, whose receiver does not wait).
    """
    machine = Machine(num_nodes=nodes, params=params, nic_config=nic)
    vmmc = VMMCRuntime(machine)
    sim = machine.sim
    sender_ep = vmmc.endpoint(machine.create_process(src))
    receiver_ep = vmmc.endpoint(machine.create_process(dst))
    nbytes = len(payload)
    size = max(nbytes, sender_ep.params.page_size)
    marks: Dict[str, float] = {}

    def receiver():
        buffer = yield from receiver_ep.export(size, name="micro")
        if sync:
            yield from receiver_ep.wait_bytes(buffer, nbytes)
            marks["rx"] = sim.now

    def sender():
        imported = yield from sender_ep.import_buffer("micro")
        local = sender_ep.alloc(size)
        if transport == "du":
            sender_ep.poke(local, payload)
            marks["tx"] = sim.now
            yield from sender_ep.send(imported, local, nbytes, sync=sync)
        else:
            npages = size // sender_ep.params.page_size
            yield from sender_ep.bind_au(imported, local, npages,
                                         combine=combine)
            marks["tx"] = sim.now
            yield from sender_ep.au_write(local, payload)
            if combine:
                yield from sender_ep.au_flush()
        marks["sent"] = sim.now

    sim.spawn(receiver(), "rx")
    sim.spawn(sender(), "tx")
    sim.run()
    return marks


def du_word_latency(
    params: Optional[MachineParams] = None,
    nic: Optional[NICConfig] = None,
    nodes: int = 4,
    src: int = 0,
    dst: int = 1,
) -> float:
    """One 4-byte deliberate-update transfer from ``src`` to ``dst`` on a
    ``nodes``-node machine, send start to poll success."""
    marks = _transfer("du", _WORD, params, nic, nodes, src, dst)
    return marks["rx"] - marks["tx"]


def au_word_latency(
    params: Optional[MachineParams] = None, nic: Optional[NICConfig] = None
) -> float:
    """One 4-byte automatic-update store, issue to remote poll success."""
    marks = _transfer("au", _WORD, params, nic)
    return marks["rx"] - marks["tx"]


def du_send_overhead(
    params: Optional[MachineParams] = None, nic: Optional[NICConfig] = None
) -> float:
    """Send-side cost of an asynchronous one-word deliberate update."""
    marks = _transfer("du", _WORD, params, nic, sync=False)
    return marks["sent"] - marks["tx"]


def du_bulk_bandwidth(
    nbytes: int = 64 * 1024,
    params: Optional[MachineParams] = None,
    nic: Optional[NICConfig] = None,
) -> float:
    """Large-transfer deliberate-update bandwidth (MB/s)."""
    marks = _transfer("du", bytes(nbytes), params, nic)
    return nbytes / (marks["rx"] - marks["tx"])


def au_bulk_bandwidth(
    nbytes: int = 64 * 1024,
    params: Optional[MachineParams] = None,
    nic: Optional[NICConfig] = None,
) -> float:
    """Large-transfer automatic-update bandwidth with combining (MB/s)."""
    marks = _transfer("au", bytes(nbytes), params, nic, combine=True)
    return nbytes / (marks["rx"] - marks["tx"])


def micro_study(runner) -> Dict[str, float]:
    """Each measure's value, read from its fleet ``micro`` record."""
    return {
        measure: runner.metrics(make_spec("micro", measure=measure))[measure]
        for measure in MICRO_MEASURES
    }


def format_micro_study(values: Dict[str, float]) -> str:
    return (
        "Microbenchmarks (paper: DU 6 us, AU 3.71 us, UDMA < 2 us):\n"
        f"  DU one-word latency : {values['du_word_latency']:6.2f} us\n"
        f"  AU one-word latency : {values['au_word_latency']:6.2f} us\n"
        f"  DU send overhead    : {values['du_send_overhead']:6.2f} us\n"
        f"  DU bulk bandwidth   : {values['du_bulk_bandwidth']:6.1f} MB/s\n"
        f"  AU bulk bandwidth   : {values['au_bulk_bandwidth']:6.1f} MB/s"
    )
