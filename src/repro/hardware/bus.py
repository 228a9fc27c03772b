"""The Xpress memory bus model.

The key architectural property (paper section 2.1, revisited in sections
4.5.2 and 4.5.3) is that the bus does **not cycle-share** between the CPU
and any other main-memory master: while the NIC's DMA engine holds the bus,
the CPU stalls, and vice versa.  The bus is therefore a single-holder
resource, and the "deliberate-update queueing barely helps" result
(section 4.5.3) falls straight out of this model — queued transfers still
serialize on the bus against the CPU that wanted to run ahead.
"""

from __future__ import annotations

from typing import Generator

from ..sim import Resource, Simulator
from .params import MachineParams

__all__ = ["MemoryBus"]


class MemoryBus:
    """Single-master-at-a-time memory bus with bandwidth accounting."""

    def __init__(self, sim: Simulator, params: MachineParams, name: str = "bus"):
        self.sim = sim
        self.params = params
        self._resource = Resource(sim, capacity=1, name=name)
        self.bytes_transferred = 0
        self.transactions = 0

    @property
    def busy(self) -> bool:
        return self._resource.in_use > 0

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length

    def hold_us(
        self,
        nbytes: int,
        bandwidth: float = 0.0,
        transactions: int = 1,
        transaction_us: float = 0.0,
    ) -> float:
        """Bus occupancy for ``nbytes`` moved in ``transactions`` bursts.

        ``bandwidth`` limits the transfer rate when the other end is slower
        than the bus (e.g. EISA DMA); 0 means full memory-bus speed.
        ``transaction_us`` overrides the per-burst setup cost (EISA bursts
        cost more to arbitrate than native bus cycles).

        The one spelling of the hold time: :meth:`transfer` and every
        generator-free hold on the packet hot paths call it, so their
        occupancies cannot drift apart.
        """
        params = self.params
        rate = params.memory_bus_bandwidth
        if bandwidth and bandwidth < rate:
            rate = bandwidth
        return (
            transactions * (transaction_us or params.bus_transaction_us)
            + nbytes / rate
        )

    def try_hold(self) -> bool:
        """Take the bus now if no other master holds it; False otherwise.

        The uncontended start of a hold as one plain call, for hot loops
        that would otherwise build a :meth:`transfer` generator per hold::

            if bus.try_hold():
                try:
                    yield bus.hold_us(nbytes, bandwidth)
                finally:
                    bus.end_hold(nbytes)
            else:
                yield from bus.transfer(nbytes, bandwidth)

        which makes the same grants, holds and releases as ``transfer``.
        """
        return self._resource.try_acquire()

    def end_hold(self, nbytes: int, transactions: int = 1) -> None:
        """End a hold: count its traffic and free the bus for the next master."""
        self.bytes_transferred += nbytes
        self.transactions += transactions
        self._resource.release()

    def transfer(
        self,
        nbytes: int,
        bandwidth: float = 0.0,
        transactions: int = 1,
        transaction_us: float = 0.0,
    ) -> Generator:
        """Hold the bus for the duration of a transfer of ``nbytes``.

        Blocks while another master (CPU store stream or NIC DMA) holds it.
        """
        if not self.try_hold():
            yield from self._resource._acquire_wait()
        try:
            yield self.hold_us(nbytes, bandwidth, transactions, transaction_us)
        finally:
            self.end_hold(nbytes, transactions)

    def utilization(self, elapsed: float) -> float:
        return self._resource.utilization(elapsed)
