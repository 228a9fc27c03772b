"""The telemetry event model: causal begin/end/instant records.

Every record the collector emits is a :class:`TelemetryEvent`.  Events carry
a **span id** and an optional **parent span id**, which is how one logical
operation (a deliberate-update transfer, say) is followed across layers and
across simulated processes: the VMMC send opens a span, the id rides on the
:class:`~repro.nic.dma.TransferRequest` into the DU engine, the engine's
span id rides on the :class:`~repro.network.packet.Packet` across the
backplane, and the remote NIC parents its receive span to the packet's.
Reconstructing the tree afterwards needs no clock heuristics — only the
explicit links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["TelemetryEvent", "PHASE_BEGIN", "PHASE_END", "PHASE_INSTANT"]

PHASE_BEGIN = "B"
PHASE_END = "E"
PHASE_INSTANT = "i"


@dataclass(frozen=True)
class TelemetryEvent:
    """One record in the event stream.

    ``phase`` is ``"B"`` (span begin), ``"E"`` (span end) or ``"i"``
    (instant).  ``node`` is the simulated node the event happened on (-1 for
    machine-wide events such as simulator bookkeeping); ``track`` names the
    layer lane within the node ("app", "vmmc", "nic.tx", "net", "nic.rx",
    "svm", "trace", ...).  Times are virtual microseconds.
    """

    phase: str
    name: str
    time: float
    node: int
    track: str
    span_id: int
    parent_id: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def category(self) -> str:
        """The top-level layer prefix of the event name."""
        return self.name.split(".", 1)[0]

    def describe(self) -> str:
        """A one-line text rendering of the record's message or args."""
        message = self.args.get("message")
        if message is not None:
            return str(message)
        extra = " ".join(f"{k}={v}" for k, v in self.args.items())
        parent = f" parent={self.parent_id}" if self.parent_id else ""
        return f"{self.phase} span={self.span_id}{parent} {extra}".rstrip()
