"""The SHRIMP network interface model."""

from .combining import CombiningEngine
from .config import DEFAULT_NIC_CONFIG, NICConfig
from .dma import DeliberateUpdateEngine, TransferRequest
from .fifo import FIFOOverflowError, OutgoingFIFO
from .interface import ShrimpNIC
from .ipt import IncomingPageTable, IPTEntry
from .opt import OPTEntry, OutgoingPageTable, ProxyEntry

__all__ = [
    "ShrimpNIC",
    "NICConfig",
    "DEFAULT_NIC_CONFIG",
    "OutgoingPageTable",
    "OPTEntry",
    "ProxyEntry",
    "IncomingPageTable",
    "IPTEntry",
    "OutgoingFIFO",
    "FIFOOverflowError",
    "CombiningEngine",
    "DeliberateUpdateEngine",
    "TransferRequest",
]
