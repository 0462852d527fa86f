"""Hardware models: CPU servers, disk arrays with caching, interconnect."""

from repro.hardware.cpu import PRIORITY_OLTP, PRIORITY_QUERY, CpuServer
from repro.hardware.disk import DiskArray, LruCache
from repro.hardware.network import Network

__all__ = [
    "CpuServer",
    "PRIORITY_OLTP",
    "PRIORITY_QUERY",
    "DiskArray",
    "LruCache",
    "Network",
]
