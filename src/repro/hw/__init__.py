"""Hardware models: host memory and PCIe.

Memory here is *functional* — a real byte-addressable array on which
every PRISM/RDMA operation executes — while the PCIe link contributes
*timing* to the discrete-event simulation. CPU cores are plain
``Resource`` pools held by their users (the RPC server, the software
backends).
"""

from repro.hw.memory import HostMemory, MemoryError_, NULL_PTR
from repro.hw.pcie import PcieLink

__all__ = ["HostMemory", "MemoryError_", "NULL_PTR", "PcieLink"]
