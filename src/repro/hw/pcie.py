"""PCIe cost model.

The paper's hardware projection (§4.3) charges every extra host-memory
access an indirect/chained primitive performs with one additional PCIe
round trip, using measurements from Neugebauer et al. [35]. We model
the link as a fixed round-trip latency plus a small per-byte DMA cost.
"""


class PcieLink:
    """Latency model for NIC <-> host-memory transfers.

    The link charges latency inline (no queueing of its own — DMA
    engines are per-PU). The hardware backend prices each host access
    through :meth:`access_time` and, under ``--util``, charges that
    same cost to its ``.pcie`` monitor.
    """

    def __init__(self, round_trip_us=0.85, bytes_per_us=15_000.0):
        self.round_trip_us = round_trip_us
        self.bytes_per_us = bytes_per_us

    def access_time(self, kind, nbytes):
        """Time for one access-trace entry: ``kind`` is "r" (a DMA read:
        request/completion round trip + payload streaming) or "w" (a
        posted write: half a round trip + payload streaming)."""
        if kind == "r":
            return self.round_trip_us + nbytes / self.bytes_per_us
        return self.round_trip_us / 2 + nbytes / self.bytes_per_us
