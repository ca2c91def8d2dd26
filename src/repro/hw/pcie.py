"""PCIe cost model.

The paper's hardware projection (§4.3) charges every extra host-memory
access an indirect/chained primitive performs with one additional PCIe
round trip, using measurements from Neugebauer et al. [35]. We model
the link as a fixed round-trip latency plus a small per-byte DMA cost.
"""


class PcieLink:
    """Latency model for NIC <-> host-memory transfers.

    The link charges latency inline (no queueing of its own — DMA
    engines are per-PU), so utilization telemetry is charge-based: when
    a :class:`~repro.obs.timeline.ChargeMonitor` is attached via
    :meth:`set_monitor`, backends call :meth:`record` for every host
    access they price, and the monitor accumulates windowed DMA busy
    time (normalized by the NIC's parallelism into a utilization).
    """

    def __init__(self, round_trip_us=0.85, bytes_per_us=15_000.0):
        self.round_trip_us = round_trip_us
        self.bytes_per_us = bytes_per_us
        self.monitor = None

    def set_monitor(self, monitor):
        """Attach a charge monitor; returns it for chaining."""
        self.monitor = monitor
        return monitor

    def record(self, kind, nbytes):
        """Charge one access's DMA time to the attached monitor."""
        if self.monitor is not None:
            self.monitor.charge(self.access_time(kind, nbytes),
                                units=nbytes)

    def read_time(self, nbytes):
        """One DMA read: request/completion round trip + payload streaming."""
        return self.access_time("r", nbytes)

    def write_time(self, nbytes):
        """One posted DMA write: half a round trip + payload streaming."""
        return self.access_time("w", nbytes)

    def access_time(self, kind, nbytes):
        """Time for one access-trace entry: ``kind`` is "r" or "w".

        The common currency between timing backends and the tracer's
        per-phase attribution: both price an engine
        :class:`~repro.prism.engine.Access` through this one method, so
        the "pcie" slice of a traced op equals what the backend charged.
        """
        if kind == "r":
            return self.round_trip_us + nbytes / self.bytes_per_us
        return self.round_trip_us / 2 + nbytes / self.bytes_per_us
