"""Software network-stack backends (§4.1).

Modeled on the paper's prototype: a Snap-inspired stack where one-sided
operations are executed by *dedicated* CPU cores, reached through an
eRPC-style transport. There is no application thread wake-up — the
dedicated cores spin-poll — so a software one-sided op costs the stack
pipeline latency plus a core's per-op occupancy, about 2.5–2.8 µs on
top of hardware RDMA (Fig. 1).

``SoftwareRdmaBackend`` is the same stack restricted to the classic
interface — the paper's "Pilaf (software RDMA)" / "ABDLOCK (software
RDMA)" / "FaRM (software RDMA)" comparison points.
"""

from repro.prism.backend import Backend, BackendConfig


class SoftwarePrismBackend(Backend):
    """PRISM primitives executed by dedicated host cores."""

    label = "prism-sw"
    supports_extensions = True
    supports_extended_atomics = True
    # Both the stack pipeline latency and op execution are host-core
    # work in this deployment, so traces attribute them to "cpu".
    execution_phase = "cpu"
    admission_phase = "cpu"

    def __init__(self, sim, engine, config=None, cores=None):
        config = config or BackendConfig()
        super().__init__(sim, engine, config,
                         pool_capacity=cores or config.sw_cores,
                         pool_name=f"{self.label}.cores", pool_kind="cpu")
        # Fixed stack pipeline latency: NIC->userspace rx, polling loop
        # pickup, tx doorbell on the way out.
        self.admission_us = config.sw_pipeline_latency_us

    def op_time(self, accesses, op_index=0):
        config = self.config
        total = config.sw_op_occupancy_us
        if op_index == 0:
            # Request-level cost (parse, connection lookup, tx setup) is
            # paid once, so chains amortize it — §3.4's economics.
            total += config.sw_request_occupancy_us
        for access in accesses:
            total += (config.sw_access_us
                      + access.nbytes / config.sw_bytes_per_us)
        return total, None


class SoftwareRdmaBackend(SoftwarePrismBackend):
    """The same software stack limited to classic READ/WRITE/CAS."""

    label = "rdma-sw"
    supports_extensions = False
    supports_extended_atomics = True
