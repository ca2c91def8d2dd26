"""BlueField smart-NIC backend (§4.3).

The BlueField is an *off-path* NIC: its ARM cores (8× Cortex-A72 at
800 MHz) must reach host memory through an internal switch as RDMA
requests, measured by the paper at ~3 µs per access — which is why this
deployment option is the slowest in Fig. 1 despite running on the NIC.
Accesses to the card's local memory are cheap.
"""

from repro.prism.address_space import DOMAIN_HOST
from repro.prism.backend import Backend, BackendConfig


class BlueFieldPrismBackend(Backend):
    """PRISM primitives on BlueField ARM cores."""

    label = "prism-bluefield"
    supports_extensions = True
    supports_extended_atomics = True
    # ARM-core execution is "cpu"; host-memory accesses cross the
    # card's internal switch as RDMA — the device<->host data path —
    # so traces attribute them to "pcie" alongside real DMA costs.
    execution_phase = "cpu"
    admission_phase = "cpu"

    def __init__(self, sim, engine, config=None, cores=None):
        config = config or BackendConfig()
        super().__init__(sim, engine, config,
                         pool_capacity=cores or config.bf_cores,
                         pool_name=f"{self.label}.cores", pool_kind="cpu")
        self.admission_us = config.bf_pipeline_latency_us
        self._host_path_monitor = None
        if sim.utilization is not None:
            # The card's internal-switch path to host memory is its
            # device<->host data path; report it alongside real PCIe.
            # One outstanding host access per ARM core.
            self._host_path_monitor = sim.utilization.charge_monitor(
                f"{self.label}.hostpath", kind="pcie",
                capacity=cores or config.bf_cores)

    def op_time(self, accesses, op_index=0):
        """ARM-core work ("cpu") plus internal-switch host access ("pcie")."""
        # ``total`` adds each cost in the seed's order, so untraced
        # timing stays bit-identical; ``cpu`` and ``pcie`` are the split.
        config = self.config
        monitor = self._host_path_monitor
        cpu = config.bf_op_occupancy_us
        if op_index == 0:
            cpu += config.bf_request_occupancy_us
        total = cpu
        pcie = 0.0
        for access in accesses:
            if access.domain == DOMAIN_HOST:
                cost = (config.bf_host_access_us
                        + access.nbytes / config.bf_bytes_per_us)
                pcie += cost
                if monitor is not None:
                    monitor.charge(cost, units=access.nbytes)
            else:
                cost = config.bf_local_access_us
                cpu += cost
            total += cost
        return total, {"cpu": cpu, "pcie": pcie}
