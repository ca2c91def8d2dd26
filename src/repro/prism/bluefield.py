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

    def note_execution(self, op, accesses, op_index, duration):
        if self._host_path_monitor is None:
            return
        for access in accesses:
            if access.domain == DOMAIN_HOST:
                self._host_path_monitor.charge(
                    self.config.bf_host_access_us
                    + access.nbytes / self.config.bf_bytes_per_us,
                    units=access.nbytes)

    def op_time(self, op, accesses, op_index=0):
        # Single accumulation kept bit-identical to the seed timing;
        # op_time_parts mirrors it for traced attribution.
        total = self.config.bf_op_occupancy_us
        if op_index == 0:
            total += self.config.bf_request_occupancy_us
        for access in accesses:
            if access.domain == DOMAIN_HOST:
                total += (self.config.bf_host_access_us
                          + access.nbytes / self.config.bf_bytes_per_us)
            else:
                total += self.config.bf_local_access_us
        return total

    def op_time_parts(self, op, accesses, op_index=0):
        """ARM-core work ("cpu") vs internal-switch host access ("pcie")."""
        cpu = self.config.bf_op_occupancy_us
        if op_index == 0:
            cpu += self.config.bf_request_occupancy_us
        pcie = 0.0
        for access in accesses:
            if access.domain == DOMAIN_HOST:
                pcie += (self.config.bf_host_access_us
                         + access.nbytes / self.config.bf_bytes_per_us)
            else:
                cpu += self.config.bf_local_access_us
        return {"cpu": cpu, "pcie": pcie}
