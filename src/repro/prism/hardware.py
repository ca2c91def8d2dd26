"""Hardware NIC backends.

``HardwareRdmaBackend`` models today's ConnectX-5-class NIC: classic
verbs (plus Mellanox extended atomics) executed by parallel processing
units, every host-memory access paying a PCIe transfer.

``HardwarePrismBackend`` is the paper's §4.3 projection of a future
PRISM-capable ASIC: identical machinery, with the extension ops allowed
— an indirect READ is "a RDMA READ plus one extra pointer-sized PCIe
read", ALLOCATE reuses the receive-queue pop, redirect output lands in
on-NIC SRAM at SRAM cost.
"""


from repro.hw.pcie import PcieLink
from repro.prism.address_space import DOMAIN_HOST
from repro.prism.backend import Backend, BackendConfig


class HardwareRdmaBackend(Backend):
    """A stock RDMA NIC (no PRISM extensions)."""

    label = "rdma-hw"
    supports_extensions = False
    supports_extended_atomics = True

    def __init__(self, sim, engine, config=None):
        config = config or BackendConfig()
        super().__init__(sim, engine, config,
                         pool_capacity=config.nic_parallelism,
                         pool_name=f"{self.label}.pu")
        self._pcie = PcieLink(config.pcie_round_trip_us,
                              config.pcie_bytes_per_us)
        if sim.utilization is not None:
            # One DMA engine per processing unit, so the link's busy
            # time normalizes against the NIC's parallelism.
            self._pcie.set_monitor(sim.utilization.charge_monitor(
                f"{self.label}.pcie", kind="pcie",
                capacity=config.nic_parallelism))

    # Atomicity note: ConnectX-class NICs pipeline atomics to different
    # addresses and only serialize conflicting ones; the simulator's
    # functional layer already commits each CAS at a single instant, so
    # per-address atomicity holds without a global lock. The atomic
    # surcharge below models the read-modify-write unit's extra work.

    def op_time(self, op, accesses, op_index=0):
        # Kept as a single accumulation (not sum-of-parts) so untraced
        # timing is bit-identical whether or not tracing code exists;
        # op_time_parts mirrors this arithmetic and a test pins the two
        # to each other.
        total = self.config.nic_base_op_us
        for access in accesses:
            if access.domain == DOMAIN_HOST:
                total += self._pcie.access_time(access.kind, access.nbytes)
            else:
                total += self.config.sram_access_us
            if access.atomic:
                total += self.config.nic_atomic_unit_us
        return total

    def note_execution(self, op, accesses, op_index, duration):
        for access in accesses:
            if access.domain == DOMAIN_HOST:
                self._pcie.record(access.kind, access.nbytes)

    def op_time_parts(self, op, accesses, op_index=0):
        """Verb-processing ("nic") vs host-memory DMA ("pcie") split."""
        nic = self.config.nic_base_op_us
        pcie = 0.0
        for access in accesses:
            if access.domain == DOMAIN_HOST:
                pcie += self._pcie.access_time(access.kind, access.nbytes)
            else:
                nic += self.config.sram_access_us
            if access.atomic:
                nic += self.config.nic_atomic_unit_us
        return {"nic": nic, "pcie": pcie}


class HardwarePrismBackend(HardwareRdmaBackend):
    """Projected PRISM ASIC (§4.2/§4.3): same NIC, extensions enabled."""

    label = "prism-hw"
    supports_extensions = True
