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
        #: the link's DMA busy time, charged per host access as it is
        #: priced; None unless utilization is collected
        self._pcie_monitor = None
        if sim.utilization is not None:
            # One DMA engine per processing unit, so the link's busy
            # time normalizes against the NIC's parallelism.
            self._pcie_monitor = sim.utilization.charge_monitor(
                f"{self.label}.pcie", kind="pcie",
                capacity=config.nic_parallelism)

    # Atomicity note: ConnectX-class NICs pipeline atomics to different
    # addresses and only serialize conflicting ones; the simulator's
    # functional layer already commits each CAS at a single instant, so
    # per-address atomicity holds without a global lock. The atomic
    # surcharge below models the read-modify-write unit's extra work.

    def op_time(self, accesses, op_index=0):
        """Verb processing ("nic") plus host-memory DMA ("pcie")."""
        # ``total`` adds each cost in the seed's order, so untraced
        # timing stays bit-identical; ``nic`` and ``pcie`` are the split.
        config = self.config
        monitor = self._pcie_monitor
        total = nic = config.nic_base_op_us
        pcie = 0.0
        for access in accesses:
            if access.domain == DOMAIN_HOST:
                cost = self._pcie.access_time(access.kind, access.nbytes)
                pcie += cost
                if monitor is not None:
                    monitor.charge(cost, units=access.nbytes)
            else:
                cost = config.sram_access_us
                nic += cost
            total += cost
            if access.atomic:
                total += config.nic_atomic_unit_us
                nic += config.nic_atomic_unit_us
        return total, {"nic": nic, "pcie": pcie}


class HardwarePrismBackend(HardwareRdmaBackend):
    """Projected PRISM ASIC (§4.2/§4.3): same NIC, extensions enabled."""

    label = "prism-hw"
    supports_extensions = True
