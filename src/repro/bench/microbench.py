"""Primitive-level microbenchmarks (Figs. 1-2, §2.1 motivation).

Each measurement is one client issuing one operation (512-byte
payloads, as in the paper) against a freshly built server on the given
topology, repeated a few times and averaged — the simulator is
deterministic, so repeats only smooth out queue-state effects.
"""

from repro.core.ops import AllocateOp, CasMode, CasOp, ReadOp, WriteOp
from repro.hw.layout import pack_uint
from repro.net.topology import DIRECT, make_fabric
from repro.prism import (
    BlueFieldPrismBackend,
    HardwarePrismBackend,
    HardwareRdmaBackend,
    PrismClient,
    PrismServer,
    SoftwarePrismBackend,
)
from repro.rpc.erpc import RpcClient, RpcServer
from repro.sim import Simulator

BACKENDS = {
    "rdma": HardwareRdmaBackend,
    "prism-sw": SoftwarePrismBackend,
    "prism-bluefield": BlueFieldPrismBackend,
    "prism-hw": HardwarePrismBackend,
}

VALUE_SIZE = 512


def _op_read(client, addrs, rkeys):
    return ReadOp(addr=addrs["data"], length=VALUE_SIZE,
                  rkey=rkeys["data"])


def _op_write(client, addrs, rkeys):
    return WriteOp(addr=addrs["data"], data=b"w" * VALUE_SIZE,
                   rkey=rkeys["data"])


def _op_indirect_read(client, addrs, rkeys):
    return ReadOp(addr=addrs["pointer"], length=VALUE_SIZE,
                  rkey=rkeys["data"], indirect=True)


def _op_allocate(client, addrs, rkeys):
    return AllocateOp(freelist=addrs["freelist"], data=b"a" * VALUE_SIZE,
                      rkey=rkeys["buffers"])


def _op_enhanced_cas(client, addrs, rkeys):
    # A 16-byte masked CAS_GT — the versioned-install shape (§3.3).
    return CasOp(target=addrs["meta"], data=(1 << 120).to_bytes(16, "little"),
                 rkey=rkeys["data"], mode=CasMode.GT,
                 compare_mask=(1 << 64) - 1, operand_width=16)


PRIMITIVES = {
    "read": _op_read,
    "write": _op_write,
    "indirect-read": _op_indirect_read,
    "allocate": _op_allocate,
    "enhanced-cas": _op_enhanced_cas,
}

#: primitives expressible on a stock RDMA NIC
CLASSIC_PRIMITIVES = ("read", "write")


def rig(backend, profile):
    """``(sim, server, client)``: one client and one PRISM server on
    ``backend`` (a class), a ``profile`` link apart."""
    sim = Simulator()
    fabric = make_fabric(sim, profile, ["client", "server"])
    server = PrismServer(sim, fabric, "server", backend)
    return sim, server, PrismClient(sim, fabric, "client", server)


def _build(backend_name, profile):
    sim, server, client = rig(BACKENDS[backend_name], profile)
    data_addr, data_rkey = server.add_region(1 << 20)
    freelist, buffers_rkey = server.create_freelist(VALUE_SIZE + 16, 4096)
    # Seed: a value, a pointer to it, and a 16-byte versioned slot.
    server.space.write(data_addr, b"v" * VALUE_SIZE)
    server.space.write_ptr(data_addr + VALUE_SIZE, data_addr)
    server.space.write(data_addr + VALUE_SIZE + 8, bytes(16))
    addrs = {
        "data": data_addr,
        "pointer": data_addr + VALUE_SIZE,
        "meta": data_addr + VALUE_SIZE + 8,
        "freelist": freelist,
    }
    rkeys = {"data": data_rkey, "buffers": buffers_rkey}
    return sim, client, addrs, rkeys


def mean_latency(sim, once, repeats):
    """Mean simulated µs of ``once(i)`` (a process body) over ``repeats``
    back-to-back runs."""
    samples = []

    def run():
        for i in range(repeats):
            start = sim.now
            yield from once(i)
            samples.append(sim.now - start)

    sim.run_until_complete(sim.spawn(run()), limit=1e7)
    return sum(samples) / len(samples)


def execute(client, *ops, chained=True):
    """One request carrying ``ops`` (unchained: a dependent round trip
    per op); a NAK raises."""
    for request in [ops] if chained else [(op,) for op in ops]:
        result = yield from client.execute(*request)
        result.raise_on_nak()


def install_chain(version, value, tmp, tmp_rkey, slot, rkey, freelist,
                  buf_rkey, conditional=True):
    """The out-of-place install (§3.5) as three ops: WRITE the version to
    the scratch at ``tmp``, ALLOCATE a buffer for ``value`` with its
    address redirected next to the version, CAS_GT the ⟨version,
    address⟩ pair from scratch into ``slot``."""
    return [
        WriteOp(addr=tmp, data=pack_uint(version, 8), rkey=tmp_rkey),
        AllocateOp(freelist=freelist, data=pack_uint(version, 8) + value,
                   rkey=buf_rkey, redirect_to=tmp + 8,
                   conditional=conditional),
        CasOp(target=slot, data=pack_uint(tmp, 8), rkey=rkey,
              mode=CasMode.GT, compare_mask=(1 << 64) - 1,
              data_indirect=True, operand_width=16, conditional=conditional),
    ]


def measure_primitive(backend_name, primitive, profile=DIRECT, repeats=5):
    """Mean latency (µs) of one primitive on one backend/topology."""
    sim, client, addrs, rkeys = _build(backend_name, profile)
    return mean_latency(
        sim, lambda _i: execute(client, PRIMITIVES[primitive](client, addrs,
                                                             rkeys)),
        repeats)


def measure_two_rdma_reads(profile=DIRECT, repeats=5):
    """Latency of the Pilaf-style pointer-chase: two dependent READs."""
    sim, client, addrs, rkeys = _build("rdma", profile)

    def chase(_i):
        pointer = yield from client.read(addrs["pointer"], 8,
                                         rkey=rkeys["data"])
        target = int.from_bytes(pointer, "little")
        yield from client.read(target, VALUE_SIZE, rkey=rkeys["data"])

    return mean_latency(sim, chase, repeats)


def measure_rpc_read(profile=DIRECT, repeats=5):
    """Latency of a 512 B read served by a two-sided eRPC (§2.1)."""
    sim = Simulator()
    fabric = make_fabric(sim, profile, ["client", "server"])
    store = {"value": b"v" * VALUE_SIZE}
    rpc_server = RpcServer(sim, fabric, "server")
    rpc_server.register("read", lambda args: (store["value"], VALUE_SIZE))
    rpc_client = RpcClient(sim, fabric, "client")

    def call(_i):
        value = yield from rpc_client.call("server", "read", None,
                                           request_payload_bytes=16)
        assert len(value) == VALUE_SIZE

    return mean_latency(sim, call, repeats)


def measure_one_sided_read(profile=DIRECT, repeats=5):
    """Latency of a plain hardware-RDMA 512 B READ (§2.1)."""
    return measure_primitive("rdma", "read", profile=profile,
                             repeats=repeats)
