"""``PrismClient.install`` / ``displaced``: the one out-of-place install.

PRISM-KV, PRISM-RS, PRISM-TX, the shared log and the B-tree each built
this chain by hand; ``_hand_built`` is that chain, so the routine must
reproduce it op for op and byte for byte.
"""

import pytest

from repro.apps.common import field_mask
from repro.core.chain import Chain
from repro.core.ops import AllocateOp, CasMode, CasOp, WriteOp
from repro.core.wire import encode_chain
from repro.hw.layout import pack_uint
from repro.net.topology import DIRECT, make_fabric
from repro.prism import HardwarePrismBackend, PrismClient, PrismServer
from repro.prism.engine import OpStatus

TAG = 0x0000_0003_0000_0002
FREELIST = 5
DATA = b"v" * 40
BUFFER_RKEY = 11
TARGET = 0x4000
RKEY = 12


@pytest.fixture
def rig(sim):
    fabric = make_fabric(sim, DIRECT, ["client", "server"])
    server = PrismServer(sim, fabric, "server", HardwarePrismBackend)
    words, rkey = server.add_region(64)
    freelist, buffer_rkey = server.create_freelist(64, 8)
    client = PrismClient(sim, fabric, "client", server)
    return server, client, words, rkey, freelist, buffer_rkey


def _hand_built(client, scratch=0, bound=None, allocate_conditional=True):
    """The chain as the applications wrote it out before ``install``."""
    tmp = client.sram_slot + scratch
    sram_rkey = client.server.sram_rkey
    ops = [WriteOp(addr=tmp, data=pack_uint(TAG, 8), rkey=sram_rkey)]
    if bound is not None:
        ops.append(WriteOp(addr=tmp + 16, data=pack_uint(bound, 8),
                           rkey=sram_rkey))
    ops.append(AllocateOp(freelist=FREELIST, data=DATA, rkey=BUFFER_RKEY,
                          redirect_to=tmp + 8,
                          conditional=allocate_conditional))
    ops.append(CasOp(target=TARGET, data=tmp.to_bytes(8, "little"),
                     rkey=RKEY, mode=CasMode.GT,
                     compare_mask=field_mask(0, 8), data_indirect=True,
                     operand_width=16 if bound is None else 24,
                     conditional=True))
    return tuple(ops)


@pytest.mark.parametrize("form", [
    # PRISM-RS, PRISM-TX's first install, the shared log
    pytest.param({}, id="16B"),
    # PRISM-KV, the B-tree
    pytest.param({"bound": len(DATA)}, id="24B-bound"),
    # PRISM-TX's second install in one request
    pytest.param({"scratch": 16}, id="16B-scratch16"),
])
def test_install_builds_the_hand_built_chain(rig, form):
    client = rig[1]
    ops = client.install(TAG, FREELIST, DATA, BUFFER_RKEY, TARGET, RKEY,
                         **form)
    expected = _hand_built(client, **form)
    assert ops == expected
    assert [type(op) for op in ops] == [type(op) for op in expected]
    assert Chain(ops).request_bytes() == Chain(expected).request_bytes()
    assert encode_chain(ops) == encode_chain(expected)


def test_kv_put_differs_only_in_its_conditional_allocate(rig):
    """PRISM-KV's hand-built ALLOCATE was unconditional; the routine's is
    conditional like the other four. The op before it is an SRAM WRITE,
    which always succeeds, so no result can change, and neither does
    the request's size."""
    client = rig[1]
    ops = client.install(TAG, FREELIST, DATA, BUFFER_RKEY, TARGET, RKEY,
                         bound=len(DATA))
    kv = _hand_built(client, bound=len(DATA), allocate_conditional=False)
    assert [i for i, (op, old) in enumerate(zip(ops, kv)) if op != old] == [2]
    assert ops[2].conditional and not kv[2].conditional
    assert Chain(ops).request_bytes() == Chain(kv).request_bytes()


@pytest.mark.parametrize("scratch", [0, 16])
def test_displaced_names_the_unreferenced_buffer(sim, drive, rig, scratch):
    server, client, words, rkey, freelist, buffer_rkey = rig

    def install(tag):
        result = yield from client.execute(*client.install(
            tag, freelist, pack_uint(tag, 8), buffer_rkey, words, rkey,
            scratch=scratch))
        cas = result.raise_on_nak()[-1]
        return cas.status, client.displaced(cas, scratch)

    def pointer():
        return int.from_bytes(server.space.read(words + 8, 8), "little")

    def main():
        # A hit on the empty word displaces nothing.
        status, displaced = yield from install(5)
        assert (status, displaced) == (OpStatus.OK, 0)
        first = pointer()
        assert first != 0
        # A hit on a live word displaces its old pointer.
        status, displaced = yield from install(6)
        assert (status, displaced) == (OpStatus.OK, first)
        second = pointer()
        # A miss (stale tag) displaces the install's own buffer.
        status, displaced = yield from install(4)
        assert status is not OpStatus.OK
        assert pointer() == second
        assert displaced not in (0, first, second)
        assert server.space.read(displaced, 8) == pack_uint(4, 8)

    drive(sim, main())
