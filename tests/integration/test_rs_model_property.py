"""Property test: the replicated stores vs a dict model (sequential).

Random GET/PUT streams through the full 3-replica stacks must behave
exactly like a dictionary when issued sequentially; concurrency is
covered by the linearizability suite."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.blockstore import (
    AbdLockClient,
    AbdLockReplica,
    PrismRsClient,
    PrismRsReplica,
)
from repro.net.topology import RACK, make_fabric
from repro.prism import HardwareRdmaBackend, SoftwarePrismBackend
from repro.sim import Simulator

pytestmark = pytest.mark.usefixtures("ties")

N_BLOCKS = 4
VALUE = 32

_op = st.one_of(
    st.tuples(st.just("get"), st.integers(0, N_BLOCKS - 1)),
    st.tuples(st.just("put"), st.integers(0, N_BLOCKS - 1),
              st.binary(min_size=VALUE, max_size=VALUE)),
)


def _drive(sim, client, ops, initial):
    model = dict(initial)

    def run():
        for op in ops:
            if op[0] == "get":
                value = yield from client.get(op[1])
                assert value == model[op[1]], (op, value)
            else:
                yield from client.put(op[1], op[2])
                model[op[1]] = op[2]

    sim.run_until_complete(sim.spawn(run()), limit=1e8)


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=15))
def test_prism_rs_matches_dict(ops):
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["r0", "r1", "r2", "c0"])
    replicas = [PrismRsReplica(sim, fabric, f"r{i}", SoftwarePrismBackend,
                               n_blocks=N_BLOCKS, block_size=VALUE,
                               spare_buffers=len(ops) * 3 + 8)
                for i in range(3)]
    initial = {}
    for block in range(N_BLOCKS):
        value = bytes([block]) * VALUE
        initial[block] = value
        for rep in replicas:
            rep.load(block, value)
    client = PrismRsClient(sim, fabric, "c0", replicas, client_id=1)
    _drive(sim, client, ops, initial)


@settings(max_examples=15, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=10))
def test_abdlock_matches_dict(ops):
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["r0", "r1", "r2", "c0"])
    replicas = [AbdLockReplica(sim, fabric, f"r{i}", HardwareRdmaBackend,
                               n_blocks=N_BLOCKS, block_size=VALUE)
                for i in range(3)]
    initial = {}
    for block in range(N_BLOCKS):
        value = bytes([block]) * VALUE
        initial[block] = value
        for rep in replicas:
            rep.load(block, value)
    client = AbdLockClient(sim, fabric, "c0", replicas, client_id=1)
    _drive(sim, client, ops, initial)
