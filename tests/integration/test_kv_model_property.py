"""Property test: PRISM-KV (whole stack) vs a Python dict.

Hypothesis drives random sequential GET/PUT streams through the full
simulated system — fabric, NIC backend, engine, recycler — and the
observable behaviour must match a plain dictionary. Sequential, so the
dict *is* the specification (concurrency is covered by the
linearizability suite)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kv import PrismKvClient, PrismKvServer
from repro.net.topology import DIRECT, make_fabric
from repro.prism import HardwarePrismBackend
from repro.sim import Simulator

pytestmark = pytest.mark.usefixtures("ties")

N_KEYS = 6

_op = st.one_of(
    st.tuples(st.just("get"), st.integers(0, N_KEYS - 1)),
    st.tuples(st.just("put"), st.integers(0, N_KEYS - 1),
              st.binary(min_size=1, max_size=48)),
)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=30))
def test_kv_matches_dict_model(ops):
    sim = Simulator()
    fabric = make_fabric(sim, DIRECT, ["c0", "server"])
    server = PrismKvServer(sim, fabric, "server", HardwarePrismBackend,
                           n_keys=N_KEYS, max_value_bytes=48,
                           spare_buffers=len(ops) + 8)
    client = PrismKvClient(sim, fabric, "c0", server)
    model = {}
    mismatches = []

    def run():
        for op in ops:
            if op[0] == "get":
                _, key = op
                value = yield from client.get(key)
                if value != model.get(key):
                    mismatches.append((op, value, model.get(key)))
            else:
                _, key, value = op
                yield from client.put(key, value)
                model[key] = value
        # Final read-back of every key.
        for key in range(N_KEYS):
            value = yield from client.get(key)
            if value != model.get(key):
                mismatches.append((("final", key), value, model.get(key)))

    sim.run_until_complete(sim.spawn(run()), limit=1e8)
    assert mismatches == []


@settings(max_examples=20, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=20),
       use_size_classes=st.booleans())
def test_kv_model_with_size_classes(ops, use_size_classes):
    sim = Simulator()
    fabric = make_fabric(sim, DIRECT, ["c0", "server"])
    server = PrismKvServer(sim, fabric, "server", HardwarePrismBackend,
                           n_keys=N_KEYS, max_value_bytes=48,
                           spare_buffers=len(ops) + 8,
                           size_classes=use_size_classes)
    client = PrismKvClient(sim, fabric, "c0", server)
    model = {}

    def run():
        for op in ops:
            if op[0] == "get":
                value = yield from client.get(op[1])
                assert value == model.get(op[1])
            else:
                yield from client.put(op[1], op[2])
                model[op[1]] = op[2]

    sim.run_until_complete(sim.spawn(run()), limit=1e8)
