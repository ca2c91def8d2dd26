"""End-to-end linearizability: concurrent clients against the real
protocol stacks, verified by the Wing & Gong checker.

These are the strongest tests in the suite: they run randomized
concurrent workloads through the full simulated systems (fabric + NIC
model + protocol) and check the *consistency claims the paper makes*.
"""

import pytest

from repro.apps.blockstore import (
    AbdLockClient,
    AbdLockReplica,
    PrismRsClient,
    PrismRsReplica,
)
from repro.apps.kv import PrismKvClient, PrismKvServer
from repro.faults import parse_faults
from repro.net.topology import RACK, make_fabric
from repro.prism import HardwareRdmaBackend, SoftwarePrismBackend
from repro.sim import SeededRng, Simulator
from repro.verify import HistoryRecorder, check_linearizable

pytestmark = pytest.mark.usefixtures("ties")

N_KEYS = 4
N_CLIENTS = 4
OPS_PER_CLIENT = 12


def _run_register_workload(sim, recorder, clients, seed):
    """Each client mixes puts/gets over a tiny hot key space."""
    def worker(index, client):
        rng = SeededRng(seed).fork(index).stream("ops")
        for op_index in range(OPS_PER_CLIENT):
            key = rng.randrange(N_KEYS)
            if rng.random() < 0.5:
                value = f"c{index}.{op_index}".encode().ljust(16, b"_")
                yield from recorder.timed_put(index, client.put, key, value)
            else:
                yield from recorder.timed_get(index, client.get, key)
    processes = [sim.spawn(worker(i, c)) for i, c in enumerate(clients)]
    done = sim.all_of(processes)
    waiter = sim.spawn((lambda: (yield done))())
    sim.run_until_complete(waiter, limit=1e7)


#: drop, duplication and jitter on every message; a lost request or
#: reply is retransmitted by the call that posted it
FAULT_PLANS = ["seed=3,drop=0.05", "seed=4,dup=0.1",
               "seed=5,drop=0.05,dup=0.05", "seed=6,drop=0.1",
               "seed=7,drop=0.05,dup=0.05,jitter=2"]


def _initial_values(replicas):
    initial = {}
    for key in range(N_KEYS):
        value = b"init" + bytes([key]) * 12
        initial[key] = value
        for rep in replicas:
            rep.load(key, value)
    return initial


def _check_prism_rs(seed, plan=None):
    sim = Simulator()
    if plan is not None:
        faults = sim.set_faults(parse_faults(plan))
    hosts = [f"r{i}" for i in range(3)] + [f"c{i}" for i in range(N_CLIENTS)]
    fabric = make_fabric(sim, RACK, hosts)
    replicas = [PrismRsReplica(sim, fabric, f"r{i}", SoftwarePrismBackend,
                               n_blocks=N_KEYS, block_size=16)
                for i in range(3)]
    initial = _initial_values(replicas)
    clients = [PrismRsClient(sim, fabric, f"c{i}", replicas, client_id=i + 1)
               for i in range(N_CLIENTS)]
    recorder = HistoryRecorder(sim)
    _run_register_workload(sim, recorder, clients, seed)
    assert len(recorder) == N_CLIENTS * OPS_PER_CLIENT
    assert check_linearizable(recorder.invocations,
                              initial_values=initial) == N_KEYS
    if plan is not None:
        assert faults.counters["retries_exhausted"] == 0


def _check_abdlock(seed, plan=None):
    sim = Simulator()
    if plan is not None:
        faults = sim.set_faults(parse_faults(plan))
    hosts = [f"r{i}" for i in range(3)] + [f"c{i}" for i in range(N_CLIENTS)]
    fabric = make_fabric(sim, RACK, hosts)
    replicas = [AbdLockReplica(sim, fabric, f"r{i}", HardwareRdmaBackend,
                               n_blocks=N_KEYS, block_size=16)
                for i in range(3)]
    initial = _initial_values(replicas)
    clients = [AbdLockClient(sim, fabric, f"c{i}", replicas,
                             client_id=i + 1, seed=seed * 100 + i)
               for i in range(N_CLIENTS)]
    recorder = HistoryRecorder(sim)
    _run_register_workload(sim, recorder, clients, seed)
    assert check_linearizable(recorder.invocations,
                              initial_values=initial) == N_KEYS
    if plan is not None:
        assert faults.counters["retries_exhausted"] == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prism_rs_is_linearizable(seed):
    _check_prism_rs(seed)


@pytest.mark.parametrize("plan", FAULT_PLANS)
def test_prism_rs_is_linearizable_under_faults(plan):
    """Both quorum phases under loss and duplication: every leg's lost
    round trip is retransmitted, and a duplicated install misses its
    CAS_GT and retires its allocation."""
    _check_prism_rs(1, plan)


@pytest.mark.parametrize("seed", [4, 5])
def test_abdlock_is_linearizable(seed):
    _check_abdlock(seed)


@pytest.mark.parametrize("plan", FAULT_PLANS)
def test_abdlock_is_linearizable_under_faults(plan):
    """Four phases per operation under loss and duplication: a lock CAS
    whose reply was lost is retransmitted and recognised by its own
    install value, and the settled phases wait out every leg."""
    _check_abdlock(4, plan)


@pytest.mark.parametrize("seed", [6, 7])
def test_prism_kv_gets_are_consistent(seed):
    """PRISM-KV is unreplicated, but its out-of-place updates must give
    every GET a complete, linearizable view."""
    sim = Simulator()
    hosts = ["server"] + [f"c{i}" for i in range(N_CLIENTS)]
    fabric = make_fabric(sim, RACK, hosts)
    server = PrismKvServer(sim, fabric, "server", SoftwarePrismBackend,
                           n_keys=N_KEYS, max_value_bytes=16)
    initial = {}
    for key in range(N_KEYS):
        value = b"init" + bytes([key]) * 12
        initial[key] = value
        server.load(key, value)
    clients = [PrismKvClient(sim, fabric, f"c{i}", server)
               for i in range(N_CLIENTS)]
    recorder = HistoryRecorder(sim)
    _run_register_workload(sim, recorder, clients, seed)
    # Last-writer-wins by version tag is still linearizable: a
    # superseded PUT linearizes immediately before the newer one.
    assert check_linearizable(recorder.invocations,
                              initial_values=initial) == N_KEYS
