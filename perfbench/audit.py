"""Hot-key history audits for the workloads that write.

A read-only workload is audited by comparing every GET with the loaded value
(``workloads.OpCounter``). Once clients write, the right answer depends on the
interleaving, so these run a small contended history (4 clients x 12 ops over
4 keys, the shape ``tests/integration`` uses) on the workload's own system and
backend and hand it to ``repro.verify``.
"""

from repro.apps.blockstore import PrismRsClient, PrismRsReplica
from repro.apps.tx import FarmClient, FarmServer
from repro.net.topology import RACK, make_fabric
from repro.prism import SoftwarePrismBackend, SoftwareRdmaBackend
from repro.sim import SeededRng, Simulator
from repro.verify import HistoryRecorder, check_linearizable
from repro.verify.serializability import CommittedTxn, check_serializable

N_KEYS = 4
N_CLIENTS = 4
OPS_PER_CLIENT = 12
VALUE_SIZE = 16


def _initial_values():
    return {key: b"init" + bytes([48 + key]) * (VALUE_SIZE - 4)
            for key in range(N_KEYS)}


def run_to_completion(sim, generators):
    """Spawn ``generators`` as processes and run until all have finished."""
    done = sim.all_of([sim.spawn(generator) for generator in generators])
    sim.run_until_complete(sim.spawn((lambda: (yield done))()), limit=1e9)


def rs_history(seed):
    """PRISM-RS on prism-sw, 3 replicas; returns ``(invocations, initial)``."""
    sim = Simulator()
    hosts = [f"r{i}" for i in range(3)] + [f"c{i}" for i in range(N_CLIENTS)]
    fabric = make_fabric(sim, RACK, hosts)
    replicas = [PrismRsReplica(sim, fabric, f"r{i}", SoftwarePrismBackend,
                               n_blocks=N_KEYS, block_size=VALUE_SIZE)
                for i in range(3)]
    initial = _initial_values()
    for key, value in initial.items():
        for replica in replicas:
            replica.load(key, value)
    clients = [PrismRsClient(sim, fabric, f"c{i}", replicas, client_id=i + 1)
               for i in range(N_CLIENTS)]
    recorder = HistoryRecorder(sim)

    def worker(index, client):
        rng = SeededRng(seed).fork(index).stream("ops")
        for op_index in range(OPS_PER_CLIENT):
            key = rng.randrange(N_KEYS)
            if rng.random() < 0.5:
                value = f"c{index}.{op_index}".encode().ljust(VALUE_SIZE, b"_")
                yield from recorder.timed_put(index, client.put, key, value)
            else:
                yield from recorder.timed_get(index, client.get, key)

    run_to_completion(sim, [worker(i, c) for i, c in enumerate(clients)])
    return recorder.invocations, initial


def farm_history(seed):
    """FaRM on farm-sw; returns ``(committed transactions, initial)``."""
    sim = Simulator()
    hosts = ["server"] + [f"c{i}" for i in range(N_CLIENTS)]
    fabric = make_fabric(sim, RACK, hosts)
    server = FarmServer(sim, fabric, "server", SoftwareRdmaBackend,
                        n_keys=N_KEYS, value_size=VALUE_SIZE)
    initial = _initial_values()
    for key, value in initial.items():
        server.load(key, value)
    committed = []

    def on_commit(timestamp, reads, writes, start, finish):
        committed.append(CommittedTxn(len(committed) + 1, timestamp, reads,
                                      writes, start, finish))

    clients = []
    for index in range(N_CLIENTS):
        client = FarmClient(sim, fabric, f"c{index}", server,
                            client_id=index + 1, seed=seed * 10 + index)
        client.on_commit = on_commit
        clients.append(client)

    def worker(index, client):
        rng = SeededRng(seed).fork(index).stream("txn")
        for txn_index in range(OPS_PER_CLIENT):
            keys = tuple(sorted(rng.sample(range(N_KEYS), rng.choice((1, 2)))))
            payload = f"c{index}t{txn_index}".encode().ljust(VALUE_SIZE, b".")
            yield from client.transact(keys, keys, payload)

    run_to_completion(sim, [worker(i, c) for i, c in enumerate(clients)])
    return committed, initial


def check_rs_history(invocations, initial):
    check_linearizable(invocations, initial_values=initial)


def check_farm_history(committed, initial):
    check_serializable(committed, initial, infer_order=True)


#: system kind -> (record a history, check it); both raise on a violation
HISTORY_AUDITS = {
    "rs": (rs_history, check_rs_history),
    "tx": (farm_history, check_farm_history),
}


def audit_history(kind, seed):
    """Record and check the hot-key history for ``kind``; raises if wrong."""
    record, check = HISTORY_AUDITS[kind]
    history, initial = record(seed)
    if len(history) != N_CLIENTS * OPS_PER_CLIENT:
        raise AssertionError(f"history has {len(history)} entries, "
                             f"expected {N_CLIENTS * OPS_PER_CLIENT}")
    check(history, initial)
