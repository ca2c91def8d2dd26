"""FaRM baseline (Dragojević et al., NSDI '14), as described in §8.1.

Execution-phase reads are one-sided: READ the pointer table slot, then
READ the object (two round trips per key — "as in Pilaf"). The commit
protocol is three phases, two of which need the server CPU:

1. **LOCK** (RPC) — lock every write-set object, verifying its version
   still matches what the transaction read; any failure unlocks and
   aborts.
2. **VALIDATE** (one-sided READs) — re-read the lock/version word of
   read-set objects that were not locked in phase 1, checking they are
   unlocked and unchanged.
3. **UPDATE + UNLOCK** (RPC) — install the new values, bump versions,
   release locks.
"""

from repro.apps.common import backoff_us, note_key
from repro.apps.tx.layout import FarmLayout
from repro.core.ops import ReadOp
from repro.hw.layout import unpack_uint
from repro.hw.memory import POINTER_SIZE
from repro.obs.trace import NULL_SPAN
from repro.prism.client import PrismClient
from repro.prism.server import PrismServer
from repro.rpc.erpc import RpcClient, RpcServer
from repro.sim.rng import SeededRng


class FarmServer:
    """One partition: pointer table + inline objects + commit RPCs."""

    LOCK_METHOD = "farm.lock"
    UPDATE_METHOD = "farm.update"
    UNLOCK_METHOD = "farm.unlock"
    #: base handler cost (µs) plus per-key increments
    LOCK_BASE_US = 1.10
    LOCK_PER_KEY_US = 0.35
    UPDATE_BASE_US = 1.30
    UPDATE_PER_KEY_US = 0.55

    def __init__(self, sim, fabric, host_name, backend_cls, config=None,
                 n_keys=100_000, value_size=512, rpc_config=None,
                 backend_kwargs=None):
        self.sim = sim
        probe = FarmLayout(0, 0, n_keys, value_size)
        memory_bytes = probe.table_bytes + probe.objects_bytes + (1 << 20)
        self.prism = PrismServer(sim, fabric, host_name, backend_cls,
                                 config=config, memory_bytes=memory_bytes,
                                 service="rdma",
                                 backend_kwargs=backend_kwargs)
        table_base, self.table_rkey = self.prism.add_region(probe.table_bytes)
        objects_base, self.objects_rkey = self.prism.add_region(
            probe.objects_bytes)
        self.layout = FarmLayout(table_base, objects_base, n_keys, value_size)
        self.rpc = RpcServer(sim, fabric, host_name, config=rpc_config)
        self.rpc.register(self.LOCK_METHOD, self._handle_lock,
                          service_us=self._lock_cost)
        self.rpc.register(self.UPDATE_METHOD, self._handle_update,
                          service_us=self._update_cost)
        self.rpc.register(self.UNLOCK_METHOD, self._handle_unlock,
                          service_us=self._lock_cost)
        self._locks = {}  # key -> transaction id

    @property
    def host_name(self):
        return self.prism.host_name

    def _lock_cost(self, args):
        return self.LOCK_BASE_US + self.LOCK_PER_KEY_US * len(args[1])

    def _update_cost(self, args):
        return self.UPDATE_BASE_US + self.UPDATE_PER_KEY_US * len(args[1])

    # -- state helpers (server CPU, functional) ----------------------------

    def _read_version(self, key):
        word = self.prism.space.read(self.layout.object_addr(key), 8)
        return FarmLayout.unpack_lockver(word)

    def _set_lockver(self, key, version, locked):
        self.prism.space.write(self.layout.object_addr(key),
                               FarmLayout.pack_lockver(version, locked))

    # -- RPC handlers (rpc.erpc runs each at most once per call) -----------

    def _handle_lock(self, args):
        """args = (tid, [(key, expected_version), ...])."""
        tid, entries = args
        acquired = []
        for key, expected in entries:
            version, locked = self._read_version(key)
            if locked or version != expected:
                for prior in acquired:
                    prior_version, _ = self._read_version(prior)
                    self._set_lockver(prior, prior_version, locked=False)
                    self._locks.pop(prior, None)
                return (False, ()), 8
            self._set_lockver(key, version, locked=True)
            self._locks[key] = tid
            acquired.append(key)
        return (True, ()), 8

    def _handle_update(self, args):
        """args = (tid, [(key, value), ...]): install, bump, unlock."""
        tid, entries = args
        for key, value in entries:
            assert self._locks.get(key) == tid, "update without lock"
            version, _locked = self._read_version(key)
            self._set_lockver(key, version + 1, locked=False)
            self.prism.space.write(self.layout.object_addr(key) + 8, value)
            self._locks.pop(key, None)
        return (True, ()), 8

    def _handle_unlock(self, args):
        """args = (tid, [key, ...]): release without installing."""
        tid, keys = args
        for key in keys:
            if self._locks.get(key) == tid:
                version, _ = self._read_version(key)
                self._set_lockver(key, version, locked=False)
                self._locks.pop(key, None)
        return (True, ()), 8

    def load(self, key, value, version=1):
        """Install an initial version directly (setup time): the one-item
        :meth:`load_many`."""
        self.load_many(((key, value),), version)

    def load_many(self, items, version=1):
        """Install ``(key, value)`` pairs in order (setup time): per key,
        its table slot's pointer, then the object's unlocked version
        word and value, written in place. A value longer than
        ``value_size`` raises ``ValueError`` before its item writes a
        byte."""
        host = self.prism.space.host
        view, size = host.view, host.size
        layout = self.layout
        table, objects = layout.table_base, layout.objects_base
        stride, value_size = layout.object_stride, layout.value_size
        pack_word = FarmLayout.pack_word_into
        for key, value in items:
            if len(value) > value_size:
                raise layout.oversize(key, value)
            slot = table + key * POINTER_SIZE
            if slot < POINTER_SIZE or slot + POINTER_SIZE > size:
                host.check(slot, POINTER_SIZE)
            addr = objects + key * stride
            pack_word(view, slot, addr)
            end = addr + 8 + len(value)
            if addr < POINTER_SIZE or end > size:
                host.check(addr, end - addr)
            pack_word(view, addr, version)
            view[addr + 8:end] = value


class FarmClient:
    """A FaRM transaction client of one partition."""

    def __init__(self, sim, fabric, client_name, server, client_id, seed=0,
                 backoff_base_us=3.0, backoff_max_us=128.0):
        self.sim = sim
        self.server = server
        self.layout = server.layout
        self.client = PrismClient(sim, fabric, client_name, server.prism)
        self.rpc = RpcClient(sim, fabric, client_name)
        self.client_id = client_id
        self._txn_counter = 0
        self._rng = SeededRng(seed).stream(f"farm.{client_id}")
        self.backoff_base_us = backoff_base_us
        self.backoff_max_us = backoff_max_us
        self.commits = 0
        self.aborts = 0
        #: optional hook called on every commit with
        #: ``(None, reads_dict, writes_dict, start, finish)``.
        self.on_commit = None

    # -- execution phase -----------------------------------------------------

    def read_keys(self, keys, span=NULL_SPAN):
        """Two batched one-sided READ round trips: slots, then objects.

        Returns ``({key: version}, {key: value})``; retries keys whose
        object was locked mid-read (version word has the lock bit set).
        """
        slot_ops = [ReadOp(addr=self.layout.slot_addr(key), length=8,
                           rkey=self.server.table_rkey) for key in keys]
        result = yield from self.client.execute(*slot_ops, span=span)
        result.raise_on_nak()
        pointers = [unpack_uint(r.value, 0, 8) for r in result]
        while True:
            object_ops = [
                ReadOp(addr=ptr, length=8 + self.layout.value_size,
                       rkey=self.server.objects_rkey)
                for ptr in pointers]
            result = yield from self.client.execute(*object_ops, span=span)
            result.raise_on_nak()
            versions, values = {}, {}
            any_locked = False
            for key, op_result in zip(keys, result):
                version, locked = FarmLayout.unpack_lockver(
                    op_result.value[:8])
                if locked:
                    any_locked = True
                versions[key] = version
                values[key] = bytes(op_result.value[8:])
            if not any_locked:
                return versions, values
            # A concurrent commit holds the lock; reread shortly.
            yield self.sim.timeout(1.0)

    # -- commit protocol ---------------------------------------------------

    def run_transaction(self, read_keys, write_keys, value,
                        span=NULL_SPAN):
        """Process helper: one attempt; returns (committed, values).
        Every request names ``span``'s operation. A written value longer
        than ``value_size`` raises ``ValueError`` before any request: the
        UPDATE would overwrite the next object's version word."""
        read_keys = tuple(read_keys)
        write_keys = tuple(write_keys)
        if write_keys and len(value) > self.layout.value_size:
            raise self.layout.oversize(write_keys, value)
        self._txn_counter += 1
        tid = (self.client_id, self._txn_counter)
        start = self.sim.now
        versions, values = yield from self.read_keys(read_keys, span)
        # Phase 1: LOCK the write set (with version check).
        ok, _ = yield from self.rpc.call(
            self.server.host_name, FarmServer.LOCK_METHOD,
            (tid, [(key, versions.get(key, 0)) for key in write_keys]),
            request_payload_bytes=16 * len(write_keys) + 16, span=span)
        if not ok:
            return False, values
        # Phase 2: VALIDATE — "reread all objects in the read set to
        # verify that they have not been concurrently modified" (§8.1).
        # Write-set keys are locked by us, so for those only the version
        # must match; other keys must also be unlocked.
        if read_keys:
            write_set = set(write_keys)
            ops = [ReadOp(addr=self.layout.object_addr(key), length=8,
                          rkey=self.server.objects_rkey)
                   for key in read_keys]
            result = yield from self.client.execute(*ops, span=span)
            result.raise_on_nak()
            for key, op_result in zip(read_keys, result):
                version, locked = FarmLayout.unpack_lockver(op_result.value)
                bad = (version != versions[key]
                       or (locked and key not in write_set))
                if bad:
                    yield from self.rpc.call(
                        self.server.host_name, FarmServer.UNLOCK_METHOD,
                        (tid, list(write_keys)),
                        request_payload_bytes=8 * len(write_keys) + 16,
                        span=span)
                    return False, values
        # Phase 3: UPDATE and UNLOCK.
        yield from self.rpc.call(
            self.server.host_name, FarmServer.UPDATE_METHOD,
            (tid, [(key, value) for key in write_keys]),
            request_payload_bytes=(8 + len(value)) * len(write_keys) + 16,
            span=span)
        if self.on_commit is not None:
            self.on_commit(None, dict(values),
                           {key: value for key in write_keys},
                           start, self.sim.now)
        return True, values

    def transact(self, read_keys, write_keys, value, max_attempts=None,
                 span=NULL_SPAN):
        """Retry loop with randomized exponential backoff."""
        attempts = 0
        while True:
            attempts += 1
            committed, values = yield from self.run_transaction(
                read_keys, write_keys, value, span)
            if committed:
                self.commits += 1
                return values, attempts - 1
            self.aborts += 1
            if max_attempts is not None and attempts >= max_attempts:
                raise RuntimeError("farm transaction exceeded max attempts")
            yield self.sim.timeout(backoff_us(
                self._rng, attempts, self.backoff_base_us,
                self.backoff_max_us))

    def execute(self, op, span=NULL_SPAN):
        """Driver adapter for :class:`~repro.workload.ycsb.TxnOp`; the
        transaction is ``span``'s operation, not traced under it."""
        for key in op.read_keys:
            note_key(self.sim, "farm", "read", key)
        for key in op.write_keys:
            note_key(self.sim, "farm", "write", key)
        _values, retries = yield from self.transact(
            op.read_keys, op.write_keys, op.value, span=span.untraced())
        return {"retries": retries, "aborts": retries}
