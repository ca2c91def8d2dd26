"""PRISM-TX: one-sided optimistic concurrency control (§8.2).

A transaction touches the server CPU *zero* times:

* **Execution** — buffered writes, reads via one indirect READ per key
  (all keys of a partition batched into a single request).
* **Prepare** (1 round trip) — per key, CAS-based validation against
  the ``[PR | PW]`` metadata pair:

  - read validation: one CAS_GT comparing RC|TS against PW|PR and
    swapping PR := TS (the single-CAS trick of §8.2);
  - write validation: one CAS_GT on the PW half swapping PW := TS,
    chained *conditionally* behind the read validation when the key is
    both read and written; the returned old PR is checked client-side.

* **Commit** (1 round trip) — per written key, one install chain
  (:meth:`~repro.prism.client.PrismClient.install`): CAS_GT on C of
  ``[C | addr]``.

On abort the prepared PR/PW stamps are *left in place* (safe, §8.2) and
C is advanced to TS for keys that passed write validation, limiting how
long the conservative stamps can block others.

The 32-byte per-connection scratch slot holds two 16-byte install
temporaries, so up to two written keys commit in one request; larger
write sets are split across parallel requests (still one round trip).
"""

from repro.apps.common import backoff_us, note_key, split_tag
from repro.sim.events import TimeoutExpired
from repro.apps.tx.layout import (
    BUFFER_HEADER,
    CADDR_C_MASK,
    META_SIZE,
    PRPW_PW_MASK,
    PRPW_PR_MASK,
    TxLayout,
)
from repro.apps.tx.timestamps import LooselySynchronizedClock
from repro.core.constants import REDIRECT_SLOT_BYTES
from repro.core.ops import CasMode, CasOp, ReadOp
from repro.hw.memory import POINTER_SIZE
from repro.obs.trace import NULL_SPAN
from repro.prism.client import PrismClient
from repro.prism.engine import OpStatus
from repro.prism.recycler import RecyclerClient, RecyclerDaemon
from repro.prism.server import PrismServer
from repro.rpc.erpc import RpcClient, RpcServer

_INSTALL_TMP_BYTES = 16
_INSTALLS_PER_REQUEST = REDIRECT_SLOT_BYTES // _INSTALL_TMP_BYTES


class PrismTxServer:
    """One partition: metadata array, buffer free list, recycler."""

    def __init__(self, sim, fabric, host_name, backend_cls, config=None,
                 n_keys=100_000, value_size=512, spare_buffers=4096,
                 rpc_config=None, recycler_batch=64, backend_kwargs=None):
        self.sim = sim
        probe = TxLayout(0, n_keys, value_size)
        memory_bytes = (probe.meta_bytes
                        + (n_keys + spare_buffers) * probe.buffer_bytes
                        + (1 << 20))
        self.prism = PrismServer(sim, fabric, host_name, backend_cls,
                                 config=config, memory_bytes=memory_bytes,
                                 backend_kwargs=backend_kwargs)
        meta_base, self.meta_rkey = self.prism.add_region(probe.meta_bytes)
        self.layout = TxLayout(meta_base, n_keys, value_size)
        self.freelist_id, self.buffer_rkey = self.prism.create_freelist(
            probe.buffer_bytes, n_keys + spare_buffers, name="tx-buffers")
        self.rpc = RpcServer(sim, fabric, host_name, config=rpc_config)
        self.recycler = RecyclerDaemon(sim, self.prism, self.rpc,
                                       batch_size=recycler_batch)

    @property
    def host_name(self):
        return self.prism.host_name

    def load(self, key, value, version=1):
        """Install an initial version directly (setup time): the one-item
        :meth:`load_many`."""
        self.load_many(((key, value),), version)

    def load_many(self, items, version=1):
        """Install ``(key, value)`` pairs in order (setup time): each in
        the next free buffer, and a re-load's old buffer back on the list
        once its key points at the new one.

        PW is seeded to the initial version: the protocol invariant is
        PW >= C (a committed write was always prepared first), and read
        validation checks RC == PW.

        The loop writes the memory view itself. It takes the buffers off
        the list by ``pop_many``, before each return and when the call
        ends or an error escapes, so the list reads exactly as after one
        ``pop`` per item. A value longer than ``value_size`` raises
        ``ValueError`` before its item takes a buffer.
        """
        items = list(items)
        host = self.prism.space.host
        view, size = host.view, host.size
        freelist = self.prism.freelists[self.freelist_id]
        meta_base, value_size = self.layout.meta_base, self.layout.value_size
        pack_header = TxLayout.pack_buffer_header_into
        pack_meta = TxLayout.pack_meta_into
        unpack_meta = TxLayout.unpack_meta_from
        head = freelist.peek_many(len(items))
        n_head = len(head)
        taken = popped = 0  # buffers handed out; of those, popped
        try:
            for key, value in items:
                if len(value) > value_size:  # would spill into the next buffer
                    raise ValueError(
                        f"key {key}: {len(value)} B exceeds the "
                        f"{value_size}-byte value")
                if taken < n_head:
                    addr = head[taken]
                else:  # past the buffers listed when the call began
                    freelist.pop_many(taken - popped)
                    popped = taken
                    addr = freelist.pop_many(1)[0]
                    popped += 1
                taken += 1
                end = addr + BUFFER_HEADER + len(value)
                if addr < POINTER_SIZE or end > size:
                    host.check(addr, end - addr)
                pack_header(view, addr, version, key)
                view[addr + BUFFER_HEADER:end] = value
                meta = meta_base + key * META_SIZE
                if meta < POINTER_SIZE or meta + META_SIZE > size:
                    host.check(meta, META_SIZE)
                replaced = unpack_meta(view, meta)[3]
                pack_meta(view, meta, 0, version, version, addr)
                if replaced:  # a re-load: its old buffer goes back
                    freelist.pop_many(taken - popped)
                    popped = taken
                    freelist.post(replaced)
        finally:
            freelist.pop_many(taken - popped)


class TxAborted(Exception):
    """Internal: validation failed; the caller retries with a new TS."""


class PrismTxClient:
    """A transaction client of one partition (single shard, as §8.3)."""

    def __init__(self, sim, fabric, client_name, server, client_id,
                 clock_skew_us=0.0, recycle_batch=16,
                 backoff_base_us=3.0, backoff_max_us=128.0):
        self.sim = sim
        self.server = server
        self.layout = server.layout
        self.client = PrismClient(sim, fabric, client_name, server.prism)
        self.client_id = client_id
        self.clock = LooselySynchronizedClock(sim, client_id, clock_skew_us)
        rpc = RpcClient(sim, fabric, client_name,
                        channel=self.client.channel)
        self.recycler = RecyclerClient(rpc, server.host_name,
                                       batch_size=recycle_batch)
        from repro.sim.rng import SeededRng
        self._rng = SeededRng(client_id).stream("prismtx.backoff")
        self.backoff_base_us = backoff_base_us
        self.backoff_max_us = backoff_max_us
        self.commits = 0
        self.aborts = 0
        self.timeout_aborts = 0
        #: optional hook called on every commit with
        #: ``(timestamp, reads_dict, writes_dict, start, finish)`` —
        #: used by the serializability checker in the test suite.
        self.on_commit = None

    # -- public API -------------------------------------------------------

    def run_transaction(self, read_keys, write_keys, value,
                        span=NULL_SPAN):
        """Process helper: one attempt writing ``value`` to every write
        key; returns the committed read values dict.

        Raises :class:`TxAborted` when validation fails.
        """
        return (yield from self.run_transaction_kv(
            read_keys, {key: value for key in write_keys}, span))

    def run_transaction_kv(self, read_keys, writes, span=NULL_SPAN):
        """Process helper: one attempt with per-key write values.

        ``writes`` maps key -> value. Raises :class:`TxAborted` when
        validation fails. Every request names ``span``'s operation.
        """
        read_keys = tuple(read_keys)
        writes = dict(writes)
        start = self.sim.now
        read_versions, values = yield from self._execute_reads(read_keys,
                                                               span)
        ts = self.clock.timestamp(read_versions.values())
        yield from self._prepare(read_keys, tuple(writes), read_versions, ts,
                                 span)
        yield from self._commit(writes, ts, span)
        self.commits += 1
        if self.on_commit is not None:
            self.on_commit(ts, dict(values), dict(writes), start,
                           self.sim.now)
        return values

    def transact(self, read_keys, write_keys, value, max_attempts=None,
                 span=NULL_SPAN):
        """Process helper: retry loop with randomized backoff."""
        return (yield from self.transact_kv(
            read_keys, {key: value for key in write_keys},
            max_attempts=max_attempts, span=span))

    def transact_kv(self, read_keys, writes, max_attempts=None,
                    span=NULL_SPAN):
        """Retry loop around :meth:`run_transaction_kv`.

        A coordinator timeout (channel retransmissions exhausted under
        fault injection) is handled like an abort: the attempt's PR/PW
        stamps are safe to leave in place (§8.2), and the whole
        transaction retries with a fresh, higher timestamp.
        """
        attempts = 0
        while True:
            attempts += 1
            try:
                values = yield from self.run_transaction_kv(read_keys,
                                                            writes, span)
                return values, attempts - 1
            except (TxAborted, TimeoutExpired) as exc:
                self.aborts += 1
                if isinstance(exc, TimeoutExpired):
                    self.timeout_aborts += 1
                if max_attempts is not None and attempts >= max_attempts:
                    raise
                yield self.sim.timeout(backoff_us(
                    self._rng, attempts, self.backoff_base_us,
                    self.backoff_max_us))

    def execute(self, op, span=NULL_SPAN):
        """Driver adapter for :class:`~repro.workload.ycsb.TxnOp`; the
        transaction is ``span``'s operation, not traced under it."""
        for key in op.read_keys:
            note_key(self.sim, "prism-tx", "read", key)
        for key in op.write_keys:
            note_key(self.sim, "prism-tx", "write", key)
        _values, retries = yield from self.transact(
            op.read_keys, op.write_keys, op.value, span=span.untraced())
        return {"retries": retries, "aborts": retries}

    # -- phases ------------------------------------------------------------

    def _execute_reads(self, read_keys, span=NULL_SPAN):
        """One batched request per partition: for each key, READ the
        metadata C word and indirect-READ the committed buffer.

        RC is ``max(C_meta, C_buffer)``: after an abort advanced C past
        the buffer's embedded tag (§8.2), the old value stands in for
        the aborted write at the higher version; when an install races
        between the two READs, the buffer's (newer) tag is the
        consistent one. Either mismatch direction yields a value/version
        pair that validation treats correctly (at worst conservatively).
        """
        if not read_keys:
            return {}, {}
        read_len = self.layout.buffer_bytes
        ops = []
        for key in read_keys:
            ops.append(ReadOp(addr=self.layout.caddr_addr(key), length=8,
                              rkey=self.server.meta_rkey))
            ops.append(ReadOp(addr=self.layout.addr_field(key),
                              length=read_len,
                              rkey=self.server.meta_rkey, indirect=True))
        result = yield from self.client.execute(*ops, span=span)
        result.raise_on_nak()
        versions, values = {}, {}
        for index, key in enumerate(read_keys):
            c_meta = int.from_bytes(result[2 * index].value, "little")
            c_buf, stored_key, value = TxLayout.unpack_buffer(
                result[2 * index + 1].value)
            assert stored_key == key, "hash is collisionless by construction"
            versions[key] = max(c_meta, c_buf)
            values[key] = value
        return versions, values

    def _prepare(self, read_keys, write_keys, read_versions, ts,
                 span=NULL_SPAN):
        """One batched request of validation CASes; raises TxAborted."""
        write_set = set(write_keys)
        ops = []
        kinds = []  # parallel list: ("rv"|"wv", key)
        for key in read_keys:
            ops.append(self._read_validation_op(key, read_versions[key], ts))
            kinds.append(("rv", key))
            if key in write_set:
                ops.append(self._write_validation_op(key, ts,
                                                     conditional=True))
                kinds.append(("wv", key))
        for key in write_keys:
            if key not in read_versions:
                ops.append(self._write_validation_op(key, ts,
                                                     conditional=False))
                kinds.append(("wv", key))
        result = yield from self.client.execute(*ops, span=span)
        result.raise_on_nak()
        ok = True
        write_checked = []
        for (kind, key), op_result in zip(kinds, result):
            if op_result.status is OpStatus.SKIPPED:
                ok = False  # a wv chained behind an rv that missed
                continue
            old_pr, old_pw = TxLayout.unpack_prpw(op_result.value)
            if kind == "rv":
                # Read is valid iff it observed the latest prepared
                # write. PR may legitimately not have moved (TS <= PR).
                if old_pw != read_versions[key]:
                    ok = False
            else:
                # PR == ts is our *own* read validation (timestamps are
                # unique per transaction), which our write never
                # invalidates; only a strictly greater PR aborts.
                effective = op_result.status is OpStatus.OK
                if effective and old_pr <= ts:
                    # The PW stamp is ours: if this attempt aborts, C
                    # must advance past it so readers are not blocked.
                    write_checked.append(key)
                if not effective or old_pr > ts:
                    ok = False
        if not ok:
            yield from self._abort(write_checked, ts, span)
            raise TxAborted()

    def _read_validation_op(self, key, rc, ts):
        # Compare RC|TS > PW|PR (PW, RC in the high halves); swap PR=TS.
        return CasOp(target=self.layout.prpw_addr(key),
                     data=TxLayout.pack_prpw(ts, rc),
                     rkey=self.server.meta_rkey, mode=CasMode.GT,
                     swap_mask=PRPW_PR_MASK, operand_width=16)

    def _write_validation_op(self, key, ts, conditional):
        # Compare TS > PW on the PW half; swap PW=TS. Old PR checked
        # client-side afterwards (§8.2: safe to raise PW optimistically).
        return CasOp(target=self.layout.prpw_addr(key),
                     data=TxLayout.pack_prpw(0, ts),
                     rkey=self.server.meta_rkey, mode=CasMode.GT,
                     compare_mask=PRPW_PW_MASK, swap_mask=PRPW_PW_MASK,
                     operand_width=16, conditional=conditional)

    def _commit(self, writes, ts, span=NULL_SPAN):
        """Install all writes (``writes``: key -> value); chunks of two
        chains per request (the 32 B scratch slot holds two install
        temporaries)."""
        items = list(writes.items())
        chunks = [items[i:i + _INSTALLS_PER_REQUEST]
                  for i in range(0, len(items), _INSTALLS_PER_REQUEST)]
        for chunk in chunks:
            yield from self._install_chunk(chunk, ts, span)

    def _install_chunk(self, chunk, ts, span):
        ops = []
        for slot, (key, value) in enumerate(chunk):
            ops += self.client.install(
                ts, self.server.freelist_id,
                TxLayout.pack_buffer(ts, key, value), self.server.buffer_rkey,
                self.layout.caddr_addr(key), self.server.meta_rkey,
                scratch=slot * _INSTALL_TMP_BYTES)
        result = yield from self.client.execute(*ops, span=span)
        result.raise_on_nak()
        # A miss means a transaction with a later timestamp already
        # installed this key (Thomas write rule): drop our buffer.
        for slot in range(len(chunk)):
            addr = self.client.displaced(result[3 * slot + 2],
                                         slot * _INSTALL_TMP_BYTES)
            if addr:
                self._retire(addr, span)

    def _abort(self, write_checked_keys, ts, span):
        """Advance C := TS for keys that passed write validation, so the
        conservatively raised PW cannot block readers longer than
        needed (§8.2)."""
        if not write_checked_keys:
            return
        ops = [CasOp(target=self.layout.caddr_addr(key),
                     data=TxLayout.pack_caddr(ts, 0),
                     rkey=self.server.meta_rkey, mode=CasMode.GT,
                     compare_mask=CADDR_C_MASK, swap_mask=CADDR_C_MASK,
                     operand_width=16)
               for key in write_checked_keys]
        result = yield from self.client.execute(*ops, span=span)
        result.raise_on_nak()

    def _retire(self, addr, span):
        flush = self.recycler.retire(self.server.freelist_id, addr, span)
        if flush is not None:
            self.sim.launch(flush, name="tx-retire")
