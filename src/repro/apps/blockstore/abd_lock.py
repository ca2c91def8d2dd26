"""ABDLOCK: multi-writer ABD over *standard* RDMA with locks (§7.2).

The baseline the paper adapts from the DrTM family: clients mediate
concurrent access with per-block spinlocks acquired by classic 64-bit
CAS. Every GET/PUT costs four quorum round trips — lock, read, write,
unlock — plus backoff and retry under contention, which is exactly the
penalty Figs. 6 and 7 quantify.

Protocol per operation:

1. CAS ``lock: 0 -> client_id`` at all replicas; proceed with the
   majority that succeeded. On failure to reach a majority, release
   acquired locks and retry after randomized exponential backoff.
2. READ ``tag | value`` from the locked replicas.
3. WRITE ``tag' | value'`` to the locked replicas (GET writes back the
   max it saw; PUT installs a bumped tag).
4. CAS ``lock: client_id -> 0`` to release.
"""

from repro.apps.blockstore.layout import VALUE_OFF, AbdLockLayout
from repro.apps.common import INITIAL_TAG, backoff_us, bump_tag, note_key
from repro.hw.memory import POINTER_SIZE
from repro.obs.trace import NULL_SPAN
from repro.prism.client import PrismClient
from repro.prism.server import PrismServer
from repro.sim.phase import Phase
from repro.sim.rng import SeededRng


class AbdLockReplica:
    """One replica: a flat array of lock|tag|value blocks."""

    def __init__(self, sim, fabric, host_name, backend_cls, config=None,
                 n_blocks=100_000, block_size=512, backend_kwargs=None):
        self.sim = sim
        probe = AbdLockLayout(0, n_blocks, block_size)
        memory_bytes = probe.blocks_bytes + (1 << 20)
        self.prism = PrismServer(sim, fabric, host_name, backend_cls,
                                 config=config, memory_bytes=memory_bytes,
                                 service="rdma",
                                 backend_kwargs=backend_kwargs)
        blocks_base, self.blocks_rkey = self.prism.add_region(
            probe.blocks_bytes)
        self.layout = AbdLockLayout(blocks_base, n_blocks, block_size)

    @property
    def host_name(self):
        return self.prism.host_name

    def load(self, block_id, value, tag=None):
        """Install an initial value directly (setup time): the one-item
        :meth:`load_many`."""
        self.load_many(((block_id, value),), tag)

    def load_many(self, items, tag=None):
        """Install ``(block_id, value)`` pairs in order (setup time): per
        block, the lock free (0), then tag | value, written in place. A
        value longer than a block raises ``ValueError`` before its item
        writes a byte."""
        tag = INITIAL_TAG if tag is None else tag
        host = self.prism.space.host
        view, size = host.view, host.size
        base, stride = self.layout.blocks_base, self.layout.block_stride
        block_size = self.layout.block_size
        pack_head = AbdLockLayout.pack_lock_tag_into
        for block_id, value in items:
            if len(value) > block_size:
                raise self.layout.oversize(block_id, value)
            addr = base + block_id * stride
            end = addr + VALUE_OFF + len(value)
            if addr < POINTER_SIZE or end > size:
                host.check(addr, end - addr)
            pack_head(view, addr, 0, tag)
            view[addr + VALUE_OFF:end] = value


class AbdLockClient:
    """A client of an ``n = 2f+1`` lock-based replica group."""

    def __init__(self, sim, fabric, client_name, replicas, client_id,
                 backoff_base_us=4.0, backoff_max_us=256.0, seed=0):
        if len(replicas) % 2 == 0:
            raise ValueError("replica count must be odd (n = 2f + 1)")
        self.sim = sim
        self.replicas = list(replicas)
        self.f = (len(replicas) - 1) // 2
        self.client_id = client_id
        self.layout = replicas[0].layout
        self.clients = [PrismClient(sim, fabric, client_name, r.prism)
                        for r in replicas]
        self.backoff_base_us = backoff_base_us
        self.backoff_max_us = backoff_max_us
        self._rng = SeededRng(seed).stream(f"abdlock.{client_id}")
        self.gets = 0
        self.puts = 0
        self.lock_retries = 0

    # -- public API -----------------------------------------------------------

    def get(self, block_id, span=NULL_SPAN):
        """Process helper: linearizable read (4 round trips + locking)."""
        note_key(self.sim, "abd-lock", "get", block_id)
        value, _retries = yield from self._locked_operation(block_id, None,
                                                            span)
        self.gets += 1
        return value

    def put(self, block_id, value, span=NULL_SPAN):
        """Process helper: linearizable write (4 round trips + locking)."""
        note_key(self.sim, "abd-lock", "put", block_id)
        _value, _retries = yield from self._locked_operation(block_id, value,
                                                             span)
        self.puts += 1
        return None

    def execute(self, op, span=NULL_SPAN):
        """Driver adapter for :class:`~repro.workload.ycsb.KvOp`; the
        operation is ``span``'s, not traced under it."""
        note_key(self.sim, "abd-lock", op.kind, op.key)
        span = span.untraced()
        if op.kind == "get":
            _value, retries = yield from self._locked_operation(op.key, None,
                                                                span)
            self.gets += 1
        else:
            _value, retries = yield from self._locked_operation(op.key,
                                                                op.value,
                                                                span)
            self.puts += 1
        return {"retries": retries}

    # -- protocol ------------------------------------------------------------

    def _locked_operation(self, block_id, new_value, span):
        """Lock a majority, read, write (back), unlock. Retries locking.
        Every request names ``span``'s operation. A value longer than a
        block raises ``ValueError`` before any request: its one-sided
        WRITE would overwrite the next block's lock and tag."""
        if new_value is not None and len(new_value) > self.layout.block_size:
            raise self.layout.oversize(block_id, new_value)
        attempt = 0
        while True:
            locked = yield from self._acquire_locks(block_id, span)
            if locked is not None:
                break
            attempt += 1
            self.lock_retries += 1
            yield self.sim.timeout(backoff_us(
                self._rng, attempt, self.backoff_base_us,
                self.backoff_max_us))
        try:
            replies = yield Phase(
                self.sim,
                [self.clients[i].read(self.layout.tag_addr(block_id),
                                      8 + self.layout.block_size,
                                      rkey=self.replicas[i].blocks_rkey,
                                      span=span)
                 for i in locked],
                len(locked))
            best_tag, best_value = -1, b""
            for _slot, data in replies:
                tag, value = AbdLockLayout.unpack_tagged_value(data)
                if tag > best_tag:
                    best_tag, best_value = tag, value
            if new_value is None:
                write_tag, write_value = best_tag, best_value
            else:
                write_tag = bump_tag(best_tag, self.client_id)
                write_value = new_value
            payload = AbdLockLayout.pack_tagged_value(write_tag, write_value)
            yield Phase(
                self.sim,
                [self.clients[i].write(self.layout.tag_addr(block_id),
                                       payload,
                                       rkey=self.replicas[i].blocks_rkey,
                                       span=span)
                 for i in locked],
                len(locked))
            return best_value if new_value is None else write_value, attempt
        finally:
            yield from self._release_locks(block_id, locked, span)

    def _acquire_locks(self, block_id, span):
        """CAS the lock at every replica; returns indices of a majority
        actually acquired, or None (after releasing strays).

        Waits for *all* replicas' lock replies (not just a quorum)
        before deciding, so the set of locks we hold is known exactly —
        a stray late-acquired lock would deadlock other clients.
        """
        generators = [self._cas_lock(index, block_id,
                                     expect=0, install=self.client_id,
                                     span=span)
                      for index in range(len(self.replicas))]
        replies = yield Phase(self.sim, generators)  # settled
        acquired = [index for index, ok in replies if ok]
        if len(acquired) >= self.f + 1:
            return acquired
        if acquired:
            yield from self._release_locks(block_id, acquired, span)
        return None

    def _cas_lock(self, index, block_id, expect, install, span):
        """Classic IB atomic CmpSwap on the lock word.

        A CAS whose retries ran out may still have swapped, and a later
        one then sees its own install value and "fails". The lock word
        disambiguates — only we ever install ``client_id`` and only we
        ever clear our own lock — so a missed compare whose *old value
        equals what we tried to install* means an earlier CAS already
        did the job, and counts as success.
        """
        swapped, old = yield from self.clients[index].cas(
            self.layout.lock_addr(block_id),
            data=install.to_bytes(8, "little"),
            compare_data=expect.to_bytes(8, "little"),
            rkey=self.replicas[index].blocks_rkey, span=span)
        return swapped or int.from_bytes(old, "little") == install

    def _release_locks(self, block_id, indices, span):
        """CAS the lock back to 0 at ``indices`` (must hold it).

        Settled, not quorum'd: a release must be attempted everywhere
        and a failed one (retries exhausted against a dead replica)
        must not abort the caller's cleanup path.
        """
        if indices:
            yield Phase(self.sim, [self._cas_lock(index, block_id,
                                                  expect=self.client_id,
                                                  install=0, span=span)
                                   for index in indices])
