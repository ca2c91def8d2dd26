"""Sharded PRISM-TX: transactions across multiple partition servers.

§8 defines PRISM-TX over data "partitioned among multiple servers";
the paper's testbed limited the evaluation to a single shard (§8.3).
This module implements the full sharded protocol: every phase fans out
one batched request per involved shard in parallel, and the transaction
commits only when *every* shard's validations pass — timestamp OCC
needs no extra coordinator round because the client is the coordinator
and timestamps give all shards the same serialization point.

Keys are global integers; shard = key % n_shards, local key =
key // n_shards.
"""

from repro.apps.common import backoff_us
from repro.apps.tx.prism_tx import PrismTxClient, TxAborted
from repro.obs.trace import NULL_SPAN
from repro.sim.phase import Phase
from repro.sim.rng import SeededRng


class ShardedPrismTxClient:
    """A transaction client over N PRISM-TX partition servers."""

    def __init__(self, sim, fabric, client_name, servers, client_id,
                 clock_skew_us=0.0, backoff_base_us=3.0,
                 backoff_max_us=128.0):
        if not servers:
            raise ValueError("need at least one shard")
        self.sim = sim
        self.servers = list(servers)
        self.n_shards = len(servers)
        self.client_id = client_id
        self.shards = [
            PrismTxClient(sim, fabric, client_name, server,
                          client_id=client_id, clock_skew_us=clock_skew_us)
            for server in servers
        ]
        # One clock rules them all: timestamps must be comparable
        # across shards, so reuse shard 0's clock everywhere.
        self.clock = self.shards[0].clock
        for shard_client in self.shards[1:]:
            shard_client.clock = self.clock
        self._rng = SeededRng(client_id).stream("shardedtx.backoff")
        self.backoff_base_us = backoff_base_us
        self.backoff_max_us = backoff_max_us
        self.commits = 0
        self.aborts = 0
        self.on_commit = None

    # -- key routing -------------------------------------------------------

    def shard_of(self, key):
        return key % self.n_shards

    def local_key(self, key):
        return key // self.n_shards

    def _partition(self, keys):
        """Group global keys by shard; returns {shard: [global keys]}."""
        groups = {}
        for key in keys:
            groups.setdefault(self.shard_of(key), []).append(key)
        return groups

    # -- phases --------------------------------------------------------------

    def _fanout(self, jobs):
        """Run per-shard process helpers in parallel, as the legs of one
        :class:`~repro.sim.phase.Phase` that needs them all; returns
        their results in job order. A failing leg fails the phase with
        :class:`~repro.sim.phase.QuorumError`, the leg's exception its
        ``__cause__``."""
        results = [None] * len(jobs)
        for index, value in (yield Phase(self.sim, jobs, need=len(jobs))):
            results[index] = value
        return results

    def _execute_reads(self, read_keys, span=NULL_SPAN):
        groups = self._partition(read_keys)
        jobs = []
        order = []
        for shard, keys in groups.items():
            local = tuple(self.local_key(k) for k in keys)
            jobs.append(self.shards[shard]._execute_reads(local, span))
            order.append((shard, keys))
        outcomes = yield from self._fanout(jobs)
        versions, values = {}, {}
        for (shard, keys), (shard_versions, shard_values) in zip(order,
                                                                 outcomes):
            for key in keys:
                local = self.local_key(key)
                versions[key] = shard_versions[local]
                values[key] = shard_values[local]
        return versions, values

    def _prepare(self, read_keys, write_keys, versions, ts, span=NULL_SPAN):
        read_groups = self._partition(read_keys)
        write_groups = self._partition(write_keys)
        shards = sorted(set(read_groups) | set(write_groups))
        jobs = []
        for shard in shards:
            local_reads = tuple(self.local_key(k)
                                for k in read_groups.get(shard, ()))
            local_writes = tuple(self.local_key(k)
                                 for k in write_groups.get(shard, ()))
            local_versions = {self.local_key(k): versions[k]
                              for k in read_groups.get(shard, ())}
            jobs.append(self._prepare_one(shard, local_reads, local_writes,
                                          local_versions, ts, span))
        outcomes = yield from self._fanout(jobs)
        if all(ok for ok, _shard, _writes in outcomes):
            return
        # Cross-shard abort. Shards that *passed* prepare have raised
        # PW for their write keys but will never see the install; apply
        # the §8.2 abort rule there too — advance C to TS so the
        # conservative stamps stop blocking readers. (Shards that
        # aborted already did this for their own keys inside _prepare.)
        cleanups = []
        for ok, shard, local_writes in outcomes:
            if ok and local_writes:
                cleanups.append(
                    self.shards[shard]._abort(local_writes, ts, span))
        if cleanups:
            yield from self._fanout(cleanups)
        raise TxAborted()

    def _prepare_one(self, shard, local_reads, local_writes, local_versions,
                     ts, span):
        """Per-shard prepare that reports instead of raising, so the
        coordinator can clean up passing shards after a mixed outcome."""
        try:
            yield from self.shards[shard]._prepare(
                local_reads, local_writes, local_versions, ts, span)
        except TxAborted:
            return (False, shard, local_writes)
        return (True, shard, local_writes)

    def _commit(self, writes, ts, span=NULL_SPAN):
        groups = self._partition(writes)
        jobs = []
        for shard, keys in groups.items():
            local_writes = {self.local_key(k): writes[k] for k in keys}
            jobs.append(self.shards[shard]._commit(local_writes, ts, span))
        yield from self._fanout(jobs)

    # -- public API -----------------------------------------------------------

    def run_transaction(self, read_keys, write_keys, value,
                        span=NULL_SPAN):
        """Process helper: one attempt writing ``value`` everywhere."""
        return (yield from self.run_transaction_kv(
            read_keys, {key: value for key in write_keys}, span))

    def run_transaction_kv(self, read_keys, writes, span=NULL_SPAN):
        """Process helper: one attempt with per-key write values; every
        request names ``span``'s operation."""
        read_keys = tuple(read_keys)
        writes = dict(writes)
        start = self.sim.now
        versions, values = yield from self._execute_reads(read_keys, span)
        ts = self.clock.timestamp(versions.values())
        yield from self._prepare(read_keys, tuple(writes), versions, ts,
                                 span)
        yield from self._commit(writes, ts, span)
        self.commits += 1
        if self.on_commit is not None:
            self.on_commit(ts, dict(values), dict(writes), start,
                           self.sim.now)
        return values

    def transact(self, read_keys, write_keys, value, max_attempts=None,
                 span=NULL_SPAN):
        """Retry loop with randomized backoff (mirrors the unsharded
        client)."""
        return (yield from self.transact_kv(
            read_keys, {key: value for key in write_keys},
            max_attempts=max_attempts, span=span))

    def transact_kv(self, read_keys, writes, max_attempts=None,
                    span=NULL_SPAN):
        """Retry loop around :meth:`run_transaction_kv`."""
        attempts = 0
        while True:
            attempts += 1
            try:
                values = yield from self.run_transaction_kv(read_keys,
                                                            writes, span)
                return values, attempts - 1
            except TxAborted:
                self.aborts += 1
                if max_attempts is not None and attempts >= max_attempts:
                    raise
                yield self.sim.timeout(backoff_us(
                    self._rng, attempts, self.backoff_base_us,
                    self.backoff_max_us))

    def execute(self, op, span=NULL_SPAN):
        """Driver adapter for :class:`~repro.workload.ycsb.TxnOp`; the
        transaction is ``span``'s operation, not traced under it."""
        _values, retries = yield from self.transact(
            op.read_keys, op.write_keys, op.value, span=span.untraced())
        return {"retries": retries, "aborts": retries}


def load_sharded(servers, key, value, version=1):
    """Setup-time loader routing a global key to its shard."""
    shard = key % len(servers)
    servers[shard].load(key // len(servers), value, version=version)
