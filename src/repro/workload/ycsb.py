"""YCSB-style workload definitions (Cooper et al., SoCC '10).

The paper evaluates on:

* **YCSB-C** — 100% reads (Fig. 3, Fig. 6's read side);
* **YCSB-A** — 50% reads / 50% writes (Fig. 4, Figs. 6-7);
* **YCSB-T** — short read-modify-write transactions (Figs. 9-10),
  per Dey et al., ICDEW '14.

All use 512-byte values and 8-byte keys, uniform or Zipf key choice.
"""

from repro.workload.keydist import make_distribution

DEFAULT_VALUE_SIZE = 512


class _Record:
    """A per-operation record: slotted, with a constructor of its own
    (docs/performance.md, rule 1), where a frozen dataclass built each
    field through ``object.__setattr__``; equal, hashed and shown by
    type and fields as that dataclass was. Never mutated: a workload
    may hand out one instance many times."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class KvOp(_Record):
    """One key-value operation: kind is 'get' or 'put'."""

    __slots__ = ("kind", "key", "value")

    def __init__(self, kind, key, value=b""):
        self.kind = kind
        self.key = key
        self.value = value


class TxnOp(_Record):
    """One transaction: read ``read_keys``, then write ``write_keys``."""

    __slots__ = ("kind", "read_keys", "write_keys", "value")

    def __init__(self, kind, read_keys, write_keys, value=b""):
        self.kind = kind
        self.read_keys = read_keys
        self.write_keys = write_keys
        self.value = value


class YcsbWorkload:
    """A read/write mix over a key distribution (one per client)."""

    def __init__(self, n_keys, read_fraction, value_size=DEFAULT_VALUE_SIZE,
                 zipf=0.0, seed=0, client_id=0):
        self.n_keys = n_keys
        self.read_fraction = read_fraction
        self.value_size = value_size
        self.client_id = client_id
        self._keys = make_distribution(n_keys, zipf=zipf,
                                       seed=seed * 7919 + client_id,
                                       permutation_seed=seed)
        import random
        self._coin = random.Random(seed * 104729 + client_id)
        self._payload = bytes((client_id + i) % 256
                              for i in range(value_size))
        # Key draws are served from vectorized blocks (stream-identical
        # to single draws, see ``sample_block``), and the KvOp
        # value objects are interned per (kind, key) — a closed-loop
        # client re-issues the same few thousand ops for a whole run.
        self._key_block = []
        self._key_next = 0
        self._op_cache = {}

    _KEY_BLOCK = 64

    def next_op(self):
        index = self._key_next
        block = self._key_block
        if index >= len(block):
            block = self._key_block = self._keys.sample_block(self._KEY_BLOCK)
            index = 0
        self._key_next = index + 1
        key = block[index]
        if self._coin.random() < self.read_fraction:
            op = self._op_cache.get(key)
            if op is None:
                op = self._op_cache[key] = KvOp("get", key)
            return op
        return KvOp("put", key, self._payload)


def YCSB_C(n_keys, **kwargs):
    """Workload C: 100% reads."""
    return YcsbWorkload(n_keys, read_fraction=1.0, **kwargs)


def YCSB_A(n_keys, **kwargs):
    """Workload A: 50% reads / 50% updates."""
    return YcsbWorkload(n_keys, read_fraction=0.5, **kwargs)


def YCSB_B(n_keys, **kwargs):
    """Workload B: 95% reads / 5% updates (read-mostly)."""
    return YcsbWorkload(n_keys, read_fraction=0.95, **kwargs)


class YcsbTransactionalWorkload:
    """YCSB-T: short read-modify-write transactions.

    Each transaction reads ``keys_per_txn`` keys and writes them back —
    the classic read-modify-write shape used in the paper's Fig. 9/10.
    """

    def __init__(self, n_keys, keys_per_txn=2, value_size=DEFAULT_VALUE_SIZE,
                 zipf=0.0, seed=0, client_id=0):
        self.n_keys = n_keys
        self.keys_per_txn = keys_per_txn
        self.value_size = value_size
        self.client_id = client_id
        self._keys = make_distribution(n_keys, zipf=zipf,
                                       seed=seed * 7919 + client_id,
                                       permutation_seed=seed)
        self._payload = bytes((client_id + i) % 256
                              for i in range(value_size))

    def next_op(self):
        keys = tuple(sorted(self._keys.sample_distinct(self.keys_per_txn)))
        return TxnOp("txn", read_keys=keys, write_keys=keys,
                     value=self._payload)
