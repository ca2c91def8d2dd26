"""One ``load_many`` call leaves what the same items through ``load`` do.

Each server's ``load`` is its one-item ``load_many``, so the bulk path
is what these tests check: a batch may not assume its keys are new,
fresh, in order or distinct, nor that its buffers are contiguous, nor
take a buffer before a re-load has decided that it needs one. Two
fresh servers of one shape get the same items, one in a single call and
one item at a time, over free lists in a shuffled order; their host
memory, NIC SRAM and free lists (length, order, counters and both
watermarks) must come out the same.
"""

import hashlib
import random

import pytest

from repro.apps.blockstore import AbdLockReplica, PrismRsReplica
from repro.apps.kv import PilafServer, PrismKvServer
from repro.apps.tx import FarmServer, PrismTxServer
from repro.core.errors import FreeListExhausted
from repro.hw.memory import MemoryError_
from repro.net.topology import RACK, make_fabric
from repro.prism import SoftwarePrismBackend, SoftwareRdmaBackend
from repro.sim import Simulator

N_KEYS = 48
VALUE_SIZE = 32


def _server(cls, backend, **kwargs):
    sim = Simulator()
    fabric = make_fabric(sim, RACK, ["server"])
    return cls(sim, fabric, "server", backend, **kwargs)


_SERVERS = {
    "prism-kv": lambda **kw: _server(PrismKvServer, SoftwarePrismBackend,
                                     n_keys=N_KEYS,
                                     max_value_bytes=VALUE_SIZE, **kw),
    "pilaf": lambda **kw: _server(PilafServer, SoftwareRdmaBackend,
                                  n_keys=N_KEYS, max_value_bytes=VALUE_SIZE,
                                  **kw),
    "prism-rs": lambda **kw: _server(PrismRsReplica, SoftwarePrismBackend,
                                     n_blocks=N_KEYS, block_size=VALUE_SIZE,
                                     **kw),
    "abd-lock": lambda **kw: _server(AbdLockReplica, SoftwareRdmaBackend,
                                     n_blocks=N_KEYS, block_size=VALUE_SIZE,
                                     **kw),
    "prism-tx": lambda **kw: _server(PrismTxServer, SoftwarePrismBackend,
                                     n_keys=N_KEYS, value_size=VALUE_SIZE,
                                     **kw),
    "farm": lambda **kw: _server(FarmServer, SoftwareRdmaBackend,
                                 n_keys=N_KEYS, value_size=VALUE_SIZE, **kw),
}

#: the servers that take a buffer per item from their one free list
_POPPING = ("prism-rs", "prism-tx")


def _state(server):
    prism = server.prism
    lists = [(list(qp._buffers), qp.total_popped, qp.total_posted,
              qp.high_watermark, qp.low_watermark)
             for qp in prism.freelists.values()]
    return (hashlib.sha256(prism.space.host.view).hexdigest(),
            hashlib.sha256(prism.space.sram.view).hexdigest(), lists)


def _items(seed, n_repeats=12):
    """Every key once in a shuffled order, with ``n_repeats`` re-loads of
    keys already loaded spliced in, each with a value of its own."""
    rng = random.Random(seed)
    keys = list(range(N_KEYS))
    rng.shuffle(keys)
    items = [(key, bytes([key]) * VALUE_SIZE) for key in keys]
    for n in range(n_repeats):
        at = rng.randrange(1, len(items))
        key = rng.choice(items[:at])[0]
        items.insert(at, (key, bytes([0x80 | n]) * VALUE_SIZE))
    return items


def _shuffle_free_lists(server, seed):
    """Re-post every free list in a seeded order, so the buffers a batch
    takes are not contiguous in memory."""
    rng = random.Random(seed)
    for qp in server.prism.freelists.values():
        buffers = qp.pop_many(len(qp))
        rng.shuffle(buffers)
        qp.post_many(buffers)


def _one_by_one(server, items):
    for key, value in items:
        server.load(key, value)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_SERVERS))
def test_one_batch_equals_one_item_at_a_time(name, seed):
    items = _items(seed)
    batch, single = _SERVERS[name](), _SERVERS[name]()
    for server in (batch, single):
        _shuffle_free_lists(server, seed)
    batch.load_many(iter(items))
    _one_by_one(single, items)
    assert _state(batch) == _state(single)
    assert _state(batch) != _state(_SERVERS[name]())


@pytest.mark.parametrize("name", sorted(_SERVERS))
def test_a_batch_in_chunks_equals_one_batch(name):
    items = _items(4)
    whole, chunked = _SERVERS[name](), _SERVERS[name]()
    whole.load_many(items)
    for start in range(0, len(items), 7):
        chunked.load_many(items[start:start + 7])
    assert _state(whole) == _state(chunked)


@pytest.mark.parametrize("name", _POPPING)
def test_a_batch_that_runs_out_of_buffers_stops_where_one_item_does(name):
    """The list, ten buffers short of the keys, runs dry inside the
    batch: the items before are loaded, the one that finds it empty is
    not, and the list reads as after the pops that succeeded plus the
    one that raised."""
    items = _items(5)
    batch, single = _SERVERS[name](), _SERVERS[name]()
    for server in (batch, single):
        freelist = server.prism.freelists[server.freelist_id]
        freelist.pop_many(len(freelist) - N_KEYS + 10)
    with pytest.raises(FreeListExhausted):
        batch.load_many(items)
    with pytest.raises(FreeListExhausted):
        _one_by_one(single, items)
    assert _state(batch) == _state(single)
    assert _state(batch)[2][0][4] == 0


@pytest.mark.parametrize("name", ["abd-lock", "farm", "prism-rs",
                                  "prism-tx"])
def test_a_batch_that_fails_midway_leaves_what_one_item_at_a_time_does(
        name):
    """An address outside memory stops the batch at that item, with
    every buffer taken before it off the list."""
    items = _items(6, n_repeats=0)
    items.insert(20, (10 ** 9, b"x" * VALUE_SIZE))
    batch, single = _SERVERS[name](), _SERVERS[name]()
    with pytest.raises(MemoryError_):
        batch.load_many(items)
    with pytest.raises(MemoryError_):
        _one_by_one(single, items)
    assert _state(batch) == _state(single)


@pytest.mark.parametrize("name", ["prism-kv", "prism-rs", "prism-tx",
                                  "pilaf", "abd-lock", "farm"])
def test_an_oversize_value_raises_before_its_item_takes_a_buffer(name):
    """A value one byte longer than its fixed-size buffer (extent, block,
    object) holds would overwrite the first byte of the next one. The
    batch stops at it with ``ValueError``, leaving memory and lists as
    the items before it alone do, and a lone ``load`` of it changes
    nothing."""
    items = _items(7, n_repeats=0)
    at = 20
    oversize = (items[at][0], b"\xff" * (VALUE_SIZE + 1))
    items.insert(at, oversize)
    batch, prefix = _SERVERS[name](), _SERVERS[name]()
    with pytest.raises(ValueError, match="exceeds"):
        batch.load_many(items)
    prefix.load_many(items[:at])
    assert _state(batch) == _state(prefix)
    with pytest.raises(ValueError, match="exceeds"):
        prefix.load(*oversize)
    assert _state(batch) == _state(prefix)


@pytest.mark.parametrize("name", sorted(_SERVERS))
def test_an_oversize_reload_leaves_every_key_as_it_was(name):
    """Every key loaded, then one re-loaded with a value a byte too long
    for its field: ``ValueError``, and every byte of memory — that key's
    old value and its neighbours' — and every list as before."""
    server = _SERVERS[name]()
    server.load_many(_items(8))
    before = _state(server)
    for key in (0, N_KEYS // 2, N_KEYS - 1):
        with pytest.raises(ValueError, match="exceed"):
            server.load(key, b"\xff" * (VALUE_SIZE + 1))
        with pytest.raises(ValueError, match="exceed"):
            server.load(key, b"\xff" * (3 * VALUE_SIZE))
    assert _state(server) == before


def test_a_pilaf_key_longer_than_its_field_is_refused():
    """Pilaf's extent holds an 8-byte key: a longer one would push the
    value and the CRC into the next extent. Refused before it takes an
    extent, so the next new key still gets the next extent."""
    server, reference = _SERVERS["pilaf"](), _SERVERS["pilaf"]()
    *items, (last, value) = _items(9, n_repeats=0)
    server.load_many(items)
    reference.load_many(items)
    before = _state(server)
    with pytest.raises(ValueError, match="exceed"):
        server.load(b"nine-byte", b"v")
    assert _state(server) == before
    server.load(last, value)
    reference.load(last, value)
    assert _state(server) == _state(reference)


@pytest.mark.parametrize("seed", [1, 2])
def test_size_classed_kv_batch_with_reloads_that_keep_and_change_class(
        seed):
    """Linear probing over three shuffled buffer classes: a re-load that
    stays in its class rewrites its buffer, one that outgrows it moves."""
    def server():
        return _server(PrismKvServer, SoftwarePrismBackend, n_keys=N_KEYS,
                       max_value_bytes=200, spare_buffers=8, hash_fn="fnv",
                       size_classes=True)
    items = _items(seed)
    first = items[0][0]
    items += [(first, b"\x01" * (VALUE_SIZE + 8)),   # same class
              (first, b"\x02" * 200),                 # a larger class
              (items[1][0], b"\x03" * 100),           # a larger class
              (first, b"\x04" * 20)]                  # back down
    batch, single = server(), server()
    for each in (batch, single):
        _shuffle_free_lists(each, seed)
    shuffled = sum(lists[1] for lists in _state(batch)[2])
    batch.load_many(items)
    _one_by_one(single, items)
    assert _state(batch) == _state(single)
    popped = sum(lists[1] for lists in _state(batch)[2])
    assert popped - shuffled == N_KEYS + 3


def _off_the_lists(server, buffers):
    listed = set()
    for qp in server.prism.freelists.values():
        listed.update(qp._buffers)
    return buffers - listed


@pytest.mark.parametrize("name", ["prism-kv-classes", "prism-rs",
                                  "prism-tx"])
def test_a_reload_returns_the_buffer_it_replaces(name):
    """After ``load(k, a)`` and ``load(k, b)`` exactly one of ``k``'s
    buffers is off its lists: the one ``k`` points at now."""
    if name == "prism-kv-classes":
        server = _server(PrismKvServer, SoftwarePrismBackend,
                         n_keys=N_KEYS, max_value_bytes=200,
                         size_classes=True)
        values = (b"a" * VALUE_SIZE, b"b" * 200)   # 64 B, then 256 B class
    else:
        server = _SERVERS[name]()
        values = (b"a" * VALUE_SIZE, b"b" * VALUE_SIZE)
    buffers = set()
    for qp in server.prism.freelists.values():
        buffers.update(qp._buffers)
    server.load(5, values[0])
    first = _off_the_lists(server, buffers)
    server.load(5, values[1])
    second = _off_the_lists(server, buffers)
    assert len(first) == len(second) == 1
    assert first != second
