"""A multi-writer shared log on a network-attached memory node.

The node is passive: after setup it never runs application code. The
log is a linked structure in its memory, manipulated entirely through
PRISM operations — the deployment §10 envisions.

Layout::

    head (16 B):   +0 seq u64 (last appended sequence; 0 = empty)
                   +8 tail_ptr u64 (address of the newest record)
    record:        +0 seq u64 | +8 prev_ptr u64 | +16 len u32 |
                   +20 pad u32 | +24 payload

**Append** (one round trip) — the §3.5 out-of-place pattern, fought
over by multiple writers: one install chain
(:meth:`~repro.prism.client.PrismClient.install`) ALLOCATEs the record
seq'|prev|len|data and CAS_GTs the head's ⟨seq, tail_ptr⟩ on seq. A CAS
miss means another writer claimed ``seq'`` first; the client
retries with a fresher sequence number (read from the returned old
head, so a retry costs exactly one more round trip).

**Read** — records are write-once, so one indirect READ of the head's
tail pointer returns a consistent newest record; older records are
walked with indirect reads of each record's ``prev_ptr`` cell. Since
the chain is immutable once linked, tail-to-head scans are safe
against concurrent appends.
"""

from repro.core.ops import ReadOp
from repro.core.errors import AccessViolation
from repro.hw.layout import pack_uint, unpack_uint
from repro.prism.client import PrismClient
from repro.prism.engine import OpStatus
from repro.prism.server import PrismServer

HEAD_SIZE = 16
RECORD_HEADER = 24


class SharedLogNode:
    """The memory node: one log head + a record free list. Passive."""

    def __init__(self, sim, fabric, host_name, backend_cls, config=None,
                 max_record_bytes=256, capacity=4096, backend_kwargs=None):
        self.sim = sim
        self.max_record_bytes = max_record_bytes
        record_size = RECORD_HEADER + max_record_bytes
        memory_bytes = capacity * record_size + (1 << 20)
        self.prism = PrismServer(sim, fabric, host_name, backend_cls,
                                 config=config, memory_bytes=memory_bytes,
                                 backend_kwargs=backend_kwargs)
        self.head_addr, self.head_rkey = self.prism.add_region(HEAD_SIZE)
        self.freelist_id, self.record_rkey = self.prism.create_freelist(
            record_size, capacity, name="log-records")
        self.prism.space.write(self.head_addr, bytes(HEAD_SIZE))

    @property
    def host_name(self):
        return self.prism.host_name

    # -- codecs -----------------------------------------------------------

    @staticmethod
    def pack_record(seq, prev_ptr, payload):
        return (pack_uint(seq, 8) + pack_uint(prev_ptr, 8)
                + pack_uint(len(payload), 4) + bytes(4) + payload)

    @staticmethod
    def unpack_record(data):
        seq = unpack_uint(data, 0, 8)
        prev_ptr = unpack_uint(data, 8, 8)
        length = unpack_uint(data, 16, 4)
        payload = bytes(data[24:24 + length])
        return seq, prev_ptr, payload


class SharedLogClient:
    """Appends to / scans the shared log with one-sided ops only."""

    def __init__(self, sim, fabric, client_name, node):
        self.sim = sim
        self.node = node
        self.client = PrismClient(sim, fabric, client_name, node.prism)
        self.appends = 0
        self.append_conflicts = 0

    # -- append ---------------------------------------------------------------

    def append(self, payload):
        """Process helper: append ``payload``; returns its sequence
        number. One round trip per attempt; conflicts retry with the
        sequence learned from the CAS's returned old head."""
        if len(payload) > self.node.max_record_bytes:
            raise ValueError("payload exceeds record capacity")
        head = yield from self._read_head()
        seq, tail_ptr = head
        while True:
            new_seq = seq + 1
            outcome = yield from self._try_append(new_seq, tail_ptr,
                                                  payload)
            if outcome is True:
                self.appends += 1
                return new_seq
            # outcome is the newer (seq, tail_ptr) the CAS returned.
            self.append_conflicts += 1
            seq, tail_ptr = outcome

    def _try_append(self, new_seq, prev_ptr, payload):
        result = yield from self.client.execute(*self.client.install(
            new_seq, self.node.freelist_id,
            SharedLogNode.pack_record(new_seq, prev_ptr, payload),
            self.node.record_rkey, self.node.head_addr, self.node.head_rkey))
        result.raise_on_nak()
        cas = result[2]
        if cas.status is OpStatus.OK:
            return True
        old_seq = unpack_uint(cas.value, 0, 8)
        old_tail = unpack_uint(cas.value, 8, 8)
        return (old_seq, old_tail)

    # -- reads ---------------------------------------------------------------

    def _read_head(self):
        data = yield from self.client.read(self.node.head_addr, HEAD_SIZE,
                                           rkey=self.node.head_rkey)
        return unpack_uint(data, 0, 8), unpack_uint(data, 8, 8)

    def read_latest(self):
        """One indirect READ: the newest record, or None when empty."""
        read_len = RECORD_HEADER + self.node.max_record_bytes
        result = yield from self.client.execute(
            ReadOp(addr=self.node.head_addr + 8, length=read_len,
                   rkey=self.node.head_rkey, indirect=True))
        outcome = result[0]
        if outcome.status is OpStatus.NAK:
            if isinstance(outcome.error, AccessViolation):
                return None  # empty log: NULL tail pointer
            raise outcome.error
        seq, _prev, payload = SharedLogNode.unpack_record(outcome.value)
        return seq, payload

    def scan(self, limit=None):
        """Walk tail -> head; returns records newest-first.

        Each hop is one indirect READ of the previous record's
        ``prev_ptr`` cell — the record chain is immutable, so the scan
        is consistent even against concurrent appends.
        """
        records = []
        latest = yield from self.read_latest()
        if latest is None:
            return records
        read_len = RECORD_HEADER + self.node.max_record_bytes
        # Reread the tail fully to learn its prev pointer.
        result = yield from self.client.execute(
            ReadOp(addr=self.node.head_addr + 8, length=read_len,
                   rkey=self.node.head_rkey, indirect=True))
        seq, prev, payload = SharedLogNode.unpack_record(result[0].value)
        records.append((seq, payload))
        cursor = prev
        while cursor and (limit is None or len(records) < limit):
            data = yield from self.client.read(cursor, read_len,
                                               rkey=self.node.record_rkey)
            seq, cursor, payload = SharedLogNode.unpack_record(data)
            records.append((seq, payload))
        return records
