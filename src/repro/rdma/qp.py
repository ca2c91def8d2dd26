"""Queue pairs and completion queues.

Queue pairs serve two roles in this reproduction, mirroring the paper:

* classic SEND/RECV rendezvous (a posted receive buffer absorbs an
  incoming SEND), and
* PRISM free lists (§3.2): "we represent the free list the same way as
  a queue pair — a standard RDMA structure containing a list of free
  buffers", popped by ALLOCATE.
"""

from collections import deque
from itertools import count, islice, repeat

from repro.core.errors import FreeListExhausted, RemoteNak

_qp_ids = count(1)


class CompletionQueue:
    """Records work completions for inspection by tests and daemons."""

    def __init__(self, capacity=None):
        self.capacity = capacity
        self._entries = deque()

    def push(self, entry):
        if self.capacity is not None and len(self._entries) >= self.capacity:
            raise RemoteNak("completion queue overflow")
        self._entries.append(entry)

    def poll(self):
        """Pop the oldest completion, or None."""
        if self._entries:
            return self._entries.popleft()
        return None

    def __len__(self):
        return len(self._entries)


class QueuePair:
    """A receive/free-buffer queue registered with the NIC.

    Buffers are ``(addr, size)`` pairs in server memory. ``pop`` is what
    the NIC does when an ALLOCATE (or incoming SEND) arrives; ``post``
    is the server-CPU side. Synchronization between posting and
    concurrent NIC operations is enforced by the owner (see
    ``repro.prism.server.PrismServer.post_buffers``), not here.
    """

    def __init__(self, buffer_size, name=None):
        self.id = next(_qp_ids)
        self.buffer_size = buffer_size
        self.name = name or f"qp{self.id}"
        self._buffers = deque()
        self.total_posted = 0
        self.total_popped = 0
        #: deepest the queue has ever been (capacity actually provisioned)
        self.high_watermark = 0
        self._min_depth = None  # shallowest depth seen after a pop

    def __len__(self):
        return len(self._buffers)

    @property
    def low_watermark(self):
        """Shallowest depth the queue reached (current depth if never
        popped) — how close ALLOCATE came to draining it."""
        if self._min_depth is None:
            return len(self._buffers)
        return self._min_depth

    def post(self, addr):
        """Add one free buffer (server CPU side)."""
        self._buffers.append(addr)
        self.total_posted += 1
        depth = len(self._buffers)
        if depth > self.high_watermark:
            self.high_watermark = depth

    def post_many(self, addrs):
        """Add free buffers in order: ``post`` each, in one extend."""
        buffers = self._buffers
        before = len(buffers)
        buffers.extend(addrs)
        depth = len(buffers)
        self.total_posted += depth - before
        if depth > self.high_watermark:
            self.high_watermark = depth

    def pop(self):
        """Pop the first free buffer (NIC data-plane side)."""
        if not self._buffers:
            self._min_depth = 0
            raise FreeListExhausted(self.name, posted=self.total_posted,
                                    popped=self.total_popped,
                                    high_watermark=self.high_watermark)
        self.total_popped += 1
        addr = self._buffers.popleft()
        depth = len(self._buffers)
        if self._min_depth is None or depth < self._min_depth:
            self._min_depth = depth
        return addr

    def pop_many(self, n):
        """Pop the first ``n`` free buffers, in order: ``pop`` each, with
        the same counters and low watermark. Short of ``n``, it pops what
        is left and raises ``pop``'s :class:`FreeListExhausted`."""
        buffers = self._buffers
        if n > len(buffers):
            self.total_popped += len(buffers)
            buffers.clear()
            self.pop()  # raises
        if n <= 0:
            return []
        popleft = buffers.popleft
        addrs = [popleft() for _ in repeat(None, n)]
        self.total_popped += n
        depth = len(buffers)
        if self._min_depth is None or depth < self._min_depth:
            self._min_depth = depth
        return addrs

    def peek_many(self, n):
        """The buffers ``pop_many(n)`` would return, left on the list
        (fewer when the list is shorter)."""
        return list(islice(self._buffers, n))

    def peek(self):
        """The buffer :meth:`pop` would return, left on the list; when
        the list is empty, ``pop``'s :class:`FreeListExhausted`."""
        if not self._buffers:
            self.pop()
        return self._buffers[0]

    def would_satisfy(self, nbytes):
        """True if this queue's buffers can hold ``nbytes``."""
        return nbytes <= self.buffer_size
