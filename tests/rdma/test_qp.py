"""Queue pairs (free lists) and completion queues."""

import pytest

from repro.core.errors import AllocationFailure, RemoteNak
from repro.rdma.qp import CompletionQueue, QueuePair


class TestQueuePair:
    def test_post_pop_fifo(self):
        qp = QueuePair(buffer_size=64)
        qp.post_many([100, 200, 300])
        assert qp.pop() == 100
        assert qp.pop() == 200
        assert len(qp) == 1

    def test_pop_empty_raises_allocation_failure(self):
        qp = QueuePair(buffer_size=64)
        with pytest.raises(AllocationFailure):
            qp.pop()

    def test_counters(self):
        qp = QueuePair(buffer_size=64)
        qp.post(1)
        qp.post(2)
        qp.pop()
        assert qp.total_posted == 2
        assert qp.total_popped == 1

    @staticmethod
    def _counters(qp):
        return (list(qp._buffers), qp.total_popped, qp.total_posted,
                qp.high_watermark, qp.low_watermark)

    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    def test_pop_many_is_n_pops(self, n):
        many, single = QueuePair(buffer_size=64), QueuePair(buffer_size=64)
        for qp in (many, single):
            qp.post_many([100, 200, 300, 400, 500])
            qp.pop()
            qp.post(600)
        assert many.pop_many(n) == [single.pop() for _ in range(n)]
        assert self._counters(many) == self._counters(single)

    def test_pop_many_short_pops_the_rest_then_raises_as_pop_does(self):
        many, single = (QueuePair(buffer_size=64, name="list"),
                        QueuePair(buffer_size=64, name="list"))
        for qp in (many, single):
            qp.post_many([100, 200])
        with pytest.raises(AllocationFailure) as raised_many:
            many.pop_many(3)
        with pytest.raises(AllocationFailure) as raised_single:
            for _ in range(3):
                single.pop()
        assert str(raised_many.value) == str(raised_single.value)
        assert self._counters(many) == self._counters(single)
        assert many.low_watermark == 0

    def test_peek_many_leaves_the_list_as_it_was(self):
        qp = QueuePair(buffer_size=64)
        qp.post_many([100, 200, 300])
        before = self._counters(qp)
        assert qp.peek_many(2) == [100, 200]
        assert qp.peek_many(5) == [100, 200, 300]
        assert self._counters(qp) == before
        assert qp.pop_many(2) == [100, 200]

    def test_would_satisfy(self):
        qp = QueuePair(buffer_size=64)
        assert qp.would_satisfy(64)
        assert qp.would_satisfy(0)
        assert not qp.would_satisfy(65)

    def test_unique_ids(self):
        assert QueuePair(8).id != QueuePair(8).id


class TestCompletionQueue:
    def test_push_poll_fifo(self):
        cq = CompletionQueue()
        cq.push("a")
        cq.push("b")
        assert cq.poll() == "a"
        assert cq.poll() == "b"
        assert cq.poll() is None

    def test_capacity_overflow(self):
        cq = CompletionQueue(capacity=1)
        cq.push("a")
        with pytest.raises(RemoteNak, match="overflow"):
            cq.push("b")

    def test_len(self):
        cq = CompletionQueue()
        cq.push(1)
        assert len(cq) == 1
