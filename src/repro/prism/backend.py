"""Backend machinery shared by all PRISM/RDMA execution models.

A backend answers one question: *how long does it take* for the ops of
a request to execute on this kind of device? The functional work is
delegated to :class:`~repro.prism.engine.PrismEngine`; the backend
interleaves simulated delays around each op, so a multi-op chain is
*not* atomic — exactly as on real hardware, where only the CAS itself
is (§3.3).
"""

from dataclasses import dataclass, field

from repro.core.chain import Chain
from repro.obs.trace import NULL_SPAN, Span
from repro.prism.address_space import DOMAIN_HOST
from repro.prism.engine import (
    ChainResult,
    OpResult,
    OpStatus,
    emit_chain_done,
)
from repro.sim.resources import Resource


#: interned span labels for the per-op trace children — chains are
#: short and opnames few, so both caches stay tiny for a whole run.
_DISPATCH_LABELS = {}
_OP_LABELS = {}


def _dispatch_label(op_index):
    label = _DISPATCH_LABELS.get(op_index)
    if label is None:
        label = _DISPATCH_LABELS[op_index] = f"dispatch[{op_index}]"
    return label


def _op_label(opname):
    label = _OP_LABELS.get(opname)
    if label is None:
        label = _OP_LABELS[opname] = f"op.{opname}"
    return label


@dataclass
class BackendConfig:
    """Timing knobs, calibrated against the paper's §4.3 measurements.

    All times in microseconds. The defaults correspond to the
    ConnectX-5 class hardware NIC; software / BlueField backends
    override their own subset.
    """

    # hardware NIC
    nic_base_op_us: float = 0.35
    nic_parallelism: int = 16
    nic_atomic_unit_us: float = 0.10
    sram_access_us: float = 0.05
    pcie_round_trip_us: float = 0.85
    pcie_bytes_per_us: float = 15_000.0

    # software stack (Snap-like, §4.1)
    sw_cores: int = 16
    sw_pipeline_latency_us: float = 3.00
    sw_request_occupancy_us: float = 0.60
    sw_op_occupancy_us: float = 0.09
    sw_access_us: float = 0.02
    sw_bytes_per_us: float = 20_000.0

    # BlueField smart NIC (§4.3)
    bf_cores: int = 8
    bf_pipeline_latency_us: float = 1.00
    bf_request_occupancy_us: float = 1.30
    bf_op_occupancy_us: float = 0.40
    bf_host_access_us: float = 3.00
    bf_local_access_us: float = 0.20
    bf_bytes_per_us: float = 8_000.0

    extra: dict = field(default_factory=dict)


class PostingGate:
    """Reader/writer synchronization between the NIC data plane and the
    server CPU posting buffers (§3.2).

    Executing operations hold the read side; posting buffers takes the
    write side: it stalls *new op executions*, waits for the ops
    currently executing to finish (a pipeline drain of a few µs, like a
    real NIC), performs the post, and releases. Queued requests are not
    counted as in-flight — only ops that have started executing —
    so the drain is fast even under saturation.
    """

    __slots__ = ("sim", "_executing", "_posting", "_drained", "_unblocked")

    def __init__(self, sim):
        self.sim = sim
        self._executing = 0
        self._posting = False
        self._drained = None
        self._unblocked = None

    def try_enter(self):
        """Non-blocking read side: claim an execution slot if no poster
        is active (the overwhelmingly common case). Returns False when
        the caller must fall back to the yielding :meth:`enter`."""
        if self._posting:
            return False
        self._executing += 1
        return True

    def enter(self):
        """Process helper (read side): begin executing one op."""
        while self._posting:
            if self._unblocked is None:
                self._unblocked = self.sim.event()
            yield self._unblocked
        self._executing += 1

    def exit(self):
        """Read side: op execution finished."""
        self._executing -= 1
        if self._executing == 0 and self._drained is not None:
            event, self._drained = self._drained, None
            event.succeed()

    def drain(self):
        """Process helper (write side): stall new ops, wait for quiet.

        Call :meth:`release` when the posting work is done.
        """
        while self._posting:  # one poster at a time
            if self._unblocked is None:
                self._unblocked = self.sim.event()
            yield self._unblocked
        self._posting = True
        while self._executing > 0:
            if self._drained is None:
                self._drained = self.sim.event()
            yield self._drained

    def release(self):
        """Write side: posting finished; let operations flow again."""
        self._posting = False
        if self._unblocked is not None:
            event, self._unblocked = self._unblocked, None
            event.succeed()


class Backend:
    """Base class: runs a request's ops with per-op timing hooks."""

    #: human-readable backend label used in benchmark tables
    label = "abstract"
    #: whether this device implements the PRISM extensions
    supports_extensions = True
    #: whether CAS may use Mellanox-style masked/32-byte operands
    supports_extended_atomics = True
    #: tracing phase of op execution time ("nic" for ASICs, "cpu" for
    #: core-based stacks); see repro.obs.breakdown.PHASES
    execution_phase = "nic"
    #: tracing phase of request_admission time (a software stack's
    #: pipeline latency is CPU work; a queue-only admission is "queue")
    admission_phase = "queue"

    def __init__(self, sim, engine, config=None):
        self.sim = sim
        self.engine = engine
        self.config = config or BackendConfig()
        self.requests_processed = 0
        self.gate = PostingGate(sim)
        engine.allow_extensions = self.supports_extensions
        engine.allow_extended_atomics = self.supports_extended_atomics
        if sim.utilization is not None and engine.monitor is None:
            engine.monitor = sim.utilization.charge_monitor(
                f"{self.label}.engine", kind="engine")
        if sim.bus is not None and engine.bus is None:
            engine.bus = sim.bus

    # -- per-backend hooks -------------------------------------------------

    def request_admission(self, ops):
        """Delay/occupancy before any op runs (dispatch, queueing).

        Subclasses yield events; base implementation does nothing.
        """
        return
        yield  # pragma: no cover

    def op_time(self, op, accesses, op_index=0):
        """Simulated duration of one executed op given its access trace.

        ``op_index`` is the op's position in its request; backends with
        per-request (rather than per-op) fixed costs charge them on
        index 0 — this is what makes a chained request barely more
        expensive than a single op, the economics §3.4 relies on.
        """
        raise NotImplementedError

    def op_time_parts(self, op, accesses, op_index=0):
        """``{phase: µs}`` split of :meth:`op_time` for tracing.

        Must sum to exactly ``op_time(op, accesses, op_index)``; only
        computed when a request is traced. The default attributes the
        whole duration to :attr:`execution_phase`; device backends that
        mix costs (NIC verb time + PCIe round trips) override it.
        """
        return {self.execution_phase: self.op_time(op, accesses, op_index)}

    def note_execution(self, op, accesses, op_index, duration):
        """Utilization hook, called once per executed op (collection
        on only). Device backends with side-channel resources (the
        PCIe link) charge them here; the base backend does nothing —
        pool busy time is already observed by the resource monitor.
        """

    def acquire_execution(self, op):
        """Acquire whatever unit executes ``op``; returns a release callable."""
        raise NotImplementedError

    # -- driver ------------------------------------------------------------

    def process(self, connection, ops, span=NULL_SPAN, logical=None):
        """Process helper: execute a request, yielding its time costs.

        Returns a :class:`ChainResult`. Semantics follow §3.4: a hard
        NAK aborts the remainder; a CAS miss only suppresses
        *conditional* successors.

        ``span`` parents the request's device-side spans: admission,
        per-op dispatch waits (execution unit + posting gate), and each
        op's execution interval (refined by :meth:`op_time_parts`).

        ``logical`` is the logical request id from the client's
        envelope (None for direct callers): carried on the chain-done
        and chain-abort events, it lets subscribers count retransmitted
        executions separately from logical requests.
        """
        if isinstance(ops, Chain):
            ops = ops.ops
        # Span children (and their f-string labels) only exist when the
        # request is actually traced; the clean path skips them whole.
        # Traced spans are opened/closed by direct field writes, with
        # the per-index and per-opname labels interned in shared caches
        # — no f-string or context-manager work per op.
        sim = self.sim
        traced = span.enabled
        if traced:
            tracer = span.tracer
            children = span.children
            admission_span = Span(tracer, "admission",
                                  self.admission_phase, span, sim._now, {})
            children.append(admission_span)
            try:
                yield from self.request_admission(ops)
            finally:
                admission_span.end = sim._now
        else:
            yield from self.request_admission(ops)
        results = []
        prev_ok = True
        aborted = False
        for op_index, op in enumerate(ops):
            if aborted:
                results.append(OpResult(OpStatus.SKIPPED))
                continue
            if traced:
                label = _dispatch_label(op_index)
                dispatch_span = Span(tracer, label, "queue", span,
                                     sim._now, {})
                children.append(dispatch_span)
                try:
                    release = yield from self.acquire_execution(op)
                    if not self.gate.try_enter():
                        yield from self.gate.enter()
                finally:
                    dispatch_span.end = sim._now
            else:
                release = yield from self.acquire_execution(op)
                if not self.gate.try_enter():
                    yield from self.gate.enter()
            try:
                result, accesses = self.engine.execute_op(
                    connection, op, prev_ok)
                duration = self.op_time(op, accesses, op_index)
                if sim.utilization is not None:
                    self.note_execution(op, accesses, op_index, duration)
                if traced:
                    op_span = Span(tracer, _op_label(op.opname),
                                   self.execution_phase, span, sim._now,
                                   {"status": result.status.value})
                    children.append(op_span)
                    try:
                        op_span.parts = self.op_time_parts(
                            op, accesses, op_index)
                        if duration > 0:
                            yield sim.timeout(duration)
                    finally:
                        op_span.end = sim._now
                elif duration > 0:
                    yield sim.timeout(duration)
            finally:
                self.gate.exit()
                release()
            results.append(result)
            if result.status is OpStatus.NAK:
                aborted = True
            prev_ok = result.successful
        self.requests_processed += 1
        if sim.bus is not None:
            emit_chain_done(sim.bus, ops, results, logical)
        return ChainResult(results)


class _PooledBackend(Backend):
    """Common shape for backends that run ops on a pool of units."""

    def __init__(self, sim, engine, config=None, pool_capacity=1,
                 pool_name="unit", pool_kind="nic"):
        super().__init__(sim, engine, config)
        self._pool = Resource(sim, capacity=pool_capacity, name=pool_name,
                              kind=pool_kind)

    def acquire_execution(self, op):
        yield self._pool.acquire()
        return self._pool.release

    def utilization(self, elapsed):
        """Mean busy fraction of the execution pool."""
        return self._pool.utilization(elapsed)


def trace_host_bytes(accesses):
    """Total bytes moved to/from host memory in an access trace."""
    return sum(a.nbytes for a in accesses if a.domain == DOMAIN_HOST)
