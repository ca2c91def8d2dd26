"""Backend machinery shared by all PRISM/RDMA execution models.

A backend answers one question: *how long does it take* for the ops of
a request to execute on this kind of device? It is data — an admission
delay (which its owner's service registers as the fabric's lead), a
pool of execution units, a posting gate and the functions that price
one op — for an :class:`_Execution`, which runs one request to
completion on the device with no process in it (§3.4, §4.2). The
functional work is delegated to :class:`~repro.prism.engine.PrismEngine`;
the execution interleaves simulated delays around each op, so a
multi-op chain is *not* atomic — exactly as on real hardware, where
only the CAS itself is (§3.3).
"""

from dataclasses import dataclass, field

from repro.core.chain import Chain
from repro.obs.trace import NULL_SPAN, Span
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

    The read side is written in :class:`_Execution`'s stages: an op
    runs only while ``_posting`` is false (else it waits for
    :meth:`reopened` and tests again), counts in ``_executing``, and the
    last one out succeeds ``_drained``.
    """

    __slots__ = ("sim", "_executing", "_posting", "_drained", "_unblocked")

    def __init__(self, sim):
        self.sim = sim
        self._executing = 0
        self._posting = False
        self._drained = None
        self._unblocked = None

    def reopened(self):
        """The event of the active poster's :meth:`release`."""
        if self._unblocked is None:
            self._unblocked = self.sim.event()
        return self._unblocked

    def drain(self):
        """Process helper (write side): stall new ops, wait for quiet.

        Call :meth:`release` when the posting work is done.
        """
        while self._posting:  # one poster at a time
            yield self.reopened()
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
    """Base class: what one kind of device charges for a request.

    Subclasses set :attr:`admission_us`, size :attr:`pool` (constructor
    arguments) and price ops (:meth:`op_time`: duration, phase split
    and side-channel charge); :class:`_Execution` does the rest.
    """

    #: human-readable backend label used in benchmark tables
    label = "abstract"
    #: whether this device implements the PRISM extensions
    supports_extensions = True
    #: whether CAS may use Mellanox-style masked/32-byte operands
    supports_extended_atomics = True
    #: tracing phase of op execution time ("nic" for ASICs, "cpu" for
    #: core-based stacks); see repro.obs.breakdown.PHASES
    execution_phase = "nic"
    #: tracing phase of the admission delay (a software stack's
    #: pipeline latency is CPU work; a queue-only admission is "queue")
    admission_phase = "queue"
    #: fixed delay before a request's first op queues for a unit
    #: (dispatch, stack pipeline): pure latency, not occupancy. The
    #: owner registers its service with it as the lead
    #: (``Host.register_service(..., lead_us=backend.admission_us)``),
    #: so it rides the RX port's timer and takes no entry of its own
    admission_us = 0.0

    def __init__(self, sim, engine, config=None, pool_capacity=1,
                 pool_name="unit", pool_kind="nic"):
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
        #: the execution units (NIC processing units, stack cores):
        #: every op holds one for its duration
        self.pool = Resource(sim, capacity=pool_capacity, name=pool_name,
                             kind=pool_kind)

    def op_time(self, accesses, op_index=0):
        """Price one executed op in one walk of its access trace:
        ``(duration, parts)``.

        ``duration`` is the op's simulated time. ``parts`` is its
        ``{phase: µs}`` split for tracing, or None when all of it is
        :attr:`execution_phase` work. The split sums to ``duration`` to
        within rounding: each phase has its own accumulator, and the
        duration adds the same costs in its own order. A backend
        with a side-channel resource (the PCIe link) charges it in the
        same walk when ``--util`` armed its monitor; pool busy time is
        already observed by the resource monitor.

        ``op_index`` is the op's position in its request; backends with
        per-request (rather than per-op) fixed costs charge them on
        index 0 — this is what makes a chained request barely more
        expensive than a single op, the economics §3.4 relies on.
        """
        raise NotImplementedError

    def execute(self, owner, message):
        """Run the request in ``message`` to completion on this device.

        Call it from the entry that delivered ``message``; the work
        starts in that entry. The delivery has already run the
        admission delay: the owner's service is registered with
        :attr:`admission_us` as its lead, so the hand-over comes that
        long after the request cleared the RX port (``message.landed``)
        and the first op claims its unit at once.
        ``owner.accept(execution)`` runs first: it
        sets the execution's ``connection`` and ``ops`` (and ``span`` /
        ``logical`` / ``saved`` for an enveloped one), or refuses —
        answering the sender itself — by returning False.
        ``owner.answer(execution, result)`` runs in the entry that ends
        the last op, with the :class:`ChainResult`.
        """
        _Execution(self, owner, message)

    def utilization(self, elapsed):
        """Mean busy fraction of the execution pool."""
        return self.pool.utilization(elapsed)


#: what the kernel entry an execution is waiting for stands for
_RECLAIM = 0    # zero-delay slot: a repeat claims its unit again
_UNIT = 1       # a unit is granted (in the claim, or a ready-deque slot);
                # callback: the gate reopens
_OP = 2         # heap: the op's duration runs out


class _Execution:
    """One request running to completion on the device: a scheduled
    payload, not a process.

    The pipeline is fixed — per op: unit, posting gate, execute, hold
    the unit for the op's duration — so the execution is one slotted
    object that starts in the delivering entry (its owner accepts it,
    its first op claims a unit), is its own heap payload for the per-op
    timers, and its unit's holder
    (``Resource.claim``: a free unit runs the holder inside the claim,
    a busy pool in the slot after the releasing entry;
    docs/performance.md, rule 11). ``claim`` is the last statement of
    the stage that calls it, and of every call above it in the entry.
    No boot slot, resume or completion event: nothing can wait on an
    execution, so there is nothing to complete.

    The two ends belong to the ``owner`` (see :meth:`Backend.execute`):
    what the request is, and what to do with its :class:`ChainResult`.
    Semantics in between follow §3.4: a hard NAK aborts the remainder;
    a CAS miss only suppresses *conditional* successors.

    ``span`` parents the device-side spans: admission (from the
    request's RX-done, ``message.landed``, to the hand-over that ran
    the backend's :attr:`~Backend.admission_us` as the fabric's lead),
    per-op dispatch waits (execution unit + posting gate), and each
    op's execution interval (split into phases by
    :meth:`Backend.op_time`). They are opened and closed by direct
    field writes, with the per-index and
    per-opname labels interned — no f-string or context manager per op.
    ``logical`` is the logical request id from the client's envelope:
    carried on the chain-done and chain-abort events, it lets
    subscribers count retransmitted executions separately from logical
    requests.

    A repeat's ``saved`` is its first delivery's ``results``: each op's
    result, and the trace it is priced from, come from there instead of
    the engine. FIFO units keep an original ahead of its repeats; a
    repeat a shuffled tie order runs first claims its unit again.

    The engine's events name the operation of ``span``, which the owner
    sets whether or not the request is traced. An exception escaping the
    engine or a pricing function releases the unit (the gate counts an
    op once it has run) and propagates out of ``Simulator.run`` at once.
    The execution holds nothing that refers back to it (the pool's
    waiter deque and the ready deque hold the execution itself, dropped
    when the grant is run): ``gc`` is off while a benchmark point runs.
    """

    __slots__ = ("backend", "owner", "message", "connection", "ops", "span",
                 "logical", "saved", "results", "prev_ok", "stage",
                 "_open_span")

    #: the kernel's tombstone check; an execution is never withdrawn
    cancelled = False

    def __init__(self, backend, owner, message):
        self.backend = backend
        self.owner = owner
        self.message = message
        self.span = NULL_SPAN
        self.logical = None
        self.saved = None
        #: results of the ops started so far (the last may be mid-timer)
        self.results = []
        self.prev_ok = True
        self._open_span = None
        if not owner.accept(self):
            return
        if isinstance(self.ops, Chain):
            self.ops = self.ops.ops
        if self.span.enabled:
            # The admission delay ran on the fabric, as the lead.
            self._open("admission", backend.admission_phase).start = \
                message.landed
        self._advance()

    # -- kernel entries -------------------------------------------------------

    def __call__(self, _event=None):
        """Unit granted (inside the claim or a ready-deque entry), heap
        entry (a timer ran out) or the callback of the posting gate's
        reopening."""
        _STAGES[self.stage](self)

    fire = __call__

    # -- stages ---------------------------------------------------------------

    def _advance(self):
        """Admission or an op is over: claim an execution unit for the
        next op — the last thing this entry does, since a free unit
        runs ``_execute`` inside the claim — or answer when none is
        left."""
        if self._open_span is not None:
            self._close()
        backend = self.backend
        if len(self.results) < len(self.ops):
            if self.span.enabled:
                self._open(_dispatch_label(len(self.results)), "queue")
            self.stage = _UNIT
            backend.pool.claim(self)
            return
        backend.requests_processed += 1
        bus = backend.sim.bus
        if bus is not None:
            emit_chain_done(bus, self.ops, self.results, self.logical,
                            self.span.op)
        self.owner.answer(self, ChainResult(self.results))

    def _execute(self):
        """Holding a unit: pass the posting gate, run the op, hold the
        unit for its duration."""
        backend = self.backend
        gate = backend.gate
        if gate._posting:
            gate.reopened().callbacks.append(self)
            return
        if self._open_span is not None:
            self._close()
        sim = backend.sim
        index = len(self.results)
        op = self.ops[index]
        try:
            if self.saved is None:
                result, accesses = backend.engine.execute_op(
                    self.connection, op, self.prev_ok, self.span.op)
                result.accesses = accesses
            elif index == len(self.saved):
                # A shuffled tie order ran this repeat ahead of its
                # original: hand the unit back, claim again this instant.
                backend.pool.release()
                self.stage = _RECLAIM
                sim.schedule(0.0, self)
                return
            else:
                result = self.saved[index]
                accesses = result.accesses
            duration, parts = backend.op_time(accesses, index)
            if self.span.enabled:
                span = self._open(_op_label(op.opname),
                                  backend.execution_phase)
                span.attrs["status"] = result.status.value
                span.parts = parts or {backend.execution_phase: duration}
        except BaseException:
            backend.pool.release()
            raise
        # Counted in once the op has run: no poster can look in between.
        gate._executing += 1
        self.results.append(result)
        if duration > 0:
            self.stage = _OP
            sim.schedule(duration, self)
        else:
            self._executed()

    def _executed(self):
        """The op's duration is over: free the gate and the unit, then
        move on."""
        backend = self.backend
        gate = backend.gate
        gate._executing -= 1
        if gate._executing == 0 and gate._drained is not None:
            event, gate._drained = gate._drained, None
            event.succeed()
        backend.pool.release()
        results = self.results
        result = results[-1]
        if result.status is OpStatus.NAK:
            results.extend(OpResult(OpStatus.SKIPPED)
                           for _ in range(len(self.ops) - len(results)))
        self.prev_ok = result.status is OpStatus.OK
        self._advance()

    # -- tracing --------------------------------------------------------------

    def _open(self, name, phase):
        """Open a child of the (enabled) ``span``; one is open at a time."""
        span = self.span
        child = self._open_span = Span(span.tracer, name, phase, span,
                                       self.backend.sim._now, {}, span.op)
        span.children.append(child)
        return child

    def _close(self):
        self._open_span.end = self.backend.sim._now
        self._open_span = None


_STAGES = (_Execution._advance, _Execution._execute, _Execution._executed)
