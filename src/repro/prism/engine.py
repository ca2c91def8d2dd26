"""Byte-exact execution semantics for PRISM operations (Table 1).

The engine performs the *functional* side of a primitive — dereference,
bounds clamping, free-list pop, masked compare-and-swap, redirection —
against a :class:`~repro.prism.address_space.ServerAddressSpace`, and
records every memory access it makes as an :class:`Access`. Timing
backends replay that trace to charge PCIe round trips (hardware NIC),
core time (software stack), or host-access latency (BlueField).

Protection model: the ``rkey`` carried by an operation must be granted
to the issuing connection and must cover the operation's primary target.
Addresses *derived* during execution — a dereferenced pointer, an
indirect data source, a redirect destination, an allocated buffer —
must be covered by some region granted to the same connection with the
required permission. (The paper states the single-region form of this
rule in §3.1; granting a connection several regions is the natural
generalization its applications need, e.g. state region + on-NIC
scratch region.)
"""

import enum
from itertools import count

from repro.core.constants import POINTER_BYTES
from repro.core.errors import (
    AccessViolation,
    AllocationFailure,
    InvalidOperation,
)
from repro.core.chain import Chain, abort_reason
from repro.core.ops import AllocateOp, CasOp, FetchAddOp, ReadOp, WriteOp
from repro.hw.layout import BOUNDED_PTR_SIZE, unpack_bounded_ptr
from repro.prism.address_space import DOMAIN_HOST, DOMAIN_SRAM
from repro.rdma.mr import AccessFlags

#: an access's domain, indexed by ``addr >= space.sram_base``: SRAM is
#: mapped just past host memory
_DOMAINS = (DOMAIN_HOST, DOMAIN_SRAM)


class OpStatus(enum.Enum):
    """Outcome of one operation within a chain."""

    OK = "ok"
    CAS_MISS = "cas_miss"   # comparison failed; old value still returned
    SKIPPED = "skipped"     # conditional op whose predecessor failed
    NAK = "nak"             # protection violation / empty free list / ...

    @property
    def successful(self):
        """§3.4: NAKs, errors, and CAS misses count as unsuccessful."""
        return self is OpStatus.OK


class Access:
    """One memory touch made while executing a primitive: ``kind`` "r"
    or "w", ``domain`` "host" or "sram", ``nbytes`` touched, whether
    the atomic unit did it."""

    __slots__ = ("kind", "domain", "nbytes", "atomic")

    def __init__(self, kind, domain, nbytes, atomic=False):
        self.kind = kind
        self.domain = domain
        self.nbytes = nbytes
        self.atomic = atomic


class OpResult:
    """Result of one operation: status plus its return payload.

    ``value`` is bytes for READ (empty if redirected) and CAS (the old
    value), an integer buffer address for ALLOCATE (0 if redirected),
    and None for WRITE. ``error`` is the :class:`PrismError` of a NAK.
    ``accesses``: the op's access trace, set by the device execution.
    """

    __slots__ = ("status", "value", "error", "accesses")

    def __init__(self, status, value=None, error=None):
        self.status = status
        self.value = value
        self.error = error

    def __repr__(self):
        return f"OpResult({self.status}, {self.value!r}, {self.error!r})"

    @property
    def successful(self):
        return self.status.successful


class ChainResult:
    """Results of a whole chain, in op order."""

    def __init__(self, results):
        self.results = list(results)

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def last(self):
        return self.results[-1]

    @property
    def committed(self):
        """True when the final operation of the chain succeeded."""
        return self.results[-1].successful

    def raise_on_nak(self):
        """Raise the first hard error, if any op NAK'd."""
        for result in self.results:
            if result.status is OpStatus.NAK and result.error is not None:
                raise result.error
        return self


class Connection:
    """Per-client NIC state: granted regions and redirect scratch slot."""

    _ids = count(1)

    def __init__(self, client_name, granted_rkeys, sram_slot=None):
        self.id = next(self._ids)
        self.client_name = client_name
        self.granted_rkeys = set(granted_rkeys)
        self.sram_slot = sram_slot

    def grant(self, rkey):
        self.granted_rkeys.add(rkey)


class PrismEngine:
    """Executes single operations and chains against server memory."""

    def __init__(self, space, region_table, freelists=None,
                 allow_extensions=True, allow_extended_atomics=True):
        self.space = space
        self.regions = region_table
        self.freelists = freelists if freelists is not None else {}
        self.allow_extensions = allow_extensions
        self.allow_extended_atomics = allow_extended_atomics
        self.ops_executed = 0
        #: optional repro.obs.timeline.ChargeMonitor counting executed
        #: ops and touched bytes per window (the engine itself is
        #: functional — time is charged by the owning backend)
        self.monitor = None
        #: optional repro.obs.bus.Bus for CAS outcomes, dereference
        #: depth, allocator pops/exhaustion and NAKs (wired by the
        #: owning backend from sim.bus: the engine holds no simulator)
        self.bus = None

    # -- protection helpers ------------------------------------------------

    def _check_primary(self, connection, op, addr, length, need):
        if op.rkey not in connection.granted_rkeys:
            raise AccessViolation(
                f"rkey {op.rkey:#x} not granted to connection {connection.id}")
        self.regions.check(addr, length, op.rkey, need)

    def _check_derived(self, connection, addr, length, need, what):
        """A derived address must fall inside *some* granted region."""
        if not self.regions.allows_any(addr, length,
                                       connection.granted_rkeys, need):
            raise AccessViolation(
                f"{what}: [{addr}, {addr + length}) not covered by any "
                f"region granted to connection {connection.id}")

    def _feature_check(self, op):
        if not self.allow_extensions and op.uses_extensions():
            if isinstance(op, CasOp) and self.allow_extended_atomics:
                if not op.uses_prism_only_features():
                    return  # extended atomics exist on stock Mellanox NICs
            raise InvalidOperation(
                f"{op.opname}: PRISM extension used, but this NIC supports "
                "only the classic RDMA interface")

    # -- address resolution ---------------------------------------------

    def _resolve_target(self, connection, op, indirect, bounded, need,
                        accesses, what):
        """READ / WRITE target: returns (effective_addr, effective_len),
        dereferencing the (bounded) pointer at ``op.addr`` if
        ``indirect``."""
        if not indirect:
            self._check_primary(connection, op, op.addr, op.length, need)
            return op.addr, op.length
        struct_len = BOUNDED_PTR_SIZE if bounded else POINTER_BYTES
        self._check_primary(connection, op, op.addr, struct_len,
                            AccessFlags.READ)
        space = self.space
        raw = space.read(op.addr, struct_len)
        accesses.append(Access("r", _DOMAINS[op.addr >= space.sram_base],
                               struct_len))
        if bounded:
            target, bound = unpack_bounded_ptr(raw)
            effective = min(op.length, bound)
        else:
            target = int.from_bytes(raw[:POINTER_BYTES], "little")
            effective = op.length
        self._check_derived(connection, target, effective, need, what)
        return target, effective

    # -- single-op execution ------------------------------------------------

    def execute_op(self, connection, op, prev_ok=True, op_id=None):
        """Execute one op; returns ``(OpResult, [Access])``.

        ``prev_ok`` is the chain predicate: a conditional op with a
        failed predecessor is skipped without touching memory.
        ``op_id`` is the client operation the request serves, named on
        the op's ``op.nak`` and ``cas.miss`` events.
        """
        accesses = []
        if op.conditional and not prev_ok:
            return OpResult(OpStatus.SKIPPED), accesses
        try:
            if not self.allow_extensions:
                self._feature_check(op)
            handler = _HANDLERS.get(type(op))
            if handler is None:
                raise InvalidOperation(f"unknown operation {op!r}")
            result = handler(self, connection, op, accesses, op_id)
        except (AccessViolation, AllocationFailure, InvalidOperation) as exc:
            if self.bus is not None:
                self.bus.emit("op.nak", op.opname, type(exc).__name__,
                              op_id, connection.id)
            return OpResult(OpStatus.NAK, None, exc), accesses
        self.ops_executed += 1
        if self.monitor is not None:
            self.monitor.count(
                events=1, units=sum(access.nbytes for access in accesses))
        return result, accesses

    def _do_read(self, connection, op, accesses, op_id):
        target, length = self._resolve_target(
            connection, op, op.indirect, op.bounded, AccessFlags.READ,
            accesses, "READ pointee")
        if self.bus is not None:
            self.bus.emit("op.deref", "READ", int(op.indirect), op.bounded,
                          connection.id)
        space = self.space
        sram_base = space.sram_base
        data = space.read(target, length)
        accesses.append(Access("r", _DOMAINS[target >= sram_base], length))
        redirect_to = op.redirect_to
        if redirect_to is not None:
            self._check_derived(connection, redirect_to, length,
                                AccessFlags.WRITE, "READ redirect target")
            space.write(redirect_to, data)
            accesses.append(Access("w", _DOMAINS[redirect_to >= sram_base],
                                   length))
            return OpResult(OpStatus.OK, b"")
        return OpResult(OpStatus.OK, data)

    def _source_data(self, connection, op, length, accesses, what):
        """WRITE/CAS data operand, honouring data_indirect."""
        if not op.data_indirect:
            return op.data
        source = int.from_bytes(op.data, "little")
        self._check_derived(connection, source, length, AccessFlags.READ, what)
        space = self.space
        data = space.read(source, length)
        accesses.append(Access("r", _DOMAINS[source >= space.sram_base],
                               length))
        return data

    def _do_write(self, connection, op, accesses, op_id):
        target, length = self._resolve_target(
            connection, op, op.addr_indirect, op.addr_bounded,
            AccessFlags.WRITE, accesses, "WRITE pointee")
        if self.bus is not None:
            self.bus.emit("op.deref", "WRITE",
                          int(op.addr_indirect) + int(op.data_indirect),
                          False, connection.id)
        data = self._source_data(connection, op, op.length, accesses,
                                 "WRITE data source")
        data = data[:length]
        space = self.space
        space.write(target, data)
        accesses.append(Access("w", _DOMAINS[target >= space.sram_base],
                               len(data)))
        return OpResult(OpStatus.OK)

    def _do_allocate(self, connection, op, accesses, op_id):
        freelist = self.freelists.get(op.freelist)
        if freelist is None:
            raise InvalidOperation(f"ALLOCATE: no free list {op.freelist}")
        data = op.data
        if not freelist.would_satisfy(len(data)):
            raise InvalidOperation(
                f"ALLOCATE: {len(data)} bytes exceeds buffer size "
                f"{freelist.buffer_size} of {freelist.name}")
        try:
            buffer_addr = freelist.peek()  # FreeListExhausted when empty
        except AllocationFailure:
            if self.bus is not None:
                self.bus.emit("alloc.exhausted", op.freelist, freelist)
            raise
        # Both derived addresses are checked while the buffer is still
        # posted: a NAK here takes nothing off the free list.
        self._check_derived(connection, buffer_addr, freelist.buffer_size,
                            AccessFlags.WRITE, "ALLOCATE buffer")
        redirect_to = op.redirect_to
        if redirect_to is not None:
            self._check_derived(connection, redirect_to, POINTER_BYTES,
                                AccessFlags.WRITE, "ALLOCATE redirect target")
        freelist.pop()
        if self.bus is not None:
            self.bus.emit("alloc.pop", op.freelist, freelist)
        space = self.space
        sram_base = space.sram_base
        space.write(buffer_addr, data)
        accesses.append(Access("w", _DOMAINS[buffer_addr >= sram_base],
                               len(data)))
        if redirect_to is not None:
            space.write(redirect_to,
                        buffer_addr.to_bytes(POINTER_BYTES, "little"))
            accesses.append(Access("w", _DOMAINS[redirect_to >= sram_base],
                                   POINTER_BYTES))
            return OpResult(OpStatus.OK, 0)
        return OpResult(OpStatus.OK, buffer_addr)

    def _do_cas(self, connection, op, accesses, op_id):
        width = op.operand_width
        space = self.space
        sram_base = space.sram_base
        # Resolve target (the dereference is NOT atomic; only the CAS is).
        target = op.target
        if op.target_indirect:
            self._check_primary(connection, op, target, POINTER_BYTES,
                                AccessFlags.READ)
            pointer = space.read_ptr(target)
            accesses.append(Access("r", _DOMAINS[target >= sram_base],
                                   POINTER_BYTES))
            target = pointer
            self._check_derived(connection, target, width,
                                AccessFlags.ATOMIC, "CAS pointee")
        else:
            self._check_primary(connection, op, target, width,
                                AccessFlags.ATOMIC)
        operand_bytes = self._source_data(connection, op, width, accesses,
                                          "CAS data source")
        operand = int.from_bytes(operand_bytes, "little")
        if op.compare_data is not None:
            comparand = int.from_bytes(op.compare_data, "little")
        else:
            comparand = operand

        domain = _DOMAINS[target >= sram_base]
        old_bytes = space.read(target, width)
        accesses.append(Access("r", domain, width, True))
        old = int.from_bytes(old_bytes, "little")

        swapped = op.mode.compare(comparand & op.compare_mask,
                                  old & op.compare_mask)
        bus = self.bus
        if bus is not None:
            bus.emit("op.deref", "CAS",
                     int(op.target_indirect) + int(op.data_indirect),
                     False, connection.id)
            bus.emit("cas.attempt", target, op.mode, swapped, connection.id)
            if not swapped:
                # Misses get a kind of their own: they are what retry
                # storms on hot addresses are made of, so the only CAS
                # outcome the flight log keeps (forensics groups by target).
                bus.emit("cas.miss", target, op.mode.value, op_id)
        if swapped:
            new = (old & ~op.swap_mask) | (operand & op.swap_mask)
            space.write(target, new.to_bytes(width, "little"))
            accesses.append(Access("w", domain, width, True))
            return OpResult(OpStatus.OK, old_bytes)
        return OpResult(OpStatus.CAS_MISS, old_bytes)

    def _do_fetch_add(self, connection, op, accesses, op_id):
        target = op.target
        self._check_primary(connection, op, target, 8, AccessFlags.ATOMIC)
        space = self.space
        domain = _DOMAINS[target >= space.sram_base]
        old_bytes = space.read(target, 8)
        accesses.append(Access("r", domain, 8, True))
        old = int.from_bytes(old_bytes, "little")
        new = (old + op.delta) % (1 << 64)
        space.write(target, new.to_bytes(8, "little"))
        accesses.append(Access("w", domain, 8, True))
        return OpResult(OpStatus.OK, old_bytes)

    # -- whole-chain execution (used by tests and simple callers) ---------

    def execute_chain(self, connection, ops):
        """Execute a chain back to back, honouring §3.4 semantics.

        Timing backends interleave their own delays between ops; they
        call :meth:`execute_op` directly. A hard NAK stops processing of
        everything after it, like an RDMA QP entering the error state.
        """
        if isinstance(ops, Chain):
            ops = ops.ops
        results = []
        prev_ok = True
        aborted = False
        for op in ops:
            if aborted:
                results.append(OpResult(OpStatus.SKIPPED))
                continue
            result, _accesses = self.execute_op(connection, op, prev_ok)
            results.append(result)
            if result.status is OpStatus.NAK:
                aborted = True
            prev_ok = result.successful
        if self.bus is not None:
            emit_chain_done(self.bus, ops, results)
        return ChainResult(results)


#: the engine's dispatch: one dict probe on the op's exact type
_HANDLERS = {
    ReadOp: PrismEngine._do_read,
    WriteOp: PrismEngine._do_write,
    AllocateOp: PrismEngine._do_allocate,
    CasOp: PrismEngine._do_cas,
    FetchAddOp: PrismEngine._do_fetch_add,
}


def emit_chain_done(bus, ops, results, logical=None, op_id=None):
    """Report one finished request (``logical``: its envelope's
    logical-request id, ``op_id`` the client operation it serves; None
    outside the request path). The abort reason is computed here, once,
    and carried on both events, so every consumer labels the chain the
    same way."""
    reason = abort_reason(results)
    bus.emit("chain.done", ops, results, logical, reason)
    if reason is not None:
        bus.emit("chain.abort", logical, len(results), reason, op_id)
