"""Operation chaining (§3.4).

A :class:`Chain` is an ordered list of operations submitted in one
request and executed server-side in order. Conditional ops execute only
if their predecessor succeeded; READ/ALLOCATE output can be redirected
into server memory so later ops in the chain can consume it via the
``*_indirect`` flags.

The canonical PRISM pattern (out-of-place update, §3.5) is::

    chain(
        AllocateOp(freelist, data=new_value, rkey=k, redirect_to=tmp),
        CasOp(target=slot, data=pack(tmp), data_indirect=True,
              conditional=True, rkey=k, operand_width=8),
    )
"""

from repro.core.errors import InvalidOperation
from repro.core.ops import AllocateOp, CasOp, FetchAddOp, ReadOp, WriteOp

_ALLOWED_OPS = (ReadOp, WriteOp, AllocateOp, CasOp, FetchAddOp)


class Chain:
    """An immutable, validated sequence of PRISM operations."""

    __slots__ = ("ops",)

    def __init__(self, ops):
        ops = tuple(ops)
        if not ops:
            raise InvalidOperation("empty chain")
        for op in ops:
            if not isinstance(op, _ALLOWED_OPS):
                raise InvalidOperation(f"not a PRISM operation: {op!r}")
        if ops[0].conditional:
            raise InvalidOperation(
                "first operation of a chain cannot be conditional")
        self.ops = ops

    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __getitem__(self, index):
        return self.ops[index]

    def uses_extensions(self):
        """True if the chain needs PRISM (always, for len > 1)."""
        return len(self.ops) > 1 or self.ops[0].uses_extensions()

    def request_bytes(self):
        """Total request size: one transport envelope, ops back to back."""
        total = 0
        for op in self.ops:
            total += op.request_bytes()
        return total

    def response_bytes(self, results):
        """Total response size given per-op result payload lengths."""
        total = 0
        for op, result in zip(self.ops, results):
            result_len = len(result) if isinstance(result, (bytes, bytearray)) else 0
            total += op.response_bytes(result_len)
        return total

    def __repr__(self):
        return f"<Chain {[op.opname for op in self.ops]}>"


def chain(*ops):
    """Convenience constructor: ``chain(op1, op2, ...)``."""
    return Chain(ops)


def abort_reason(results):
    """Why a finished chain did not commit; None when it did.

    ``results`` are the per-op outcomes in order (anything with a
    ``status.value`` and, for NAKs, an ``error``). §3.4: a chain
    commits iff its final op succeeded; otherwise the first decisive
    op names the reason: the NAK's error class, or ``cas_miss``.
    """
    if results and results[-1].status.value == "ok":
        return None
    for result in results:
        status = result.status.value
        if status == "nak":
            error = getattr(result, "error", None)
            return type(error).__name__ if error is not None else "nak"
        if status in ("cas_miss", "skipped"):
            return status
    return "uncommitted" if results else "empty"
