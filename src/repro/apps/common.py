"""Utilities shared by the application case studies."""

CLIENT_ID_BITS = 16
_CLIENT_ID_MASK = (1 << CLIENT_ID_BITS) - 1


def make_tag(counter, client_id):
    """Build a 64-bit lexicographic tag ⟨counter, client_id⟩ (§7.1).

    Counter occupies the high bits so integer comparison orders first
    by counter, then by client id — the ABD tag order, also used for
    PRISM-KV versions and PRISM-TX timestamps.
    """
    if not 0 <= client_id <= _CLIENT_ID_MASK:
        raise ValueError(f"client_id {client_id} out of range")
    if counter < 0 or counter >= 1 << (64 - CLIENT_ID_BITS):
        raise ValueError(f"counter {counter} out of range")
    return (counter << CLIENT_ID_BITS) | client_id


def split_tag(tag):
    """Inverse of :func:`make_tag`; returns ``(counter, client_id)``."""
    return tag >> CLIENT_ID_BITS, tag & _CLIENT_ID_MASK


def bump_tag(tag, client_id):
    """Smallest tag with this client id strictly greater than ``tag``."""
    return make_tag((tag >> CLIENT_ID_BITS) + 1, client_id)


#: the tag a bulk-loaded value carries: the first write, by no client
INITIAL_TAG = make_tag(1, 0)


def backoff_us(rng, attempt, base_us, max_us):
    """Capped, jittered exponential backoff before retry ``attempt``
    (1-based), in µs: one ``rng.uniform`` draw."""
    ceiling = min(max_us, base_us * (2 ** min(attempt - 1, 6)))
    return rng.uniform(base_us / 2, ceiling)


def note_key(sim, app, kind, key):
    """Report one app-level op on ``key`` on the probe bus (key-hotness
    telemetry), when anything is attached. A single attribute check on
    the off path, and subscribers only count — no clock reads, no
    events — so instrumented apps keep bit-identical timing."""
    if sim.bus is not None:
        sim.bus.emit("app.key", app, kind, key)


def field_mask(offset_bytes, width_bytes):
    """Bitmask selecting ``width_bytes`` at ``offset_bytes`` of a
    little-endian multi-byte CAS operand."""
    return ((1 << (8 * width_bytes)) - 1) << (8 * offset_bytes)
