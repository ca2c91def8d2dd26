"""Checksums for Pilaf's self-verifying data structures.

Pilaf (Mitchell et al., ATC '13) guards every root and extent with a
CRC so clients can detect racing server-side writes. We compute real
CRC32s (so tests can corrupt bytes and watch verification fail) and
charge the client the paper's measured verification cost: "the other
2 µs are CRC calculations" for a slot + 512 B extent pair (§6.2).
"""

import zlib

#: fixed per-check overhead (µs) — table lookup setup, branch
CRC_BASE_US = 0.15
#: per-byte cost (µs) — calibrated so 16 B + 536 B of checks ≈ 2 µs
CRC_PER_BYTE_US = 0.0033


#: the CRC of any bytes-like object, as an int (a C call, no frame);
#: layouts store it zero-extended to 8 bytes
checksum = zlib.crc32


def crc64(data):
    """CRC of ``data`` zero-extended to 8 bytes (stored in layouts)."""
    return checksum(bytes(data)) & 0xFFFFFFFF


def crc_bytes(data):
    return crc64(data).to_bytes(8, "little")


def crc_time_us(nbytes):
    """Client CPU time to verify a CRC over ``nbytes``."""
    return CRC_BASE_US + nbytes * CRC_PER_BYTE_US


def verify(data, stored_crc_bytes):
    """True if ``data`` matches the stored checksum."""
    return crc_bytes(data) == bytes(stored_crc_bytes)
