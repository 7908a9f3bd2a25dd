"""CRC-32 (IEEE 802.3 polynomial): a from-scratch reference and the C fast path.

CRC-32 appears twice in the reproduction: as the WEP integrity check
value (ICV) — which, being linear, provides no cryptographic integrity,
one of WEP's "legendary" weaknesses — and as the 802.11 frame check
sequence (FCS).

:func:`crc32` is what the simulation calls on every frame: it is
``zlib.crc32``, the same function computed in C.  :func:`crc32_reference`
is the table-driven byte loop built from the polynomial; nothing in the
simulation calls it, and the test suite pins it to the standard check
value and to :func:`crc32` on random inputs.
"""

from __future__ import annotations

import zlib

__all__ = ["crc32", "crc32_reference", "crc32_table", "crc32_combine_xor"]

_POLY = 0xEDB88320  # reflected 0x04C11DB7


def _build_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _build_table()


def crc32_table() -> list[int]:
    """The 256-entry CRC table (exposed for tests and the linearity demo)."""
    return list(_TABLE)


def crc32(data: bytes, crc: int = 0) -> int:
    """CRC-32 of ``data``; ``crc`` allows incremental computation."""
    return zlib.crc32(data, crc)


def crc32_reference(data: bytes, crc: int = 0) -> int:
    """The table-driven CRC-32, equal to :func:`crc32` bit for bit."""
    crc ^= 0xFFFFFFFF
    for b in data:
        crc = _TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc32_combine_xor(crc_a: int, crc_b: int, crc_zero: int) -> int:
    """CRC linearity helper: crc(a ^ b) == crc(a) ^ crc(b) ^ crc(0...).

    Demonstrates *why* the WEP ICV fails as an integrity check: an
    attacker can flip plaintext bits through the ciphertext and fix the
    ICV without knowing the key.  Used by the WEP bit-flipping test.
    """
    return crc_a ^ crc_b ^ crc_zero
