"""SHA-1 (FIPS 180-1): a from-scratch reference and the C fast path.

Used as the hash inside HMAC-SHA1, the integrity MAC of the SSH-like
VPN transport (:mod:`repro.defense.vpn`) — the piece that makes the
paper's countermeasure actually detect in-flight tampering by a rogue
access point — and in the WPA, TKIP, DH and key-store derivations.

:func:`sha1` and :func:`sha1_hexdigest`, which the simulation calls, are
``hashlib.sha1`` in C.  The :class:`SHA1` class is the round-by-round
reference; nothing in the simulation calls it, and the test suite pins
it to the FIPS 180-1 vectors and to :func:`sha1` on random inputs.
"""

from __future__ import annotations

import hashlib
import struct

__all__ = ["sha1", "sha1_hexdigest", "SHA1"]

_MASK = 0xFFFFFFFF


def _rotl(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & _MASK


class SHA1:
    """Incremental SHA-1 with the hashlib-style update/digest interface."""

    digest_size = 20
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        self._length += len(data)
        buf = self._buffer + data
        for offset in range(0, len(buf) - 63, 64):
            self._compress(buf[offset:offset + 64])
        self._buffer = buf[len(buf) - (len(buf) % 64):]

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block))
        for t in range(16, 80):
            w.append(_rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
        a, b, c, d, e = self._h
        for t in range(80):
            if t < 20:
                f = (b & c) | (~b & d)
                k = 0x5A827999
            elif t < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif t < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            temp = (_rotl(a, 5) + f + e + k + w[t]) & _MASK
            e, d, c, b, a = d, c, _rotl(b, 30), a, temp
        self._h = [(x + y) & _MASK for x, y in zip(self._h, (a, b, c, d, e))]

    def digest(self) -> bytes:
        clone = self.copy()
        bit_len = (clone._length * 8) & 0xFFFFFFFFFFFFFFFF
        pad_len = (55 - clone._length) % 64
        clone.update(b"\x80" + b"\x00" * pad_len + struct.pack(">Q", bit_len))
        assert not clone._buffer
        return struct.pack(">5I", *clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "SHA1":
        clone = SHA1()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest."""
    return hashlib.sha1(data).digest()


def sha1_hexdigest(data: bytes) -> str:
    """One-shot SHA-1 hex digest."""
    return hashlib.sha1(data).hexdigest()
