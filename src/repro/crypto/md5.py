"""MD5 message digest (RFC 1321): a from-scratch reference and the C fast path.

The §4.1 experiment rewrites a download page's published ``MD5SUM`` so
the victim's integrity check passes on the trojaned binary.  For that
demonstration to be honest, the digests must be real: the browser model
computes MD5 over the actual downloaded bytes.

:func:`md5` and :func:`md5_hexdigest`, which the simulation calls, are
``hashlib.md5`` in C.  The :class:`MD5` class is the round-by-round
reference; nothing in the simulation calls it, and the test suite pins
it to the RFC 1321 vectors and to :func:`md5` on random inputs.
"""

from __future__ import annotations

import hashlib
import struct

__all__ = ["md5", "md5_hexdigest", "MD5"]

# Per-round left-rotate amounts.
_S = (
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
)

# K[i] = floor(2^32 * abs(sin(i + 1))) — stored as literals for speed
# and to avoid a float dependency in a correctness-critical constant.
_K = (
    0xD76AA478, 0xE8C7B756, 0x242070DB, 0xC1BDCEEE,
    0xF57C0FAF, 0x4787C62A, 0xA8304613, 0xFD469501,
    0x698098D8, 0x8B44F7AF, 0xFFFF5BB1, 0x895CD7BE,
    0x6B901122, 0xFD987193, 0xA679438E, 0x49B40821,
    0xF61E2562, 0xC040B340, 0x265E5A51, 0xE9B6C7AA,
    0xD62F105D, 0x02441453, 0xD8A1E681, 0xE7D3FBC8,
    0x21E1CDE6, 0xC33707D6, 0xF4D50D87, 0x455A14ED,
    0xA9E3E905, 0xFCEFA3F8, 0x676F02D9, 0x8D2A4C8A,
    0xFFFA3942, 0x8771F681, 0x6D9D6122, 0xFDE5380C,
    0xA4BEEA44, 0x4BDECFA9, 0xF6BB4B60, 0xBEBFBC70,
    0x289B7EC6, 0xEAA127FA, 0xD4EF3085, 0x04881D05,
    0xD9D4D039, 0xE6DB99E5, 0x1FA27CF8, 0xC4AC5665,
    0xF4292244, 0x432AFF97, 0xAB9423A7, 0xFC93A039,
    0x655B59C3, 0x8F0CCC92, 0xFFEFF47D, 0x85845DD1,
    0x6FA87E4F, 0xFE2CE6E0, 0xA3014314, 0x4E0811A1,
    0xF7537E82, 0xBD3AF235, 0x2AD7D2BB, 0xEB86D391,
)

_MASK = 0xFFFFFFFF


def _rotl(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & _MASK


class MD5:
    """Incremental MD5 with the hashlib-style update/digest interface."""

    digest_size = 16
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        self._length += len(data)
        buf = self._buffer + data
        offset = 0
        for offset in range(0, len(buf) - 63, 64):
            self._compress(buf[offset:offset + 64])
        self._buffer = buf[len(buf) - (len(buf) % 64):]

    def _compress(self, block: bytes) -> None:
        m = struct.unpack("<16I", block)
        a, b, c, d = self._h
        for i in range(64):
            if i < 16:
                f = (b & c) | (~b & d)
                g = i
            elif i < 32:
                f = (d & b) | (~d & c)
                g = (5 * i + 1) % 16
            elif i < 48:
                f = b ^ c ^ d
                g = (3 * i + 5) % 16
            else:
                f = c ^ (b | (~d & _MASK))
                g = (7 * i) % 16
            f = (f + a + _K[i] + m[g]) & _MASK
            a, d, c = d, c, b
            b = (b + _rotl(f, _S[i])) & _MASK
        self._h = [
            (self._h[0] + a) & _MASK,
            (self._h[1] + b) & _MASK,
            (self._h[2] + c) & _MASK,
            (self._h[3] + d) & _MASK,
        ]

    def digest(self) -> bytes:
        # Pad a copy so digest() can be called repeatedly / mid-stream.
        clone = self.copy()
        bit_len = (clone._length * 8) & 0xFFFFFFFFFFFFFFFF
        pad_len = (55 - clone._length) % 64
        clone.update(b"\x80" + b"\x00" * pad_len + struct.pack("<Q", bit_len))
        assert not clone._buffer  # padded stream is block-aligned
        return struct.pack("<4I", *clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "MD5":
        clone = MD5()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


# ``usedforsecurity=False``: the simulated md5sum and CHAP protect nothing
# in the host process, so a FIPS-mode Python still runs the worlds.
def md5(data: bytes) -> bytes:
    """One-shot MD5 digest of ``data``."""
    return hashlib.md5(data, usedforsecurity=False).digest()


def md5_hexdigest(data: bytes) -> str:
    """One-shot MD5 hex digest — the format published on download pages."""
    return hashlib.md5(data, usedforsecurity=False).hexdigest()
