"""HMAC (RFC 2104): a from-scratch reference and the C fast path.

The VPN transport authenticates every record with HMAC-SHA1; a rogue
AP that flips bits in the ciphertext (trivially possible against a
bare stream cipher) is caught here — the mechanism behind the paper's
claim that a VPN protects even over a fully hostile wireless segment.

:func:`hmac_sha1`, :func:`hmac_md5` and :func:`constant_time_equal` are
the standard library's ``hmac`` in C; the simulation calls the first and
the last.  The generic :func:`hmac` over the local
:class:`~repro.crypto.md5.MD5` and :class:`~repro.crypto.sha1.SHA1` is
the reference; nothing in the simulation calls it, and the test suite
pins it to the RFC 2202 vectors and to the fast functions on random
inputs.
"""

from __future__ import annotations

import hmac as _stdhmac
from typing import Callable, Protocol

__all__ = ["hmac", "hmac_md5", "hmac_sha1", "constant_time_equal"]


class _Hash(Protocol):  # structural type of MD5 / SHA1
    digest_size: int
    block_size: int

    def update(self, data: bytes) -> None: ...
    def digest(self) -> bytes: ...


def hmac(key: bytes, message: bytes, hash_factory: Callable[[], _Hash]) -> bytes:
    """HMAC per RFC 2104: H(K ^ opad || H(K ^ ipad || message))."""
    probe = hash_factory()
    block_size = probe.block_size
    if len(key) > block_size:
        h = hash_factory()
        h.update(key)
        key = h.digest()
    key = key.ljust(block_size, b"\x00")
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    inner = hash_factory()
    inner.update(ipad + message)
    outer = hash_factory()
    outer.update(opad + inner.digest())
    return outer.digest()


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA1, the VPN record MAC."""
    return _stdhmac.digest(key, message, "sha1")


def hmac_md5(key: bytes, message: bytes) -> bytes:
    """HMAC-MD5, pinned to RFC 2202 and kept for API completeness."""
    return _stdhmac.digest(key, message, "md5")


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare MACs in time independent of where they differ.

    Any bytes-like arguments; unequal lengths compare ``False``.
    """
    return _stdhmac.compare_digest(a, b)
