"""RC4 stream cipher (key scheduling + PRGA), implemented from scratch.

RC4 is the cipher inside WEP ("WEP utilizes the RC4 stream cipher",
paper §2.1) and the stream cipher we use for the SSH-like VPN
transport.  The implementation deliberately exposes the key-scheduling
algorithm (KSA) state evolution, because the FMS attack
(:mod:`repro.crypto.fms`) reasons about exactly that structure.
"""

from __future__ import annotations

from typing import Iterator

from repro.obs.runtime import ambient

__all__ = ["RC4", "rc4_keystream", "ksa", "prga"]


def ksa(key: bytes) -> list[int]:
    """RC4 key-scheduling algorithm: derive the 256-entry permutation.

    This is the stage whose bias for "weak" IVs leaks key bytes
    (Fluhrer, Mantin, Shamir 2001 — the paper's reference [3]).
    """
    if not key:
        raise ValueError("RC4 key must be non-empty")
    s = list(range(256))
    j = 0
    klen = len(key)
    for i in range(256):
        j = (j + s[i] + key[i % klen]) & 0xFF
        s[i], s[j] = s[j], s[i]
    return s


def ksa_partial(key: bytes, rounds: int) -> tuple[list[int], int]:
    """Run only the first ``rounds`` KSA swaps; used by the FMS attack.

    Returns the partial permutation and the running ``j`` value.
    """
    s = list(range(256))
    j = 0
    klen = len(key)
    for i in range(rounds):
        j = (j + s[i] + key[i % klen]) & 0xFF
        s[i], s[j] = s[j], s[i]
    return s, j


def prga(s: list[int]) -> Iterator[int]:
    """RC4 pseudo-random generation algorithm over a scheduled state."""
    s = list(s)
    i = j = 0
    while True:
        i = (i + 1) & 0xFF
        j = (j + s[i]) & 0xFF
        s[i], s[j] = s[j], s[i]
        yield s[(s[i] + s[j]) & 0xFF]


class RC4:
    """Stateful RC4 cipher.

    Encryption and decryption are the same XOR operation; the object
    keeps its keystream position, so a single instance can encrypt a
    sequence of records (as the VPN transport does).

    Examples
    --------
    >>> RC4(b"Key").crypt(b"Plaintext").hex()
    'bbf316e8d940af0ad3'
    """

    def __init__(self, key: bytes) -> None:
        self._gen = prga(ksa(key))

    def keystream(self, n: int) -> bytes:
        """Next ``n`` keystream bytes."""
        g = self._gen
        return bytes(next(g) for _ in range(n))

    def crypt(self, data: bytes) -> bytes:
        """XOR ``data`` with the next keystream bytes (encrypt == decrypt)."""
        prof = ambient.profiler
        if prof is None:
            return self._crypt(data)
        with prof.span("crypto.rc4"):
            return self._crypt(data)

    def _crypt(self, data: bytes) -> bytes:
        g = self._gen
        return bytes(b ^ next(g) for b in data)


def rc4_keystream(key: bytes, n: int) -> bytes:
    """First ``n`` keystream bytes for ``key`` (one-shot helper)."""
    return RC4(key).keystream(n)
