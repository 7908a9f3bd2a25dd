"""RC4 stream cipher (key scheduling + PRGA), implemented from scratch.

RC4 is the cipher inside WEP ("WEP utilizes the RC4 stream cipher",
paper §2.1) and the stream cipher we use for the SSH-like VPN
transport.  The implementation deliberately exposes the key-scheduling
algorithm (KSA) state evolution, because the FMS attack
(:mod:`repro.crypto.fms`) reasons about exactly that structure.
"""

from __future__ import annotations

from typing import Iterator

from repro.obs.metrics import memo_counts
from repro.obs.runtime import ambient

__all__ = ["RC4", "KEYSTREAM_MEMO_SIZE", "rc4_crypt", "rc4_keystream",
           "ksa", "prga"]

#: Keystreams :func:`rc4_crypt` keeps, oldest evicted first.  A per-packet
#: key is used by its sender and then by the receiver that decrypts the
#: frame, a few transmissions apart; WEP stations sharing a root key and
#: counting IVs from 0 also reuse each other's keys, further apart.  On
#: an open-loop shard (seed 2) 256 entries make 53.5% of lookups hits,
#: 1024 make 61.9% and no bound 62.1%; 1024 entries hold about 200 KB.
KEYSTREAM_MEMO_SIZE = 1024

#: per-packet key -> the longest keystream computed for it so far
_keystreams: dict = {}


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
        g = self._gen
        return bytes(b ^ next(g) for b in data)


def rc4_crypt(key: bytes, data: bytes) -> bytes:
    """``data`` XOR the first ``len(data)`` keystream bytes of ``key``.

    Equal to ``RC4(key).crypt(data)``, for one-shot per-packet keys
    (WEP's IV || root key, TKIP and ESP packet keys): the keystream is a
    pure function of the key, so the ones used recently are kept
    (:data:`KEYSTREAM_MEMO_SIZE`) for the other end of the packet.
    """
    key = bytes(key)
    n = len(data)
    cached = _keystreams.get(key)
    hit = cached is not None and len(cached) >= n
    if ambient.metrics is not None:
        memo_counts["crypto.keystream_cache.hits" if hit
                    else "crypto.keystream_cache.misses"] += 1
    if hit:
        stream = cached
    else:
        # a longer request replaces the key's entry in place
        stream = _keystream(ksa(key), n)
        if cached is None and len(_keystreams) >= KEYSTREAM_MEMO_SIZE:
            del _keystreams[next(iter(_keystreams))]
        _keystreams[key] = stream
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(stream[:n], "little")).to_bytes(n, "little")


def _keystream(s: list[int], n: int) -> bytes:
    """The first ``n`` PRGA bytes of schedule ``s`` (consumed in place)."""
    out = bytearray(n)
    j = 0
    for k in range(n):
        i = (k + 1) & 0xFF
        si = s[i]
        j = (j + si) & 0xFF
        sj = s[j]
        s[i] = sj
        s[j] = si
        out[k] = s[(si + sj) & 0xFF]
    return bytes(out)


def rc4_keystream(key: bytes, n: int) -> bytes:
    """First ``n`` keystream bytes for ``key`` (one-shot helper)."""
    return RC4(key).keystream(n)
