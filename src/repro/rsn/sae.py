"""Simplified SAE (WPA3 "dragonfly") commit/confirm handshake.

Two parties who share a *password* run an ephemeral DH exchange
(commit), then each proves knowledge of both the password and the
resulting shared secret with a MAC over the full transcript (confirm).
The session key (PMK) that falls out is fresh per handshake.

What the simplification preserves — the three properties the
experiments lean on:

* **Mutual password proof.**  The key schedule mixes the password into
  every derived key, so a rogue AP that does not know the password can
  answer the commit but its confirm fails verification: the client
  refuses it *cryptographically*, where 2003's open/WEP client had
  nothing to check.
* **Forward secrecy.**  The PMK depends on the ephemeral DH secret;
  recording traffic and later learning the password does not decrypt
  old sessions (unlike WPA2-PSK, where the PMK *is* the password
  derivative).
* **Fresh PMK per association** feeding the existing 4-way handshake,
  exactly how real WPA3 layers SAE under 802.11i key management.

What it drops (documented, DESIGN §15): the Hunting-and-Pecking /
hash-to-element derivation of the password element (we MAC the
password into the key schedule instead of blinding the commit scalars
with it), anti-clogging tokens, and group negotiation — none of which
the downgrade/PMF scenarios measure.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.crypto.dh import DH_GROUP_1536, DhGroup, DiffieHellman
from repro.crypto.hmac import constant_time_equal, hmac_sha1
from repro.dot11.ies import IeId, InformationElement
from repro.dot11.mac import MacAddress
from repro.rsn.ie import RSN_OUI, VendorIe
from repro.sim.errors import ProtocolError

__all__ = ["SAE_GROUP_IDS", "SaeError", "SaeParty", "sae_container_ie",
           "sae_payload"]

#: Wire tags for the groups a commit may name (RFC 3526 numbering for
#: the real group; 0 is the documented-unsafe test group).
SAE_GROUP_IDS = {"modp1536": 5, "toy32": 0}

_CONFIRM_LEN = 16
_PMK_LEN = 32


class SaeError(ProtocolError):
    """A malformed or unverifiable SAE message."""


#: Subtype byte scoping our SAE container inside a vendor IE.  Real
#: SAE puts commit/confirm fields bare in the auth body; carrying them
#: as an OUI-scoped element instead means pre-RSN parsers skip them as
#: just another unknown IE (documented simplification, DESIGN §15).
SAE_CONTAINER_SUBTYPE = 0x53


def sae_container_ie(payload: bytes) -> InformationElement:
    """Wrap an SAE commit/confirm payload for an auth frame's IE list."""
    return VendorIe(RSN_OUI, bytes([SAE_CONTAINER_SUBTYPE]) + payload).to_ie()


def sae_payload(ies: list) -> Optional[bytes]:
    """Extract an SAE payload from parsed auth-frame IEs, or None."""
    for el in ies:
        if (el.element_id == IeId.VENDOR_SPECIFIC and len(el.data) >= 4
                and el.data[:3] == RSN_OUI
                and el.data[3] == SAE_CONTAINER_SUBTYPE):
            return el.data[4:]
    return None


def _sorted_pair(a: bytes, b: bytes) -> bytes:
    return a + b if a <= b else b + a


class SaeParty:
    """One side (AP or STA) of a simplified SAE handshake.

    Symmetric by construction: both sides send a commit, process the
    peer's commit, send a confirm, verify the peer's confirm.  After a
    verified confirm, :attr:`pmk` holds the fresh 32-byte session key.
    """

    def __init__(self, password: str, own_mac: MacAddress,
                 peer_mac: MacAddress, rng, *,
                 group: DhGroup = DH_GROUP_1536) -> None:
        if group.name not in SAE_GROUP_IDS:
            raise SaeError(f"SAE has no wire id for DH group {group.name!r}")
        self.group = group
        self._password = password.encode("utf-8")
        self._macs = _sorted_pair(own_mac.bytes, peer_mac.bytes)
        self._dh = DiffieHellman(group, rng)
        self._element_len = (group.p.bit_length() + 7) // 8
        self._own_commit = (
            struct.pack("<H", SAE_GROUP_IDS[group.name])
            + self._dh.public.to_bytes(self._element_len, "big"))
        self._peer_commit: Optional[bytes] = None
        self._kck: Optional[bytes] = None
        self.pmk: Optional[bytes] = None
        self.confirmed = False

    # -- commit --------------------------------------------------------
    def commit_bytes(self) -> bytes:
        """Our commit message: group id + ephemeral element."""
        return self._own_commit

    def process_commit(self, raw: bytes) -> None:
        if len(raw) != 2 + self._element_len:
            raise SaeError(f"SAE commit wrong length ({len(raw)} bytes)")
        (group_id,) = struct.unpack("<H", raw[:2])
        if group_id != SAE_GROUP_IDS[self.group.name]:
            raise SaeError(f"SAE group mismatch (peer sent {group_id})")
        element = int.from_bytes(raw[2:], "big")
        if not self.group.validate_public(element):
            raise SaeError("degenerate SAE commit element")
        self._peer_commit = bytes(raw)
        shared = self._dh.shared_secret(element)
        # keyseed binds the password to the ephemeral secret: without
        # the password there is no way to compute kck, hence no way to
        # produce or verify a confirm.
        transcript = self._macs + _sorted_pair(self._own_commit,
                                               self._peer_commit)
        keyseed = hmac_sha1(self._password, shared + transcript)
        self._kck = hmac_sha1(keyseed, b"SAE KCK")
        self.pmk = (hmac_sha1(keyseed, b"SAE PMK" + b"\x00")
                    + hmac_sha1(keyseed, b"SAE PMK" + b"\x01"))[:_PMK_LEN]

    # -- confirm -------------------------------------------------------
    def confirm_bytes(self) -> bytes:
        """Transcript MAC proving we hold the password *and* the secret."""
        if self._kck is None or self._peer_commit is None:
            raise SaeError("SAE confirm before processing peer commit")
        return hmac_sha1(
            self._kck,
            b"sae-confirm" + self._own_commit + self._peer_commit,
        )[:_CONFIRM_LEN]

    def process_confirm(self, raw: bytes) -> bool:
        """Verify the peer's confirm; True marks the handshake complete."""
        if self._kck is None or self._peer_commit is None:
            return False
        expected = hmac_sha1(
            self._kck,
            b"sae-confirm" + self._peer_commit + self._own_commit,
        )[:_CONFIRM_LEN]
        if len(raw) == _CONFIRM_LEN and constant_time_equal(raw, expected):
            self.confirmed = True
            return True
        return False
