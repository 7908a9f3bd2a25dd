"""From-scratch cryptographic primitives used by the reproduction.

The paper's attack and defense both hinge on *real* cryptography:

* WEP uses RC4 with a 24-bit IV and a CRC-32 integrity check value;
  its famous weakness (Fluhrer–Mantin–Shamir, reference [3] of the
  paper) is what lets an outside attacker "retrieve the WEP key via
  Airsnort" (§4).  We implement RC4, WEP, and the FMS key-recovery
  attack from first principles.
* The download page publishes an MD5SUM; the attack's punchline is
  that the victim's MD5 verification *passes* on the trojaned binary
  because netsed also rewrote the published digest.  MD5 is
  implemented from scratch (RFC 1321).
* The PPP-over-SSH VPN (§5.3) needs a key exchange, a stream cipher and
  a MAC: classic finite-field Diffie–Hellman, RC4, and HMAC-SHA1
  (RFC 2104 / FIPS 180-1), all implemented here.

CRC-32, MD5, SHA-1 and HMAC exist twice: a from-scratch reference
(``crc32_reference``, ``MD5``, ``SHA1``, ``hmac``) that the tests pin to
the published vectors, and the one-shot functions the simulation calls,
which compute the same digests in C through ``zlib``, ``hashlib`` and
``hmac``.

None of this is intended for production use — it exists so that the
paper's experiments run on genuine cryptographic behaviour rather than
boolean flags.
"""

from repro.crypto.crc import crc32
from repro.crypto.dh import DiffieHellman, DH_GROUP_1536
from repro.crypto.fms import FmsAttack, FmsSample, is_weak_iv
from repro.crypto.hmac import hmac, hmac_md5, hmac_sha1
from repro.crypto.keystore import KeyStore
from repro.crypto.md5 import md5, md5_hexdigest
from repro.crypto.rc4 import RC4, rc4_crypt, rc4_keystream
from repro.crypto.sha1 import sha1, sha1_hexdigest
from repro.crypto.tkip import MichaelMic, TkipSession
from repro.crypto.wep import WepError, WepKey, wep_decrypt, wep_encrypt

__all__ = [
    "DH_GROUP_1536",
    "DiffieHellman",
    "FmsAttack",
    "FmsSample",
    "KeyStore",
    "MichaelMic",
    "RC4",
    "TkipSession",
    "WepError",
    "WepKey",
    "crc32",
    "hmac",
    "hmac_md5",
    "hmac_sha1",
    "is_weak_iv",
    "md5",
    "md5_hexdigest",
    "rc4_crypt",
    "rc4_keystream",
    "sha1",
    "sha1_hexdigest",
    "wep_decrypt",
    "wep_encrypt",
]
