"""HMAC: the stdlib fast path against the RFC 2104 reference, plus RFC 2202 vectors.

Each test that pins a value runs over both implementations
(``HMAC_SHA1_IMPLS``), so the reference is held to the published
vectors, not only to the stdlib.
"""

import hashlib
import hmac as stdhmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hmac import constant_time_equal, hmac, hmac_md5, hmac_sha1
from repro.crypto.md5 import MD5
from repro.crypto.sha1 import SHA1

HMAC_SHA1_IMPLS = (("stdlib", hmac_sha1), ("reference", lambda k, m: hmac(k, m, SHA1)))

RFC2202_SHA1 = [
    (b"\x0b" * 20, b"Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?",
     "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
]


@pytest.mark.parametrize("key,msg,expected", RFC2202_SHA1)
def test_rfc2202_sha1_vectors(key, msg, expected):
    for name, mac in HMAC_SHA1_IMPLS:
        assert mac(key, msg).hex() == expected, name


@given(st.binary(min_size=1, max_size=200), st.binary(max_size=500))
def test_hmac_sha1_matches_stdlib(key, msg):
    assert hmac(key, msg, SHA1) == hmac_sha1(key, msg)


@given(st.binary(min_size=1, max_size=200), st.binary(max_size=500))
def test_hmac_md5_matches_stdlib(key, msg):
    assert hmac(key, msg, MD5) == hmac_md5(key, msg)


def test_key_longer_than_block_is_hashed_first():
    for size in (63, 64, 65, 200):  # around the 64-byte block
        key = b"k" * size
        expected = stdhmac.new(key, b"m", hashlib.sha1).digest()
        for name, mac in HMAC_SHA1_IMPLS:
            assert mac(key, b"m") == expected, (name, size)


def test_different_keys_different_macs():
    assert hmac_sha1(b"key1", b"msg") != hmac_sha1(b"key2", b"msg")


def test_constant_time_equal():
    assert constant_time_equal(b"abc", b"abc")
    assert not constant_time_equal(b"abc", b"abd")
    assert not constant_time_equal(b"abc", b"abcd")
    assert constant_time_equal(b"", b"")
    # any bytes-like argument compares by content
    assert constant_time_equal(memoryview(b"xabc")[1:], b"abc")
    assert constant_time_equal(bytearray(b"abc"), b"abc")
    assert not constant_time_equal(memoryview(b"abd"), bytearray(b"abc"))
    assert not constant_time_equal(bytearray(b"ab"), b"abc")
