"""MD5 and SHA-1: the hashlib fast path against the from-scratch reference.

Each test that pins a value runs over both implementations (``*_IMPLS``),
so the reference is held to the RFC 1321 / FIPS 180-1 vectors, not only
to hashlib.
"""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.md5 import MD5, md5, md5_hexdigest
from repro.crypto.sha1 import SHA1, sha1, sha1_hexdigest

MD5_IMPLS = (("hashlib", md5_hexdigest), ("reference", lambda d: MD5(d).hexdigest()))
SHA1_IMPLS = (("hashlib", sha1_hexdigest), ("reference", lambda d: SHA1(d).hexdigest()))

RFC1321_VECTORS = [
    (b"", "d41d8cd98f00b204e9800998ecf8427e"),
    (b"a", "0cc175b9c0f1b6a831c399e269772661"),
    (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
    (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
    (b"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
]


@pytest.mark.parametrize("data,expected", RFC1321_VECTORS)
def test_md5_rfc1321_vectors(data, expected):
    for name, hexdigest in MD5_IMPLS:
        assert hexdigest(data) == expected, name


def test_sha1_fips_vectors():
    for name, hexdigest in SHA1_IMPLS:
        assert hexdigest(b"abc") == "a9993e364706816aba3e25717850c26c9cd0d89d", name
        assert hexdigest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq") == \
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1", name


@pytest.mark.parametrize("n", [0, 1, 55, 56, 57, 63, 64, 65, 119, 128, 1000])
def test_md5_padding_boundaries(n):
    data = b"a" * n
    for name, hexdigest in MD5_IMPLS:
        assert hexdigest(data) == hashlib.md5(data).hexdigest(), name


@pytest.mark.parametrize("n", [0, 1, 55, 56, 57, 63, 64, 65, 119, 128, 1000])
def test_sha1_padding_boundaries(n):
    data = b"b" * n
    for name, hexdigest in SHA1_IMPLS:
        assert hexdigest(data) == hashlib.sha1(data).hexdigest(), name


@given(st.binary(max_size=4096))
def test_md5_matches_hashlib(data):
    assert MD5(data).digest() == md5(data)


@given(st.binary(max_size=4096))
def test_sha1_matches_hashlib(data):
    assert SHA1(data).digest() == sha1(data)


@given(st.lists(st.binary(max_size=100), max_size=10))
def test_incremental_update_equals_one_shot(chunks):
    joined = b"".join(chunks)
    m = MD5()
    s = SHA1()
    for chunk in chunks:
        m.update(chunk)
        s.update(chunk)
    assert m.digest() == md5(joined) == MD5(joined).digest()
    assert s.digest() == sha1(joined) == SHA1(joined).digest()


def test_digest_is_idempotent_mid_stream():
    m = MD5(b"hello")
    first = m.digest()
    assert m.digest() == first
    m.update(b" world")
    assert m.digest() == md5(b"hello world")


def test_copy_is_independent():
    a = SHA1(b"base")
    b = a.copy()
    b.update(b"more")
    assert a.digest() == sha1(b"base")
    assert b.digest() == sha1(b"basemore")
