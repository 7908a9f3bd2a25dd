"""Key once: the memoized one-shot RC4 against the stateful reference.

``rc4_crypt(key, data)`` keeps recent keystreams, so these properties
interleave keys and lengths the way a world does (sender, receivers,
other stations reusing an IV) and check every call against a fresh
``RC4(key).crypt(data)``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import rc4
from repro.crypto.rc4 import KEYSTREAM_MEMO_SIZE, RC4, rc4_crypt

#: WEP-40 / WEP-104 per-packet keys (IV || root key) and TKIP packet keys
keys = st.one_of(st.binary(min_size=8, max_size=8),
                 st.binary(min_size=16, max_size=16))


@settings(max_examples=60, deadline=None)
@given(pool=st.lists(keys, min_size=1, max_size=6, unique=True),
       calls=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2400),
                                st.integers(0, 255)),
                      min_size=1, max_size=12))
def test_interleaved_calls_equal_the_reference(pool, calls):
    for pick, length, fill in calls:
        key = pool[pick % len(pool)]
        data = bytes((fill + i) & 0xFF for i in range(length))
        assert rc4_crypt(key, data) == RC4(key).crypt(data)


@pytest.mark.parametrize("first,second", [(1500, 40), (40, 1500), (0, 9),
                                          (9, 0), (300, 300)])
def test_shorter_and_longer_after_each_other(first, second):
    # a key of its own, so no earlier case has warmed it
    key = f"{first}/{second}".encode().ljust(16, b"\x00")
    for n in (first, second, first):
        data = bytes(range(256)) * (n // 256) + bytes(range(n % 256))
        assert rc4_crypt(key, data) == RC4(key).crypt(data)


def test_more_distinct_keys_than_the_bound():
    distinct = KEYSTREAM_MEMO_SIZE + 40
    data = b"\xaa\xaa\x03\x00\x00\x00\x08\x00"
    wanted = {}
    for rounds in range(2):  # the second pass finds the first evicted
        for k in range(distinct):
            key = k.to_bytes(3, "big") + b"SECRET"
            got = rc4_crypt(key, data)
            if rounds == 0:
                wanted[key] = RC4(key).crypt(data)
            assert got == wanted[key]
    assert len(rc4._keystreams) <= KEYSTREAM_MEMO_SIZE


def test_decrypt_of_encrypt_is_identity_with_a_warm_memo():
    key = b"\x00\x00\x07" + b"\x11" * 13
    plain = b"GET /file.tgz HTTP/1.0\r\n\r\n"
    cipher = rc4_crypt(key, plain)
    assert rc4_crypt(key, cipher) == plain
    assert rc4_crypt(bytearray(key), memoryview(cipher)) == plain


def test_empty_key_is_rejected_like_the_reference():
    with pytest.raises(ValueError):
        RC4(b"").crypt(b"x")
    with pytest.raises(ValueError):
        rc4_crypt(b"", b"x")
