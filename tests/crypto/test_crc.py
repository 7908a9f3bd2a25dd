"""CRC-32: the zlib fast path against the from-scratch reference, and linearity.

Each test that pins a value runs over both implementations (``IMPLS``), so
the reference is held to the published check value, not only to zlib.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.crypto.crc import crc32, crc32_combine_xor, crc32_reference, crc32_table

IMPLS = (("zlib", crc32), ("reference", crc32_reference))


@given(st.binary(max_size=2048))
def test_matches_zlib(data):
    assert crc32_reference(data) == crc32(data)


def test_known_values():
    for name, crc in IMPLS:
        assert crc(b"") == 0, name
        assert crc(b"123456789") == 0xCBF43926, name  # the standard check value


@given(st.binary(max_size=512), st.integers(min_value=0))
@example(b"hello world", 5)
def test_incremental_computation(data, cut):
    """zlib-style chaining: crc(b, crc(a)) == crc(a + b) at any split."""
    cut %= len(data) + 1
    whole = crc32(data)
    for name, crc in IMPLS:
        assert crc(data[cut:], crc(data[:cut])) == whole, name


def test_table_shape():
    table = crc32_table()
    assert len(table) == 256
    assert len(set(table)) == 256  # all entries distinct


@given(st.binary(min_size=4, max_size=64), st.binary(min_size=4, max_size=64))
def test_linearity_enables_wep_bit_flipping(a, b):
    """crc(a xor b) == crc(a) xor crc(b) xor crc(0^len).

    This identity is why WEP's encrypted CRC provides no integrity:
    an attacker XORs a delta into the ciphertext and the matching
    CRC delta into the encrypted ICV, never knowing the key.
    """
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    xored = bytes(x ^ y for x, y in zip(a, b))
    for name, crc in IMPLS:
        assert crc(xored) == crc32_combine_xor(crc(a), crc(b), crc(b"\x00" * n)), name
