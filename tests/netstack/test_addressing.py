"""IPv4Address and Network."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netstack.addressing import IPv4Address, Network


def test_parse_forms():
    a = IPv4Address("10.0.0.1")
    assert int(a) == 0x0A000001
    assert IPv4Address(b"\x0a\x00\x00\x01") == a
    assert IPv4Address(0x0A000001) == a
    assert IPv4Address(a) == a
    assert str(a) == "10.0.0.1"


def test_parse_rejects_malformed():
    for bad in ("10.0.0", "10.0.0.256", "a.b.c.d", "1.2.3.4.5", ""):
        with pytest.raises(ValueError):
            IPv4Address(bad)
    with pytest.raises(ValueError):
        IPv4Address(b"\x00" * 3)
    with pytest.raises(ValueError):
        IPv4Address(-1)
    with pytest.raises(TypeError):
        IPv4Address(1.5)


def test_equality_with_strings_and_hash():
    a = IPv4Address("192.168.1.1")
    assert a == "192.168.1.1"
    assert a != "192.168.1.2"
    assert len({IPv4Address("1.1.1.1"), IPv4Address("1.1.1.1")}) == 1


def test_ordering():
    assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")
    assert max(IPv4Address("1.0.0.0"), IPv4Address("2.0.0.0")) == "2.0.0.0"


def test_special_addresses():
    assert IPv4Address("255.255.255.255").is_broadcast
    assert IPv4Address("224.0.0.1").is_multicast
    assert IPv4Address("0.0.0.0").is_unspecified
    assert not IPv4Address("10.0.0.1").is_broadcast


def test_immutability():
    a = IPv4Address("10.0.0.1")
    with pytest.raises(AttributeError):
        a._value = 5


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_int_roundtrip(v):
    assert int(IPv4Address(v)) == v
    assert IPv4Address(str(IPv4Address(v))) == IPv4Address(v)


def test_network_basics():
    net = Network("10.0.0.0/24")
    assert str(net.netmask) == "255.255.255.0"
    assert str(net.broadcast) == "10.0.0.255"
    assert IPv4Address("10.0.0.42") in net
    assert IPv4Address("10.0.1.1") not in net
    assert "10.0.0.1" in net


def test_network_normalizes_host_bits():
    assert Network("10.0.0.77/24").address == "10.0.0.0"


def test_network_prefix_edges():
    assert IPv4Address("1.2.3.4") in Network("0.0.0.0/0")
    host = Network("10.0.0.5/32")
    assert IPv4Address("10.0.0.5") in host
    assert IPv4Address("10.0.0.6") not in host


def test_network_invalid():
    with pytest.raises(ValueError):
        Network("10.0.0.0")
    with pytest.raises(ValueError):
        Network("10.0.0.0/33")


def test_network_hosts_iteration():
    hosts = list(Network("192.168.0.0/29").hosts())
    assert len(hosts) == 6
    assert hosts[0] == "192.168.0.1"
    assert hosts[-1] == "192.168.0.6"


def test_from_ip_netmask():
    net = Network.from_ip_netmask("10.0.0.23", "255.255.255.0")
    assert net == Network("10.0.0.0/24")
    with pytest.raises(ValueError):
        Network.from_ip_netmask("10.0.0.1", "255.0.255.0")


def test_network_equality_hash():
    assert Network("10.0.0.0/24") == Network("10.0.0.99/24")
    assert len({Network("10.0.0.0/24"), Network("10.0.0.0/24")}) == 1
    assert Network("10.0.0.0/24") != Network("10.0.0.0/25")


@given(st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=0, max_value=32),
       st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_membership_and_broadcast_match_mask_arithmetic(base, prefix, addr):
    net = Network(IPv4Address(base), prefix)
    mask = (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF
    inside = (addr & mask) == int(net.address)
    ip = IPv4Address(addr)
    assert (ip in net) is inside
    assert (str(ip) in net) is inside
    assert (addr in net) is inside
    assert (ip.bytes in net) is inside
    assert int(net.broadcast) == int(net.address) | (~mask & 0xFFFFFFFF)
    assert net.broadcast is net.broadcast  # computed once


def test_membership_rejects_bad_input():
    net = Network("10.0.0.0/24")
    with pytest.raises(ValueError):
        "10.0.0" in net
    with pytest.raises(ValueError):
        2**32 in net
    with pytest.raises(TypeError):
        1.5 in net
