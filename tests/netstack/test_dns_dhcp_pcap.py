"""DNS and DHCP message formats; IP-layer packet capture."""

import pytest

from repro.dot11.mac import MacAddress
from repro.netstack.addressing import IPv4Address, Network
from repro.netstack.dhcp import DhcpMessage, DhcpMessageType, LeasePool
from repro.netstack.dns import DnsMessage, DnsZone
from repro.netstack.ipv4 import PROTO_TCP, PROTO_UDP, IPv4Packet
from repro.netstack.pcap import CapturedPacket, PacketCapture
from repro.netstack.tcp import FLAG_ACK, TcpSegment
from repro.netstack.udp import UdpDatagram
from repro.sim.errors import ProtocolError

IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")


# ----------------------------------------------------------------------
# DNS
# ----------------------------------------------------------------------

def test_dns_query_response_roundtrip():
    q = DnsMessage.query(0x1234, "www.example.com")
    parsed = DnsMessage.from_bytes(q.to_bytes())
    assert parsed == q and not parsed.is_response
    r = q.answered(IPv4Address("93.184.216.34"))
    parsed_r = DnsMessage.from_bytes(r.to_bytes())
    assert parsed_r.is_response
    assert parsed_r.txn_id == 0x1234
    assert parsed_r.answers == (IPv4Address("93.184.216.34"),)


def test_dns_empty_answer():
    r = DnsMessage.query(1, "nx.example").answered()
    assert DnsMessage.from_bytes(r.to_bytes()).answers == ()


def test_dns_malformed():
    with pytest.raises(ProtocolError):
        DnsMessage.from_bytes(b"\x00\x01")


def test_dns_zone_case_insensitive():
    zone = DnsZone({"WWW.Example.COM": "1.2.3.4"})
    assert zone.resolve("www.example.com") == IPv4Address("1.2.3.4")
    assert zone.resolve("other.com") is None
    assert len(zone) == 1


# ----------------------------------------------------------------------
# DHCP
# ----------------------------------------------------------------------

def test_dhcp_roundtrip():
    mac = MacAddress("00:02:2d:00:00:01")
    msg = DhcpMessage(
        message_type=DhcpMessageType.ACK, xid=0xCAFEBABE, client_mac=mac,
        your_ip=IPv4Address("192.168.7.100"), server_ip=IPv4Address("192.168.7.1"),
        gateway=IPv4Address("192.168.7.1"), dns_server=IPv4Address("192.168.7.1"),
        netmask=IPv4Address("255.255.255.0"),
    )
    assert DhcpMessage.from_bytes(msg.to_bytes()) == msg


def test_dhcp_malformed():
    with pytest.raises(ProtocolError):
        DhcpMessage.from_bytes(b"\x01\x00")
    bad = bytearray(DhcpMessage(DhcpMessageType.DISCOVER, 1,
                                MacAddress(b"\x00" * 6)).to_bytes())
    bad[0] = 99
    with pytest.raises(ProtocolError):
        DhcpMessage.from_bytes(bytes(bad))


def test_lease_pool_stable_per_mac():
    pool = LeasePool(Network("192.168.7.0/24"))
    m1 = MacAddress("00:00:00:00:00:01")
    m2 = MacAddress("00:00:00:00:00:02")
    ip1 = pool.lease_for(m1)
    ip2 = pool.lease_for(m2)
    assert ip1 != ip2
    assert pool.lease_for(m1) == ip1  # stable
    assert len(pool) == 2
    assert ip1 in Network("192.168.7.0/24")


def test_lease_pool_exhaustion():
    pool = LeasePool(Network("10.0.0.0/30"), first_host=1)
    pool.lease_for(MacAddress(b"\x00" * 5 + b"\x01"))
    pool.lease_for(MacAddress(b"\x00" * 5 + b"\x02"))
    with pytest.raises(ProtocolError):
        pool.lease_for(MacAddress(b"\x00" * 5 + b"\x03"))


# ----------------------------------------------------------------------
# pcap
# ----------------------------------------------------------------------

def _tcp_cap(t, src, dst, sport, dport, payload, seq=0, direction="forward"):
    seg = TcpSegment(src_port=sport, dst_port=dport, seq=seq, ack=0,
                     flags=FLAG_ACK, payload=payload)
    pkt = IPv4Packet(src=src, dst=dst, proto=PROTO_TCP,
                     payload=seg.to_bytes(src, dst))
    return CapturedPacket(time=t, direction=direction, interface="eth0", packet=pkt)


def test_capture_filters():
    cap = PacketCapture()
    cap.add(_tcp_cap(1.0, IP_A, IP_B, 100, 80, b"one"))
    cap.add(_tcp_cap(2.0, IP_B, IP_A, 80, 100, b"two"))
    assert cap.count(src=IP_A) == 1
    assert cap.count(dport=80) == 1
    assert cap.count(proto=PROTO_TCP) == 2
    assert cap.count(since=1.5) == 1
    assert cap.count(direction="forward") == 2


def test_capture_decoders():
    cap = PacketCapture()
    cap.add(_tcp_cap(1.0, IP_A, IP_B, 100, 80, b"hi"))
    c = cap.packets[0]
    assert c.ports() == (100, 80)
    assert c.tcp().payload == b"hi"
    assert c.udp() is None


def test_payload_stream_reassembles_in_seq_order():
    cap = PacketCapture()
    cap.add(_tcp_cap(1.0, IP_A, IP_B, 9, 80, b"world", seq=105))
    cap.add(_tcp_cap(2.0, IP_A, IP_B, 9, 80, b"hello", seq=100))
    cap.add(_tcp_cap(3.0, IP_A, IP_B, 9, 80, b"hello", seq=100))  # dup
    assert cap.payload_stream(IP_A, IP_B) == b"helloworld"


def test_capture_capacity():
    # capacity 1 once evicted nothing (``capacity // 2 == 0``) and grew
    for capacity in (1, 2, 4):
        cap = PacketCapture(capacity=capacity)
        for i in range(10):
            cap.add(_tcp_cap(float(i), IP_A, IP_B, 1, 2, b"x"))
            assert len(cap) <= capacity
        assert cap.packets[-1].time == 9.0  # the newest is kept
