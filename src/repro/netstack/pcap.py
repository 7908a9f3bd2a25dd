"""IP-layer packet capture (tcpdump on a host interface).

Distinct from the radio-layer :mod:`repro.dot11.capture`: this taps the
IP path of a *host* — the rogue gateway uses one to observe victim
flows, and tests use them to assert exactly what crossed each hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.netstack.addressing import IPv4Address
from repro.netstack.ipv4 import PROTO_TCP, PROTO_UDP, IPv4Packet
from repro.netstack.tcp import TcpSegment
from repro.netstack.udp import UdpDatagram

__all__ = ["CapturedPacket", "PacketCapture"]


@dataclass(frozen=True)
class CapturedPacket:
    """One captured IP packet with direction and interface metadata."""

    time: float
    direction: str  # "in" | "out" | "forward"
    interface: str
    packet: IPv4Packet

    def ports(self) -> Optional[tuple[int, int]]:
        p = self.packet
        if p.proto not in (PROTO_TCP, PROTO_UDP) or len(p.payload) < 4:
            return None
        return (
            int.from_bytes(p.payload[0:2], "big"),
            int.from_bytes(p.payload[2:4], "big"),
        )

    def tcp(self) -> Optional[TcpSegment]:
        if self.packet.proto != PROTO_TCP:
            return None
        # memoryview: header fields are unpacked in place; only the
        # payload slice is materialized (zero-copy decode contract).
        return TcpSegment.from_bytes(memoryview(self.packet.payload),
                                     self.packet.src, self.packet.dst,
                                     verify_checksum=False)

    def udp(self) -> Optional[UdpDatagram]:
        if self.packet.proto != PROTO_UDP:
            return None
        return UdpDatagram.from_bytes(memoryview(self.packet.payload),
                                      self.packet.src, self.packet.dst,
                                      verify_checksum=False)


class PacketCapture:
    """Append-only IP capture with display-filter-style selection."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.packets: list[CapturedPacket] = []
        self.capacity = capacity
        self._taps: list[Callable[[CapturedPacket], None]] = []

    def add(self, captured: CapturedPacket) -> None:
        self.packets.append(captured)
        if self.capacity is not None and len(self.packets) > self.capacity:
            # drop the oldest half, and always enough to restore
            # ``len(packets) <= capacity`` (``capacity // 2`` is 0 at 1)
            drop = max(len(self.packets) - self.capacity, self.capacity // 2)
            del self.packets[:drop]
        for tap in self._taps:
            tap(captured)

    def tap(self, callback: Callable[[CapturedPacket], None]) -> None:
        self._taps.append(callback)

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[CapturedPacket]:
        return iter(self.packets)

    def select(
        self,
        src: Optional[IPv4Address] = None,
        dst: Optional[IPv4Address] = None,
        proto: Optional[int] = None,
        dport: Optional[int] = None,
        direction: Optional[str] = None,
        since: float = 0.0,
    ) -> Iterator[CapturedPacket]:
        for cap in self.packets:
            if cap.time < since:
                continue
            p = cap.packet
            if src is not None and p.src != src:
                continue
            if dst is not None and p.dst != dst:
                continue
            if proto is not None and p.proto != proto:
                continue
            if direction is not None and cap.direction != direction:
                continue
            if dport is not None:
                ports = cap.ports()
                if ports is None or ports[1] != dport:
                    continue
            yield cap

    def count(self, **kw) -> int:
        return sum(1 for _ in self.select(**kw))

    def payload_stream(self, src: IPv4Address, dst: IPv4Address) -> bytes:
        """Concatenated TCP payload bytes seen from src to dst (sniffed stream)."""
        chunks: list[tuple[int, bytes]] = []
        seen: set[int] = set()
        for cap in self.select(src=src, dst=dst, proto=PROTO_TCP):
            seg = cap.tcp()
            if seg and seg.payload and seg.seq not in seen:
                seen.add(seg.seq)
                chunks.append((seg.seq, seg.payload))
        chunks.sort(key=lambda c: c[0])
        return b"".join(payload for _, payload in chunks)
