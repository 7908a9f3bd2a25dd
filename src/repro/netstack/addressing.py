"""IPv4 addresses and CIDR networks."""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator

__all__ = ["IPv4Address", "Network"]


@total_ordering
class IPv4Address:
    """An immutable IPv4 address.

    Accepts dotted-quad strings, 4 raw bytes, a 32-bit int, or another
    address.

    Examples
    --------
    >>> int(IPv4Address("10.0.0.1"))
    167772161
    >>> IPv4Address("10.0.0.1").bytes.hex()
    '0a000001'
    """

    __slots__ = ("_value",)

    def __init__(self, value: "str | bytes | int | IPv4Address") -> None:
        if isinstance(value, IPv4Address):
            v = value._value
        elif isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise ValueError("IPv4 int out of range")
            v = value
        elif isinstance(value, bytes):
            if len(value) != 4:
                raise ValueError("IPv4 bytes must be length 4")
            v = int.from_bytes(value, "big")
        elif isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"malformed IPv4 address: {value!r}")
            octets = []
            for p in parts:
                n = int(p)
                if not 0 <= n <= 255:
                    raise ValueError(f"malformed IPv4 address: {value!r}")
                octets.append(n)
            v = int.from_bytes(bytes(octets), "big")
        else:
            raise TypeError(f"cannot build IPv4Address from {type(value).__name__}")
        object.__setattr__(self, "_value", v)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("IPv4Address is immutable")

    @property
    def bytes(self) -> bytes:
        return self._value.to_bytes(4, "big")

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        return ".".join(str(b) for b in self.bytes)

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        if isinstance(other, str):
            try:
                return self._value == IPv4Address(other)._value
            except ValueError:
                return False
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)

    @property
    def is_broadcast(self) -> bool:
        return self._value == 0xFFFFFFFF

    @property
    def is_multicast(self) -> bool:
        return 0xE0000000 <= self._value < 0xF0000000

    @property
    def is_unspecified(self) -> bool:
        return self._value == 0


class Network:
    """A CIDR network, e.g. ``Network("10.0.0.0/24")``."""

    __slots__ = ("address", "prefix_len", "_netmask", "_broadcast")

    def __init__(self, cidr: "str | Network", prefix_len: int | None = None) -> None:
        if isinstance(cidr, Network):
            address, prefix_len = cidr.address, cidr.prefix_len
        elif prefix_len is None:
            text, _, plen = cidr.partition("/")
            if not plen:
                raise ValueError(f"missing prefix length in {cidr!r}")
            address, prefix_len = IPv4Address(text), int(plen)
        else:
            address = IPv4Address(cidr)
        if not 0 <= prefix_len <= 32:
            raise ValueError("prefix length must be 0..32")
        mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF if prefix_len else 0
        object.__setattr__(self, "prefix_len", prefix_len)
        object.__setattr__(self, "_netmask", mask)
        object.__setattr__(self, "address", IPv4Address(int(address) & mask))
        object.__setattr__(self, "_broadcast", IPv4Address(
            self.address._value | (~mask & 0xFFFFFFFF)))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Network is immutable")

    @property
    def netmask(self) -> IPv4Address:
        return IPv4Address(self._netmask)

    @property
    def broadcast(self) -> IPv4Address:
        return self._broadcast

    def __contains__(self, ip: "IPv4Address | str | int | bytes") -> bool:
        if not isinstance(ip, IPv4Address):
            ip = IPv4Address(ip)  # str, int or bytes; ValueError / TypeError
        return (ip._value & self._netmask) == self.address._value

    def hosts(self) -> Iterator[IPv4Address]:
        """Usable host addresses (network and broadcast excluded for /0../30)."""
        lo, hi = int(self.address), int(self.broadcast)
        if self.prefix_len >= 31:
            for v in range(lo, hi + 1):
                yield IPv4Address(v)
        else:
            for v in range(lo + 1, hi):
                yield IPv4Address(v)

    def __str__(self) -> str:
        return f"{self.address}/{self.prefix_len}"

    def __repr__(self) -> str:
        return f"Network('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Network):
            return self.address == other.address and self.prefix_len == other.prefix_len
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.address, self.prefix_len))

    @classmethod
    def from_ip_netmask(cls, ip: "IPv4Address | str", netmask: "IPv4Address | str") -> "Network":
        mask = int(IPv4Address(netmask))
        prefix = bin(mask).count("1")
        # Validate the mask is contiguous ones.
        if mask != ((0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF if prefix else 0):
            raise ValueError(f"non-contiguous netmask {netmask}")
        return cls(str(IPv4Address(int(IPv4Address(ip)) & mask)), prefix)
