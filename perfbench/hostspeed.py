"""Host speed, sampled between operations, to normalise host times.

The host this benchmark runs on changes speed by up to 1.8x in spells of
seconds to minutes, with process CPU time equal to wall time: the process is
not descheduled, it runs slower.  So every run times a fixed *reference*
workload between its operations, and each operation's host time is scaled
by the reference's nominal time over the median of the reference times
measured within ``WINDOW_S`` of that operation.  A normalised time is the
time the operation would take on a host where the reference takes
``NOMINAL_S``.

The reference imports nothing from the program, so a change to the program
never changes it.  It is a small discrete-event loop of the same kind of
Python the program is made of: a ``heapq`` event queue, slotted packet
objects, a pure-Python RC4, ``struct``, CRC-32, SHA-1 and dict updates.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import statistics
import struct
import zlib
from time import perf_counter

#: events in one reference sample (about 16 ms on a fast spell)
REFERENCE_EVENTS = 300
#: the reference sample's time on the host normalised times refer to
NOMINAL_S = 0.016
#: host time between reference samples
SAMPLE_EVERY_S = 0.25
#: samples this close to an operation set its scale
WINDOW_S = 1.0


class _Packet:
    __slots__ = ("src", "dst", "seq", "body")

    def __init__(self, src: int, dst: int, seq: int, body: bytes) -> None:
        self.src = src
        self.dst = dst
        self.seq = seq
        self.body = body


def _rc4(key: bytes, data: bytes) -> bytes:
    s = list(range(256))
    j = 0
    for i in range(256):
        j = (j + s[i] + key[i % len(key)]) & 255
        s[i], s[j] = s[j], s[i]
    out = bytearray(len(data))
    i = j = 0
    for n, byte in enumerate(data):
        i = (i + 1) & 255
        j = (j + s[i]) & 255
        s[i], s[j] = s[j], s[i]
        out[n] = byte ^ s[(s[i] + s[j]) & 255]
    return bytes(out)


def reference(events: int = REFERENCE_EVENTS) -> int:
    """The reference workload; returns a checksum so it cannot be skipped."""
    queue: list = []
    seq = 0
    for node in range(32):
        heapq.heappush(queue, (node * 0.001, seq, node))
        seq += 1
    stats: dict = {}
    for done in range(events):
        t, _, node = heapq.heappop(queue)
        key = struct.pack(">I", done) + b"reference-key"
        packet = _Packet(node, (node * 7) % 32, done,
                         bytes((done + i) & 255 for i in range(64)))
        crc = zlib.crc32(_rc4(key, packet.body))
        header = struct.pack("<HHI", packet.src, packet.dst, crc)
        entry = stats.setdefault(packet.dst, {"n": 0, "x": 0})
        entry["n"] += 1
        entry["x"] ^= crc
        if done % 16 == 0:
            hashlib.sha1(header + packet.body).digest()
        heapq.heappush(queue, (t + 0.001 * (1 + (crc & 7)), seq,
                               packet.dst))
        seq += 1
    return sum(e["x"] for e in stats.values())


class HostSpeed:
    """Reference samples taken between operations, and the scaling they
    give an operation that ran between two of them."""

    def __init__(self) -> None:
        reference()  # untimed: the first call warms the interpreter
        # the samples' start and end times and durations, in time order
        self.starts: list = []
        self.ends: list = []
        self.durations: list = []

    def sample(self) -> float:
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        return t1 - t0

    def between_ops(self) -> None:
        """Take a sample if ``SAMPLE_EVERY_S`` has passed since the last."""
        if not self.ends or perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Nominal ÷ the median reference time within ``WINDOW_S`` of
        ``[start, end]``, always counting the last sample before ``start``
        and the first after ``end``."""
        lo = min(bisect.bisect_left(self.ends, start - WINDOW_S),
                 max(bisect.bisect_right(self.ends, start) - 1, 0))
        hi = max(bisect.bisect_right(self.starts, end + WINDOW_S),
                 bisect.bisect_left(self.starts, end) + 1)
        around = self.durations[lo:hi]
        if not around:
            raise ValueError("no reference sample around the operation")
        return NOMINAL_S / statistics.median(around)

    def normalised(self, wall_s: float, start: float) -> float:
        """``wall_s`` of an operation that began at ``start``, scaled."""
        return wall_s * self.scale(start, start + wall_s)
