"""Wire-codec performance: encode caching and per-call codec timings.

Engineering telemetry for the ``repro.wire`` migration, not paper
reproduction.  Three claims are measured and asserted:

* re-encoding the *same* frame (the common case on the simulated air:
  every receiver, the sniffer, and the recorder all serialize one
  transmitted frame) hits the encode cache and is measurably faster
  than a cold encode;
* the cache hit rate in a realistic fan-out pattern is high, read from
  the ``codec.encode_cache.*`` counters;
* per-call ``codec.frame.encode`` / ``codec.frame.decode`` timings
  show the cached encodes next to full decodes.

Run with::

    pytest benchmarks/test_wire_codec.py --benchmark-only -s
"""

from __future__ import annotations

import time

from conftest import record_fields

from repro.dot11.frames import Dot11Frame, make_beacon, make_data
from repro.dot11.mac import MacAddress
from repro.netstack.addressing import IPv4Address
from repro.netstack.ipv4 import IPv4Packet
from repro.netstack.tcp import FLAG_ACK, TcpSegment
from repro.obs.runtime import collecting

AP = MacAddress("aa:bb:cc:dd:00:01")
STA = MacAddress("00:02:2d:00:00:07")
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")

#: Serializations of one transmitted frame in a 1-AP/3-STA cell:
#: per-receiver delivery x3, monitor-mode sniffer, recorder raw capture.
FANOUT = 5


def _fresh_data_frame(i: int = 0) -> Dot11Frame:
    return make_data(STA, AP, AP, bytes(range(200)), to_ds=True, seq=i & 0xFFF)


def test_encode_cache_hit_is_faster_than_cold_encode(benchmark):
    """One cold encode then repeated cached encodes, vs all-cold."""
    rounds = 2000

    def cached():
        frame = _fresh_data_frame()
        for _ in range(rounds):
            frame.to_bytes()

    def cold():
        for i in range(rounds):
            _fresh_data_frame(i).to_bytes()

    t0 = time.perf_counter()
    cold()
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    cached()
    t_cached = time.perf_counter() - t0
    speedup = t_cold / t_cached
    record_fields("wire", "encode_cache_speedup", rounds=rounds,
                  cold_ms=round(t_cold * 1e3, 1),
                  cached_ms=round(t_cached * 1e3, 1),
                  speedup=f"{speedup:.1f}x")
    # Cached encodes skip header pack, body concat, and CRC-32; anything
    # under 2x would mean the cache is not actually being hit.
    assert speedup > 2.0
    benchmark(cached)


def test_fanout_hit_rate_from_metrics():
    """A transmit fan-out pattern reports its hit rate via the registry."""
    with collecting() as col:
        for i in range(200):
            frame = make_beacon(AP, "CORP", 6, seq=i)
            for _ in range(FANOUT):
                frame.to_bytes()
    snap = col.registry.snapshot()
    hits = snap["codec.encode_cache.hits"]["value"]
    misses = snap["codec.encode_cache.misses"]["value"]
    hit_rate = hits / (hits + misses)
    record_fields("wire", "encode_cache_fanout", hits=hits, misses=misses,
                  **{"hit rate": f"{hit_rate:.1%}"})
    assert misses == 200                      # one cold encode per frame
    assert hit_rate >= (FANOUT - 1) / FANOUT  # every fan-out copy hits


def test_with_body_invalidates_the_cache():
    """Copy-on-write derivatives start cold — WEP encap must re-encode."""
    with collecting() as col:
        frame = _fresh_data_frame()
        frame.to_bytes()
        derived = frame.with_body(b"ciphertext " * 20, protected=True)
        assert derived.to_bytes() != frame.to_bytes()
    snap = col.registry.snapshot()
    assert snap["codec.encode_cache.misses"]["value"] == 2


def test_codec_frame_timings_show_cached_calls():
    """Per-call codec timings; cache hits make the mean encode cheap."""
    frame = _fresh_data_frame()
    t0 = time.perf_counter()
    raw = frame.to_bytes()
    for _ in range(99):
        assert frame.to_bytes() is raw
    encode_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(50):
        Dot11Frame.from_bytes(raw)
    decode_s = time.perf_counter() - t0
    record_fields("wire", "codec.frame.encode", calls=100,
                  mean_us=round(encode_s / 100 * 1e6, 2), cached="99%")
    record_fields("wire", "codec.frame.decode", calls=50,
                  mean_us=round(decode_s / 50 * 1e6, 2))


def test_netstack_encode_throughput(benchmark):
    """IPv4+TCP encode path (bytearray + in-place checksum patch)."""
    seg = TcpSegment(src_port=80, dst_port=1234, seq=1, ack=2,
                     flags=FLAG_ACK, payload=bytes(512))

    def encode():
        IPv4Packet(src=IP_A, dst=IP_B, proto=6,
                   payload=seg.to_bytes(IP_A, IP_B)).to_bytes()

    benchmark(encode)


def test_netstack_decode_throughput(benchmark):
    """Zero-copy decode path over a memoryview."""
    seg = TcpSegment(src_port=80, dst_port=1234, seq=1, ack=2,
                     flags=FLAG_ACK, payload=bytes(512))
    raw = IPv4Packet(src=IP_A, dst=IP_B, proto=6,
                     payload=seg.to_bytes(IP_A, IP_B)).to_bytes()

    def decode():
        pkt = IPv4Packet.from_bytes(memoryview(raw))
        TcpSegment.from_bytes(memoryview(pkt.payload), pkt.src, pkt.dst)

    benchmark(decode)
