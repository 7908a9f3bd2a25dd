"""Decode once: the per-frame beacon memo and the MAC text memo.

Every receiver of a transmission shares one frame object, so the first
``parse_beacon()`` is kept on the frame and ``str(mac)`` on the address.
These properties pin both memos to a fresh decode of the same bytes.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dot11.frames import (
    BeaconInfo,
    Dot11Frame,
    make_beacon,
    make_probe_response,
)
from repro.dot11.ies import IeId, InformationElement
from repro.dot11.mac import MacAddress
from repro.sim.errors import ProtocolError

macs = st.binary(min_size=6, max_size=6).map(MacAddress)

optional_ies = st.lists(
    st.one_of(
        st.binary(max_size=40).map(
            lambda d: InformationElement(IeId.RSN, d)),
        st.tuples(st.integers(0, 1), st.integers(1, 14), st.integers(0, 255))
        .map(lambda t: InformationElement(IeId.CHANNEL_SWITCH, bytes(t))),
        st.binary(min_size=3, max_size=60).map(
            lambda d: InformationElement(IeId.VENDOR_SPECIFIC, d)),
    ),
    max_size=3,
)


@st.composite
def beacon_frames(draw):
    bssid = draw(macs)
    ssid = draw(st.text(max_size=10).filter(
        lambda s: len(s.encode("utf-8")) <= 32))
    channel = draw(st.integers(1, 14))
    privacy = draw(st.booleans())
    timestamp = draw(st.integers(0, 2**64 - 1))
    extra = draw(optional_ies)
    if draw(st.booleans()):
        return make_beacon(bssid, ssid, channel, privacy=privacy,
                           interval_tu=draw(st.integers(1, 0xFFFF)),
                           timestamp=timestamp, extra_ies=extra,
                           seq=draw(st.integers(0, 4095)))
    return make_probe_response(bssid, draw(macs), ssid, channel,
                               privacy=privacy, timestamp=timestamp,
                               extra_ies=extra)


@settings(max_examples=100, deadline=None)
@given(frame=beacon_frames())
def test_repeated_parse_equals_parse_of_a_decoded_copy(frame):
    fresh = Dot11Frame.from_bytes(frame.to_bytes()).parse_beacon()
    first = frame.parse_beacon()
    assert first == fresh
    assert frame.parse_beacon() is first
    assert frame.parse_beacon() == fresh


@settings(max_examples=50, deadline=None)
@given(frame=beacon_frames(), other=beacon_frames())
def test_with_body_copy_parses_its_new_body(frame, other):
    frame.parse_beacon()  # warm the original
    copied = frame.with_body(other.body)
    want = Dot11Frame.from_bytes(copied.to_bytes()).parse_beacon()
    assert copied.parse_beacon() == want
    assert copied.parse_beacon().ssid == other.parse_beacon().ssid


@settings(max_examples=50, deadline=None)
@given(frame=beacon_frames(),
       cut=st.sampled_from(["last-ie", "overlong-ie", "fixed-fields"]))
def test_truncated_body_raises_on_every_call(frame, cut):
    body = {"last-ie": frame.body[:-1],          # inside the last IE
            "overlong-ie": frame.body + b"\x00\x05ab",  # 5 promised, 2 sent
            "fixed-fields": frame.body[:11]}[cut]
    broken = frame.with_body(body)
    for _ in range(3):
        with pytest.raises(ProtocolError):
            broken.parse_beacon()


@given(raw=st.binary(min_size=6, max_size=6))
def test_mac_text_memo_equals_the_byte_join(raw):
    mac = MacAddress(raw)
    want = ":".join(f"{b:02x}" for b in raw)
    assert str(mac) == want
    assert str(mac) == want  # memoized
    assert MacAddress(str(mac)) == mac


def _round_trips(obj):
    return [pickle.loads(pickle.dumps(obj)), copy.copy(obj),
            copy.deepcopy(obj)]


def test_mac_beacon_info_and_frame_pickle_and_copy():
    mac = MacAddress("aa:bb:cc:dd:ee:01")
    str(mac)  # the text memo is set, and must not get in the way
    for got in _round_trips(mac):
        assert got == mac and str(got) == str(mac)
        assert hash(got) == hash(mac)

    frame = make_beacon(mac, "CorpNet", 6, privacy=True, timestamp=7)
    info = frame.parse_beacon()
    for got in _round_trips(info):
        assert isinstance(got, BeaconInfo)
        assert got == info and str(got.bssid) == str(mac)

    for got in _round_trips(frame):
        assert got == frame and str(got.addr2) == str(mac)
        assert got.to_bytes() == frame.to_bytes()
        assert got.parse_beacon() == info


def test_memo_text_is_not_pickled():
    mac = MacAddress(b"\x00\x02\x2d\x00\x00\x07")
    cold = pickle.dumps(mac)
    str(mac)
    assert pickle.dumps(mac) == cold

