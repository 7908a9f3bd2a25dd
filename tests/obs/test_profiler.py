"""Profiler: per-layer self time from cProfile, rows that sum to wall time."""

import math
import zlib

from repro.crypto.crc import crc32
from repro.obs.profiler import OTHER, UNTIMED, Profiler, profile_call


def test_record_accumulates_count_and_total():
    p = Profiler()
    for s in [0.2, 0.1, 0.4]:
        p.record("cat", s)
    p.record("cat", 0.3, calls=5)
    [(category, calls, total)] = list(p)
    assert (category, calls) == ("cat", 8)
    assert math.isclose(total, 1.0) and math.isclose(p.total_s("cat"), 1.0)


def test_unknown_category_queries():
    p = Profiler()
    assert p.total_s("nope") == 0.0
    assert list(p) == []


def test_iter_orders_by_total_descending():
    p = Profiler()
    p.record(UNTIMED, 9.0)
    p.record(OTHER, 8.0)
    p.record("small", 0.1)
    p.record("big", 5.0)
    p.record("mid", 1.0)
    # layers largest first; ``other`` and ``untimed`` always last
    assert [cat for cat, _, _ in p] == ["big", "mid", "small", OTHER, UNTIMED]


def test_breakdown_shares_sum_to_100():
    p = Profiler()
    p.record("a", 3.0)
    p.record("b", 1.0)
    rows = p.breakdown()
    assert rows[0] == {"layer": "a", "calls": 1, "self_s": 3.0, "share": 0.75}
    assert rows[1]["share"] == 0.25
    assert math.isclose(sum(r["share"] for r in rows), 1.0)


def test_report_empty_and_populated():
    assert Profiler().report() == "(nothing profiled)"
    p = Profiler()
    p.record("radio", 0.5)
    out = p.report()
    assert "radio" in out and "500.000" in out
    assert "layer" in out and "calls" in out and "self_ms" in out
    assert "share" in out and "100.0%" in out


def _checksum_loop():
    # a repro.crypto function calling the zlib builtin, many times
    data = bytes(range(256)) * 64
    return [crc32(data) for _ in range(2000)][-1]


def test_builtin_time_is_charged_to_the_calling_layer():
    result, prof = profile_call(_checksum_loop)
    assert result == zlib.crc32(bytes(range(256)) * 64)
    rows = {cat: total for cat, _, total in prof}
    calls = {cat: n for cat, n, _ in prof}
    # zlib.crc32's self time is crypto's: no row is named after a builtin
    assert set(rows) <= {"crypto", OTHER, UNTIMED}
    assert calls["crypto"] >= 2 * 2000  # crc32 + zlib.crc32 per call
    assert rows["crypto"] > rows.get(OTHER, 0.0)
    assert all(total >= 0.0 for total in rows.values())
    assert math.isclose(sum(rows.values()), prof.wall_s, rel_tol=1e-9)


def test_rows_sum_to_wall_time_for_a_world():
    from repro.core.registry import get_experiment

    _, prof = profile_call(get_experiment("FIG1").runner)
    rows = prof.breakdown()
    assert rows[-1]["layer"] == UNTIMED
    assert all(r["self_s"] >= 0.0 for r in rows)
    assert math.isclose(sum(r["self_s"] for r in rows), prof.wall_s,
                        rel_tol=1e-9)
    layers = {r["layer"] for r in rows}
    assert {"sim", "radio", "dot11"} <= layers
