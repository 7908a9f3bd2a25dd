"""TrialStats: the in-order merge law the fleet reduces campaigns with."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.campaign import TrialStats


def _split(xs, cuts):
    """Split ``xs`` into parts at the (sorted, clamped) cut points."""
    bounds = sorted(min(c, len(xs)) for c in cuts)
    parts, start = [], 0
    for b in bounds + [len(xs)]:
        parts.append(xs[start:b])
        start = b
    return parts


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=200),
       st.lists(st.integers(min_value=0, max_value=200), max_size=4))
def test_trialstats_merge_is_exact_concatenation(xs, cuts):
    whole = TrialStats()
    for x in xs:
        whole.add(x)
    merged = TrialStats()
    for part in _split(xs, cuts):
        partial = TrialStats()
        for x in part:
            partial.add(x)
        merged.merge(partial)
    # in-order merge reproduces the serial sample list bit-for-bit,
    # so every derived statistic is identical too (same float ops)
    assert merged.values == whole.values
    if len(xs) >= 2:
        assert merged.mean == whole.mean
        assert merged.stdev == whole.stdev


def test_merge_returns_self_for_chaining():
    t = TrialStats()
    assert t.merge(TrialStats()) is t
