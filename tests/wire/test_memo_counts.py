"""Hit/miss tallies of the decode-once and key-once memos.

Counted like ``codec.encode_cache.*`` (only while a registry is
installed), but into ``repro.obs.metrics.memo_counts`` rather than the
registry: the keystream memo outlives a world, so its hit rate depends
on what the process ran before, and a registry snapshot must not.
"""

from collections import Counter

from repro.core.scenario import build_corp_scenario
from repro.obs.metrics import memo_counts
from repro.obs.runtime import collecting

MEMOS = ("codec.decode_cache", "crypto.keystream_cache")


def _small_wep_world():
    """Two WEP stations on the corp AP; one downloads a file."""
    scenario = build_corp_scenario(seed=3, with_rogue=False)
    victim = scenario.add_victim()
    scenario.add_victim()
    scenario.sim.run_for(1.0)
    scenario.run_download_experiment(victim)


def test_wep_world_hits_both_memos():
    before = Counter(memo_counts)
    with collecting() as col:
        _small_wep_world()
    delta = memo_counts - before
    for memo in MEMOS:
        assert delta[f"{memo}.hits"] > 0
        assert delta[f"{memo}.misses"] > 0
    # ... and none of it reaches the world's registry
    assert not [name for name in col.registry.names()
                if name.startswith(MEMOS)]


def test_nothing_counted_without_a_registry():
    before = Counter(memo_counts)
    _small_wep_world()
    assert memo_counts == before
