"""The ambient instrumentation record: installing, nesting, restoration."""

from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.channel import publishing
from repro.obs.lineage import recording
from repro.obs.runtime import Collection, ambient, collecting
from repro.wids.runtime import wids_watch

SLOTS = ("metrics", "recorder", "wids", "publisher")


def _slots():
    return {name: getattr(ambient, name) for name in SLOTS}


def test_no_context_means_none():
    assert all(value is None for value in _slots().values())
    assert type(ambient).__slots__ == SLOTS


def test_collecting_installs_and_restores():
    with collecting() as col:
        assert ambient.metrics is col.registry
    assert ambient.metrics is None


def test_disabled_metrics_hide_the_registry():
    with collecting(metrics=False) as col:
        # Instrumentation sees "off" ...
        assert ambient.metrics is None
        # ... but the context still snapshots a stable (empty) shape.
        assert col.snapshot() == {}


def test_contexts_nest_innermost_wins():
    with collecting() as outer:
        outer.registry.incr("outer.only")
        with collecting() as inner:
            assert ambient.metrics is inner.registry
            ambient.metrics.incr("inner.only")
        assert ambient.metrics is outer.registry
    assert "inner.only" not in outer.snapshot()


def test_context_restored_when_body_raises():
    with pytest.raises(RuntimeError):
        with collecting():
            raise RuntimeError("trial died")
    assert ambient.metrics is None


def test_recording_through_the_ambient_context():
    with collecting() as col:
        m = ambient.metrics
        m.incr("radio.deliveries", 3)
    snap = col.snapshot()
    assert snap["radio.deliveries"]["value"] == 3


def test_collection_defaults():
    col = Collection()
    assert col.registry.enabled
    assert not Collection(metrics=False).registry.enabled


# ----------------------------------------------------------------------
# the four installers share one record
# ----------------------------------------------------------------------

def _sink(payload):
    pass


# Each installer paired with the slots its yielded object must fill.
INSTALLERS = (
    (lambda: collecting(), lambda col: {"metrics": col.registry}),
    (lambda: recording(capacity=4), lambda rec: {"recorder": rec}),
    (lambda: wids_watch(), lambda watch: {"wids": watch}),
    (lambda: publishing(_sink), lambda _: {"publisher": _sink}),
)


class _Boom(Exception):
    pass


@settings(max_examples=60, deadline=None)
@given(order=st.permutations(range(len(INSTALLERS))),
       depth=st.integers(1, len(INSTALLERS)),
       preinstalled=st.booleans(),
       raises=st.booleans())
def test_nested_installers_restore_every_slot(order, depth, preinstalled,
                                               raises):
    """Any nesting of the installers, returning or raising, restores all
    four slots and shows the innermost object of each kind inside."""
    with ExitStack() as outer:
        if preinstalled:
            # Installs already in force that the nested block must hand
            # back intact.
            outer.enter_context(collecting())
            outer.enter_context(recording(capacity=2))
        before = _slots()
        expected = dict(before)
        try:
            with ExitStack() as inner:
                for i in order[:depth]:
                    make, fills = INSTALLERS[i]
                    expected.update(fills(inner.enter_context(make())))
                for name, value in expected.items():
                    assert getattr(ambient, name) is value
                if raises:
                    raise _Boom
        except _Boom:
            assert raises
        after = _slots()
        for name in SLOTS:
            assert after[name] is before[name]
    assert all(value is None for value in _slots().values())
