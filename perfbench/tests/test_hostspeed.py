"""Host-speed normalisation: which reference samples scale an operation.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import pytest

from perfbench import hostspeed, workloads
from perfbench.hostspeed import NOMINAL_S, WINDOW_S, HostSpeed


def _speed(samples) -> HostSpeed:
    """A HostSpeed holding ``(start, duration)`` samples, none measured."""
    speed = HostSpeed.__new__(HostSpeed)
    speed.starts = [start for start, _ in samples]
    speed.ends = [start + d for start, d in samples]
    speed.durations = [d for _, d in samples]
    return speed


def test_reference_is_deterministic():
    assert hostspeed.reference(50) == hostspeed.reference(50)
    assert hostspeed.reference(50) != hostspeed.reference(51)


def test_an_operation_on_a_slow_spell_is_scaled_down_to_nominal():
    # the reference took twice its nominal time around the operation
    speed = _speed([(0.0, 2 * NOMINAL_S), (10.0, 2 * NOMINAL_S)])
    assert speed.normalised(4.0, 5.0) == pytest.approx(2.0)


def test_the_scale_is_the_median_of_samples_within_the_window():
    step = WINDOW_S / 4
    outlier = [(0.0, 10 * NOMINAL_S)]
    near = [(WINDOW_S + i * step, NOMINAL_S * f)
            for i, f in enumerate((2.0, 2.0, 1.0, 2.0, 50.0))]
    speed = _speed(outlier + near)
    start = near[2][0] + 0.01
    # the far outlier is outside the window, the near one is outvoted
    assert speed.scale(start, start + 0.001) == pytest.approx(0.5)


def test_the_nearest_samples_count_even_outside_the_window():
    far = 10 * WINDOW_S
    speed = _speed([(0.0, NOMINAL_S), (far, 3 * NOMINAL_S)])
    assert speed.scale(far / 2, far / 2 + 0.1) == pytest.approx(0.5)


def test_an_operation_with_no_sample_around_it_is_an_error():
    with pytest.raises(ValueError):
        _speed([]).scale(0.0, 1.0)


def test_between_ops_samples_only_when_due():
    speed = HostSpeed()
    speed.between_ops()
    speed.between_ops()  # immediately after: not due
    assert len(speed.durations) == 1


def test_open_loop_slices_are_timed_after_the_between_ops_hook(monkeypatch):
    """The hook runs in the snapshot callback; its time is in no slice."""
    monkeypatch.setattr(workloads, "SHARD_DURATION_S", 3.0)
    workload = workloads.OpenLoopShardWorkload()
    calls: list = []

    def hook() -> None:
        calls.append(1)
        hostspeed.reference(200)

    workload.between_ops = hook
    rnd = workload.run_round(1, None)
    assert len(rnd.ops) == 2  # the slices under load after the first
    assert len(calls) > len(rnd.ops) + 2  # and the drain's
    ends = [op.start + op.wall_s for op in rnd.ops]
    assert all(end <= nxt.start for end, nxt in zip(ends, rnd.ops[1:]))
