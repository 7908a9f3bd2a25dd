"""The ambient instrumentation record every observer is installed into.

Hot-path code asks one question — what is installed? — answered by
:data:`ambient`, a single permanent :class:`Instrumentation` record
with four slots, each ``None`` when nothing of that kind is installed:

* ``metrics`` — the enabled :class:`MetricsRegistry` of the innermost
  :func:`collecting` block;
* ``recorder`` — the :class:`~repro.obs.lineage.FlightRecorder` of
  :func:`~repro.obs.lineage.recording`;
* ``wids`` — the :class:`~repro.wids.runtime.WidsWatch` of
  :func:`~repro.wids.runtime.wids_watch`;
* ``publisher`` — the snapshot callback of
  :func:`~repro.fleet.channel.publishing`.

Call sites guard with ``m = ambient.metrics`` / ``if m is not None:``
so the common (off) path costs one global read, one slot read and one
comparison; a hot function binds ``ambient`` once and reads every slot
it needs from the local.

An installer is built on :func:`installed`::

    with collecting() as col:
        result = spec.runner()          # any number of Simulators inside
    payload = col.snapshot()            # mergeable metrics dict

Wall-clock profiling needs no slot: :func:`~repro.obs.profiler.profile_call`
runs any such block under ``cProfile`` (``python -m repro profile``).
Installs nest (the innermost wins) and each slot is restored on exit
even when the body raises — including the fleet worker's SIGALRM trial
timeout.  The simulation never reads anything back out of an observer,
so installing one cannot change simulated results (the
zero-perturbation invariant pinned by the determinism golden tests).
The record is a plain module global, not a ContextVar: nothing installs
from another thread or task, and the telemetry daemon's HTTP threads
only read its own snapshot store.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.lineage import FlightRecorder
    from repro.wids.runtime import WidsWatch

__all__ = ["Collection", "Instrumentation", "ambient", "collecting",
           "installed"]


class Instrumentation:
    """What is installed right now: one slot per kind of observer."""

    __slots__ = ("metrics", "recorder", "wids", "publisher")

    def __init__(self) -> None:
        self.metrics: Optional[MetricsRegistry] = None
        self.recorder: Optional[FlightRecorder] = None
        self.wids: Optional[WidsWatch] = None
        self.publisher: Optional[Callable[[dict], None]] = None


ambient = Instrumentation()


@contextmanager
def installed(**slots: Any) -> Iterator[None]:
    """Set the named :data:`ambient` slots for the block, then restore them."""
    previous = {name: getattr(ambient, name) for name in slots}
    for name, value in slots.items():
        setattr(ambient, name, value)
    try:
        yield
    finally:
        for name, value in previous.items():
            setattr(ambient, name, value)


class Collection:
    """One observability session: a metrics registry."""

    def __init__(self, *, metrics: bool = True) -> None:
        self.registry = MetricsRegistry(enabled=metrics)

    def snapshot(self) -> dict:
        """The registry's mergeable snapshot (see ``MetricsRegistry``)."""
        return self.registry.snapshot()


@contextmanager
def collecting(*, metrics: bool = True) -> Iterator[Collection]:
    """Install a fresh :class:`Collection` for the duration of the block.

    ``metrics=False`` builds a *disabled* registry and leaves the
    ``metrics`` slot ``None``: instrumentation records nothing, yet the
    collection still snapshots a stable (empty) shape — the "disabled"
    leg of the zero-perturbation golden tests.
    """
    collection = Collection(metrics=metrics)
    with installed(metrics=collection.registry if metrics else None):
        yield collection
