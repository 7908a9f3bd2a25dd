"""The worker→parent snapshot channel: live telemetry out of running trials.

The fleet's base contract ships one result per trial *after* it
finishes.  Long-running campaign trials (``repro.telemetry``'s
open-loop shards) additionally want to stream interim observations —
cumulative :class:`~repro.obs.metrics.MetricsRegistry` snapshots —
while the trial is still running, so the parent can export a live
merged view.

The channel is ambient, mirroring :func:`repro.obs.runtime.collecting`:
the scheduler installs a publisher around each trial (a direct callback
in serial mode, a result-queue writer inside worker processes) in the
``publisher`` slot of :data:`repro.obs.runtime.ambient`, and the trial
calls it whenever it has something to say::

    publish = ambient.publisher
    if publish is not None:
        publish(registry.snapshot())

A payload must be picklable (it may cross a process boundary) and
should be small and cumulative — the parent keeps only the latest
payload per trial, so a lost or coalesced snapshot never loses
information, merely staleness.  With no publisher installed nothing is
built or sent — so a trial that publishes runs bit-identically under
``run_campaign`` with or without ``on_snapshot``, and under a bare
direct call.

Publishing is strictly observational: payloads flow worker→parent only,
nothing ever comes back, so the simulation cannot be perturbed by
whether anyone is listening (the exporter-on/off determinism golden in
``tests/telemetry/`` pins this).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.runtime import installed

__all__ = ["publishing"]


@contextmanager
def publishing(publish: Callable[[dict], None]) -> Iterator[None]:
    """Install ``publish`` in ``ambient.publisher`` for the block.

    Contexts nest (innermost wins) and restore on exit even when the
    body raises — including the worker's SIGALRM trial timeout.
    """
    with installed(publisher=publish):
        yield
