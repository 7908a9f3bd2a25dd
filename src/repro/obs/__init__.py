"""Simulation-wide observability: metrics, profiling, tracing, export.

Four pieces (see DESIGN.md §8–§9):

* :mod:`repro.obs.metrics` — a hierarchical :class:`MetricsRegistry`
  of mergeable counters/gauges/timers/histograms, instrumented at the
  hot points of the radio, netstack, dot11, hosts, attack, and defense
  layers;
* :mod:`repro.obs.profiler` — :func:`profile_call`, which runs a
  callable under ``cProfile`` and reports per-layer self time (one
  :class:`Profiler` row per ``repro`` package, plus ``other`` and
  ``untimed``) that sums to the call's wall time;
* :mod:`repro.obs.runtime` — the one :data:`ambient` record whose
  slots hold whatever is installed (metrics, recorder, WIDS watch,
  snapshot publisher), and the :func:`collecting` context that turns
  metrics on.  With an empty slot every hook short-circuits, and the
  hard invariant holds: simulated results are bit-for-bit identical
  with observability enabled, disabled, or absent.
* :mod:`repro.obs.lineage` + :mod:`repro.obs.export` — the causal
  frame-lineage :class:`FlightRecorder` (per-frame ``trace_id``, hop
  records, parent/child span links, last-N ring buffer) installed with
  :func:`recording`, exportable as pcap (``LINKTYPE_IEEE802_11``) or
  Chrome trace-event JSON (``python -m repro trace EXP``).

The registry obeys an associative ``merge()`` law, so
:mod:`repro.fleet` ships one snapshot per trial and reduces them in
seed order (``python -m repro sweep --metrics out.json``); a one-shot
profile of any registered experiment is ``python -m repro profile EXP``.
"""

from repro.obs.export import (LINKTYPE_IEEE802_11, chrome_trace_dict,
                              pcap_bytes, write_chrome_trace, write_pcap)
from repro.obs.lineage import FlightRecorder, Hop, Lineage, recording
from repro.obs.metrics import (CounterMetric, GaugeMetric, HistogramMetric,
                               MetricsRegistry, TimerMetric)
from repro.obs.profiler import Profiler, profile_call
from repro.obs.runtime import Collection, ambient, collecting

__all__ = [
    "Collection",
    "CounterMetric",
    "FlightRecorder",
    "GaugeMetric",
    "HistogramMetric",
    "Hop",
    "LINKTYPE_IEEE802_11",
    "Lineage",
    "MetricsRegistry",
    "Profiler",
    "TimerMetric",
    "ambient",
    "chrome_trace_dict",
    "collecting",
    "pcap_bytes",
    "profile_call",
    "recording",
    "write_chrome_trace",
    "write_pcap",
]
