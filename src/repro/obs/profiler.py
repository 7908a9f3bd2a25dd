"""Where the *runtime* goes: per-layer self time from CPython's ``cProfile``.

:func:`profile_call` runs a callable under ``cProfile`` and folds the
per-function self time (pstats ``tottime``) into one row per ``repro``
package — ``sim``, ``radio``, ``dot11``, ``crypto``, ... — so the report
answers "which layer spent the time" (the metrics registry answers "what
did the *simulation* do").  A builtin or stdlib function is charged to
the layer of its direct caller, from pstats' per-caller self time, so
``zlib.crc32`` called by :func:`repro.crypto.crc.crc32` counts as
``crypto``; time with no ``repro`` caller is ``other``, and the wall
time no function accounts for (the profiler's own bookkeeping) is
``untimed``.  Self times never overlap, so the rows add up to the
measured wall time.

Wall-clock readings never feed back into the simulation, so profiling
cannot perturb simulated results.
"""

from __future__ import annotations

import os
from functools import lru_cache
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

__all__ = ["OTHER", "UNTIMED", "Profiler", "profile_call"]

T = TypeVar("T")

#: Self time of non-``repro`` code that no ``repro`` function called.
OTHER = "other"
#: Measured wall time minus everything the profiler attributed.
UNTIMED = "untimed"

_REPRO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Profiler:
    """Per-row self-time accumulator: ``category -> (calls, total_s)``."""

    def __init__(self) -> None:
        self._acc: Dict[str, List[float]] = {}
        #: wall time of the profiled call, set by :func:`profile_call`
        self.wall_s = 0.0

    def record(self, category: str, seconds: float, calls: int = 1) -> None:
        acc = self._acc.setdefault(category, [0, 0.0])
        acc[0] += calls
        acc[1] += seconds

    def total_s(self, category: str) -> float:
        acc = self._acc.get(category)
        return acc[1] if acc else 0.0

    def __iter__(self) -> Iterator[Tuple[str, int, float]]:
        """(category, calls, total_s): layers by self time, then
        ``other`` and ``untimed``."""
        tail = (OTHER, UNTIMED)
        order = sorted((c for c in self._acc if c not in tail),
                       key=lambda c: (-self._acc[c][1], c))
        for category in order + [c for c in tail if c in self._acc]:
            acc = self._acc[category]
            yield category, int(acc[0]), acc[1]

    def breakdown(self) -> list[dict]:
        """Rows for the ``repro profile`` table and its ``--json``."""
        grand = sum(acc[1] for acc in self._acc.values())
        return [{"layer": category, "calls": calls, "self_s": total,
                 "share": total / grand if grand else 0.0}
                for category, calls, total in self]

    def report(self) -> str:
        """Aligned layer / calls / self_ms / share-of-wall table."""
        rows = self.breakdown()
        if not rows:
            return "(nothing profiled)"
        headers = ["layer", "calls", "self_ms", "share"]
        table = [[r["layer"], str(r["calls"]), f"{r['self_s'] * 1e3:.3f}",
                  f"{r['share'] * 100.0:.1f}%"] for r in rows]
        widths = [max(len(h), *(len(row[i]) for row in table))
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for row in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


@lru_cache(maxsize=None)
def _layer_of(filename: str) -> Optional[str]:
    """``.../repro/radio/medium.py`` -> ``radio``; None outside ``repro``.

    The top-level modules (``repro/__init__.py``, ``__main__.py``) front
    the ``core`` package and count as it.
    """
    if not filename.endswith(".py"):  # builtins are ``~``
        return None
    parts = os.path.relpath(os.path.abspath(filename), _REPRO_DIR).split(os.sep)
    if parts[0] == os.pardir:
        return None
    return parts[0] if len(parts) > 1 else "core"


def profile_call(fn: Callable[[], T]) -> Tuple[T, Profiler]:
    """Run ``fn()`` under ``cProfile``; return its result and the layer rows.

    The rows' self times sum to the wall time of the call.
    """
    import cProfile  # deferred: every world imports ``repro.obs``

    cprof = cProfile.Profile()
    start = perf_counter()
    result = cprof.runcall(fn)
    wall = perf_counter() - start
    cprof.create_stats()
    prof = Profiler()
    # pstats: func -> (prim_calls, calls, tottime, cumtime, callers), and
    # callers: caller -> (calls, prim_calls, tottime, cumtime)
    for (filename, _, _), (_, calls, tottime, _, callers) in cprof.stats.items():
        own = _layer_of(filename)
        if own is not None:
            prof.record(own, tottime, calls)
            continue
        rest = tottime
        for (caller_file, _, _), (n, _, tt, _) in callers.items():
            prof.record(_layer_of(caller_file) or OTHER, tt, n)
            rest -= tt
        if rest > 0.0:  # called from outside any profiled function
            prof.record(OTHER, rest, 0)
    prof.record(UNTIMED, wall - sum(total for _, _, total in prof), 0)
    prof.wall_s = wall
    return result, prof
