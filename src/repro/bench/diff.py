"""The noise-tolerant baseline differ.

Classification rules, in order, for each metric present in either the
baseline or the current run:

* in current only → ``new`` (informational: commit a fresh baseline);
* in baseline only → ``missing`` (fails the gate by default — a
  silently dropped benchmark is how regressions go dark);
* moved in the *better* direction, or unchanged → ``improvement`` /
  ``within`` — **never** flagged, by construction;
* moved in the *worse* direction by a relative fraction ≤ the metric's
  tolerance → ``within`` (noise);
* worse beyond tolerance → ``regression`` (fails the gate).

"Worse" respects ``higher_is_better``; the relative worsening is
``(baseline - current) / |baseline|`` for higher-is-better metrics and
``(current - baseline) / |baseline|`` otherwise.  For a positive
baseline a regression must also cross the band edge in the value
domain (``current > baseline * (1 + tolerance)``, mirrored for
higher-is-better), so drift strictly inside the band is never flagged
even where the rounded ratio lands just above the tolerance.  A zero baseline
makes any worsening infinite (flagged) and any non-worsening clean —
there is no direction in which a degenerate baseline can mask a real
regression.  Non-finite current values are always regressions: a
benchmark that produced NaN did not get faster.

Tolerance is read from the *current* run's registration (code is the
source of truth), falling back to the baseline document for metrics
the current registry no longer describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench.registry import DEFAULT_TOLERANCE

__all__ = ["DiffReport", "MetricDelta", "diff_baselines", "diff_metrics"]

KINDS = ("regression", "missing", "new", "improvement", "within")


@dataclass(frozen=True)
class MetricDelta:
    """One metric's fate across the baseline → current comparison."""

    area: str
    metric: str
    kind: str                       # one of KINDS
    baseline: float = math.nan
    current: float = math.nan
    worsening: float = 0.0          # relative, >= 0; inf for zero-baseline
    tolerance: float = DEFAULT_TOLERANCE
    unit: str = ""
    higher_is_better: bool = True

    @property
    def name(self) -> str:
        return f"{self.area}/{self.metric}"

    def describe(self) -> str:
        if self.kind == "new":
            return (f"{self.name}: new metric "
                    f"({self.current:g} {self.unit}) — not in baseline")
        if self.kind == "missing":
            return (f"{self.name}: missing from current run "
                    f"(baseline {self.baseline:g} {self.unit})")
        if self.kind == "improvement":
            denom = abs(self.baseline)
            moved = (abs(self.current - self.baseline) / denom
                     if denom > 0 else math.inf)
            arrow, magnitude = "better", moved
        else:
            arrow, magnitude = "worse", self.worsening
        return (f"{self.name}: {self.baseline:g} -> {self.current:g} "
                f"{self.unit} ({magnitude:+.1%} {arrow}, "
                f"tolerance {self.tolerance:.0%})")


@dataclass
class DiffReport:
    """Every per-metric delta, partitioned by kind."""

    deltas: List[MetricDelta] = field(default_factory=list)

    def of_kind(self, kind: str) -> List[MetricDelta]:
        return [d for d in self.deltas if d.kind == kind]

    @property
    def regressions(self) -> List[MetricDelta]:
        return self.of_kind("regression")

    @property
    def missing(self) -> List[MetricDelta]:
        return self.of_kind("missing")

    @property
    def new(self) -> List[MetricDelta]:
        return self.of_kind("new")

    @property
    def improvements(self) -> List[MetricDelta]:
        return self.of_kind("improvement")

    @property
    def within(self) -> List[MetricDelta]:
        return self.of_kind("within")

    def ok(self, *, fail_on_missing: bool = True) -> bool:
        if self.regressions:
            return False
        return not (fail_on_missing and self.missing)

    def summary(self) -> str:
        counts = {k: len(self.of_kind(k)) for k in KINDS}
        return (f"{counts['regression']} regression(s), "
                f"{counts['missing']} missing, {counts['new']} new, "
                f"{counts['improvement']} improvement(s), "
                f"{counts['within']} within tolerance")

    def report(self) -> str:
        lines = [f"baseline diff: {self.summary()}"]
        for kind, label in (("regression", "REGRESSION"),
                            ("missing", "MISSING"), ("new", "NEW"),
                            ("improvement", "improved"),
                            ("within", "ok")):
            for d in self.of_kind(kind):
                lines.append(f"  [{label:10s}] {d.describe()}")
        return "\n".join(lines)


def _worsening(baseline: float, current: float,
               higher_is_better: bool) -> float:
    """Relative movement in the bad direction (>= 0; 0 when not worse)."""
    delta = (baseline - current) if higher_is_better else (current - baseline)
    if delta <= 0:
        return 0.0
    denom = abs(baseline)
    return delta / denom if denom > 0 else math.inf


def diff_metrics(area: str, baseline_metrics: Dict[str, dict],
                 current_metrics: Dict[str, dict]) -> List[MetricDelta]:
    """Compare one area's metric tables; see the module doc for rules."""
    deltas: List[MetricDelta] = []
    for metric in sorted(set(baseline_metrics) | set(current_metrics)):
        base = baseline_metrics.get(metric)
        cur = current_metrics.get(metric)
        src = cur if cur is not None else base
        unit = src.get("unit", "")
        hib = bool(src.get("higher_is_better", True))
        tolerance = float((cur or {}).get(
            "tolerance", (base or {}).get("tolerance", DEFAULT_TOLERANCE)))
        if base is None:
            deltas.append(MetricDelta(area, metric, "new",
                                      current=float(cur["value"]),
                                      tolerance=tolerance, unit=unit,
                                      higher_is_better=hib))
            continue
        if cur is None:
            deltas.append(MetricDelta(area, metric, "missing",
                                      baseline=float(base["value"]),
                                      tolerance=tolerance, unit=unit,
                                      higher_is_better=hib))
            continue
        b, c = float(base["value"]), float(cur["value"])
        if not math.isfinite(c):
            deltas.append(MetricDelta(area, metric, "regression",
                                      baseline=b, current=c,
                                      worsening=math.inf,
                                      tolerance=tolerance, unit=unit,
                                      higher_is_better=hib))
            continue
        worsening = _worsening(b, c, hib)
        beyond = worsening > tolerance
        if beyond and b > 0:
            # Also require the scaled-domain test: rounding is monotone, so
            # a value strictly inside the band never rounds across its
            # edge, whereas (c - b) / b can (0.0004 -> 2.7e-16 > 2.2e-16).
            beyond = c < b * (1 - tolerance) if hib else c > b * (1 + tolerance)
        if worsening == 0.0 and c != b:
            kind = "improvement"
        elif beyond:
            kind = "regression"
        else:
            kind = "within"
        deltas.append(MetricDelta(area, metric, kind, baseline=b, current=c,
                                  worsening=worsening, tolerance=tolerance,
                                  unit=unit, higher_is_better=hib))
    return deltas


def diff_baselines(baseline_docs: Dict[str, dict],
                   current_docs: Dict[str, dict]) -> DiffReport:
    """Diff ``{area: BENCH doc}`` maps; safe on empty either side."""
    report = DiffReport()
    for area in sorted(set(baseline_docs) | set(current_docs)):
        base = (baseline_docs.get(area) or {}).get("metrics", {})
        cur = (current_docs.get(area) or {}).get("metrics", {})
        report.deltas.extend(diff_metrics(area, base, cur))
    return report
