"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py --out FILE`` appends, one run per line.
For every workload, each metric's median and quartiles are printed for both
sides.  End-to-end metrics are judged against the bound ``BENCHMARK.json``
fixes: "worse than bound", "unresolved" when the base's own spread is wider
than the bound, or "within bound".  Results taken under different
environment keys (usable cores, Python, numpy, machine) are reported as not
comparable, never as a gain or a loss.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def env_key(record: dict) -> tuple:
    env = record["env"]
    return tuple(sorted(env.items()))


def quartiles(values: list) -> tuple:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _group(records: list) -> dict:
    groups: dict = {}
    for rec in records:
        key = (rec["workload"], rec["trace"])
        groups.setdefault(key, []).append(rec)
    return groups


def verdict(base: list, new: list, better: str, bound: float) -> str:
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (nmed - bmed) / bmed if bmed else 0.0
    spread = (bq3 - bq1) / bmed if bmed else 0.0
    if worse > bound:
        return f"worse than bound ({worse:+.1%} vs {bound:.0%})"
    if spread > bound:
        return f"unresolved (base spread {spread:.1%} > bound {bound:.0%})"
    return f"within bound ({worse:+.1%} worse, bound {bound:.0%})"


def compare(base_records: list, new_records: list, spec: dict) -> list:
    """Report lines for every workload both sides measured."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base_groups, new_groups = _group(base_records), _group(new_records)
    lines = []
    for key in sorted(set(base_groups) & set(new_groups)):
        base, new = base_groups[key], new_groups[key]
        workload, trace = key
        lines.append(f"{workload} (trace={trace}): {len(base)} base runs, "
                     f"{len(new)} new runs")
        keys = {env_key(r) for r in base + new}
        if len(keys) > 1:
            differing = sorted({k for r in base + new for k, v in
                                r["env"].items()
                                if v != base[0]["env"].get(k)})
            lines.append("  not comparable: environment keys differ in "
                         + ", ".join(differing))
            continue
        for name in base[0]["metrics"]:
            if name not in new[0]["metrics"]:
                continue
            b = [r["metrics"][name][0] for r in base]
            n = [r["metrics"][name][0] for r in new]
            unit = base[0]["metrics"][name][1]
            bq = quartiles(b)
            nq = quartiles(n)
            line = (f"  {name:<30} base {bq[1]:.6g} [{bq[0]:.6g}, "
                    f"{bq[2]:.6g}]  new {nq[1]:.6g} [{nq[0]:.6g}, "
                    f"{nq[2]:.6g}] {unit}")
            if name in bounds:
                spec_m = bounds[name]
                line += "  " + verdict(b, n, spec_m["better"],
                                       spec_m["bound"])
            lines.append(line)
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.exit("usage: compare.py BASE.jsonl NEW.jsonl")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for line in compare(load(argv[0]), load(argv[1]), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
