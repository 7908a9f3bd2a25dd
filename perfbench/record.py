"""Write ``golden.json``: each pool world's event count and outcome digest.

    python3 perfbench/record.py [--workload NAME ...]

The benchmark compares every operation against these values, so they are
recorded once, when a workload is defined or changed, and never to make a
failing program pass.  Recording refuses a world whose outcome checks fail,
and cross-checks the seed-11 Fig. 2 rogue world against the repository's
own determinism golden.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

FIG2_GOLDEN = ROOT / "tests" / "integration" / "fig2_golden.json"


def record(workload: workloads.Workload) -> dict:
    golden = {}
    for seed in workload.pool + workload.holdout:
        rnd = workload.run_round(seed, None)
        problems = {p for op in rnd.ops for p in op.problems}
        if problems:
            sys.exit(f"{workload.name} seed {seed}: {sorted(problems)}")
        golden[str(seed)] = dict(rnd.digests)
        if workload.name == "open-loop-shard":
            first = workload.warm_up(seed, None)
            golden[str(seed)]["first"] = [first.sim_s, first.events]
        print(f"{workload.name} seed {seed}: "
              f"{ {k: v[0] for k, v in rnd.digests.items()} }", flush=True)
    return golden


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    recorded = {name: record(workloads.make(name))
                for name in args.workload or sorted(workloads.WORKLOADS)}
    if "fig2-mitm" in recorded:
        pinned = json.loads(FIG2_GOLDEN.read_text())
        got = recorded["fig2-mitm"][str(pinned["seed"])]["rogue"][0]
        if got != pinned["events_dispatched"]:
            sys.exit(f"fig2 seed {pinned['seed']} rogue world dispatched "
                     f"{got} events; {FIG2_GOLDEN.name} pins "
                     f"{pinned['events_dispatched']}")
    path = workloads.GOLDEN_PATH
    golden = json.loads(path.read_text()) if path.exists() else {}
    golden.update(recorded)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
