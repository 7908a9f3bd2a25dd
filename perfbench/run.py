"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig2-mitm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25        # all three

``--trace 0`` measures the end-to-end metrics with nothing instrumented:
simulated seconds per host second, median and tail host time per
operation, set-up time in fresh interpreters (host times normalised to
host speed, see ``hostspeed.py``) and peak memory.  ``--trace 1``
is a separate run that wraps every layer's entry points in spans and
reports the per-layer self-time split and work counts.  Either way every
operation's outcome is checked; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fig2-mitm", "wids-eval", "open-loop-shard")
#: the end-to-end metrics of the result line, as ``BENCHMARK.json`` lists
RESULT_METRICS = ("sim_s_per_s", "op_ms_p50", "op_ms_tail", "setup_s",
                  "peak_rss_mb")
SETUP_PROBES = 7
#: host-speed samples a set-up probe takes after its set-up
SETUP_SPEED_SAMPLES = 3
#: the tail percentile is the highest with at least this many operations
#: beyond it
TAIL_BEYOND = 10


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="shuffles the workload's world-seed pool")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="host time the timed operations run for, in "
                             "whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="draw worlds from the held-out seed pool")
    parser.add_argument("--out", default=None,
                        help="append the full result record (JSON line)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Import the program from this checkout's ``src``, or exit non-zero."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
        from perfbench import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program under test: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: repro imported from {repro.__file__}, "
                 f"not from {ROOT / 'src'}")
    return workloads


# ----------------------------------------------------------------------
# environment key
# ----------------------------------------------------------------------

def environment() -> dict:
    """What a result depends on besides the code: the comparison key."""
    import numpy
    return {"usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine()}


def source_identity() -> dict:
    """The commit when run from git, and a digest of ``src`` always."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": h.hexdigest()}


# ----------------------------------------------------------------------
# set-up: a fresh interpreter up to the first timed operation
# ----------------------------------------------------------------------

def setup_probe(args) -> int:
    """Child process: time ``import repro`` plus the warm-up operation."""
    t0 = perf_counter()
    workloads = _import_program()
    workload = workloads.make(args.workload)
    first = workload.round_order(args.seed, args.holdout)[0]
    op = workload.warm_up(first, None)
    setup_s = perf_counter() - t0
    # the host's speed, sampled right after the set-up it scales
    from perfbench import hostspeed
    speed = hostspeed.HostSpeed()
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    print(json.dumps({"setup_s": setup_s, "problems": op.problems,
                      "scale": speed.scale(t0, t0 + setup_s)}))
    return 0


def run_setup_probe(args) -> dict:
    """One fresh interpreter's set-up time, normalised by the host speed
    it sampled right after, and its failed checks."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.holdout:
        cmd.append("--holdout")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.splitlines()[-1])
    probe["normalised_s"] = probe["setup_s"] * probe["scale"]
    return probe


# ----------------------------------------------------------------------
# the runs
# ----------------------------------------------------------------------

def _run_rounds(workload, order, golden, seconds, after_round=None) -> list:
    """Whole rounds, cycling through ``order``, until their operations
    have taken ``seconds`` of host time.  ``after_round(rounds, timed_s)``
    runs between rounds, outside the operations' timing."""
    rounds, timed = [], 0.0
    while not rounds or timed < seconds:
        t0 = perf_counter()
        rnd = workload.run_round(order[len(rounds) % len(order)], golden)
        rounds.append(rnd)
        # a round that failed before timing anything still uses up time
        timed += sum(op.wall_s for op in rnd.ops) or perf_counter() - t0
        if after_round is not None:
            after_round(rounds, timed)
    return rounds


def _quartile_note(values: list) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.3f}-{q3:.3f}"


def tail(walls: list) -> tuple:
    """(value, percentile): the highest percentile with >= TAIL_BEYOND
    operations beyond it, i.e. the (TAIL_BEYOND + 1)-th slowest."""
    if len(walls) <= TAIL_BEYOND:
        return max(walls), 100.0
    ordered = sorted(walls, reverse=True)
    return ordered[TAIL_BEYOND], 100.0 * (1 - TAIL_BEYOND / len(walls))


def pass_rate(rounds: list, seconds) -> float:
    """Simulated seconds per host second over one pass of the run's world
    seeds, a seed's host time (``seconds(op)`` summed over its round)
    averaged over the rounds that visited it.  Every seed counts once, so
    the figure does not lean towards the seeds a run happened to visit
    twice."""
    sim: dict = {}
    spent: dict = {}
    for rnd in rounds:
        sim[rnd.seed] = sum(op.sim_s for op in rnd.ops)
        spent.setdefault(rnd.seed, []).append(
            sum(seconds(op) for op in rnd.ops))
    total = sum(statistics.fmean(s) for s in spent.values())
    return sum(sim.values()) / total if total > 0 else 0.0


def distinct_op_times(rounds: list, seconds) -> list:
    """Each distinct operation's host time (``seconds(op)``), averaged over
    the rounds that ran it.  An operation is its world seed and its place
    in the round, so every run counts each one once, however often it was
    visited."""
    times: dict = {}
    for rnd in rounds:
        for place, op in enumerate(rnd.ops):
            times.setdefault((rnd.seed, place), []).append(seconds(op))
    return [statistics.fmean(t) for t in times.values()]


def end_to_end(args, workloads) -> dict:
    from perfbench import hostspeed

    workload = workloads.make(args.workload)
    golden = workloads.load_golden()[workload.name]
    order = workload.round_order(args.seed, args.holdout)
    speed = hostspeed.HostSpeed()
    # Set-up probes are spread over the run, so that one slow spell of
    # the host does not decide the median.
    probes = [run_setup_probe(args)]

    def probe_when_due(_rounds, timed: float) -> None:
        while (len(probes) < SETUP_PROBES
               and timed >= len(probes) * args.seconds / SETUP_PROBES):
            probes.append(run_setup_probe(args))

    warm = workload.warm_up(order[0], golden)
    workload.between_ops = speed.between_ops
    speed.sample()
    rounds = _run_rounds(workload, order, golden, args.seconds,
                         probe_when_due)
    speed.sample()
    while len(probes) < SETUP_PROBES:
        probes.append(run_setup_probe(args))
    setup_values = [p["normalised_s"] for p in probes]
    setup_walls = [p["setup_s"] for p in probes]
    ops = [op for rnd in rounds for op in rnd.ops]
    norm = {id(op): speed.normalised(op.wall_s, op.start) for op in ops}
    walls = distinct_op_times(rounds, lambda op: norm[id(op)])
    tail_s, tail_pct = tail(walls)
    raw_walls = distinct_op_times(rounds, lambda op: op.wall_s)
    seeds = len({rnd.seed for rnd in rounds})
    speeds = [hostspeed.NOMINAL_S / d for d in speed.durations]
    # every probe performed the warm-up operation too
    failed = (sum(op.failed for op in ops) + warm.failed
              + sum(bool(p["problems"]) for p in probes))
    attempted = len(ops) + 1 + len(probes)
    problems = sorted({p for op in ops + [warm] for p in op.problems}
                      | {p for probe in probes for p in probe["problems"]})
    n = len(ops)
    distinct = len(walls)
    norm_note = "normalised to host speed"
    metrics = {
        "sim_s_per_s": (pass_rate(rounds, lambda op: norm[id(op)]),
                        "sim-s/s", f"{seeds} world seeds in {len(rounds)} "
                                   f"rounds, {n} ops, {norm_note}"),
        "op_ms_p50": (statistics.median(walls) * 1e3, "ms",
                      f"n={distinct} distinct of {n} ops, {norm_note}"),
        "op_ms_tail": (tail_s * 1e3, "ms",
                       f"p{tail_pct:.1f}: {TAIL_BEYOND} of {distinct} "
                       f"distinct ops beyond, {norm_note}"),
        "setup_s": (statistics.median(setup_values), "s",
                    f"median of {len(setup_values)} fresh interpreters, "
                    f"{norm_note}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB", "n=1 process"),
        "failed_ratio": (failed / attempted, "ratio",
                         f"{failed} of {attempted} ops"),
        # the same timings as measured, before normalisation
        "sim_s_per_wall_s": (pass_rate(rounds, lambda op: op.wall_s),
                             "sim-s/s", "host time as measured"),
        "op_wall_ms_p50": (statistics.median(raw_walls) * 1e3, "ms",
                           "host time as measured"),
        "op_wall_ms_tail": (tail(raw_walls)[0] * 1e3, "ms",
                            "host time as measured"),
        "setup_wall_s": (statistics.median(setup_walls), "s",
                         "host time as measured"),
        "host_speed": (statistics.median(speeds), "ratio",
                       f"median of {len(speeds)} reference samples, "
                       f"quartiles {_quartile_note(speeds)}"),
    }
    return {"workload": workload.name, "seed": args.seed,
            "holdout": args.holdout, "seconds": args.seconds, "trace": 0,
            "rounds": len(rounds), "world_seeds": [r.seed for r in rounds],
            "attempted": attempted, "failed": failed, "problems": problems,
            "correct": failed == 0, "metrics": metrics,
            "result_metrics": list(RESULT_METRICS),
            "detail": {"setup_s_values": setup_values,
                       "setup_wall_s_values": setup_walls,
                       "tail_percentile": tail_pct}}


def traced(args, workloads) -> dict:
    from perfbench import tracer as tr

    workload = workloads.make(args.workload)
    golden = workloads.load_golden()[workload.name]
    order = workload.round_order(args.seed, args.holdout)
    warm = workload.warm_up(order[0], golden)
    untraced = workload.run_round(order[0], golden)

    clock = tr.LayerTracer()
    inst = tr.Instrumentation(clock)
    inst.install(extra_modules=(workloads,))
    first_round: dict = {}

    def on_round(rounds, _timed) -> None:
        if len(rounds) == 1:
            first_round.update(inst.counts)
            first_round["crypto.distinct_keys"] = len(inst.keys)
            first_round.update(rounds[0].counts)

    try:
        t0 = perf_counter()
        clock.start()
        rounds = _run_rounds(workload, order, golden, args.seconds, on_round)
        self_s = clock.flush()
        wall = perf_counter() - t0
    finally:
        inst.uninstall()
    missing = inst.missing_targets()
    for target in missing:
        print(f"perfbench: counter target {target} not found; its count "
              f"reads 0", file=sys.stderr)

    ops = [op for rnd in rounds for op in rnd.ops]
    n = len(ops)
    problems = {p for op in ops + [warm] + untraced.ops for p in op.problems}
    if rounds[0].digests != untraced.digests:
        problems.add("traced outcome digests differ from the untraced run")
    layer_sum = sum(self_s.values())
    if abs(layer_sum - wall) > 1e-3 * wall:
        problems.add(f"self times sum to {layer_sum:.6f} s, wall is "
                     f"{wall:.6f} s")
    untraced_wall = sum(op.wall_s for op in untraced.ops)
    overhead = (sum(op.wall_s for op in rounds[0].ops) / untraced_wall
                if untraced_wall > 0 else 0.0)

    def count(name):
        return first_round.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in tr.LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / n, "s/op",
                                      f"n={n} ops")
    for name in ("core.build_s", "wids.eval_s"):
        metrics[name] = (inst.inclusive_s.get(name, 0.0) / n, "s/op",
                         f"n={n} ops, inclusive")
    first = f"first round, world seed {rounds[0].seed}"
    for name in ("dot11.decodes", "radio.tx_frames", "radio.deliveries",
                 "crypto.rc4_ksa", "crypto.distinct_keys",
                 "crypto.bytes_ciphered", "wids.frames_processed",
                 "wids.alerts", "netstack.tcp_segments",
                 "netstack.tcp_retransmits", "sim.events",
                 "attacks.netsed_replacements", "rsn.sae_handshakes",
                 "telemetry.snapshots"):
        metrics[name] = (count(name), "count", first)
    metrics["dot11.decodes_per_tx"] = (
        ratio(count("dot11.decodes"), count("radio.tx_frames")), "ratio",
        f"{count('dot11.decodes')} decodes / {count('radio.tx_frames')} "
        f"transmissions, {first}")
    metrics["crypto.ksa_per_distinct_key"] = (
        ratio(count("crypto.rc4_ksa"), count("crypto.distinct_keys")),
        "ratio", f"{count('crypto.rc4_ksa')} KSAs / "
                 f"{count('crypto.distinct_keys')} distinct keys, {first}")
    metrics["untimed_s"] = (self_s.get(tr.UNTIMED, 0.0) / n, "s/op",
                            f"wall - sum of layer self times, n={n} ops")
    metrics["trace_overhead_ratio"] = (
        overhead, "ratio", f"traced / untraced wall of world seed "
                           f"{rounds[0].seed}'s round")
    failed = sum(op.failed for op in ops + untraced.ops) + warm.failed
    attempted = n + len(untraced.ops) + 1
    correct = failed == 0 and not problems
    return {"workload": workload.name, "seed": args.seed,
            "holdout": args.holdout, "seconds": args.seconds, "trace": 1,
            "rounds": len(rounds), "world_seeds": [r.seed for r in rounds],
            "attempted": attempted, "failed": failed,
            "problems": sorted(problems), "correct": correct,
            "metrics": metrics, "result_metrics": list(metrics),
            "detail": {"traced_wall_s": wall, "self_s": self_s,
                       "spans": dict(clock.spans),
                       "missing_counter_targets": missing}}


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def report(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']}"
          f"{' holdout' if record['holdout'] else ''} "
          f"seconds={record['seconds']:g} trace={record['trace']} "
          f"rounds={record['rounds']}")
    for name, (value, unit, note) in record["metrics"].items():
        print(f"  {name:<30} {value:>14.6g} {unit:<8} ({note})")
    if record["trace"]:
        detail = record["detail"]
        print(f"  sum of layer self times + untimed = "
              f"{sum(detail['self_s'].values()):.6f} s; traced wall = "
              f"{detail['traced_wall_s']:.6f} s")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")


def result_line(record: dict) -> dict:
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": record["metrics"][name][0],
                               "unit": record["metrics"][name][1]}
                        for name in record["result_metrics"]}}


def run_all(args) -> int:
    """Each workload in its own process; a table of all of them."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.holdout:
            cmd.append("--holdout")
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} failed "
                     f"(exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    combined = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{m}": v for w, r in results.items()
                            for m, v in r["metrics"].items()}}
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    if args.workload == "all":
        _import_program()
        return run_all(args)
    workloads = _import_program()
    record = traced(args, workloads) if args.trace else end_to_end(
        args, workloads)
    record["env"] = environment()
    record.update(source_identity())
    report(record)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print("env " + json.dumps(record["env"]))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
