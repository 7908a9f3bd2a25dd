"""Seeds, goldens, checks and the command-line contract of the benchmark.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import compare, run, workloads
from repro.sim.kernel import Simulator

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_order_is_a_seeded_permutation_of_the_pool(name):
    workload = workloads.make(name)
    order = workload.round_order(3)
    assert sorted(order) == sorted(workload.pool)
    assert order == workload.round_order(3)
    assert order != workload.round_order(4)
    assert sorted(workload.round_order(3, holdout=True)) == sorted(
        workload.holdout)
    assert not set(workload.pool) & set(workload.holdout)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_covers_every_pool_and_holdout_seed(name):
    workload = workloads.make(name)
    golden = workloads.load_golden()[name]
    assert set(golden) == {str(s) for s in workload.pool + workload.holdout}


def test_fig2_golden_agrees_with_the_repository_determinism_pin():
    pinned = json.loads(
        (ROOT / "tests" / "integration" / "fig2_golden.json").read_text())
    golden = workloads.load_golden()["fig2-mitm"]
    assert golden[str(pinned["seed"])]["rogue"][0] == \
        pinned["events_dispatched"]


def test_a_world_that_differs_from_its_digest_fails():
    golden = workloads.load_golden()["fig2-mitm"]
    tampered = {"11": {"control": [golden["11"]["control"][0],
                                   "0" * 64]}}
    workload = workloads.Fig2Mitm()
    good = workload._run_world(11, "control", workloads.fig2_control, golden)
    bad = workload._run_world(11, "control", workloads.fig2_control,
                              tampered)
    assert not good.failed
    assert bad.failed and "digest mismatch" in bad.problems[0]


def test_a_world_that_raises_fails():
    def broken(seed):
        raise ValueError("boom")

    op = workloads.Fig2Mitm()._run_world(1, "control", broken, {})
    assert op.failed and "ValueError" in op.problems[0]


def test_constructed_restores_init():
    init = Simulator.__init__
    with workloads.constructed(Simulator) as made:
        sim = Simulator(seed=1)
    assert made == [sim]
    assert Simulator.__init__ is init


def test_tail_is_the_eleventh_slowest():
    walls = list(range(100))
    value, pct = run.tail(walls)
    assert value == 89 and pct == pytest.approx(90.0)
    assert run.tail([1, 2, 3]) == (3, 100.0)


def test_pass_rate_counts_every_world_seed_once():
    def rnd(seed, sim_s, wall_s):
        return workloads.Round(seed, [workloads.Op("w", seed, wall_s, sim_s,
                                                   1)])

    # seed 1: 10 sim-s in 1 s, visited twice (1 s and 3 s: mean 2 s);
    # seed 2: 10 sim-s in 2 s, visited once
    rounds = [rnd(1, 10.0, 1.0), rnd(2, 10.0, 2.0), rnd(1, 10.0, 3.0)]
    assert run.pass_rate(rounds, lambda op: op.wall_s) == \
        pytest.approx(20.0 / 4.0)
    assert run.pass_rate([], lambda op: op.wall_s) == 0.0
    assert sorted(run.distinct_op_times(rounds, lambda op: op.wall_s)) == \
        [2.0, 2.0]


def _record(workload, value, cores=2):
    return {"workload": workload, "trace": 0,
            "env": {"usable_cores": cores, "python": "3", "numpy": "2",
                    "machine": "x"},
            "metrics": {"op_ms_p50": [value, "ms", ""]}}


def test_compare_reports_different_environments_as_not_comparable():
    spec = {"end_to_end": [{"name": "op_ms_p50", "unit": "ms",
                            "better": "lower", "bound": 0.1}]}
    base = [_record("fig2-mitm", 100.0, cores=1)]
    new = [_record("fig2-mitm", 50.0, cores=2)]
    lines = compare.compare(base, new, spec)
    assert "not comparable" in lines[1] and "usable_cores" in lines[1]
    same = compare.compare([_record("fig2-mitm", 100.0)],
                           [_record("fig2-mitm", 120.0)], spec)
    assert "worse than bound" in same[1]


def test_benchmark_spec_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        run.WORKLOAD_NAMES)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == set(run.RESULT_METRICS)
    assert "setup_s" in e2e
    setup_bound = next(m["bound"] for m in spec["end_to_end"]
                       if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])


def test_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark, the run exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2-mitm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
