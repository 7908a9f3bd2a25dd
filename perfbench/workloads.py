"""The benchmark's three named workloads, driven through repro's public API.

A workload runs in *rounds*: one round is everything the workload does for
one world seed.  An *operation* is the unit the end-to-end timings are taken
over:

* ``fig2-mitm`` — one round is the paper's three Fig. 2 worlds (control,
  rogue + netsed, off-target "no rule match"); an operation is one world.
* ``wids-eval`` — one round is the E-WIDS naive / evasive / deauth / benign
  worlds plus the E-DOWNGRADE and E-CSA worlds, each watched by a sniffer
  feeding a live ``WidsEngine`` and scored by ``evaluate()``; an operation
  is one world.
* ``open-loop-shard`` — one round is one ``OpenLoopShard`` trial (the
  ``python -m repro serve`` shard) under ``collecting()``, with its drain;
  an operation is one snapshot slice of simulated time under offered load,
  timed between the consecutive snapshots a ``publishing()`` callback
  receives.

Every operation checks what it simulated (the outcome checks) and a digest
of its outcome, simulated time and dispatched-event count against
``golden.json``, which ``record.py`` wrote when the benchmark was created.
A program that runs faster but simulates something different fails there.

World seeds come from a fixed pool per workload, shuffled by the
benchmark's ``--seed``; a second pool is held out for confirming claims.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

from repro.attacks.deauth import DeauthAttacker
from repro.attacks.sniffer import MonitorSniffer
from repro.core.scenario import EVIL_IP, LEGIT_BSSID, build_corp_scenario
from repro.dot11.mac import MacAddress
from repro.fleet.channel import publishing
from repro.hosts.access_point import AccessPoint
from repro.hosts.host import Host
from repro.hosts.nic import WiredInterface
from repro.hosts.station import Station
from repro.httpsim.client import HttpClient
from repro.netstack.ethernet import Switch
from repro.obs.runtime import collecting
from repro.radio.medium import Medium
from repro.radio.propagation import Position
from repro.rsn.attacks import CsaLureAttack
from repro.rsn.experiment import run_downgrade_world
from repro.rsn.ie import RsnIe
from repro.sim.kernel import Simulator
from repro.telemetry.shard import OpenLoopShard
from repro.wids.engine import WidsEngine
from repro.wids.evaluation import GroundTruth, evaluate

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Beacon-scheduler slop of the naive E-WIDS rogue (as E-WIDS builds it).
NAIVE_BEACON_JITTER_S = 0.03
SNIFFER_AT = Position(15.0, 5.0)

# The E-CSA world (as the E-CSA experiment builds it).
CSA_SSID = "CORP"
CSA_PASSPHRASE = "corp-modern-pass"
CSA_SERVER_IP = "10.0.0.1"
CSA_VICTIM_IP = "10.0.0.23"
CSA_LEGIT_CHANNEL = 1
CSA_LURE_CHANNEL = 6

# The open-loop shard: the ``serve`` trial at a fixed simulated rate.
SHARD_DURATION_S = 30.0
SHARD_RATE_PER_S = 4.0
SHARD_SNAPSHOT_EVERY_S = 1.0


@dataclass
class Op:
    """One operation: host time, simulated work and failed checks."""

    name: str
    seed: int
    wall_s: float
    sim_s: float
    events: int
    problems: list = field(default_factory=list)
    #: ``perf_counter()`` when the operation began
    start: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Round:
    """One world seed's operations plus what the trace run counts."""

    seed: int
    ops: list = field(default_factory=list)
    #: op name -> outcome digest (traced and untraced runs must agree)
    digests: dict = field(default_factory=dict)
    #: per-layer counts read from program state and outcomes
    counts: dict = field(default_factory=dict)

    def add_counts(self, **counts: int) -> None:
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value


@dataclass
class World:
    """What a world operation hands back: its simulator, medium, outcome."""

    sim: Simulator
    medium: Medium
    outcome: dict
    problems: list


def digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def radio_counts(medium: Medium) -> dict:
    return {"radio.tx_frames": sum(p.tx_frames for p in medium.ports),
            "radio.deliveries": sum(p.rx_frames for p in medium.ports)}


def _require(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _download_fields(outcome) -> dict:
    return {"link": outcome.link, "md5_ok": outcome.md5_ok,
            "computed_md5": outcome.computed_md5,
            "executed": outcome.executed, "trojaned": outcome.trojaned,
            "failed": outcome.failed, "compromised": outcome.compromised}


# ----------------------------------------------------------------------
# fig2-mitm: the paper's Fig. 2 worlds, no WIDS, no instrumentation
# ----------------------------------------------------------------------

def fig2_control(seed: int) -> World:
    scenario = build_corp_scenario(seed=seed, with_rogue=False)
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    result = scenario.run_download_experiment(victim)
    out = _download_fields(result)
    problems: list = []
    _require(problems, result.md5_ok is True and result.executed,
             "control victim did not download, verify and run the binary")
    _require(problems, not result.compromised, "control arm compromised")
    return World(scenario.sim, scenario.medium, out, problems)


def fig2_rogue(seed: int) -> World:
    scenario = build_corp_scenario(seed=seed)
    scenario.arm_download_mitm()
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    result = scenario.run_download_experiment(victim)
    out = _download_fields(result)
    out["netsed_replacements"] = scenario.rogue.netsed.total_replacements
    problems: list = []
    _require(problems, result.compromised and result.md5_ok is True,
             "rogue arm not compromised with the MD5 check passed")
    _require(problems, out["netsed_replacements"] > 0,
             "netsed made no replacement")
    return World(scenario.sim, scenario.medium, out, problems)


def fig2_off_target(seed: int) -> World:
    """Fig. 2's "no rule match" path: off-target port-80 traffic."""
    scenario = build_corp_scenario(seed=seed)
    scenario.arm_download_mitm()
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    responses: list = []
    HttpClient(victim).get(f"http://{EVIL_IP}/file.tgz", responses.append)
    scenario.sim.run_for(30.0)
    response = responses[0] if responses else None
    out = {"status": response.status if response is not None else None,
           "body_sha256": (hashlib.sha256(response.body).hexdigest()
                           if response is not None else None),
           "proxied": scenario.rogue.netsed.connections_proxied,
           "netsed_replacements": scenario.rogue.netsed.total_replacements}
    problems: list = []
    _require(problems, response is not None and response.status == 200
             and response.body == scenario.trojan,
             "off-target download not passed through intact")
    _require(problems, out["proxied"] == 0, "netsed proxied off-target flow")
    return World(scenario.sim, scenario.medium, out, problems)


# ----------------------------------------------------------------------
# wids-eval: E-WIDS, E-DOWNGRADE and E-CSA worlds under a live WIDS tap
# ----------------------------------------------------------------------

def _watched(sim: Simulator, medium: Medium):
    sniffer = MonitorSniffer(sim, medium, SNIFFER_AT)
    engine = WidsEngine()
    engine.attach(sniffer.capture)  # live tap: alerts as frames land
    return sniffer, engine


def _alert_fields(engine: WidsEngine) -> dict:
    alerts = engine.alerts
    return {"alerts": len(alerts),
            "alert_list": [a.to_dict() for a in alerts],
            "detectors": sorted({a.detector for a in alerts}),
            "first_alert_t": alerts[0].t if alerts else None,
            "frames_seen": engine.frames_seen}


def _ewids_world(seed: int, *, rogue: bool, evasive: bool = False) -> World:
    scenario = build_corp_scenario(
        seed=seed, with_rogue=rogue,
        rogue_mirror_seqctl=evasive,
        rogue_beacon_jitter_s=(NAIVE_BEACON_JITTER_S
                               if rogue and not evasive else 0.0),
        rogue_match_beacon_cadence=evasive)
    sniffer, engine = _watched(scenario.sim, scenario.medium)
    if rogue:
        scenario.arm_download_mitm()
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    result = scenario.run_download_experiment(victim)
    scores = evaluate(sniffer.capture,
                      GroundTruth(rogue_present=rogue, attack_start_s=0.0))
    netsed_t = [rec.time for rec in scenario.sim.trace.records
                if rec.category.startswith("netsed.")]
    out = _alert_fields(engine)
    out.update(compromised=result.compromised,
               first_netsed_t=min(netsed_t) if netsed_t else None,
               netsed_replacements=(scenario.rogue.netsed.total_replacements
                                    if rogue else 0),
               scores=scores.snapshot())
    problems: list = []
    if not rogue:
        _require(problems, out["alerts"] == 0, "benign world raised alerts")
    elif evasive:
        _require(problems, {"fingerprint", "multichannel"}
                 & set(out["detectors"]),
                 "evasive rogue's second radio went unseen")
    else:
        _require(problems, out["first_alert_t"] is not None
                 and out["first_netsed_t"] is not None
                 and out["first_alert_t"] < out["first_netsed_t"],
                 "no alert before the netsed rewrite")
    return World(scenario.sim, scenario.medium, out, problems)


def ewids_naive(seed: int) -> World:
    return _ewids_world(seed, rogue=True)


def ewids_evasive(seed: int) -> World:
    return _ewids_world(seed, rogue=True, evasive=True)


def ewids_benign(seed: int) -> World:
    return _ewids_world(seed, rogue=False)


def ewids_deauth(seed: int) -> World:
    """No rogue BSS: a deauth injector spoofing the legitimate AP."""
    scenario = build_corp_scenario(seed=seed, with_rogue=False)
    sniffer, engine = _watched(scenario.sim, scenario.medium)
    scenario.add_victim()
    attack_start = scenario.sim.now
    attacker = DeauthAttacker(scenario.sim, scenario.medium,
                              Position(30.0, 0.0), ap_bssid=LEGIT_BSSID,
                              channel=1, rate_hz=10.0)
    attacker.start()
    scenario.sim.run_for(20.0)
    attacker.stop()
    scores = evaluate(sniffer.capture,
                      GroundTruth(rogue_present=True,
                                  attack_start_s=attack_start))
    out = _alert_fields(engine)
    out.update(injected=attacker.frames_injected, scores=scores.snapshot())
    problems: list = []
    _require(problems, out["alerts"] > 0, "deauth flood raised no alert")
    return World(scenario.sim, scenario.medium, out, problems)


def _downgrade(seed: int, mode: Optional[str]) -> World:
    world, summary = run_downgrade_world(seed, mode=mode)
    scores = evaluate(world.sniffer.capture,
                      GroundTruth(rogue_present=mode is not None,
                                  attack_start_s=0.0))
    out = dict(summary, alert_list=[a.to_dict() for a in world.engine.alerts],
               frames_seen=world.engine.frames_seen,
               scores=scores.snapshot())
    out["alerts"] = out.pop("alert_count")
    problems: list = []
    if mode is None:
        _require(problems, out["akm"] == "SAE" and out["pmf"],
                 "benign transition client did not pick SAE with PMF")
        _require(problems, out["alerts"] == 0, "benign world raised alerts")
    else:
        _require(problems, out["on_rogue_channel"]
                 and out["rogue_client_count"] > 0,
                 "victim not drawn onto the downgrade rogue")
        _require(problems, "rsn-mismatch" in out["alerted_detectors"],
                 "downgrade lure not flagged")
    if mode == "wpa2":
        _require(problems, out["akm"] == "PSK" and not out["pmf"],
                 "victim not coerced to WPA2-PSK without PMF")
    if mode == "open":
        _require(problems, out["akm"] is None and not out["encrypted"],
                 "victim not coerced to an open association")
    return World(world.sim, world.medium, out, problems)


def downgrade_benign(seed: int) -> World:
    return _downgrade(seed, None)


def downgrade_wpa2(seed: int) -> World:
    return _downgrade(seed, "wpa2")


def downgrade_open(seed: int) -> World:
    return _downgrade(seed, "open")


def _csa(seed: int, *, attack: bool) -> World:
    """A WPA3 office, optionally hit by forged-CSA herding onto a twin."""
    rsn = RsnIe.wpa3()
    sim = Simulator(seed=seed)
    medium = Medium(sim)
    lan = Switch(sim, "corp-lan")
    ap = AccessPoint(sim, medium, "corp-ap", bssid=LEGIT_BSSID,
                     ssid=CSA_SSID, channel=CSA_LEGIT_CHANNEL,
                     position=Position(0.0, 0.0), rsn=rsn,
                     sae_password=CSA_PASSPHRASE)
    ap.attach_uplink(lan)
    server = Host(sim, "server")
    eth0 = WiredInterface("eth0", MacAddress.random(
        sim.rng.substream("mac.server")))
    eth0.attach_segment(lan)
    server.add_interface(eth0)
    eth0.configure_ip(CSA_SERVER_IP)
    sniffer, engine = _watched(sim, medium)
    victim = Station(sim, "victim", medium, Position(10.0, 0.0))
    victim.connect(CSA_SSID, rsn=rsn, sae_password=CSA_PASSPHRASE,
                   ip=CSA_VICTIM_IP)
    sim.run_for(5.0)
    pre_pings: list = []
    victim.ping(CSA_SERVER_IP, on_reply=pre_pings.append)
    sim.run_for(2.0)
    attack_start = sim.now
    lure = None
    if attack:
        # The twin clones BSSID, SSID and RSN posture on its own channel;
        # it does not know the password.
        AccessPoint(sim, medium, "evil-twin", bssid=LEGIT_BSSID,
                    ssid=CSA_SSID, channel=CSA_LURE_CHANNEL,
                    position=Position(20.0, 0.0), rsn=rsn,
                    sae_password="not-the-password")
        lure = CsaLureAttack(sim, medium, Position(20.0, 0.0),
                             clone_bssid=LEGIT_BSSID, ssid=CSA_SSID,
                             legit_channel=CSA_LEGIT_CHANNEL,
                             lure_channel=CSA_LURE_CHANNEL, rsn=rsn,
                             rate_hz=10.0)
        lure.start()
    sim.run_for(5.0)
    if lure is not None:
        lure.stop()
    pings: list = []
    for i in range(5):
        sim.schedule(float(i), lambda: victim.ping(
            CSA_SERVER_IP, on_reply=pings.append))
    sim.run_for(8.0)
    scores = evaluate(sniffer.capture,
                      GroundTruth(rogue_present=attack,
                                  attack_start_s=attack_start))
    wlan = victim.wlan
    out = _alert_fields(engine)
    out.update(channel=wlan.channel, csa_switches=wlan.csa_switches,
               associations=wlan.associations, pmf=wlan.pmf_active,
               pre_pings=len(pre_pings), pings=len(pings),
               injected=lure.frames_injected if lure else 0,
               scores=scores.snapshot())
    problems: list = []
    if attack:
        _require(problems, out["csa_switches"] >= 1
                 and out["channel"] == CSA_LURE_CHANNEL,
                 "victim not herded onto the lure channel")
        _require(problems, "unexpected-CSA" in out["detectors"],
                 "CSA herding not flagged")
    else:
        _require(problems, out["alerts"] == 0, "benign world raised alerts")
        _require(problems, out["pings"] > 0, "benign link carried no data")
    return World(sim, medium, out, problems)


def csa_benign(seed: int) -> World:
    return _csa(seed, attack=False)


def csa_lured(seed: int) -> World:
    return _csa(seed, attack=True)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class Workload:
    """A named workload: its seed pools and how one round runs."""

    name = ""
    #: world seeds the benchmark's ``--seed`` shuffles
    pool: tuple = ()
    #: world seeds kept out of tuning, for confirming a claim later
    holdout: tuple = tuple(range(1001, 1017))

    def __init__(self) -> None:
        #: called between operations, outside their timing (``run.py``
        #: samples the host's speed there)
        self.between_ops: Callable[[], None] = lambda: None

    def round_order(self, seed: int, holdout: bool = False) -> list:
        """World seeds in the order a run with ``--seed seed`` visits them."""
        order = list(self.holdout if holdout else self.pool)
        random.Random(f"{self.name}:{seed}").shuffle(order)
        return order

    def run_round(self, seed: int, golden: Optional[dict]) -> Round:
        raise NotImplementedError

    def warm_up(self, seed: int, golden: Optional[dict]) -> Op:
        """One untimed operation: the first of ``seed``'s round."""
        raise NotImplementedError


class WorldWorkload(Workload):
    """Rounds of whole worlds; one world is one operation."""

    worlds: tuple = ()  # (op name, world function)

    def _run_world(self, seed: int, name: str,
                   fn: Callable[[int], World], golden: Optional[dict],
                   rnd: Optional[Round] = None) -> Op:
        t0 = perf_counter()
        try:
            world = fn(seed)
        except Exception as exc:  # an operation that raises is a failure
            return Op(name, seed, perf_counter() - t0, 0.0, 0,
                      [f"raised {type(exc).__name__}: {exc}"], t0)
        wall = perf_counter() - t0
        sim = world.sim
        op = Op(name, seed, wall, sim.now, sim.events_dispatched,
                list(world.problems), t0)
        got = digest({"outcome": world.outcome, "events": op.events,
                      "sim_s": op.sim_s})
        if golden is not None:
            want = golden.get(str(seed), {}).get(name)
            if want is None:
                op.problems.append("no recorded digest for this world")
            elif want != [op.events, got]:
                op.problems.append(
                    f"digest mismatch: events {op.events} vs recorded "
                    f"{want[0]}")
        if rnd is not None:
            rnd.digests[name] = [op.events, got]
            rnd.add_counts(**radio_counts(world.medium))
            rnd.add_counts(**{
                "sim.events": op.events,
                "wids.alerts": world.outcome.get("alerts", 0),
                "attacks.netsed_replacements":
                    world.outcome.get("netsed_replacements", 0)})
        return op

    def run_round(self, seed: int, golden: Optional[dict]) -> Round:
        rnd = Round(seed)
        for name, fn in self.worlds:
            self.between_ops()
            rnd.ops.append(self._run_world(seed, name, fn, golden, rnd))
        return rnd

    def warm_up(self, seed: int, golden: Optional[dict]) -> Op:
        name, fn = self.worlds[0]
        return self._run_world(seed, name, fn, golden)


class Fig2Mitm(WorldWorkload):
    name = "fig2-mitm"
    # Small enough that a run visits every seed at least twice, even on a
    # slow spell of the host: the slowest worlds, which set the tail,
    # then differ by seed but not by run.
    pool = tuple(range(1, 25))
    worlds = (("control", fig2_control), ("rogue", fig2_rogue),
              ("off-target", fig2_off_target))


class WidsEval(WorldWorkload):
    name = "wids-eval"
    pool = tuple(range(1, 33))
    worlds = (("naive", ewids_naive), ("evasive", ewids_evasive),
              ("deauth", ewids_deauth), ("benign", ewids_benign),
              ("downgrade-benign", downgrade_benign),
              ("downgrade-wpa2", downgrade_wpa2),
              ("downgrade-open", downgrade_open),
              ("csa-benign", csa_benign), ("csa-lured", csa_lured))


@contextmanager
def constructed(cls: type) -> Iterator[list]:
    """Collect every ``cls`` instance built inside the block.

    The shard builds its world internally; this is how the benchmark reads
    that world's simulated clock and event count between snapshots.
    """
    init = cls.__init__
    made: list = []

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    cls.__init__ = capturing_init
    try:
        yield made
    finally:
        cls.__init__ = init


class _SetupDone(Exception):
    """Raised from the snapshot callback to end a warm-up shard early."""


class OpenLoopShardWorkload(Workload):
    name = "open-loop-shard"
    # Shards differ in offered load (Poisson arrivals, 20% downloads), and
    # a run holds only about a dozen of them.  A small pool lets every run
    # visit every shard about equally often, so the run's figures do not
    # depend on which shards the --seed happened to pick.
    pool = tuple(range(1, 7))

    def __init__(self) -> None:
        super().__init__()
        self.shard = OpenLoopShard(duration_s=SHARD_DURATION_S,
                                   rate_per_s=SHARD_RATE_PER_S,
                                   snapshot_every_s=SHARD_SNAPSHOT_EVERY_S)

    def _run_shard(self, seed: int, on_mark: Callable) -> tuple:
        """Run one shard; ``on_mark`` sees (t, simulator, snapshot) at
        each snapshot, and returns before ``between_ops`` runs.  The next
        slice's timing starts after it: ``_run_shard`` hands back when."""
        restarts: list = []
        with constructed(Simulator) as sims, constructed(Medium) as media:
            def on_snapshot(payload: dict) -> None:
                on_mark(perf_counter(), sims[0], payload)
                self.between_ops()
                restarts.append(perf_counter())

            with collecting(), publishing(on_snapshot):
                summary = self.shard(seed)
        return summary, media[0], restarts

    def run_round(self, seed: int, golden: Optional[dict]) -> Round:
        rnd = Round(seed)
        marks: list = []  # (t, sim now, events, snapshot)

        def on_mark(t, sim, payload):
            marks.append((t, sim.now, sim.events_dispatched, payload))

        problems: list = []
        summary = medium = None
        restarts: list = []
        try:
            summary, medium, restarts = self._run_shard(seed, on_mark)
        except Exception as exc:
            problems.append(f"raised {type(exc).__name__}: {exc}")
        # Operations are the slices under offered load.  The drain's slices
        # (in-flight sessions end within a second or two; the rest carry
        # beacons only) run and are checked, but are not operations: at a
        # few ms each they would put the median on an idle slice.
        load_end = (marks[0][1] - SHARD_SNAPSHOT_EVERY_S + SHARD_DURATION_S
                    if marks else 0.0)
        for (_, now0, ev0, _), start, (t1, now1, ev1, _) in zip(
                marks, restarts, marks[1:]):
            if now0 < now1 <= load_end:
                rnd.ops.append(Op("slice", seed, t1 - start, now1 - now0,
                                  ev1 - ev0, start=start))
        if summary is not None:
            final = marks[-1][3]
            _check_funnel(summary, final, problems)
            got = digest({"summary": summary,
                          "marks": [m[1:] for m in marks]})
            total_events = marks[-1][2]
            rnd.digests["shard"] = [total_events, got]
            if golden is not None:
                want = golden.get(str(seed), {}).get("shard")
                if want is None:
                    problems.append("no recorded digest for this shard")
                elif want != [total_events, got]:
                    problems.append(f"digest mismatch: events {total_events}"
                                    f" vs recorded {want[0]}")
            rnd.add_counts(**radio_counts(medium))
            rnd.add_counts(**{
                "sim.events": total_events,
                "wids.alerts": summary["alerts"],
                "attacks.netsed_replacements": final.get(
                    "attack.netsed.rewrites", {}).get("value", 0),
                "telemetry.snapshots": len(marks)})
        if not rnd.ops:
            rnd.ops.append(Op("slice", seed, 0.0, 0.0, 0))
        for op in rnd.ops:
            op.problems.extend(problems)
        return rnd

    def warm_up(self, seed: int, golden: Optional[dict]) -> Op:
        """The shard's first slice: build, arm, first snapshot."""
        t0 = perf_counter()
        first: list = []

        def on_mark(t, sim, _payload):
            first.append((t, sim.now, sim.events_dispatched))
            raise _SetupDone

        problems: list = []
        try:
            self._run_shard(seed, on_mark)
        except _SetupDone:
            pass
        except Exception as exc:
            problems.append(f"raised {type(exc).__name__}: {exc}")
        if not first:
            problems = problems or ["no snapshot published"]
            return Op("first-slice", seed, perf_counter() - t0, 0.0, 0,
                      problems)
        t, now, events = first[0]
        if golden is not None:
            want = golden.get(str(seed), {}).get("first")
            if want != [now, events]:
                problems.append(f"first slice differs: {[now, events]} vs "
                                f"recorded {want}")
        return Op("first-slice", seed, t - t0, now, events, problems)


def _check_funnel(summary: dict, final: dict, problems: list) -> None:
    """The open-loop session funnel balances, in the summary and registry."""
    _require(problems, summary["arrived"] == summary["started"]
             + summary["shed"], "arrivals != started + shed")
    _require(problems, summary["started"] == summary["completed"]
             + summary["failed"] and summary["active"] == 0,
             "started sessions neither completed nor failed")
    _require(problems, summary["completed"] > 0, "no session completed")
    registry = {name: final.get(f"telemetry.sessions.{name}", {})
                .get("value", 0) for name in ("arrived", "completed")}
    _require(problems, registry == {"arrived": summary["arrived"],
                                    "completed": summary["completed"]},
             "registry funnel disagrees with the shard summary")


WORKLOADS = {w.name: w for w in (Fig2Mitm, WidsEval, OpenLoopShardWorkload)}


def make(name: str) -> Workload:
    return WORKLOADS[name]()
