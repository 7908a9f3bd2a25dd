"""The traced run's accounting: self time from a parent stack, and wrappers
that can be installed over the program and removed again without a trace.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import workloads
from perfbench.tracer import (LAYERS, UNTIMED, Instrumentation, LayerTracer)
from repro.obs.profiler import Profiler


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_nested_same_layer_spans_are_not_counted_twice():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    profiler = Profiler()  # the program's own profiler, for contrast
    clock.t = 1.0
    tracer.enter("sim")
    clock.t = 2.0
    tracer.enter("radio")
    clock.t = 4.0
    tracer.enter("radio")          # nested, same layer
    clock.t = 7.0
    tracer.exit()
    profiler.record("radio", 7.0 - 4.0)
    clock.t = 8.0
    tracer.exit()
    profiler.record("radio", 8.0 - 2.0)
    clock.t = 9.0
    tracer.enter("crypto")
    clock.t = 12.0
    tracer.exit()
    clock.t = 13.0
    tracer.exit()
    clock.t = 15.0
    self_s = tracer.flush()
    assert self_s["radio"] == 6.0
    assert profiler.total_s("radio") == 9.0   # inner span counted twice
    assert self_s["sim"] == 3.0
    assert self_s["crypto"] == 3.0
    assert self_s[UNTIMED] == 3.0
    assert sum(self_s.values()) == 15.0
    assert tracer.spans["radio"] == 2 and tracer.spans["sim"] == 1


def test_exit_without_enter_raises():
    with pytest.raises(RuntimeError):
        LayerTracer(FakeClock()).exit()


def test_start_resets_in_place():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    stack, self_s = tracer.stack, tracer.self_s
    tracer.enter("sim")
    clock.t = 5.0
    tracer.start()
    assert tracer.stack is stack and stack == [UNTIMED]
    assert tracer.self_s is self_s and sum(self_s.values()) == 0.0
    clock.t = 7.0
    assert tracer.flush()[UNTIMED] == 2.0


@st.composite
def span_programs(draw):
    """Balanced enter/exit sequences with clock steps between them."""
    steps, depth = [], 0
    for _ in range(draw(st.integers(0, 40))):
        if depth and draw(st.booleans()):
            steps.append(("exit", None))
            depth -= 1
        else:
            steps.append(("enter", draw(st.sampled_from(LAYERS))))
            depth += 1
        steps.append(("tick", draw(st.floats(0.0, 10.0))))
    steps += [("exit", None)] * depth
    return steps


@settings(max_examples=200, deadline=None)
@given(span_programs())
def test_self_times_sum_to_wall_and_match_top_of_stack(steps):
    clock = FakeClock()
    tracer = LayerTracer(clock)
    stack, expected = [UNTIMED], {}
    for kind, arg in steps:
        if kind == "enter":
            tracer.enter(arg)
            stack.append(arg)
        elif kind == "exit":
            tracer.exit()
            stack.pop()
        else:  # the interval belongs to the layer on top of the stack
            clock.t += arg
            expected[stack[-1]] = expected.get(stack[-1], 0.0) + arg
    self_s = tracer.flush()
    assert sum(self_s.values()) == pytest.approx(clock.t, abs=1e-9)
    for layer in LAYERS + (UNTIMED,):
        assert self_s[layer] == pytest.approx(expected.get(layer, 0.0),
                                              abs=1e-9)


# ----------------------------------------------------------------------
# Instrumentation over stand-in layer modules
# ----------------------------------------------------------------------

CLOCK = FakeClock()


def _module(name: str, source: str, **env) -> types.ModuleType:
    module = types.ModuleType(name)
    module.__dict__.update(env)
    exec(compile(source, f"<{name}>", "exec"), module.__dict__)
    sys.modules[name] = module
    return module


@pytest.fixture
def fake_layers():
    wire = _module("repro.wire._perfbench_fake", """
def fields(n):
    for i in range(n):
        CLOCK.t += 0.5
        yield i
""", CLOCK=CLOCK)
    dot11 = _module("repro.dot11._perfbench_fake", """
from repro.wire._perfbench_fake import fields

def decode():
    CLOCK.t += 2.0
    helper()
    return sum(fields(2))

def helper():
    CLOCK.t += 1.0

class Frame:
    def body(self):
        CLOCK.t += 1.0

    @staticmethod
    def make():
        CLOCK.t += 1.0
        return Frame()

    @classmethod
    def kind(cls):
        return cls.__name__
""", CLOCK=CLOCK)
    radio = _module("repro.radio._perfbench_fake", """
from repro.dot11._perfbench_fake import decode, Frame

def fan_out():
    CLOCK.t += 1.0
    decode()
    Frame.make().body()
    CLOCK.t += 1.0
""", CLOCK=CLOCK)
    yield wire, dot11, radio
    for module in (wire, dot11, radio):
        del sys.modules[module.__name__]


def test_wrappers_charge_each_layer_and_uninstall_cleanly(fake_layers):
    wire, dot11, radio = fake_layers
    originals = (radio.fan_out, radio.decode, dot11.decode, dot11.helper,
                 vars(dot11.Frame)["make"], vars(dot11.Frame)["kind"],
                 dot11.Frame.body, dot11.fields)
    CLOCK.t = 0.0
    tracer = LayerTracer(CLOCK)
    inst = Instrumentation(tracer)
    inst.install()
    try:
        assert radio.decode is dot11.decode        # import rebound
        assert radio.decode is not originals[1]
        assert dot11.Frame.kind() == "Frame"       # classmethod still works
        tracer.start()
        radio.fan_out()
        CLOCK.t += 4.0                             # benchmark's own code
        self_s = tracer.flush()
    finally:
        inst.uninstall()
    assert self_s["radio"] == 2.0
    # decode 2 + nested same-layer helper 1 + Frame.make 1 + Frame.body 1
    assert self_s["dot11"] == 5.0
    assert self_s["wire"] == 1.0                   # generator resumes
    assert self_s[UNTIMED] == 4.0
    assert sum(self_s.values()) == CLOCK.t
    assert tracer.spans["radio"] == 1
    assert (radio.fan_out, radio.decode, dot11.decode, dot11.helper,
            vars(dot11.Frame)["make"], vars(dot11.Frame)["kind"],
            dot11.Frame.body, dot11.fields) == originals
    assert isinstance(vars(dot11.Frame)["make"], staticmethod)


def test_counters_on_the_real_program():
    from repro.crypto import rc4

    inst = Instrumentation(LayerTracer())
    inst.install()
    try:
        assert inst.missing_targets() == []
        rc4.RC4(b"key-1").crypt(b"abc")
        rc4.RC4(b"key-1").crypt(b"defg")
        rc4.rc4_keystream(b"key-2", 3)
    finally:
        inst.uninstall()
    assert inst.counts["crypto.rc4_ksa"] == 3
    assert inst.counts["crypto.bytes_ciphered"] == 7
    assert inst.keys == {b"key-1", b"key-2"}


def test_traced_world_matches_untraced_world():
    golden = workloads.load_golden()["fig2-mitm"]
    plain = workloads.Fig2Mitm()._run_world(11, "rogue",
                                            workloads.fig2_rogue, golden)
    tracer = LayerTracer()
    inst = Instrumentation(tracer)
    inst.install(extra_modules=(workloads,))
    try:
        tracer.start()
        traced = workloads.Fig2Mitm()._run_world(
            11, "rogue", workloads.fig2_rogue, golden)
        self_s = tracer.flush()
    finally:
        inst.uninstall()
    assert plain.problems == [] and traced.problems == []
    assert (traced.events, traced.sim_s) == (plain.events, plain.sim_s)
    assert inst.inclusive_s["core.build_s"] > 0
    assert self_s["crypto"] > 0 and self_s["dot11"] > 0
    assert self_s["wids"] < self_s["dot11"]
