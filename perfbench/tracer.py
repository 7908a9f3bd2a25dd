"""Per-layer self time for the traced run, recorded from outside the program.

:class:`LayerTracer` keeps a stack of open spans, one per layer entered.
Every clock interval is charged to the layer on top of the stack, so

* a span's self time is its duration minus the time its child spans cover;
* a span nested inside a span of the same layer is not counted twice
  (``repro.obs.profiler`` sums both);
* the self times plus ``untimed`` (no span open: the benchmark's own code)
  add up to the wall time between :meth:`LayerTracer.start` and the last
  :meth:`LayerTracer.flush` exactly.

:class:`Instrumentation` opens those spans: it replaces every function and
method defined in a layer package (``repro.<layer>``) with a wrapper that
enters the layer, and rebinds the names other modules imported, so scheduled
callbacks and cross-layer calls land in the right layer.  A call that stays
inside the layer already on top of the stack passes straight through: it
would be charged to the same layer anyway.  The same wrappers count the
calls that the per-layer work counters are defined on.  Nothing under
``src/`` changes; :meth:`Instrumentation.uninstall` restores every name.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Optional

#: The ``repro`` packages reported as layers, in report order.
LAYERS = ("sim", "radio", "dot11", "wire", "crypto", "netstack", "hosts",
          "attacks", "httpsim", "rsn", "wids", "obs", "telemetry", "core")
UNTIMED = "untimed"

#: Dunder methods that do real work per call; the rest (comparisons,
#: hashing, repr) stay unwrapped and are charged to their caller.
_WRAPPED_DUNDERS = {"__init__", "__call__"}


def _one(_args: tuple) -> int:
    return 1


#: Work counters: ``module:qualname`` -> (counter, amount per call).  A call
#: counts once however it is reached.
COUNTERS = {
    "repro.dot11.ies:parse_ies": ("dot11.decodes", _one),
    "repro.crypto.rc4:ksa": ("crypto.rc4_ksa", _one),
    # bytes through RC4: the length of ``RC4.crypt(self, data)``'s data
    "repro.crypto.rc4:RC4.crypt": ("crypto.bytes_ciphered",
                                   lambda args: len(args[1])),
    "repro.netstack.tcp:TcpConnection._transmit": ("netstack.tcp_segments",
                                                   _one),
    "repro.netstack.tcp:TcpConnection._retransmit_front":
        ("netstack.tcp_retransmits", _one),
    "repro.wids.engine:WidsEngine.process": ("wids.frames_processed", _one),
    "repro.rsn.sae:SaeParty.process_confirm": ("rsn.sae_handshakes", _one),
}
#: Whose first argument, an RC4 key, is collected to count distinct keys.
DISTINCT_KEYS = "repro.crypto.rc4:ksa"
#: Entry points timed inclusively (children included): target -> name.
INCLUSIVE = {
    "repro.core.scenario:build_corp_scenario": "core.build_s",
    "repro.wids.evaluation:evaluate": "wids.eval_s",
}


class LayerTracer:
    """Self time per layer from spans kept on a parent stack.

    ``stack``, ``self_s``, ``spans`` and ``mark`` are mutated in place,
    never rebound: the wrappers :class:`Instrumentation` installs hold them.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.stack = [UNTIMED]
        self.self_s: Dict[str, float] = {}
        #: spans opened per layer
        self.spans: Dict[str, int] = {}
        self.mark = [0.0]
        self.start()

    def start(self) -> None:
        """Forget everything and start the wall clock now."""
        del self.stack[1:]
        for layer in LAYERS + (UNTIMED,):
            self.self_s[layer] = 0.0
            self.spans[layer] = 0
        self.mark[0] = self.clock()

    def enter(self, layer: str) -> None:
        now = self.clock()
        self.self_s[self.stack[-1]] += now - self.mark[0]
        self.mark[0] = now
        self.spans[layer] += 1
        self.stack.append(layer)

    def exit(self) -> None:
        if len(self.stack) == 1:
            raise RuntimeError("span exit without a matching enter")
        now = self.clock()
        self.self_s[self.stack.pop()] += now - self.mark[0]
        self.mark[0] = now

    def flush(self) -> Dict[str, float]:
        """Charge the open interval and return a copy of the self times."""
        now = self.clock()
        self.self_s[self.stack[-1]] += now - self.mark[0]
        self.mark[0] = now
        return dict(self.self_s)


class Instrumentation:
    """Wrap every layer's functions in spans of ``tracer`` (see module doc)."""

    def __init__(self, tracer: LayerTracer) -> None:
        self.tracer = tracer
        self.counts: Counter = Counter()
        self.keys: set = set()
        self.inclusive_s: Dict[str, float] = {}
        self.found: set = set()  # counter / timer targets that exist
        self._undo: list = []

    # -- public --------------------------------------------------------
    def install(self, extra_modules: tuple = ()) -> None:
        """Wrap the layer modules already imported, then rebind imports."""
        wrapped: Dict[object, object] = {}
        for mod_name, module in list(sys.modules.items()):
            layer = _layer_of(mod_name)
            if layer is None or module is None:
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod_name:
                    new = self._wrap(obj, layer, f"{mod_name}:{name}")
                    wrapped[obj] = new
                    self._set(module, name, new)
                elif (inspect.isclass(obj) and obj.__module__ == mod_name
                      and not issubclass(obj, enum.Enum)):
                    self._wrap_class(obj, layer, mod_name)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name.startswith("repro")
                                      or module in extra_modules):
                continue
            for name, obj in list(vars(module).items()):
                try:
                    new = wrapped.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if new is not None and obj is not new:
                    self._set(module, name, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def missing_targets(self) -> list:
        targets = set(COUNTERS) | set(INCLUSIVE) | {DISTINCT_KEYS}
        return sorted(targets - self.found)

    # -- wrapping ------------------------------------------------------
    def _set(self, owner: object, name: str, new: object) -> None:
        # the raw attribute, so a staticmethod is restored as one
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _wrap_class(self, cls: type, layer: str, mod_name: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in _WRAPPED_DUNDERS:
                continue
            target = f"{mod_name}:{cls.__qualname__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                fn = attr.__func__
                if inspect.isfunction(fn):
                    self._set(cls, name,
                              type(attr)(self._wrap(fn, layer, target)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, layer, target))

    def _wrap(self, fn: Callable, layer: str, target: str) -> Callable:
        tracer = self.tracer
        stack, enter, exit_ = tracer.stack, tracer.enter, tracer.exit

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_span(*args, **kwargs):
                # each resume of the generator is a span of its layer
                gen = fn(*args, **kwargs)
                while True:
                    if stack[-1] is layer:
                        try:
                            item = next(gen)
                        except StopIteration as stop:
                            return stop.value
                    else:
                        enter(layer)
                        try:
                            item = next(gen)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            exit_()
                    yield item
            return gen_span

        self_s, spans, mark, clock = (tracer.self_s, tracer.spans,
                                      tracer.mark, tracer.clock)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            # ``is``: every layer name is the one string object in LAYERS
            if stack[-1] is layer:
                return fn(*args, **kwargs)
            # LayerTracer.enter / exit, inlined: this runs on every
            # cross-layer call
            now = clock()
            self_s[stack[-1]] += now - mark[0]
            mark[0] = now
            spans[layer] += 1
            stack.append(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[stack.pop()] += now - mark[0]
                mark[0] = now

        return self._add_measures(span, target)

    def _add_measures(self, span: Callable, target: str) -> Callable:
        """Count and time ``target``'s calls around its span, if asked."""
        counter = COUNTERS.get(target)
        timer = INCLUSIVE.get(target)
        keyed = target == DISTINCT_KEYS
        if counter is None and timer is None and not keyed:
            return span
        self.found.add(target)
        counts, keys, acc = self.counts, self.keys, self.inclusive_s
        clock = self.tracer.clock

        @functools.wraps(span)
        def measured(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] += counter[1](args)
            if keyed:
                keys.add(bytes(args[0]))
            if timer is None:
                return span(*args, **kwargs)
            t0 = clock()
            try:
                return span(*args, **kwargs)
            finally:
                acc[timer] = acc.get(timer, 0.0) + (clock() - t0)

        return measured


def _layer_of(mod_name: str) -> Optional[str]:
    """``repro.radio.medium`` -> ``radio``; None outside the layers."""
    parts = mod_name.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    for layer in LAYERS:
        if parts[1] == layer:
            return layer
    return None
