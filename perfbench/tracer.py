"""Per-layer spans measured from outside the program.

For the length of a traced run, each layer's function is replaced in
every ``witworld`` module that holds it, so callers that looked it up by
name (``compose._kernels.bloch_margin_scan``, ``steering.solve_feasibility``,
``cli.positivity_check``, ...) reach the timing wrapper.  Nothing in the
program changes; ``Tracer.uninstall`` puts every original back.

A span records its layer, start, end, parent span and the verdict it
belongs to.  A layer's time is the sum of its outermost spans (a span
nested in one of the same layer is not counted twice); its self time
subtracts the direct children of the layers listed as its children.
Counters are computed from call arguments and return values only, so
they repeat exactly for the same inputs.

If a hooked name is missing, for example because the compiled-kernel
package was removed, the layer is reported absent and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_combos(args, kwargs, result):
    specs = _arg(args, kwargs, 1, "specs") or ()
    return {"combos": math.prod(len(s.vectors) for s in specs if hasattr(s, "vectors"))}


def _count_points(args, kwargs, result):
    points = _arg(args, kwargs, 1, "points")
    return {"points": int(points.shape[0])}


def _count_restarts(args, kwargs, result):
    return {"restarts": int(_arg(args, kwargs, 2, "cfg").restarts)}


def _count_lp(args, kwargs, result):
    return {"pivots": int(getattr(result, "iterations", 0)),
            "infeasible": int(not getattr(result, "feasible", True))}


@dataclass(frozen=True)
class Layer:
    """A layer and the names that reach it.

    ``targets`` lists ``(module, attribute)`` pairs; the module may be
    ``"witworld.compose:_kernels"``, meaning the object the attribute
    ``_kernels`` of ``witworld.compose`` refers to.  ``self_minus`` names
    the child layers whose direct spans are taken out of the self time;
    ``span=False`` only counts calls, under the layer's own name.
    """

    name: str
    targets: tuple
    metrics: tuple
    self_minus: frozenset = frozenset()
    count: Callable | None = None
    span: bool = True


def _cli_layer(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv") or ()
    return "cli." + (argv[0] if argv else "none")


LAYERS = (
    Layer("compose.enumeration", (("witworld.compose", "minimize_product_form"),),
          ("self_ms", "calls", "combos"),
          frozenset({"compose.qubit_pair_descent", "compose.restart_descent"}), _count_combos),
    Layer("compose.scan", (("witworld.compose:_kernels", "bloch_margin_scan"),),
          ("ms", "calls", "points"), count=_count_points),
    Layer("compose.qubit_pair_descent", (("witworld.compose", "_min_qubit_pair"),),
          ("self_ms",), frozenset({"compose.scan"})),
    Layer("compose.qubit_pair_descent.starts", (("witworld.compose", "_alternate_qubit_pair"),),
          (), span=False),
    Layer("compose.restart_descent", (("witworld.compose", "_min_quantum_general"),),
          ("ms", "calls", "restarts"), count=_count_restarts),
    Layer("compose.state_check", (("witworld.compose", "composite_state_check"),), ("ms",)),
    Layer("compose.effect_check", (("witworld.compose", "composite_effect_check"),), ("ms",)),
    Layer("transforms.positivity_check", (("witworld.transforms", "positivity_check"),),
          ("self_ms",), frozenset({"compose.enumeration"})),
    Layer("transforms.apply", (("witworld.transforms", "apply"),), ("calls", "ms")),
    Layer("transforms.parallel", (("witworld.transforms", "parallel"),), ("calls", "ms")),
    Layer("steering.realization", (("witworld.steering", "assemblage_from_realization"),),
          ("ms",)),
    Layer("steering.lhs_check", (("witworld.steering", "lhs_check"),),
          ("self_ms",), frozenset({"lp.solve"})),
    Layer("steering.ns_check", (("witworld.steering", "ns_check"),), ("ms",)),
    Layer("lp.solve", (("witworld.lp", "solve_feasibility"),),
          ("calls", "ms", "pivots", "infeasible"), count=_count_lp),
    Layer("serialize.load", tuple(("witworld.serialize", n) for n in (
        "load_json_file", "gptvector_from_json", "linear_map_from_json",
        "assemblage_from_json")), ("ms",)),
    Layer("serialize.dump", tuple(("witworld.serialize", n) for n in (
        "dump_json", "gptvector_to_json", "assemblage_to_json",
        "steering_inequality_to_json")), ("ms",)),
    Layer("protocols.rsp_run", (("witworld.protocols", "rsp_run"),), ("calls", "ms")),
    Layer("cli", (("witworld.cli", "main"),), ()),
)

CLI_VERBS = ("lhs", "assemblage", "check-state", "check-map", "rsp", "prbox")


def metric_names() -> list:
    """Every per-layer metric, in report order, with its unit."""
    out = []
    for layer in LAYERS:
        if not layer.span:
            out.append((layer.name, "count"))
        for m in layer.metrics:
            out.append((f"{layer.name}.{m}", "ms" if m.endswith("ms") else "count"))
    out.extend((f"cli.{verb}.ms", "ms") for verb in CLI_VERBS)
    return out


def _resolve(owner: str):
    mod_name, _, attr = owner.partition(":")
    try:
        mod = importlib.import_module(mod_name)
    except ImportError:
        return None
    return getattr(mod, attr, None) if attr else mod


@dataclass
class Tracer:
    """Installs the hooks and keeps spans and counters in memory."""

    spans: list = field(default_factory=list)   # [layer, parent, verdict, start, end]
    counts: dict = field(default_factory=lambda: defaultdict(int))
    absent: list = field(default_factory=list)
    verdict: int = -1
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    # -- hooks -------------------------------------------------------------

    def install(self):
        self.absent = []
        for layer in LAYERS:
            found = False
            for owner, attr in layer.targets:
                holder = _resolve(owner)
                orig = getattr(holder, attr, None) if holder is not None else None
                if not callable(orig):
                    continue
                found = True
                hooked = self._wrap(orig, layer)
                holders = [holder] + [
                    m for name, m in list(sys.modules.items())
                    if m is not None and m is not holder
                    and (name == "witworld" or name.startswith("witworld."))
                ]
                for mod in holders:
                    if vars(mod).get(attr) is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, hooked)
            if not found:
                self.absent.append(layer.name)

    def uninstall(self):
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    def _wrap(self, fn, layer: Layer):
        name_of = _cli_layer if layer.name == "cli" else None
        counts = self.counts
        key_calls = layer.name + ".calls"

        if not layer.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[layer.name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            name = name_of(args, kwargs) if name_of else layer.name
            rec = [name, self._stack[-1] if self._stack else -1, self.verdict, 0.0, 0.0]
            idx = len(self.spans)
            self.spans.append(rec)
            self._stack.append(idx)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            counts[key_calls] += 1
            if layer.count is not None:
                for k, v in layer.count(args, kwargs, result).items():
                    counts[f"{layer.name}.{k}"] += v
            return result
        return hooked

    # -- verdict spans -------------------------------------------------------

    def begin_verdict(self, index: int):
        self.verdict = index
        rec = ["verdict", -1, index, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)

    def end_verdict(self):
        self.spans[self._stack.pop()][4] = time.perf_counter()

    # -- reduction -----------------------------------------------------------

    def layer_times(self, first_span: int = 0) -> dict:
        """Total and self milliseconds per layer over spans from ``first_span``."""
        spans = self.spans
        by_parent = defaultdict(list)
        for i in range(first_span, len(spans)):
            by_parent[spans[i][1]].append(i)
        minus = {layer.name: layer.self_minus for layer in LAYERS}
        total = defaultdict(float)
        self_t = defaultdict(float)

        def nested_in_same(i):
            name, p = spans[i][0], spans[i][1]
            while p >= first_span:
                if spans[p][0] == name:
                    return True
                p = spans[p][1]
            return False

        for i in range(first_span, len(spans)):
            name, _, _, start, end = spans[i]
            if nested_in_same(i):
                continue
            dur = end - start
            total[name] += dur
            covered = sum(spans[c][4] - spans[c][3] for c in by_parent.get(i, ())
                          if spans[c][0] in minus.get(name, ()))
            self_t[name] += dur - covered
        return ({k: v * 1e3 for k, v in total.items()},
                {k: v * 1e3 for k, v in self_t.items()})

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, verdict, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "layer": name, "parent": parent,
                                     "verdict": verdict, "start": start, "end": end}) + "\n")
