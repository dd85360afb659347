"""Spans and counters around chaincert's public functions, for traced runs.

A span measures one call of a wrapped function; its self time is its
duration minus the time of the spans it opened. Self times and counts are
summed per layer name. Spans are opened from the benchmark's side only: the
library is not edited, its functions are replaced by wrappers.

chaincert modules import functions by name (``certificates`` calls its own
binding of ``rademacher_exact``), so a function is wrapped in every loaded
module that holds a binding to it, not only in the module that defines it.
"""
from __future__ import annotations

import inspect
import sys
import time
import types
from collections import defaultdict


class Tracer:
    """Self time and work counts per layer, kept in memory until the op ends."""

    def __init__(self):
        self._open = []              # child time accumulated by each open span
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_s = 0.0             # time covered by spans with no parent span

    def wrap(self, fn, layer, count=None):
        """Return ``fn`` wrapped in a span.

        ``layer`` is a name or a function of the bound arguments returning one.
        ``count`` maps the bound arguments to {counter name: amount}. A call
        made while the same function's span is open (``w1_exact`` recursing
        into itself to order its arguments) runs unwrapped, so it is neither a
        second span nor a second count.
        """
        sig = inspect.signature(fn)
        depth = [0]

        def traced(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            name = layer(bound.arguments) if callable(layer) else layer
            children = [0.0]
            self._open.append(children)
            depth[0] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[0] -= 1
                self._open.pop()
                self.self_s[name] += elapsed - children[0]
                if self._open:
                    self._open[-1][0] += elapsed
                else:
                    self.top_s += elapsed
                if count is not None:
                    for key, amount in count(bound.arguments).items():
                        self.counts[key] += int(amount)

        traced.__wrapped__ = fn
        return traced


def _w1_route(a) -> str:
    # w1_exact's documented dispatch: equal atom counts with uniform weights
    # are an assignment problem, anything else is the transportation LP
    mu1, mu2 = a["mu1"], a["mu2"]
    same = len(mu1) == len(mu2) and mu1.is_uniform() and mu2.is_uniform()
    return "transport.w1_exact." + ("assignment" if same else "lp")


def _w1_count(a) -> dict:
    route = _w1_route(a)
    if route.endswith("assignment"):
        return {route + ".calls": 1}
    return {route + ".variables": len(a["mu1"]) * len(a["mu2"])}


def _named_spans():
    """(module, function, layer, counter) for the layers measured one by one."""
    return [
        ("chaincert.generators", "sample_chain", "generators.sample_chain",
         lambda a: {"generators.sample_chain.steps": a["n"] - 1}),
        ("chaincert.generators", "invariant_sampler", "generators.invariant_sampler", None),
        ("chaincert.hypotheses", "window_loss_values", "hypotheses.window_loss_values",
         lambda a: {"hypotheses.window_loss_values.entries":
                    len(a["cls"]) * a["xs"].shape[0]}),
        ("chaincert.hypotheses", "verify_a2", "hypotheses.verify_a2", None),
        ("chaincert.erm", "erm", "erm.erm", None),
        ("chaincert.erm", "true_risk_table", "erm.true_risk_table", None),
        ("chaincert.complexity", "rademacher_mc", "complexity.rademacher_mc",
         lambda a: {"complexity.rademacher_mc.sign_entries":
                    a["draws"] * a["matrix"].num_states}),
        ("chaincert.complexity", "rademacher_exact", "complexity.rademacher_exact",
         lambda a: {"complexity.rademacher_exact.sign_vectors":
                    1 << a["matrix"].num_states}),
        ("chaincert.complexity", "rademacher_expected", "complexity.rademacher_expected", None),
        ("chaincert.transport", "contraction_curve", "transport.contraction_curve", None),
        ("chaincert.transport", "w1_exact", _w1_route, _w1_count),
    ]


# modules whose public functions are all spans of one layer named after the module
_MODULE_LAYERS = ("certificates", "config", "reporting")


def install(tracer: Tracer, extra_modules=()) -> None:
    """Wrap the measured functions in every loaded chaincert module and in
    ``extra_modules`` (entry-point scripts that imported names from it)."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "chaincert" or name.startswith("chaincert."))]
    modules.extend(extra_modules)
    targets = [(sys.modules[mod], attr, layer, count)
               for mod, attr, layer, count in _named_spans()]
    for short in _MODULE_LAYERS:
        mod = sys.modules["chaincert." + short]
        for attr, fn in sorted(vars(mod).items()):
            if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                    and fn.__module__ == mod.__name__):
                targets.append((mod, attr, short, None))
    targets.append((sys.modules["chaincert.cli"], "main", "cli", None))
    for mod in extra_modules:
        targets.append((mod, "main", "scripts", None))

    for mod, attr, layer, count in targets:
        original = getattr(mod, attr)
        wrapped = tracer.wrap(original, layer, count)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)


def layer_names() -> list:
    """Every self-time layer a traced op reports, whether or not it ran."""
    names = [layer for _, _, layer, _ in _named_spans() if isinstance(layer, str)]
    names += ["transport.w1_exact.assignment", "transport.w1_exact.lp"]
    names += list(_MODULE_LAYERS) + ["cli", "scripts"]
    return names


COUNTERS = (
    "generators.sample_chain.steps",
    "hypotheses.window_loss_values.entries",
    "complexity.rademacher_mc.sign_entries",
    "complexity.rademacher_exact.sign_vectors",
    "transport.w1_exact.assignment.calls",
    "transport.w1_exact.lp.variables",
)
