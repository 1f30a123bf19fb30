"""Timing spans around the public functions of each wigner_lab module.

The wrappers live entirely in the benchmark: they are installed by replacing
module attributes, so no file of the program changes, and they are removed
again on exit.  A span's self time is its duration minus the time covered
by the spans it called.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "montecarlo", "protocol", "core", "synthesis", "jsonio")

# The spans the benchmark documents; installation fails loudly if one of
# them is missing, so a rename in the program cannot silently drop a layer.
REQUIRED_SPANS = (
    "cli.main",
    "montecarlo.run_trials",
    "montecarlo.compare_distributions",
    "montecarlo.analytic_mistake_table",
    "protocol.paradox_audit",
    "protocol.frame_view",
    "protocol.lookup",
    "core.change_basis",
    "core.born_probabilities",
    "core.is_unitary",
    "core.expand_in_frame",
    "synthesis.synthesize_to_e0",
    "synthesis.synthesize_from_e0",
    "jsonio.dumps",
    "jsonio.load_state",
)


def _run_trials_span(args, kwargs) -> str:
    traced = kwargs.get("collect_traces", args[1] if len(args) > 1 else False)
    return "montecarlo.run_trials." + ("traced" if traced else "counts")


# Spans whose name depends on the call: run_trials is split by path.
_SPLIT = {"montecarlo.run_trials": _run_trials_span}


class Tracer:
    """Collects per-call self times, in nanoseconds, keyed by span name."""

    def __init__(self):
        self._stack: list[list[int]] = []
        self.self_ns: dict[str, list[int]] = {}

    def _wrap(self, name: str, fn):
        stack, self_ns, split = self._stack, self.self_ns, _SPLIT.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = split(args, kwargs) if split else name
            children = [0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_ns.setdefault(span, []).append(duration - children[0])
                if stack:
                    stack[-1][0] += duration

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every public function of each layer, on its own module and
        on every wigner_lab module that imported it by name."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "wigner_lab" or n.startswith("wigner_lab.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"wigner_lab.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        missing = set(REQUIRED_SPANS) - {f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}" for fn in wrappers}
        if missing:
            raise RuntimeError(f"program no longer defines spans {sorted(missing)}")
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def summary(self) -> dict[str, dict]:
        """Per span: calls, total self time in ms and median self time in us.

        ``montecarlo.run_trials`` is reported both split by path and summed.
        """
        merged = dict(self.self_ns)
        both = merged.get("montecarlo.run_trials.counts", []) + merged.get("montecarlo.run_trials.traced", [])
        if both:
            merged["montecarlo.run_trials"] = both
        return {
            name: {
                "calls": len(values),
                "self_ms_total": sum(values) / 1e6,
                "self_us_p50": statistics.median(values) / 1e3,
            }
            for name, values in sorted(merged.items())
        }

    def total_self_ms(self) -> float:
        return sum(sum(values) for values in self.self_ns.values()) / 1e6
