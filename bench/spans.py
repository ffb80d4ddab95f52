"""Spans recorded around the calls into each layer of asymser.

The tracer replaces a layer's public functions, wherever a module of the
package has bound them, with wrappers that record a span (name, start, end,
parent) and put the originals back afterwards.  Patching every binding is
what lets calls made inside the program, such as cli.main calling
associated or continue_to_one_with_steps calling recenter_step, be seen
without changing the program.  Spans stay in memory until the run ends.
Calls must come from one thread: the parent is the innermost open span.
"""
from __future__ import annotations

import contextlib
import statistics
import sys
import time
from decimal import Decimal


def _associated_name(args, kwargs):
    series = args[0] if args else kwargs["series"]
    decimal = isinstance(series.coeffs[0], Decimal)
    return "transform.associated_decimal" if decimal else "transform.associated"


def _step_attrs(args, kwargs):
    state = args[0] if args else kwargs["state"]
    return {"n": len(state.coeffs)}


def _continue_attrs(args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"alpha": str(config.alpha)}


def _continue_result(result):
    state, _ = result
    return {"converged": [str(c) for c in state.coeffs[: state.converged_count]]}


# (module, function, span name or function of the call's arguments,
#  attributes of the call, attributes of the result)
TARGETS = [
    ("transform", "associated", _associated_name, None, None),
    ("transform", "associated_inverse", "transform.associated_inverse", None, None),
    ("transform", "estimate_radius", "transform.estimate_radius", None, None),
    ("continuation", "continue_to_one_with_steps", "continuation.continue",
     _continue_attrs, _continue_result),
    ("continuation", "recenter_step", "continuation.recenter_step", _step_attrs, None),
    ("conversion", "shifted_to_plain", "conversion.shifted_to_plain", None, None),
    ("conversion", "plain_to_shifted", "conversion.plain_to_shifted", None, None),
    ("conversion", "direct_trace", "conversion.direct_trace", None, None),
    ("functions", "build_series", "functions.build_series", None, None),
    ("functions", "load_coeffs", "functions.load_coeffs", None, None),
    ("cli", "main", "cli.main", None, None),
    ("cli", "_run_cell", "cli.sweep_cell", None, None),
]


class Tracer:
    """Records spans; `installed()` patches the layer functions while open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": dict(attrs or {}),
        }
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, call_attrs, result_attrs):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            attrs = call_attrs(args, kwargs) if call_attrs else None
            with self.span(label, attrs) as record:
                result = fn(*args, **kwargs)
                if result_attrs:
                    record["attrs"].update(result_attrs(result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of each target in the loaded asymser modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "asymser" or key.startswith("asymser.")]
        patches = []
        try:
            for layer, attr, name, call_attrs, result_attrs in TARGETS:
                original = getattr(sys.modules["asymser." + layer], attr)
                wrapper = self._wrap(original, name, call_attrs, result_attrs)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        patches.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    # ---------------------------------------------------------- summaries

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def busy(self, name: str) -> float:
        """Summed duration of the spans called `name`."""
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the spans called `name`, less their children."""
        total = 0.0
        for s in self.named(name):
            children = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == s["id"])
            total += s["end"] - s["start"] - children
        return total

    def first_children(self, parent_name: str, child_name: str) -> list[dict]:
        """For each span called `parent_name`, its first child called `child_name`."""
        parents = {s["id"] for s in self.named(parent_name)}
        first = {}
        for s in self.spans:
            if s["name"] == child_name and s["parent"] in parents:
                first.setdefault(s["parent"], s)
        return list(first.values())

    def median_duration(self, name: str) -> float:
        return statistics.median(s["end"] - s["start"] for s in self.named(name))
