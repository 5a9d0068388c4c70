"""Spans recorded around the public functions of opalg's layers, from outside.

`install` wraps every public function and public method defined in the layer
modules, and rebinds every module-level name that refers to one of them, so
that calls through `from .numkit import operator_norm` bindings (and through
`cli.EXPERIMENTS`) are recorded too.  Each span keeps its name, start, end,
parent, whether it raised, and an optional size computed from its arguments
or result.  `layer_metrics` turns the spans into the per-layer numbers.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass

import numpy as np

LAYERS = ("numkit", "volterra", "shift", "gauge", "cli", "report")


def _fft_points(n: int) -> int:
    """Transform length `numkit.toeplitz_operator_norm` uses for a column of n."""
    return 1 << (2 * n - 1).bit_length()


# Sizes recorded on a span, as a function of (args, result).
SIZES = {
    "numkit.operator_norm":
        lambda args, result: np.asarray(getattr(args[0], "entries", args[0])).nbytes,
    "numkit.toeplitz_operator_norm": lambda args, result: _fft_points(len(args[0])),
    "volterra.build_vf": lambda args, result: result.matrix.entries.nbytes,
    "report.ExperimentReport.to_csv_bytes": lambda args, result: len(result),
    "report.ExperimentReport.to_json_bytes": lambda args, result: len(result),
}

_EMIT = ("report.ExperimentReport.to_csv_bytes", "report.ExperimentReport.to_json_bytes")

# Per-layer groups: name -> (span predicate, (size metric, unit) or None).
# operator_norm bytes are N^2 * itemsize of the matrices passed in: computed
# from array sizes, not measured traffic.
GROUPS = {
    "numkit.operator_norm":
        (lambda n: n == "numkit.operator_norm", ("bytes", "B-computed")),
    "numkit.toeplitz_operator_norm":
        (lambda n: n == "numkit.toeplitz_operator_norm", ("fft_points", "count")),
    "numkit.jacobi_svd": (lambda n: n == "numkit.jacobi_svd", None),
    "volterra.build_vf": (lambda n: n == "volterra.build_vf", ("dense_bytes", "B")),
    # kernel constructors; kernel_norm is a norm, not a constructor
    "volterra.kernels": (lambda n: (n.startswith("volterra.kernel_")
                                    and n != "volterra.kernel_norm")
                         or n == "volterra.parse_kernel_spec", None),
    "shift.powers": (lambda n: n == "shift.ShiftTruncation.powers", None),
    "gauge.gauge_conjugate": (lambda n: n == "gauge.gauge_conjugate", None),
    "cli.run_experiment": (lambda n: n == "cli.run_experiment", None),
    "report.emit": (lambda n: n in _EMIT, ("bytes", "B")),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    raised: bool = False
    size: float = 0


class Tracer:
    """Keeps spans in memory; `wrap` returns a recording version of a function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if size is not None:
                span.size = size(args, result)
            return result

        return traced


def install(tracer: Tracer, modules) -> list:
    """Wrap the public functions and methods defined in `modules` (layer name =
    last component of the module name) and rebind every module-level name or
    module-level dict value that refers to one.  Returns the undo list for
    `uninstall`."""
    wrappers = {}  # id(original) -> wrapper
    undo = []
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, SIZES.get(name))
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        name = f"{layer}.{attr}.{meth}"
                        setattr(obj, meth, tracer.wrap(name, fn, SIZES.get(name)))
                        undo.append((obj, meth, fn))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
                undo.append((mod, attr, obj))
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]
                        undo.append((obj, key, value))
    return undo


def uninstall(undo):
    for target, key, original in reversed(undo):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((max(spans[k].start, span.start), min(spans[k].end, span.end))
                             for k in kids):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _outermost(spans, match):
    """Indices of spans that match and have no matching ancestor."""
    out = []
    for i, span in enumerate(spans):
        if not match(span.name):
            continue
        parent = span.parent
        while parent >= 0 and not match(spans[parent].name):
            parent = spans[parent].parent
        if parent < 0:
            out.append(i)
    return out


def layer_units() -> dict:
    """Name -> unit of every metric `layer_metrics` returns, in its order."""
    units = {}
    for group, (_, size) in GROUPS.items():
        units[f"{group}.calls"] = "count"
        units[f"{group}.busy_s"] = "s"
        if size is not None:
            units[f"{group}.{size[0]}"] = size[1]
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["cli.errors"] = "count"
    return units


def layer_metrics(spans) -> dict:
    """Per-layer numbers: calls, busy time and size sums for each group, self
    time for each layer, and the count of `cli.run_experiment` calls that raised."""
    metrics = {}
    for group, (match, size) in GROUPS.items():
        matched = [s for s in spans if match(s.name)]
        metrics[f"{group}.calls"] = len(matched)
        metrics[f"{group}.busy_s"] = sum(spans[i].end - spans[i].start
                                         for i in _outermost(spans, match))
        if size is not None:
            metrics[f"{group}.{size[0]}"] = sum(s.size for s in matched)
    selfs = self_times(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs)
                                         if s.name.startswith(layer + "."))
    metrics["cli.errors"] = sum(1 for s in spans
                                if s.name == "cli.run_experiment" and s.raised)
    return metrics
