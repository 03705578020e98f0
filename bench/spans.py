"""In-memory span tracing of graphspine's public functions, from outside.

``installed(tracer)`` rebinds every public function of the package's layer
modules to the tracer's recording wrapper, in every ``graphspine`` module
that holds it by name (so both ``cycles.minimum_cycles`` and the copy that
``from .cycles import minimum_cycles`` put into ``flow`` are wrapped), and
in the ``verify.CHECKS`` registry, and restores the originals on exit.

A span is ``(name, start, end, parent, job, extra)``: ``parent`` is the
index of the enclosing span or -1, ``job`` the job id set by the runner,
``extra`` a per-function measurement of the call (see ``EXTRAS``).  Spans
stay in memory until the run ends.  Nothing inside the program changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

LAYERS = ("graphs", "cycles", "homology", "fill", "flow", "deformation", "maps", "verify", "cli")


def _graph_key(g, weights):
    """A value identifying a (graph, weights) input by content."""
    edges = tuple((e.id, e.u, e.v) for e in g.edges)
    lengths = weights if weights is not None else g.lengths
    return g.num_vertices, edges, tuple(sorted(lengths.items()))


def _min_cycles_extra(args, kwargs, result):
    weights = args[1] if len(args) > 1 else kwargs.get("weights")
    return _graph_key(args[0], weights), len(result[1])


def _snf_extra(args, kwargs, result):
    return len(result.D), len(result.W)


# Per-function measurement stored on each span (taken after the span ends).
EXTRAS: dict[str, Callable] = {
    "cycles.minimum_cycles": _min_cycles_extra,
    "cycles.cycles_up_to_length": lambda args, kwargs, result: len(result),
    "homology.smith_normal_form": _snf_extra,
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    job: str
    extra: object


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []
        self.wrappers = {id(fn): (fn, self.wrap(name, fn))
                         for name, fn in public_functions().items()}

    def wrap(self, name: str, fn: Callable) -> Callable:
        extra = EXTRAS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children point at it
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = extra(args, kwargs, result) if extra and result is not None else None
                spans[index] = Span(name, start, end, parent, self.job, value)

        return wrapper


def public_functions() -> dict[str, Callable]:
    """``layer.function`` -> function, for the functions each layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"graphspine.{layer}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found[f"{layer}.{name}"] = obj
    return found


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every public function through ``tracer`` inside the block."""
    rebound = []

    def rebind(module, attr, value):
        rebound.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    for module_name, module in list(sys.modules.items()):
        if module_name != "graphspine" and not module_name.startswith("graphspine."):
            continue
        for attr, value in list(vars(module).items()):
            fn, wrapper = tracer.wrappers.get(id(value), (None, None))
            if fn is value:
                rebind(module, attr, wrapper)
    verify = sys.modules["graphspine.verify"]
    rebind(verify, "CHECKS", tuple(
        (name, tracer.wrappers.get(id(fn), (fn, fn))[1]) for name, fn in verify.CHECKS))
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(rebound):
            setattr(module, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], names) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    ``<layer>.<function>.calls`` / ``.self_s`` for every name in ``names``,
    ``<layer>.self_s`` per layer, and the derived counts documented in
    README.md.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        calls[s.name] += 1
        busy[s.name] += t
        busy[s.name.split(".")[0]] += t

    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = busy[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = busy[layer]

    mc = [i for i, s in enumerate(spans) if s.name == "cycles.minimum_cycles"]
    distinct = {(spans[i].job, spans[i].extra[0]) for i in mc if spans[i].extra}
    out["cycles.minimum_cycles.unique_ratio"] = len(distinct) / len(mc) if mc else 0.0
    out["cycles.cycles_up_to_length.cycles_out"] = sum(
        s.extra for s in spans if s.name == "cycles.cycles_up_to_length" and s.extra)
    in_event = [spans[i] for i in mc
                if spans[i].parent >= 0 and spans[spans[i].parent].name == "flow.next_event"]
    events = calls["flow.next_event"]
    out["flow.next_event.newton_iters"] = len(in_event) / events if events else 0.0
    out["flow.next_event.candidate_cycles"] = sum(s.extra[1] for s in in_event if s.extra)
    out["homology.smith_normal_form.cells"] = sum(
        s.extra[0] * s.extra[1]
        for s in spans if s.name == "homology.smith_normal_form" and s.extra)
    return out
