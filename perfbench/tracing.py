"""Benchmark-side span tracing around each layer's public entry points.

:func:`install` wraps the entry points listed in :data:`FUNCTIONS` and
:data:`METHODS`.  A function is patched in every ``repro`` module that
binds it, which is where its callers look it up (the engine, for
example, binds ``optimize`` at import).  A method is patched on its
class, and for the scheduler and allocator registries on every
registered class.

While a job is open, each wrapped call records a :class:`Span` (name,
layer, start, end, parent span, job id and a few counts) in memory;
spans never leave the process until the run ends.  Outside a job the
wrappers pass straight through, so the output checks run untraced.
"""

from __future__ import annotations

import functools
import sys
import time

import repro.analysis.impact
import repro.binding
import repro.controller.fsm
import repro.core
import repro.core.incremental
import repro.datapath.plan
import repro.estimation
import repro.explore
import repro.lang
import repro.rtl
import repro.sim.rtl_sim
import repro.store
import repro.transforms
from repro.core.engine import ALLOCATORS, SCHEDULERS


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "job", "info")

    def __init__(self, layer: str, name: str, parent: int, job: int) -> None:
        self.layer = layer
        self.name = name
        self.parent = parent
        self.job = job
        self.start = 0.0
        self.end = 0.0
        self.info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; ``job`` is None while no job is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []

    def open_job(self, job: int) -> None:
        self.job = job
        self._stack = [len(self.spans)]
        span = Span("bench", "job", -1, job)
        self.spans.append(span)
        span.start = time.perf_counter()

    def close_job(self) -> None:
        self.spans[self._stack[0]].end = time.perf_counter()
        self.job = None
        self._stack = []

    def wrap(self, layer: str, name: str, fn, note=None, pre=None):
        """``fn`` recording a span per call while a job is open.

        ``pre(args)`` runs before the span starts; its result and the
        call's are handed to ``note(args, result, state)`` after the
        span ends, which returns counts to attach to the span.  Neither
        is timed.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.job is None:
                return fn(*args, **kwargs)
            state = pre(args) if pre is not None else None
            index = len(recorder.spans)
            span = Span(layer, name, recorder._stack[-1], recorder.job)
            recorder.spans.append(span)
            recorder._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
            if note is not None:
                span.info = note(args, result, state)
            return result

        return wrapper


def _ir_ops(cdfg) -> int:
    return sum(len(block.ops) for block in cdfg.blocks())


def _note_schedule(args, result, state):
    return {"ops": len(args[0].problem.ops)}


def _note_allocate(args, result, state):
    return {"ops": len(args[0].schedule.problem.ops)}


def _note_resynthesize(args, result, state):
    baseline = args[0]
    scheduled = {
        block.name for block in baseline.cdfg.blocks()
        if block.id in baseline.schedules
    }
    hinted = sum(1 for name in result.delta.unchanged if name in scheduled)
    return {"hinted": hinted, "replayed": len(result.replayed_blocks)}


def _note_explore(args, result, state):
    return {"cells": result.funnel.get("exhaustive", 0),
            "evaluated": result.funnel.get("configs_evaluated", 0)}


#: (layer, span name, function, note, pre) for module-level functions.
FUNCTIONS = (
    ("lang", "compile_source", repro.lang.compile_source,
     lambda args, result, state: {"ops": _ir_ops(result)}, None),
    ("transforms", "optimize", repro.transforms.optimize,
     lambda args, result, state: {"before": state,
                                  "after": _ir_ops(args[0])},
     lambda args: _ir_ops(args[0])),
    ("datapath", "plan_block", repro.datapath.plan.plan_block, None, None),
    ("controller", "synthesize_fsm", repro.controller.fsm.synthesize_fsm,
     lambda args, result, state: {"states": result.state_count},
     None),
    ("rtl", "emit_verilog", repro.rtl.emit_verilog,
     lambda args, result, state: {"lines": result.count("\n")},
     None),
    ("estimation", "estimate_area", repro.estimation.estimate_area,
     None, None),
    ("estimation", "estimate_timing", repro.estimation.estimate_timing,
     None, None),
    ("explore", "explore_directives", repro.explore.explore_directives,
     _note_explore, None),
    ("analysis", "diff_cdfgs", repro.analysis.impact.diff_cdfgs,
     None, None),
    ("core", "resynthesize", repro.core.incremental.resynthesize,
     _note_resynthesize, None),
)


def _note_cache_get(args, result, state):
    return {"hit": result is not None}


#: (layer, span name, class, method, note) for methods.
METHODS = (
    ("binding", "bind", repro.binding.ModuleBinder, "bind", None),
    ("sim", "rtl_run", repro.sim.rtl_sim.RTLSimulator, "run",
     lambda args, result, state: {"cycles": args[0].cycles}),
    ("estimation", "qor_model", repro.estimation.QoRModel, "__init__",
     None),
    ("estimation", "qor_estimate", repro.estimation.QoRModel, "estimate",
     None),
    ("estimation", "qor_aggregate", repro.estimation.QoRModel,
     "aggregate_latency", None),
    ("core", "cache.get", repro.core.SynthesisCache, "get",
     _note_cache_get),
    ("core", "cache.put", repro.core.SynthesisCache, "put", None),
    ("store", "get", repro.store.DesignStore, "get", _note_cache_get),
    ("store", "put", repro.store.DesignStore, "put", None),
)


class Installation:
    """The patches :func:`install` made, undone by :meth:`remove`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


def install(recorder: Recorder) -> Installation:
    """Wrap every listed entry point; returns the undo record."""
    installation = Installation()
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    for layer, name, function, note, pre in FUNCTIONS:
        wrapper = recorder.wrap(layer, name, function, note, pre)
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is function:
                    installation.set(module, attribute, wrapper)
    methods = list(METHODS)
    methods += [("scheduling", algorithm, cls, "schedule", _note_schedule)
                for algorithm, cls in sorted(SCHEDULERS.items())]
    methods += [("allocation", algorithm, cls, "allocate", _note_allocate)
                for algorithm, cls in sorted(ALLOCATORS.items())]
    for layer, name, cls, method, note in methods:
        original = cls.__dict__[method]
        installation.set(cls, method,
                         recorder.wrap(layer, name, original, note))
    return installation
