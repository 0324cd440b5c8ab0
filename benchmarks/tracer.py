"""Span tracer that wraps skagree's public functions from outside the package.

Each public function of the traced modules is replaced, in every module
namespace that holds it, by one wrapper that records a span (name, start,
end, parent span, job id).  Names are imported by name across modules
(``from .capacity import golden_section_max``), so wrapping only the defining
module would miss most calls; the wrapper therefore goes wherever the caller
looks the name up.  ``uninstall`` restores the original objects.

In ``cli`` only ``main`` is wrapped, so the parser building, argument
parsing, formatting and writing done by the command handlers is all self
time of ``cli.main``.

Self time is a span's duration minus the time covered by its wrapped
children; calls, self time and inclusive time are accumulated online, and
every span is also kept in memory and written to the span file at the end.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import types
from array import array
from time import perf_counter

MODULES = ("cli", "channels", "probability", "capacity", "exponents", "binning_sim")
ROOT_SPAN = "bench.job"
CLI_ENTRY = "main"  # the only wrapped function of cli


class Tracer:
    def __init__(self, package: types.ModuleType):
        self.package = package
        self.modules = [importlib.import_module(package.__name__ + "." + m)
                        for m in MODULES]
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls = array("q")
        self.self_s = array("d")
        self.incl_s = array("d")
        self.counters = {"capacity.objective.evals": 0,
                         "capacity.golden_section_max.f_evals": 0,
                         "binning_sim.exact_evaluate.cells": 0,
                         "exponents.reliability_exponent.analytic_zero": 0}
        # every span, in entry order
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_seen = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] = {}
        self._job = -1
        self._origin = perf_counter()
        self._name_id(ROOT_SPAN)

    # -- bookkeeping -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return nid

    def _enter(self, nid: int) -> list:
        idx = self.spans_seen
        self.spans_seen += 1
        parent = self._stack[-1][3] if self._stack else -1
        t0 = perf_counter()
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_job.append(self._job)
        self.span_start.append(t0 - self._origin)
        self.span_end.append(0.0)
        frame = [nid, t0, 0.0, idx]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        t1 = perf_counter()
        self._stack.pop()
        nid, t0, child, idx = frame
        dur = t1 - t0
        self.calls[nid] += 1
        self.incl_s[nid] += dur
        self.self_s[nid] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        self.span_end[idx] = t1 - self._origin
        return dur

    # -- job scope ---------------------------------------------------------
    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._root = self._enter(0)

    def end_job(self) -> float:
        return self._exit(self._root)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        enter, exit_ = self._enter, self._exit
        counters = self.counters

        counted_arg = {"capacity.maximize_over_inputs": "capacity.objective.evals",
                       "capacity.golden_section_max":
                           "capacity.golden_section_max.f_evals"}.get(name)
        if counted_arg is not None:
            # count calls of the function passed as the first argument
            first = next(iter(inspect.signature(fn).parameters))

            def wrapper(*args, **kwargs):
                inner = args[0] if args else kwargs[first]

                def counted(*a, **kw):
                    counters[counted_arg] += 1
                    return inner(*a, **kw)
                if args:
                    args = (counted,) + args[1:]
                else:
                    kwargs[first] = counted
                frame = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
        elif name == "binning_sim.exact_evaluate":
            def wrapper(*args, **kwargs):
                frame = enter(nid)
                try:
                    report = fn(*args, **kwargs)
                    counters["binning_sim.exact_evaluate.cells"] += getattr(
                        report, "trials", 0)
                    return report
                finally:
                    exit_(frame)
        elif name == "exponents.reliability_exponent":
            golden = self._name_id("capacity.golden_section_max")
            calls = self.calls

            def wrapper(*args, **kwargs):
                before = calls[golden]
                frame = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
                    if calls[golden] == before:
                        counters["exponents.reliability_exponent.analytic_zero"] += 1
        else:
            def wrapper(*args, **kwargs):
                frame = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Replace every public skagree function in every traced namespace
        (of cli, only ``main``)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = self.package.__name__ + "."
        traced = {prefix + m for m in MODULES}
        for mod in self.modules + [self.package]:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in traced
                        or (obj.__module__ == prefix + "cli"
                            and obj.__name__ != CLI_ENTRY)):
                    continue
                wrapper = self._wrappers.get(id(obj))
                if wrapper is None:
                    name = obj.__module__[len(prefix):] + "." + obj.__name__
                    wrapper = self._wrappers[id(obj)] = self._wrap(obj, name)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    # -- results -----------------------------------------------------------
    def stat(self, name: str, field: str) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return {"calls": self.calls, "self_s": self.self_s,
                "incl_s": self.incl_s}[field][nid]

    def module_self_s(self, module: str) -> float:
        return sum(self.self_s[i] for i, n in enumerate(self.names)
                   if n.split(".", 1)[0] == module)

    def write_spans(self, path: str) -> None:
        """Every span as gzip CSV; times in seconds since the tracer started."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,job,name,start_s,end_s\n")
            for i in range(len(self.span_name)):
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % (
                    i, self.span_parent[i], self.span_job[i],
                    self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i]))
