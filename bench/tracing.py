"""Runtime tracing of the eikograph modules, from outside the source tree.

``Tracer.install()`` replaces traced functions and methods with wrappers that
record one span per call: name, start, end, parent span and the op id the
harness sets before each CLI command.  Every binding the package calls
through is patched: a function imported by name into another module (for
example ``solver.optical_length``) is replaced there too, and a method is
patched on its defining class together with its aliases (``__call__ =
evaluate``).  ``install()`` then checks that no eikograph namespace still
holds an original, so a call cannot slip past the trace.

Self time of a span is its duration minus the durations of its direct child
spans; calls run on one thread, so children never overlap.  Calls, self time
and counters are accumulated exactly for every call.  Span records are kept
in memory up to ``cap`` spans (the rest are counted as dropped) and written
out by ``save()`` when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

#: modules whose public module-level functions are all traced
MODULES = ("cli", "io", "graph", "cost", "optical", "solver", "slopes",
           "hamiltonian", "one_dim", "spaces", "ekeland")

#: traced methods: (module, class, method, span name).  Accessors cheaper
#: than a wrapper (MetricGraph.edge, .point, .germs, Profile.at, ...) are
#: left out so their cost stays inside the caller's self time.
METHODS = (
    ("graph", "MetricGraph", "shortest_from_seeds", "graph.shortest_from_seeds"),
    ("graph", "MetricGraph", "point_cost", "graph.point_cost"),
    ("graph", "MetricGraph", "distance", "graph.distance"),
    ("graph", "Curve", "__init__", "graph.Curve.build"),
    ("graph", "Curve", "point_at", "graph.Curve.point_at"),
    ("graph", "DistanceField", "__init__", "graph.DistanceField.build"),
    ("cost", "CostField", "__init__", "cost.CostField.build"),
    ("cost", "CostField", "edge_cost", "cost.edge_cost"),
    ("cost", "CostField", "full_edge_cost", "cost.full_edge_cost"),
    ("cost", "CostField", "value_at", "cost.value_at"),
    ("cost", "Constant", "integral", "cost.integral"),
    ("cost", "Linear", "integral", "cost.integral"),
    ("cost", "Samples", "integral", "cost.integral"),
    ("cost", "Constant", "inverse_integral", "cost.inverse_integral"),
    ("cost", "Linear", "inverse_integral", "cost.inverse_integral"),
    ("cost", "Samples", "inverse_integral", "cost.inverse_integral"),
    ("optical", "OpticalMap", "__init__", "optical.OpticalMap.build"),
    ("optical", "OpticalMap", "evaluate", "optical.evaluate"),
    ("optical", "OpticalMap", "germ_derivative", "optical.germ_derivative"),
    ("optical", "OpticalMap", "kink", "optical.kink"),
    ("optical", "StoredSolution", "__init__", "optical.StoredSolution.build"),
    ("hamiltonian", "Hamiltonian", "__call__", "hamiltonian.H"),
)

#: private CLI file helpers, traced for the byte counters
FILE_HELPERS = (("cli", "_read", "cli.read_file"), ("cli", "_write", "cli.write_file"))


def _count_read(tr: "Tracer", args, result):
    tr.counters["io.bytes_read"] += os.path.getsize(args[0])


def _count_written(tr: "Tracer", args, result):
    tr.counters["io.bytes_written"] += os.path.getsize(result)


def _count_dpp(tr: "Tracer", args, result):
    tr.counters["dpp.attempted"] += len(result.samples)
    tr.counters["dpp.checked"] += sum(1 for s in result.samples if not s.skipped)


OBSERVERS: Dict[str, Callable] = {
    "cli.read_file": _count_read,
    "cli.write_file": _count_written,
    "solver.verify_dpp": _count_dpp,
}


def _package_modules() -> List:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "eikograph" or name.startswith("eikograph."))]


def _namespaces(mod) -> List:
    """A module and the eikograph classes it defines or imports."""
    return [mod] + [c for c in vars(mod).values()
                    if inspect.isclass(c) and c.__module__.startswith("eikograph")]


class Tracer:
    def __init__(self, cap: int = 1_000_000):
        self.cap = cap
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.counters: Dict[str, int] = {"io.bytes_read": 0, "io.bytes_written": 0,
                                         "dpp.attempted": 0, "dpp.checked": 0}
        self.op_id = -1
        self.current = -1
        self.next_id = 0
        self.dropped = 0
        self._stack: List[float] = []
        self._cols = {"id": array("q"), "name": array("i"), "start": array("d"),
                      "end": array("d"), "parent": array("q"), "op": array("i")}
        self._patches: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, str] = {}

    # -- bookkeeping ------------------------------------------------------

    def _slot(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._index[name]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        idx = self._slot(name)
        observe = OBSERVERS.get(name)
        tr, stack, calls, self_s = self, self._stack, self.calls, self.self_s
        c = self._cols
        a_id, a_name, a_start = c["id"].append, c["name"].append, c["start"].append
        a_end, a_parent, a_op = c["end"].append, c["parent"].append, c["op"].append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tr.current
            sid = tr.next_id
            tr.next_id = sid + 1
            tr.current = sid
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                calls[idx] += 1
                self_s[idx] += dur - child
                tr.current = parent
                if sid < tr.cap:
                    a_id(sid)
                    a_name(idx)
                    a_start(t0)
                    a_end(t1)
                    a_parent(parent)
                    a_op(tr.op_id)
                else:
                    tr.dropped += 1
            if observe is not None:
                observe(tr, args, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def _targets(self) -> List[Tuple[object, str, str]]:
        """(owner, attribute, span name) for every traced definition."""
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
        out = []
        for short in MODULES:
            mod = mods[short]
            for attr, obj in sorted(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    out.append((mod, attr, "%s.%s" % (short, attr)))
        for short, cls, meth, name in METHODS:
            out.append((getattr(mods[short], cls), meth, name))
        for short, attr, name in FILE_HELPERS:
            out.append((mods[short], attr, name))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacement: Dict[int, Callable] = {}
        for owner, attr, name in self._targets():
            fn = vars(owner)[attr]
            replacement[id(fn)] = self._wrap(fn, name)
            self._originals[id(fn)] = name
        # every namespace that can hold a binding: modules and their classes
        for mod in _package_modules():
            for space in _namespaces(mod):
                for attr, obj in list(vars(space).items()):
                    wrapper = replacement.get(id(obj))
                    if wrapper is not None:
                        self._patches.append((space, attr, obj))
                        setattr(space, attr, wrapper)
        missed = self.unpatched()
        if missed:
            self.uninstall()
            raise RuntimeError("trace would miss calls through: %s" % ", ".join(missed))

    def unpatched(self) -> List[str]:
        """Bindings in eikograph namespaces that still hold an original."""
        out = []
        for mod in _package_modules():
            for space in _namespaces(mod):
                for attr, obj in vars(space).items():
                    if id(obj) in self._originals:
                        out.append("%s.%s" % (getattr(space, "__name__", space), attr))
        return sorted(set(out))

    def uninstall(self):
        for space, attr, obj in reversed(self._patches):
            setattr(space, attr, obj)
        self._patches = []

    # -- results ----------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self._index[name]] if name in self._index else 0

    def self_time(self, name: str) -> float:
        return self.self_s[self._index[name]] if name in self._index else 0.0

    def module_self_times(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, t in zip(self.names, self.self_s):
            mod = name.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + t
        return out

    def save(self, path: str):
        """Span records plus the name table, as a compressed numpy archive."""
        cols = {k: np.asarray(v) for k, v in self._cols.items()}
        np.savez_compressed(path, names=np.array(self.names), dropped=self.dropped, **cols)
