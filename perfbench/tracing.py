"""Per-layer tracing of the package from outside it.

``Tracer.install`` replaces every public function of the layer modules, plus
``SimplexSpec.contains`` and ``ExactReal.interval``, wherever the package
binds it, with a wrapper that records a span (name, start, end, parent,
query id) and bumps the layer's work counters.  ``restore`` puts every
original back.  Spans stay in memory in flat arrays and are written out once
at the end.

Self time is a span's duration minus the durations of its child spans, so the
self times of all spans under a query's ``cli.main`` span add up to that span
exactly.  A generator is traced one resume at a time: each ``next`` is a span
whose parent is the span that asked for the value.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from math import comb

PACKAGE = "quotientfree"
LAYERS = ("arith", "lattice", "density", "geometry", "verify", "cli")
# cli.main is the query's root span; the rest of cli (parsing and
# serialization helpers) is its self time.
_CLI_FUNCTIONS = ("main",)
_METHODS = (("geometry", "SimplexSpec", "contains"), ("geometry", "ExactReal", "interval"))
# work counters, present (as 0) even when the layer never runs
COUNTERS = (
    "arith.enumerate_smooth.values",
    "arith.smooth_stream.values",
    "arith.coprime_part_list.values",
    "arith.exact_sum.terms",
    "arith.exact_sum.den_bits_max",
    "density.max_subset_count.horizon_sum",
    "density.max_subset_count.witness_calls",
    "density.sigma_series.terms",
    "density.strict_gap_check.rounds",
    "density.construct_dense_set.members",
    "lattice.gamma_bracket.points",
    "lattice.max_difference_free.points",
    "geometry.ExactReal.interval.max_bits",
    "geometry.simplex_points.points",
    "geometry.find_black_majority_c.candidates_tested",
    "geometry.rational_slope_profile.rows",
    "verify.run_suite.cases",
    "verify.run_suite.failed_cases",
    "cli.stdout_bytes",
    "cli.exit_nonzero",
) + tuple(f"{layer}.errors" for layer in LAYERS)


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_results(counters, name, args, kwargs, result) -> None:
    """Work counters per span name, taken from arguments and results only."""
    if name == "arith.enumerate_smooth":
        counters["arith.enumerate_smooth.values"] += len(result)
    elif name == "arith.coprime_part_list":
        counters["arith.coprime_part_list.values"] += len(result)
    elif name == "arith.exact_sum":
        counters["arith.exact_sum.terms"] += len(args[0])
        bits = result.denominator.bit_length()
        counters["arith.exact_sum.den_bits_max"] = max(counters["arith.exact_sum.den_bits_max"], bits)
    elif name == "density.max_subset_count":
        counters["density.max_subset_count.horizon_sum"] += _arg(args, kwargs, 2, "n")
        counters["density.max_subset_count.witness_calls"] += bool(
            _arg(args, kwargs, 3, "with_witness", False))
    elif name == "density.sigma_series":
        counters["density.sigma_series.terms"] += result.detail["terms"]
    elif name == "density.strict_gap_check":
        counters["density.strict_gap_check.rounds"] += result.rounds
    elif name == "density.construct_dense_set":
        counters["density.construct_dense_set.members"] += len(result.members)
    elif name == "lattice.gamma_bracket":
        basis, depth = _arg(args, kwargs, 0, "basis"), _arg(args, kwargs, 1, "depth")
        counters["lattice.gamma_bracket.points"] += comb(depth + basis.size, basis.size)
    elif name == "lattice.max_difference_free":
        counters["lattice.max_difference_free.points"] += len(_arg(args, kwargs, 0, "config").points)
    elif name == "geometry.ExactReal.interval":
        bits = _arg(args, kwargs, 1, "prec_bits")
        counters["geometry.ExactReal.interval.max_bits"] = max(
            counters["geometry.ExactReal.interval.max_bits"], bits)
    elif name == "geometry.simplex_points":
        counters["geometry.simplex_points.points"] += len(result.points)
    elif name == "geometry.find_black_majority_c":
        counters["geometry.find_black_majority_c.candidates_tested"] += result.candidates_tested
    elif name == "geometry.rational_slope_profile":
        counters["geometry.rational_slope_profile.rows"] += len(result)
    elif name == "verify.run_suite":
        counters["verify.run_suite.cases"] += sum(len(r.cases) for r in result)
        counters["verify.run_suite.failed_cases"] += sum(r.failed for r in result)
    elif name == "cli.main":
        counters["cli.exit_nonzero"] += result != 0


class Tracer:
    """Wraps the package's layer boundaries and accumulates spans and counters."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        # one entry per span, in order of completion
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_query = array("q")
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.query_id = -1
        self.root_ns = 0
        self._next_span = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter_ns()

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(layer, span name, owner, attribute, original) for every traced callable."""
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and (layer != "cli" or attr in _CLI_FUNCTIONS)
                ):
                    yield layer, f"{layer}.{attr}", module, attr, obj
        for layer, cls_name, attr in _METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            yield layer, f"{layer}.{cls_name}.{attr}", cls, attr, cls.__dict__[attr]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        methods = []
        for layer, name, owner, attr, original in self._targets():
            if name not in self.names:
                self.names.append(name)
                self.layer_of.append(layer)
                self.calls.append(0)
                self.self_ns.append(0)
            wrappers[id(original)] = self._wrap(self.names.index(name), name, original)
            if isinstance(owner, type):
                methods.append((owner, attr, original))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(module, attr, obj, wrappers[id(obj)])
        for cls, attr, original in methods:
            self._patch(cls, attr, original, wrappers[id(original)])

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when each binding is the original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
            for owner, attr, original in self._patches
        )
        self._patches.clear()
        return ok

    # -- spans -------------------------------------------------------------

    def _enter(self, nid: int) -> list:
        frame = [self._next_span, nid, time.perf_counter_ns(), 0]
        self._next_span += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, error: bool = False) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        span, nid, start, child_ns = frame
        duration = end - start
        self.self_ns[nid] += duration - child_ns
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[0]
            crossed = self.layer_of[parent[1]] != self.layer_of[nid]
        else:
            parent_id = -1
            crossed = True
            self.root_ns += duration
        if error and crossed:
            self.counters[f"{self.layer_of[nid]}.errors"] += 1
        self.span_id.append(span)
        self.span_name.append(nid)
        self.span_start.append(start - self._t0)
        self.span_end.append(end - self._t0)
        self.span_parent.append(parent_id)
        self.span_query.append(self.query_id)

    def _wrap(self, nid: int, name: str, original):
        tracer = self
        if inspect.isgeneratorfunction(original):
            def wrapper(*args, **kwargs):
                return tracer._resumes(nid, name, original(*args, **kwargs))
        elif name == "arith.exact_sum":
            # exact_sum's first step is list(fractions); doing it here lets
            # the counter see the terms without a second pass
            def wrapper(fractions):
                frame = tracer._enter(nid)
                try:
                    items = list(fractions)
                    result = original(items)
                except BaseException:
                    tracer._exit(frame, error=True)
                    raise
                tracer._exit(frame)
                tracer.calls[nid] += 1
                _count_results(tracer.counters, name, (items,), {}, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(nid)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    tracer._exit(frame, error=True)
                    raise
                tracer._exit(frame)
                tracer.calls[nid] += 1
                _count_results(tracer.counters, name, args, kwargs, result)
                return result
        return functools.wraps(original)(wrapper)

    def _resumes(self, nid: int, name: str, gen):
        try:
            while True:
                frame = self._enter(nid)
                try:
                    value = next(gen)
                except StopIteration:
                    self._exit(frame)
                    return
                except BaseException:
                    self._exit(frame, error=True)
                    raise
                self._exit(frame)
                key = f"{name}.values"
                self.counters[key] = self.counters.get(key, 0) + 1
                yield value
        finally:
            gen.close()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counters)
        layer_ns = dict.fromkeys(LAYERS, 0)
        for name, layer, calls, self_ns in zip(self.names, self.layer_of, self.calls,
                                                 self.self_ns):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
            layer_ns[layer] += self_ns
        for layer, ns in layer_ns.items():
            out[f"layer.{layer}.self_s"] = ns / 1e9
        out["trace.query_s"] = self.root_ns / 1e9
        out["trace.unattributed_s"] = (self.root_ns - sum(layer_ns.values())) / 1e9
        out["trace.spans"] = len(self.span_id)
        contains = out.get("geometry.SimplexSpec.contains.calls", 0)
        intervals = out.get("geometry.ExactReal.interval.calls", 0)
        out["geometry.intervals_per_decision"] = intervals / contains if contains else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,query\n")
            for row in zip(self.span_id, self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_query):
                fh.write(f"{row[0]},{self.names[row[1]]},{row[2]},{row[3]},{row[4]},{row[5]}\n")
