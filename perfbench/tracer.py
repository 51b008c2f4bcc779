"""Span tracer for the benchmark's traced run.

Wraps the public functions in TRACED and patches each wrapper into every
module binding of the wrapped name, so a call
made through `cli.classify`, `plrnn.classify` or `pwlcycles.classify`
is recorded like one made through `skew_tent.classify`. Spans stay in
memory until the run ends. Self time is a span's duration minus the
durations of its direct child spans. When tracemalloc is tracing, each
span also records the peak traced bytes above its starting level.

Nothing in the package is changed on disk; `uninstall` restores every
binding.
"""

from __future__ import annotations

import inspect
import json
import time
import tracemalloc

LAYERS = (
    "skew_tent",
    "cycle_solver",
    "simulator",
    "region_atlas",
    "plrnn",
    "config",
    "cli",
)

# The public functions whose spans the per-layer metrics are built from.
# The hot helpers geometric_sum, step and iterate_1d are left unwrapped:
# wrapping a call made once per map step would measure the wrapper.
TRACED = (
    "skew_tent.classify",
    "skew_tent.cycle_x_components",
    "cycle_solver.solve_cycle",
    "cycle_solver.multipliers",
    "simulator.bifurcation_scan",
    "simulator.trajectory",
    "simulator.detect_cycle",
    "simulator.band_count",
    "simulator.itinerary",
    "region_atlas.scan",
    "region_atlas.nesting_report",
    "plrnn.localize",
    "plrnn.local_cycle_analysis",
    "config.read_config",
    "cli.build_parser",
    "cli.main",
)

TYPED_SOLVER_ERRORS = (
    "NotAdmissibleError",
    "SingularDenominatorError",
    "EigenvalueOneError",
    "DegenerateOffsetError",
)


def _cells(spec):
    return spec.a_steps * spec.d_steps * len(spec.n_list)


def _argv_int(argv, flag):
    return int(argv[argv.index(flag) + 1])


def _scan_rows(argv):
    i = argv.index("--n") + 1
    ns = 0
    while i < len(argv) and not argv[i].startswith("--"):
        ns += 1
        i += 1
    return _argv_int(argv, "--a-steps") * _argv_int(argv, "--d-steps") * ns


def _cli_attrs(b, result):
    argv = list(b["argv"])
    attrs = {"exit": result}
    if argv and argv[0] == "scan":
        attrs["rows"] = _scan_rows(argv)
    return attrs


# Work counts recorded with a span, from the bound call arguments and
# the result (None when the call raised).
ATTRS = {
    "region_atlas.scan": lambda b, r: {"cells": _cells(b["spec"])},
    "region_atlas.nesting_report": lambda b, r: {"cells": _cells(b["spec"])},
    "simulator.trajectory": lambda b, r: {"m": b["sys"].m, "steps": b["steps"]},
    "simulator.bifurcation_scan": lambda b, r: {"steps": b["d_steps"] * b["steps"]},
    "simulator.detect_cycle": lambda b, r: {"found": r is not None},
    "simulator.band_count": lambda b, r: {"points": len(b["orbit"].states)},
    "simulator.itinerary": lambda b, r: {"points": len(b["orbit"].states)},
    "cycle_solver.solve_cycle": lambda b, r: {"m": b["sys"].m},
    "plrnn.local_cycle_analysis": lambda b, r: {
        "locality_ok": None if r is None else r.locality_ok
    },
    "cli.main": _cli_attrs,
}


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "child_ns",
                 "peak_bytes", "error", "attrs", "_base", "_peak_abs")

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "root": self.root,
            "name": self.name, "start_ns": self.start, "end_ns": self.end,
            "self_ns": self.self_ns, "peak_bytes": self.peak_bytes,
            "error": self.error, "attrs": self.attrs,
        }

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    """Records spans around calls into the wrapped layer functions."""

    def __init__(self):
        self.spans = []
        self.phase = "time"
        self._stack = []
        self._next_id = 0
        self._patched = []

    def _enter(self, name):
        span = Span()
        span.id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        span.parent = parent.id if parent else None
        span.root = parent.root if parent else span.id
        span.name = name
        span.child_ns = 0
        span.peak_bytes = None
        span.error = None
        span.attrs = {}
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent._peak_abs = max(parent._peak_abs, peak)
            tracemalloc.reset_peak()
            span._base = span._peak_abs = current
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _exit(self, span):
        span.end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += span.end - span.start
        if tracemalloc.is_tracing():
            span._peak_abs = max(span._peak_abs, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = span._peak_abs - span._base
            if parent is not None:
                parent._peak_abs = max(parent._peak_abs, span._peak_abs)
        span.attrs["phase"] = self.phase
        self.spans.append(span)

    def wrap(self, name, fn):
        sig = inspect.signature(fn)
        extract = ATTRS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name
            if name == "cli.main" and args and args[0]:
                span_name = f"cli.{args[0][0]}"
            span = tracer._enter(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                tracer._exit(span)
                if extract is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs.update(extract(bound.arguments, result))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, package) -> int:
        """Patch a wrapper of each TRACED function into every module that
        binds it; return the number of bindings patched."""
        wrappers = {}
        for name in TRACED:
            layer, attr = name.split(".")
            fn = getattr(getattr(package, layer), attr)
            wrappers[id(fn)] = self.wrap(name, fn)
        for module in [package] + [getattr(package, layer) for layer in LAYERS]:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return len(self._patched)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


class Summary:
    """Aggregates of the spans of one phase, keyed by span name."""

    def __init__(self, spans, phase, wall_ns):
        self.by_name = {}
        for s in spans:
            if s.attrs["phase"] == phase:
                self.by_name.setdefault(s.name, []).append(s)
        self.wall_ns = wall_ns

    def select(self, name, **attrs):
        return [s for s in self.by_name.get(name, ())
                if all(s.attrs.get(k) == v for k, v in attrs.items())]

    @staticmethod
    def per(spans, unit_key, scale, self_time=False):
        """Mean time per unit of work, in ns / scale; 0 without work."""
        units = sum(s.attrs[unit_key] for s in spans) if unit_key else len(spans)
        if not units:
            return 0.0
        ns = sum(s.self_ns if self_time else s.duration_ns for s in spans)
        return ns / units / scale

    @staticmethod
    def ratio(spans, pred):
        return sum(1 for s in spans if pred(s)) / len(spans) if spans else 0.0

    def layer_self_shares(self) -> dict:
        shares = {layer: 0 for layer in LAYERS}
        for name, spans in self.by_name.items():
            shares[name.split(".", 1)[0]] += sum(s.self_ns for s in spans)
        return {k: v / self.wall_ns for k, v in shares.items()}


def layer_metrics(summary: Summary, memory: Summary) -> dict:
    """Per-layer metrics from the timing phase and the tracemalloc phase.

    A metric of a function the workload never called reads 0; its
    `.calls` count says so.
    """
    s = summary
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    scan = s.select("region_atlas.scan")
    put("region_atlas.scan.ns_per_cell", s.per(scan, "cells", 1), "ns")
    mem_scan = memory.select("region_atlas.scan")
    put("region_atlas.scan.peak_bytes_per_cell",
        max((m.peak_bytes / m.attrs["cells"] for m in mem_scan), default=0.0), "B")
    put("region_atlas.scan.cells", sum(x.attrs["cells"] for x in scan), "count")
    nest = s.select("region_atlas.nesting_report")
    put("region_atlas.nesting_report.ns_per_cell", s.per(nest, "cells", 1), "ns")
    cli_scan = s.select("cli.scan")
    put("cli.scan.self_ns_per_row", s.per(cli_scan, "rows", 1, self_time=True), "ns")
    put("cli.scan.rows", sum(x.attrs["rows"] for x in cli_scan), "count")

    bif = s.select("simulator.bifurcation_scan")
    put("simulator.bifurcation_scan.self_ns_per_step",
        s.per(bif, "steps", 1, self_time=True), "ns")
    put("simulator.bifurcation_scan.peak_bytes",
        max((m.peak_bytes for m in memory.select("simulator.bifurcation_scan")),
            default=0), "B")
    for m in (0, 3, 16):
        traj = s.select("simulator.trajectory", m=m)
        put(f"simulator.trajectory.m{m}.ns_per_step", s.per(traj, "steps", 1), "ns")
        put(f"simulator.trajectory.m{m}.steps", sum(x.attrs["steps"] for x in traj),
            "count")
    det = s.select("simulator.detect_cycle")
    put("simulator.detect_cycle.us_per_call", s.per(det, None, 1e3), "us")
    put("simulator.detect_cycle.calls", len(det), "count")
    put("simulator.detect_cycle.found_ratio",
        s.ratio(det, lambda x: x.attrs["found"]), "ratio")
    put("simulator.band_count.ns_per_point",
        s.per(s.select("simulator.band_count"), "points", 1), "ns")
    put("simulator.itinerary.ns_per_point",
        s.per(s.select("simulator.itinerary"), "points", 1), "ns")

    for name in ("skew_tent.classify", "skew_tent.cycle_x_components",
                 "cycle_solver.multipliers", "plrnn.localize",
                 "config.read_config", "cli.build_parser"):
        spans = s.select(name)
        put(f"{name}.us_per_call", s.per(spans, None, 1e3), "us")
        put(f"{name}.calls", len(spans), "count")
    solve = s.select("cycle_solver.solve_cycle")
    for m in (0, 3, 16, 64):
        put(f"cycle_solver.solve_cycle.m{m}.self_us_per_call",
            s.per(s.select("cycle_solver.solve_cycle", m=m), None, 1e3,
                  self_time=True), "us")
    put("cycle_solver.solve_cycle.calls", len(solve), "count")
    put("cycle_solver.solve_cycle.solved_ratio",
        s.ratio(solve, lambda x: x.error is None), "ratio")
    for err in TYPED_SOLVER_ERRORS:
        put(f"cycle_solver.solve_cycle.errors.{err}",
            sum(1 for x in solve if x.error == err), "count")
    lca = s.select("plrnn.local_cycle_analysis")
    put("plrnn.local_cycle_analysis.self_us_per_call",
        s.per(lca, None, 1e3, self_time=True), "us")
    put("plrnn.local_cycle_analysis.calls", len(lca), "count")
    put("plrnn.local_cycle_analysis.locality_ok_ratio",
        s.ratio(lca, lambda x: x.attrs["locality_ok"] is True), "ratio")
    for sub in ("classify", "cycle", "plrnn", "simulate"):
        spans = s.select(f"cli.{sub}")
        put(f"cli.{sub}.self_us_per_call", s.per(spans, None, 1e3, self_time=True),
            "us")
        put(f"cli.{sub}.calls", len(spans), "count")

    for layer, share in s.layer_self_shares().items():
        put(f"layer.{layer}.self_share", share, "ratio")
    return out
