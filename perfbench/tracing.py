"""Per-layer tracing from outside the program.

The tracer wraps public functions where their callers look them up, in
module globals (for example ``abflow.cli.portrait`` or
``abflow.verify.velocity``), so nothing under ``src/`` changes.  Calls at the
coarse layer boundaries become spans (name, layer, start, end, parent);
calls into ``field`` and ``critical`` are only counted and timed, because one
span per call would swamp memory.  Every wrapped call, span or not, charges
its duration to its caller, so a layer's self time is its own time minus the
time of the wrapped calls it made, and the self times of all layers add up
to the op's wall time.

Layers are the package modules: cli, svg, contour, dynamics, field,
critical, verify.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

from oracles import psi

LAYERS = ("cli", "svg", "contour", "dynamics", "field", "critical", "verify")

# (module, attribute) -> (layer, span name); the coarse layer boundaries
SPANS = {
    ("abflow.cli", "portrait"): ("contour", "portrait"),
    ("abflow.cli", "circulation"): ("contour", "circulation"),
    ("abflow.verify", "circulation"): ("contour", "circulation"),
    ("abflow.cli", "render_portrait"): ("svg", "render_portrait"),
    ("abflow.dynamics", "trace_separatrix"): ("dynamics", "trace_separatrix"),
    ("abflow.dynamics", "integrate"): ("dynamics", "integrate"),
    ("abflow.verify", "run_suite"): ("verify", "run_suite"),
}

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.self_ms_per_op": ("ms", "lower", "op_p50_ms on verify_queries; ops_per_s on portraits"),
    "cli.files_written": ("count", "lower", "op_p50_ms on verify_queries; ops_per_s on portraits"),
    "cli.bytes_written": ("bytes", "lower", "op_p50_ms on verify_queries; ops_per_s on portraits"),
    "svg.render_calls": ("count", "lower", "ops_per_s on portraits"),
    "svg.busy_ms": ("ms", "lower", "ops_per_s on portraits"),
    "svg.bytes": ("bytes", "lower", "ops_per_s on portraits"),
    "contour.portrait_calls": ("count", "lower", "ops_per_s and op_p50_ms on portraits"),
    "contour.portrait_self_ms": ("ms", "lower", "ops_per_s and op_p50_ms on portraits"),
    "contour.grid_points": ("count", "lower", "ops_per_s and op_p50_ms on portraits"),
    "contour.levels": ("count", "lower", "ops_per_s and op_p50_ms on portraits"),
    "contour.polylines": ("count", "lower", "ops_per_s and op_p50_ms on portraits"),
    "contour.vertices": ("count", "lower", "ops_per_s and op_p50_ms on portraits"),
    "contour.vertices_per_s": ("1/s", "higher", "ops_per_s and op_p50_ms on portraits"),
    "contour.max_level_residual": ("rel", "lower", "ops_per_s and op_p50_ms on portraits"),
    "contour.circulation_calls": ("count", "lower", "ops_per_s on verify_queries"),
    "contour.circulation_busy_ms": ("ms", "lower", "ops_per_s on verify_queries"),
    "dynamics.separatrix_calls": ("count", "lower", "op_p90_ms on separatrix_orbits"),
    "dynamics.separatrix_busy_ms": ("ms", "lower", "op_p90_ms on separatrix_orbits"),
    "dynamics.separatrix_failures": ("count", "lower", "op_p90_ms and failed ops on separatrix_orbits"),
    "dynamics.integrate_calls": ("count", "lower", "op_p50_ms on separatrix_orbits"),
    "dynamics.integrate_busy_ms": ("ms", "lower", "op_p50_ms on separatrix_orbits"),
    "dynamics.samples": ("count", "lower", "op_p50_ms on separatrix_orbits"),
    "dynamics.samples_per_s": ("1/s", "higher", "op_p50_ms on separatrix_orbits"),
    "dynamics.closed_over_attempted": ("ratio", "higher", "op_p50_ms on separatrix_orbits"),
    "dynamics.max_h_drift": ("rel", "lower", "op_p50_ms on separatrix_orbits"),
    "field.scalar_calls": ("count", "lower", "ops_per_s on verify_queries"),
    "field.scalar_busy_ms": ("ms", "lower", "ops_per_s on verify_queries"),
    "field.vector_calls": ("count", "lower", "ops_per_s on portraits and verify_queries"),
    "field.vector_points": ("count", "lower", "ops_per_s on portraits and verify_queries"),
    "field.ns_per_vector_point": ("ns", "lower", "ops_per_s on portraits and verify_queries"),
    "critical.calls": ("count", "lower", "nothing expected; shows work moved into critical"),
    "critical.busy_ms": ("ms", "lower", "nothing expected; shows work moved into critical"),
    "verify.suite_calls": ("count", "lower", "op_p90_ms on verify_queries"),
    "verify.suite_self_ms": ("ms", "lower", "op_p90_ms on verify_queries"),
    "verify.checks": ("count", "higher", "op_p90_ms on verify_queries"),
    "verify.checks_failed": ("count", "lower", "op_p90_ms and failed ops on verify_queries"),
    "trace.overhead_frac": ("ratio", "lower", "none; traced over untraced op time, minus one"),
}

_now = time.perf_counter_ns


class Tracer:
    """Install with `install()`, run ops inside `op()`, read `metrics()`."""

    def __init__(self):
        self._stack: list[list[int]] = [[0, 0]]
        self._ids = 0
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        self._portraits: list[tuple[object, object, tuple]] = []
        self.spans: list[dict] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for (modname, attr), (layer, name) in SPANS.items():
            self._patch(sys.modules[modname], attr, layer, name)
        critical = sys.modules["abflow.critical"]
        for attr in critical.__all__:
            if inspect.isfunction(getattr(critical, attr)):
                self._patch(critical, attr, "critical", None)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("abflow.") or modname == "abflow.field":
                continue
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == "abflow.field"
                        and not attr.startswith("_")):
                    self._patch(mod, attr, "field", None)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _patch(self, mod, attr: str, layer: str, span: str | None) -> None:
        fn = getattr(mod, attr)
        self._patched.append((mod, attr, fn))
        setattr(mod, attr, self._wrap(fn, layer, span))

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, layer: str, span: str | None):
        tracer = self
        after = getattr(self, f"_after_{span}", None) if span else None
        kind = f"{layer}.{span}" if span else layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kind_here = tracer._field_kind(args) if layer == "field" else kind
            parent = tracer._stack[-1]
            if span:
                tracer._ids += 1
                frame = [0, tracer._ids]
            else:
                frame = [0, parent[1]]
            tracer._stack.append(frame)
            outer = tracer._depth[layer] == 0
            tracer._depth[layer] += 1
            result = error = None
            start = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = _now()
                tracer._depth[layer] -= 1
                tracer._stack.pop()
                dur = end - start
                parent[0] += dur
                tracer.self_ns[layer] += dur - frame[0]
                tracer.counts[f"{kind_here}.calls"] += 1
                tracer.counts[f"{kind_here}.self_ns"] += dur - frame[0]
                if outer:
                    tracer.counts[f"{kind_here}.busy_ns"] += dur
                if span:
                    tracer.spans.append({
                        "id": frame[1], "parent": parent[1], "op": tracer.ops,
                        "name": span, "layer": layer, "start_ns": start, "end_ns": end,
                    })
                if after:
                    after(args, kwargs, result, error)

        return traced

    def _field_kind(self, args) -> str:
        points = max((np.size(v) for v in args[1:] if isinstance(v, np.ndarray)), default=1)
        if points > 1:
            self.counts["field.vector.points"] += points
            return "field.vector"
        return "field.scalar"

    def _after_portrait(self, args, kwargs, result, error) -> None:
        if error is None:
            params, spec = args[:2]
            self._portraits.append((params, result, spec.bbox))
            self.counts["contour.grid_points"] += spec.grid[0] * spec.grid[1]
            self.counts["contour.levels"] += len({p.level for p in result})
            self.counts["contour.polylines"] += len(result)
            self.counts["contour.vertices"] += sum(len(p) for p in result)

    def _after_render_portrait(self, args, kwargs, result, error) -> None:
        if error is None:
            self.counts["svg.bytes"] += len(result.encode())

    def _after_trace_separatrix(self, args, kwargs, result, error) -> None:
        if error is not None:
            self.counts["dynamics.separatrix_failures"] += 1

    def _after_integrate(self, args, kwargs, result, error) -> None:
        if error is None:
            params, p0 = args[:2]
            scale = params.b + params.a * math.hypot(float(p0[0]), float(p0[1]))
            self.counts["dynamics.samples"] += len(result)
            self.counts["dynamics.closed"] += result.status.value == "closed_orbit_detected"
            drift = result.max_h_drift / scale
            self.counts["dynamics.max_h_drift"] = max(self.counts["dynamics.max_h_drift"], drift)

    def _after_run_suite(self, args, kwargs, result, error) -> None:
        if error is None:
            self.counts["verify.checks"] += len(result)
            self.counts["verify.checks_failed"] += sum(r.verdict == "fail" for r in result)

    def op(self, call, *args):
        """Run one op as the root cli span; returns call(*args)."""
        self._ids += 1
        frame = [0, self._ids]
        self._stack = [frame]
        start = _now()
        try:
            return call(*args)
        finally:
            end = _now()
            self.self_ns["cli"] += (end - start) - frame[0]
            self.counts["cli.op_ns"] += end - start
            self.spans.append({"id": frame[1], "parent": None, "op": self.ops,
                               "name": "op", "layer": "cli", "start_ns": start, "end_ns": end})
            self.ops += 1

    def add_files(self, files: int, size: int) -> None:
        self.counts["cli.files_written"] += files
        self.counts["cli.bytes_written"] += size

    # -- results ------------------------------------------------------------

    def max_level_residual(self) -> float:
        """Largest |psi - level| over all portrait vertices, relative to the
        stream-function scale a*R + b of the bbox (R its largest coordinate)."""
        worst = 0.0
        for params, polylines, bbox in self._portraits:
            scale = params.a * max(abs(v) for v in bbox) + params.b
            for p in polylines:
                res = np.abs(psi(params.a, params.b, p.points[:, 0], p.points[:, 1]) - p.level)
                worst = max(worst, float(res.max()) / scale)
        return worst

    def metrics(self, passes: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics; counts and times are per pass over the op list."""
        c = self.counts
        ms = 1e-6 / passes

        def per(key: str) -> float:
            return c[key] / passes

        def rate(num: str, busy: str) -> float:
            return c[num] / (c[busy] * 1e-9) if c[busy] else 0.0

        return {
            "cli.self_ms_per_op": self.self_ns["cli"] * 1e-6 / max(self.ops, 1),
            "cli.files_written": per("cli.files_written"),
            "cli.bytes_written": per("cli.bytes_written"),
            "svg.render_calls": per("svg.render_portrait.calls"),
            "svg.busy_ms": c["svg.render_portrait.busy_ns"] * ms,
            "svg.bytes": per("svg.bytes"),
            "contour.portrait_calls": per("contour.portrait.calls"),
            "contour.portrait_self_ms": c["contour.portrait.self_ns"] * ms,
            "contour.grid_points": per("contour.grid_points"),
            "contour.levels": per("contour.levels"),
            "contour.polylines": per("contour.polylines"),
            "contour.vertices": per("contour.vertices"),
            "contour.vertices_per_s": rate("contour.vertices", "contour.portrait.busy_ns"),
            "contour.max_level_residual": self.max_level_residual(),
            "contour.circulation_calls": per("contour.circulation.calls"),
            "contour.circulation_busy_ms": c["contour.circulation.busy_ns"] * ms,
            "dynamics.separatrix_calls": per("dynamics.trace_separatrix.calls"),
            "dynamics.separatrix_busy_ms": c["dynamics.trace_separatrix.busy_ns"] * ms,
            "dynamics.separatrix_failures": per("dynamics.separatrix_failures"),
            "dynamics.integrate_calls": per("dynamics.integrate.calls"),
            "dynamics.integrate_busy_ms": c["dynamics.integrate.busy_ns"] * ms,
            "dynamics.samples": per("dynamics.samples"),
            "dynamics.samples_per_s": rate("dynamics.samples", "dynamics.integrate.busy_ns"),
            "dynamics.closed_over_attempted": c["dynamics.closed"] / c["dynamics.integrate.calls"]
            if c["dynamics.integrate.calls"] else 0.0,
            "dynamics.max_h_drift": c["dynamics.max_h_drift"],
            "field.scalar_calls": per("field.scalar.calls"),
            "field.scalar_busy_ms": c["field.scalar.busy_ns"] * ms,
            "field.vector_calls": per("field.vector.calls"),
            "field.vector_points": per("field.vector.points"),
            "field.ns_per_vector_point": c["field.vector.busy_ns"] / c["field.vector.points"]
            if c["field.vector.points"] else 0.0,
            "critical.calls": per("critical.calls"),
            "critical.busy_ms": c["critical.busy_ns"] * ms,
            "verify.suite_calls": per("verify.run_suite.calls"),
            "verify.suite_self_ms": c["verify.run_suite.self_ns"] * ms,
            "verify.checks": per("verify.checks"),
            "verify.checks_failed": per("verify.checks_failed"),
            "trace.overhead_frac": overhead_frac,
        }
