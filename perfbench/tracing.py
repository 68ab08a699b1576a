"""Span tracing of conemin from outside, for the traced benchmark run.

The tracer replaces each public function at the module attribute its caller
looks it up by (``conemin.descent.area_gradient`` is what ``minimize``
calls, ``conemin.cli.minimize`` is what ``cli.run`` calls), so nothing under
``src/`` changes.  Spans (id, name, start, end, parent id, run id) are kept
in memory and written out when the benchmark ends.  A target that a later
version of conemin no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

# (module, attribute, span name).  The span name is "<layer>.<function>";
# the same function reached through two names gets one span name.
TARGETS = (
    ("conemin.cli", "run", "cli.run"),
    ("conemin.cli", "minimize", "descent.minimize"),
    # no metric of its own: traced so that cli.run.self_s leaves it out
    ("conemin.cli", "make_initial_plane", "descent.make_initial_plane"),
    ("conemin.cli", "save_obj", "mesh.save_obj"),
    ("conemin.cli", "two_arc_audit", "spherical.two_arc_audit"),
    ("conemin.cli", "area_deficit", "competitor.area_deficit"),
    ("conemin.cli", "find_epsilon_star", "competitor.find_epsilon_star"),
    ("conemin.cli", "export_competitor_mesh",
     "competitor.export_competitor_mesh"),
    ("conemin.descent", "minimize", "descent.minimize"),
    ("conemin.descent", "area_gradient", "descent.area_gradient"),
    ("conemin.descent", "project_gradient", "descent.project_gradient"),
    ("conemin.descent", "project_to_constraints",
     "descent.project_to_constraints"),
    ("conemin.descent", "surface_area", "mesh.surface_area"),
    ("conemin.descent", "validate", "mesh.validate"),
    ("conemin.descent", "vertex_distance", "diagnostics.vertex_distance"),
    ("conemin.descent", "monotonicity_ratio",
     "diagnostics.monotonicity_ratio"),
    ("conemin.descent", "conical_deviation", "diagnostics.conical_deviation"),
    ("conemin.descent", "boundary_angle_audit",
     "diagnostics.boundary_angle_audit"),
    # cli imports surface_area inside its runners, from conemin.mesh
    ("conemin.mesh", "surface_area", "mesh.surface_area"),
    ("conemin.mesh", "validate", "mesh.validate"),
    ("conemin.diagnostics", "vertex_distance", "diagnostics.vertex_distance"),
    ("conemin.diagnostics", "monotonicity_ratio",
     "diagnostics.monotonicity_ratio"),
    ("conemin.diagnostics", "conical_deviation",
     "diagnostics.conical_deviation"),
    ("conemin.diagnostics", "boundary_angle_audit",
     "diagnostics.boundary_angle_audit"),
    ("conemin.competitor", "area_deficit", "competitor.area_deficit"),
    ("conemin.competitor", "quad", "competitor.quad"),
    ("conemin.spherical", "linprog", "spherical.linprog"),
)


def _note_minimize(args, result):
    diag = result[1]
    return {"status": diag.status, "steps": diag.accepted_steps,
            "pins": len(set(diag.pinned_vertices))}


def _note_area_deficit(args, result):
    return {"epsilon": args[0].epsilon}


# facts taken from a call's arguments and result, after its span has ended
NOTES = {
    "descent.minimize": _note_minimize,
    "competitor.area_deficit": _note_area_deficit,
}

# calls inside minimize that run once per call, not once per step
ONE_OFF_IN_MINIMIZE = {
    "mesh.validate", "diagnostics.monotonicity_ratio",
    "diagnostics.conical_deviation", "diagnostics.boundary_angle_audit",
}
STATUSES = ("converged", "max_iters", "stalled")

# every per-layer metric: (name, unit, better)
PER_LAYER = (
    ("descent.area_gradient.calls", "count", "lower"),
    ("descent.area_gradient.ms_per_call", "ms", "lower"),
    ("descent.project_to_constraints.calls", "count", "lower"),
    ("descent.project_to_constraints.ms_per_call", "ms", "lower"),
    ("descent.project_gradient.ms_per_call", "ms", "lower"),
    ("descent.minimize.self_s", "s", "lower"),
    ("descent.steps", "count", "lower"),
    ("descent.steps_per_s", "1/s", "higher"),
    ("descent.armijo_accept_ratio", "ratio", "higher"),
    ("descent.status.converged", "count", "higher"),
    ("descent.status.max_iters", "count", "lower"),
    ("descent.status.stalled", "count", "lower"),
    ("descent.pinned_vertices", "count", "lower"),
    ("mesh.surface_area.calls", "count", "lower"),
    ("mesh.surface_area.ms_per_call", "ms", "lower"),
    ("mesh.validate.s", "s", "lower"),
    ("mesh.save_obj.s", "s", "lower"),
    ("diagnostics.vertex_distance.calls", "count", "lower"),
    ("diagnostics.vertex_distance.ms_per_call", "ms", "lower"),
    ("diagnostics.conical_deviation.s", "s", "lower"),
    ("diagnostics.monotonicity_ratio.s", "s", "lower"),
    ("diagnostics.boundary_angle_audit.s", "s", "lower"),
    ("diagnostics.deviation_abs_err", "1", "lower"),
    ("diagnostics.p_abs_err", "1", "lower"),
    ("spherical.two_arc_audit.calls", "count", "lower"),
    ("spherical.two_arc_audit.ms_per_call", "ms", "lower"),
    ("spherical.linprog.calls", "count", "lower"),
    ("spherical.linprog.s", "s", "lower"),
    ("competitor.area_deficit.calls", "count", "lower"),
    ("competitor.area_deficit.s", "s", "lower"),
    ("competitor.area_deficit.distinct_ratio", "ratio", "higher"),
    ("competitor.quad.calls", "count", "lower"),
    ("competitor.quad.s", "s", "lower"),
    ("competitor.find_epsilon_star.s", "s", "lower"),
    ("competitor.export_competitor_mesh.s", "s", "lower"),
    ("cli.run.s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.verdicts_failed", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the TARGETS while installed and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._saved = []
        self._run = 0

    def install(self, run: int) -> None:
        self._run = run
        for module, attr, name in TARGETS:
            mod = sys.modules.get(module)
            fn = getattr(mod, attr, None)
            if fn is not None:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self._run)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if note is not None:
                span.attrs = note(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")


def _covered(children) -> float:
    """Length of the union of the children's intervals."""
    total, reach = 0.0, -float("inf")
    for c in sorted(children, key=lambda s: s.start):
        lo = max(c.start, reach)
        if c.end > lo:
            total += c.end - lo
        reach = max(reach, c.end)
    return total


def layer_metrics(spans, runs: int) -> dict:
    """Per-layer metrics from the spans of `runs` traced passes, per pass."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def calls(name):
        return len(by_name[name]) / runs

    def seconds(name):
        return sum(s.seconds for s in by_name[name]) / runs

    def ms_per_call(name):
        group = by_name[name]
        return 1e3 * sum(s.seconds for s in group) / len(group) if group else 0.0

    def self_seconds(name):
        return sum(s.seconds - _covered(children[s.id])
                   for s in by_name[name]) / runs

    out = {}
    for name in ("descent.area_gradient", "descent.project_to_constraints",
                 "mesh.surface_area", "diagnostics.vertex_distance",
                 "spherical.two_arc_audit"):
        out[name + ".calls"] = calls(name)
        out[name + ".ms_per_call"] = ms_per_call(name)
    out["descent.project_gradient.ms_per_call"] = ms_per_call(
        "descent.project_gradient")
    for name in ("mesh.validate", "mesh.save_obj",
                 "diagnostics.conical_deviation",
                 "diagnostics.monotonicity_ratio",
                 "diagnostics.boundary_angle_audit", "spherical.linprog",
                 "competitor.area_deficit", "competitor.quad",
                 "competitor.find_epsilon_star",
                 "competitor.export_competitor_mesh", "cli.run"):
        out[name + ".s"] = seconds(name)
    for name in ("spherical.linprog", "competitor.area_deficit",
                 "competitor.quad"):
        out[name + ".calls"] = calls(name)
    out["descent.minimize.self_s"] = self_seconds("descent.minimize")
    out["cli.run.self_s"] = self_seconds("cli.run")

    minimize = [s for s in by_name["descent.minimize"] if s.attrs]
    steps = sum(s.attrs["steps"] for s in minimize)
    loop_s = sum(s.seconds - sum(c.seconds for c in children[s.id]
                                 if c.name in ONE_OFF_IN_MINIMIZE)
                 for s in minimize)
    # minimize evaluates the area once up front, then once per trial step
    trials = sum(c.name == "mesh.surface_area"
                 for s in minimize for c in children[s.id]) - len(minimize)
    status = Counter(s.attrs["status"] for s in minimize)
    out["descent.steps"] = steps / runs
    out["descent.steps_per_s"] = steps / loop_s if loop_s > 0 else 0.0
    out["descent.armijo_accept_ratio"] = steps / trials if trials > 0 else 0.0
    for st in STATUSES:
        out["descent.status." + st] = status[st] / runs
    out["descent.pinned_vertices"] = sum(s.attrs["pins"]
                                         for s in minimize) / runs

    deficits = [s for s in by_name["competitor.area_deficit"] if s.attrs]
    per_run = defaultdict(set)
    for s in deficits:
        per_run[s.run].add(s.attrs["epsilon"])
    distinct = sum(len(v) for v in per_run.values())
    out["competitor.area_deficit.distinct_ratio"] = (
        distinct / len(deficits) if deficits else 0.0)
    return out
