"""The four benchmark workloads.

Each workload has three steps, and only `run` is timed:

    setup(seed, work) -> inputs   import conemin and build every input
    run(inputs)       -> raw      one pass: calls into conemin and nothing else
    check(inputs, raw) -> Outcome correctness gates, outside the timed window

An operation is one scenario run or one top-level library call.  It fails
when it raises, when an output is not finite, or when a gate fails; `run`
catches per operation, so one failure does not hide the others.  Each
operation also yields a fingerprint of its outputs: passes with the same
seed must give identical fingerprints (the determinism gate), and so must
traced and untraced passes (the trace self-check).

This module imports no numpy at import time: importing numpy, scipy and
conemin belongs to setup and is timed there.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace


@dataclass
class Op:
    ok: bool
    fingerprint: object = None
    detail: str = ""


@dataclass
class Outcome:
    ops: dict                 # operation name -> Op
    final_area: float
    layer: dict = field(default_factory=dict)  # per-layer values of the pass
    notes: list = field(default_factory=list)  # reported, not failures


def _attempt(raw, name, fn, *args):
    try:
        raw[name] = fn(*args)
    except Exception as exc:  # counted as a failed operation by check()
        raw[name] = exc


def _failed(value):
    return isinstance(value, Exception)


def _error(value):
    return Op(False, None, f"raised {type(value).__name__}: {value}")


def _gate(ok, fingerprint, detail):
    return Op(bool(ok), fingerprint, "" if ok else detail)


def _nonincreasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


def _finite(values):
    return all(math.isfinite(float(x)) for x in values)


def _mesh_digest(mesh) -> str:
    h = hashlib.sha256()
    for array in (mesh.vertices, mesh.triangles, mesh.vertex_class,
                  mesh.facet, mesh.facet2):
        if array is not None:
            h.update(array.tobytes())
    h.update(repr(mesh.clamp_radius).encode())
    return h.hexdigest()


def _import_conemin():
    import conemin
    import conemin.cli  # noqa: F401  (the package imports every other module)
    return conemin


def _cli_report(out: Path):
    """(report.json contents, None) or (None, reason)."""
    path = out / "report.json"
    if not path.is_file():
        return None, "report.json not written"
    return json.loads(path.read_text()), None


def _failed_verdicts(report):
    return sorted(k for k, v in report["verdicts"].items() if not v["pass"])


class Workload:
    name = ""
    why = ""

    def reset(self, inputs) -> None:
        """Remove the outputs of the previous pass (untimed)."""
        for out in getattr(inputs, "outs", ()):
            shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------- descent

PYRAMID_11 = {"pyramid": {"a": 1.0, "b": 1.0}}
JITTER = 0.06


class DescentR64(Workload):
    name = "descent-r64"
    why = ("conemin run of minimize at resolution 64: per-step kernels and "
           "per-call overhead dominate, post-run diagnostics about a quarter")
    # Known defect (ROADMAP item 1): the end state follows the seeded
    # jitter, and on most seeds vertex_distance_monotone fails at this
    # budget (floor down to about -1e-4 against a 1e-6 tolerance).  It is
    # reported in cli.verdicts_failed and kept out of fail_ratio; no seed
    # or budget is chosen to hide it.
    MAX_ITERS = 200

    def setup(self, seed, work: Path):
        conemin = _import_conemin()
        config = {"kind": "minimize", "cone": PYRAMID_11, "R": 1.0,
                  "resolution": 64, "max_iters": self.MAX_ITERS,
                  "grad_tol": 1e-8, "initial_step": 0.25, "armijo_c": 0.3,
                  "jitter": JITTER, "seed": seed}
        path = work / "minimize.json"
        path.write_text(json.dumps(config))
        out = work / "minimize"
        return SimpleNamespace(conemin=conemin, config=path, out=out,
                               outs=(out,))

    def run(self, inp):
        raw = {}
        _attempt(raw, "run minimize", inp.conemin.cli.run, str(inp.config),
                 str(inp.out))
        return raw

    def check(self, inp, raw):
        code = raw["run minimize"]
        outcome = Outcome({}, math.nan)
        if _failed(code):
            outcome.ops["run minimize"] = _error(code)
            return outcome
        report, why = _cli_report(inp.out)
        if report is None or code not in (0, 2):
            outcome.ops["run minimize"] = Op(False, None,
                                             why or f"exit code {code}")
            return outcome
        failed = _failed_verdicts(report)
        outcome.layer["cli.verdicts_failed"] = len(failed)
        outcome.notes += [f"verdict FAIL {v}" for v in failed]
        rows = (inp.out / "iterations.csv").read_text().splitlines()[1:]
        areas = [float(r.split(",")[1]) for r in rows]
        final = report["results"]["final_area"]
        outcome.final_area = final
        problems = []
        if "area_decreased" in failed:
            problems.append("area_decreased FAIL")
        if not _nonincreasing(areas):
            problems.append("area history increases")
        if not _finite(areas + [final]):
            problems.append("non-finite area")
        fingerprint = tuple((inp.out / f).read_bytes()
                            for f in ("iterations.csv", "ratios.csv"))
        outcome.ops["run minimize"] = _gate(not problems, fingerprint,
                                            "; ".join(problems))
        return outcome


class DescentR256(Workload):
    name = "descent-r256"
    why = ("descent.minimize at resolution 256 (65,536 triangles), short "
           "budget: arithmetic-bound steps and heavy post-run diagnostics")
    MAX_ITERS = 6

    def __init__(self):
        # mesh digest -> validate's error, or None.  validate is a function
        # of the mesh and the cone alone, so a final mesh identical to one
        # already checked is not checked again; this leaves the run's time
        # to passes.  Any difference in the mesh is checked anew.
        self.validated = {}

    def setup(self, seed, work: Path):
        conemin = _import_conemin()
        cone = conemin.geometry.pyramid_to_cone(1.0, 1.0)
        mesh = conemin.descent.make_initial_plane(cone, 1.0, 256)
        config = conemin.descent.MinimizeConfig(
            max_iters=self.MAX_ITERS, grad_tol=1e-8, initial_step=0.25,
            armijo_c=0.3, clamp_radius=1.0, seed=seed)
        return SimpleNamespace(conemin=conemin, cone=cone, mesh=mesh,
                               config=config)

    def run(self, inp):
        raw = {}
        _attempt(raw, "minimize", inp.conemin.descent.minimize, inp.mesh,
                 inp.cone, inp.config, JITTER)
        return raw

    def check(self, inp, raw):
        result = raw["minimize"]
        outcome = Outcome({}, math.nan)
        if _failed(result):
            outcome.ops["minimize"] = _error(result)
            return outcome
        final, diag = result
        areas = list(diag.area_history)
        final_area = areas[-1] if areas else float(
            inp.conemin.mesh.surface_area(final))
        outcome.final_area = final_area
        problems = []
        if not _nonincreasing(areas):
            problems.append("area history increases")
        values = (areas + list(diag.vertex_distance_history)
                  + [p for _, p in diag.p_ratios]
                  + [d for _, _, d in diag.conical_deviation]
                  + final.vertices.ravel().tolist())
        if not _finite(values):
            problems.append("non-finite output")
        digest = _mesh_digest(final)
        if digest not in self.validated:
            try:
                inp.conemin.mesh.validate(final, inp.cone)
                self.validated[digest] = None
            except ValueError as exc:
                self.validated[digest] = str(exc)
        if self.validated[digest] is not None:
            problems.append(f"final mesh invalid: {self.validated[digest]}")
        outcome.ops["minimize"] = _gate(not problems,
                                        (final_area.hex(), diag.status,
                                         diag.accepted_steps, digest),
                                        "; ".join(problems))
        return outcome


# ------------------------------------------------------------ diagnostics

DEV_RHO, DEV_R = 1.1, 2.0
PLANE_HALF, PLANE_N = 1.85, 128
SECTOR_RESOLUTION = 128
# The centroid rule is second order: its error on the offset plane is
# about 0.02 h^2 for the grid spacing h; the gate allows five times that.
DEV_TOL_PER_H2 = 0.1
# p(r) replaces each arc by a 16-segment polyline; the error is below 1e-6
# at this grid, and the gate allows ten times that.
P_TOL = 1e-5
ANGLE_TOL_DEG = 1e-9


class DiagnosticsFine(Workload):
    name = "diagnostics-fine"
    why = ("no descent: clip-kernel diagnostics and per-vertex validate on "
           "fine meshes, each result checked against a closed form")

    def setup(self, seed, work: Path):
        conemin = _import_conemin()
        import numpy as np

        rng = np.random.default_rng(seed)
        # the offset plane z = 1 of criterion 12, turned and shifted in its
        # own plane by the seed: every closed form below is unchanged, and
        # the grid still covers the disk |x| <= DEV_R
        theta = rng.uniform(0.0, 2.0 * math.pi)
        shift = rng.uniform(-0.05, 0.05, size=2)
        g = np.linspace(-PLANE_HALF, PLANE_HALF, PLANE_N + 1)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        c, s = math.cos(theta), math.sin(theta)
        x = c * xx.ravel() - s * yy.ravel() + shift[0]
        y = s * xx.ravel() + c * yy.ravel() + shift[1]
        verts = np.column_stack([x, y, np.ones(x.size)])
        v00 = (np.arange(PLANE_N)[:, None] * (PLANE_N + 1)
               + np.arange(PLANE_N)[None, :]).ravel()
        v10 = v00 + (PLANE_N + 1)
        tris = np.concatenate([np.column_stack([v00, v10, v10 + 1]),
                               np.column_stack([v00, v10 + 1, v00 + 1])])
        plane = conemin.mesh.TriMesh(verts, tris,
                                     np.zeros(len(verts), dtype=np.int64))
        # a sector of C_{1,b}: the plane {x1 = 0} meets both facets at 90 deg
        b = float(rng.uniform(0.5, 2.0))
        cone = conemin.geometry.pyramid_to_cone(1.0, b)
        sector = conemin.descent.make_initial_plane(cone, 1.0,
                                                    SECTOR_RESOLUTION)
        radii = [float(r) for r in np.linspace(DEV_RHO, DEV_R, 10)]
        return SimpleNamespace(conemin=conemin, plane=plane, sector=sector,
                               cone=cone, radii=radii)

    def run(self, inp):
        dg = inp.conemin.diagnostics
        mesh = inp.conemin.mesh
        raw = {}
        _attempt(raw, "conical_deviation", dg.conical_deviation, inp.plane,
                 DEV_RHO, DEV_R)
        _attempt(raw, "monotonicity_ratio", dg.monotonicity_ratio, inp.plane,
                 inp.radii)
        _attempt(raw, "vertex_distance", dg.vertex_distance, inp.plane)
        _attempt(raw, "boundary_angle_audit", dg.boundary_angle_audit,
                 inp.sector, inp.cone)
        _attempt(raw, "validate plane", mesh.validate, inp.plane, inp.cone)
        _attempt(raw, "validate sector", mesh.validate, inp.sector, inp.cone)
        return raw

    def check(self, inp, raw):
        outcome = Outcome({}, math.nan)
        ops = outcome.ops
        for name, value in raw.items():
            if _failed(value):
                ops[name] = _error(value)

        if "conical_deviation" not in ops:
            got = raw["conical_deviation"]
            want = 2.0 * math.pi * (1.0 / DEV_RHO - 1.0 / DEV_R)
            err = abs(got - want)
            tol = DEV_TOL_PER_H2 * (2.0 * PLANE_HALF / PLANE_N) ** 2
            outcome.layer["diagnostics.deviation_abs_err"] = err
            ops["conical_deviation"] = _gate(
                math.isfinite(got) and err <= tol, got.hex(),
                f"|deviation - 2pi(1/1.1 - 1/2)| = {err:.3e} > {tol:.3e}")
        if "monotonicity_ratio" not in ops:
            table = raw["monotonicity_ratio"]
            err = max(abs(p - math.pi * (r * r - 1.0) / (r * r))
                      for r, p in table)
            outcome.layer["diagnostics.p_abs_err"] = err
            r_out, p_out = table[-1]
            # the workload returns no surface of its own: its area is the
            # clipped area of the offset plane inside the outer ball
            outcome.final_area = p_out * r_out * r_out
            ops["monotonicity_ratio"] = _gate(
                _finite([p for _, p in table]) and err <= P_TOL,
                tuple(p.hex() for _, p in table),
                f"max |p(r) - pi(r^2-1)/r^2| = {err:.3e} > {P_TOL:.0e}")
        if "vertex_distance" not in ops:
            d = raw["vertex_distance"]
            ops["vertex_distance"] = _gate(d == 1.0, d.hex(),
                                           f"vertex_distance = {d!r}, not 1")
        if "boundary_angle_audit" not in ops:
            stats = raw["boundary_angle_audit"]
            worst = max(abs(ang - 90.0) for _, _, ang in stats.records)
            ops["boundary_angle_audit"] = _gate(
                worst <= ANGLE_TOL_DEG, (stats.count, stats.records),
                f"contact angle off 90 deg by {worst:.3e}")
        for name in ("validate plane", "validate sector"):
            ops.setdefault(name, Op(True))
        return outcome


# ------------------------------------------------------------ closed forms

AUDIT_COUNT = 200


class ClosedForms(Workload):
    name = "closed-forms"
    why = ("conemin run of audit-geodesics and competitor: scalar Python "
           "and scipy, no large mesh, so mesh kernels are bypassed")

    def setup(self, seed, work: Path):
        conemin = _import_conemin()
        configs = {
            "audit-geodesics": {"kind": "audit-geodesics",
                                "count": AUDIT_COUNT, "seed": seed},
            "competitor": {"kind": "competitor", "cone": PYRAMID_11,
                           "sweep_grid": 64, "mesh_resolution": 64,
                           "seed": seed},
        }
        runs = []
        for kind, config in configs.items():
            path = work / f"{kind}.json"
            path.write_text(json.dumps(config))
            runs.append((kind, path, work / kind))
        return SimpleNamespace(conemin=conemin, runs=runs,
                               outs=tuple(out for _, _, out in runs))

    def run(self, inp):
        raw = {}
        for kind, path, out in inp.runs:
            _attempt(raw, "run " + kind, inp.conemin.cli.run, str(path),
                     str(out))
        return raw

    def check(self, inp, raw):
        outcome = Outcome({}, math.nan)
        verdicts_failed = 0
        for kind, _, out in inp.runs:
            name = "run " + kind
            code = raw[name]
            if _failed(code):
                outcome.ops[name] = _error(code)
                continue
            report, why = _cli_report(out)
            if report is None:
                outcome.ops[name] = Op(False, None, why)
                continue
            failed = _failed_verdicts(report)
            verdicts_failed += len(failed)
            results = report["results"]
            table = "audits.csv" if kind == "audit-geodesics" else "sweep.csv"
            fingerprint = ((out / table).read_bytes(),
                           json.dumps(results, sort_keys=True))
            outcome.ops[name] = _gate(code == 0 and not failed, fingerprint,
                                      f"exit code {code}, failed verdicts "
                                      f"{failed}")
            if kind == "competitor":
                outcome.final_area = results.get("mesh_area", math.nan)
        outcome.layer["cli.verdicts_failed"] = verdicts_failed
        return outcome


WORKLOADS = {w.name: w for w in (DescentR64(), DescentR256(),
                                  DiagnosticsFine(), ClosedForms())}
