"""Acceptance gate: one test per shipped criterion, each printing a single
PASS/FAIL line with the measured value, the stated tolerance, and the
runtime against its budget.  Criteria 10, 11, 13 and 14 share one
resolution-64 minimizer run through a module-scoped fixture.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; on failure the line is repeated in the assertion message.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate

from conemin import competitor as cmp
from conemin import descent as dsc
from conemin import diagnostics as dgn
from conemin import geometry as geo
from conemin import mesh as msh
from conemin import spherical as sph
from conemin.cli import _random_audit_inputs
from oracles import (annulus_inverse_cube_integral, fd_surface_gradient,
                     lhuilier_excess)

SRC = Path(__file__).resolve().parent.parent / "src"


def report(num, label, ok, detail):
    line = "%s criterion %02d %s: %s" % ("PASS" if ok else "FAIL", num,
                                         label, detail)
    print(line)
    assert ok, line


# ------------------------------------------------------------- competitor

def test_c01_closed_form_energy_matches_adaptive_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in np.linspace(0.25, 4.0, 20):
        for h in np.geomspace(0.1, 50.0, 20):
            prof = cmp.ConnectionProfile(h=float(h), alpha=float(alpha))
            quad, _ = scipy.integrate.quad(
                lambda t: t * cmp.phi_prime(prof, t) ** 2,
                1.0, 1.0 + prof.h, epsabs=1e-13, epsrel=1e-13, limit=200)
            worst = max(worst, abs(cmp.weighted_energy(prof) - quad))
    anchor = abs(cmp.weighted_energy(cmp.ConnectionProfile(h=3.0, alpha=1.0))
                 - 5.0 / 6.0)
    el = time.perf_counter() - t0
    ok = worst <= 1e-10 and anchor <= 1e-14 and el < 1.0
    report(1, "closed-form energy", ok,
           "max |closed - quad| = %.2e (tol 1e-10) on 20x20 grid, "
           "|E(1,3) - 5/6| = %.1e, %.2f s (budget 1 s)" % (worst, anchor, el))


def test_c02_energy_decreases_to_half_alpha():
    t0 = time.perf_counter()
    hs = np.geomspace(1.0, 1e4, 40)
    es = [cmp.weighted_energy(cmp.ConnectionProfile(h=float(h), alpha=1.0))
          for h in hs]
    decreasing = all(e1 > e2 for e1, e2 in zip(es, es[1:]))
    tail = abs(es[-1] - 0.5)
    el = time.perf_counter() - t0
    ok = decreasing and tail <= 1e-3 and el < 1.0
    report(2, "energy limit", ok,
           "decreasing over 40 h-values in [1, 1e4]: %s, "
           "|E(h=1e4) - 1/2| = %.2e (tol 1e-3), %.2f s (budget 1 s)"
           % (decreasing, tail, el))


def test_c03_deficit_second_derivative():
    t0 = time.perf_counter()
    prof = cmp.ConnectionProfile(h=3.0, alpha=1.0)

    def d(eps):
        return cmp.area_deficit(cmp.CompetitorSpec(
            a=1.0, b=1.0, profile=prof, epsilon=eps)).deficit

    step = 1e-3
    fd = (d(2 * step) - 2 * d(step) + d(0.0)) / (step * step)
    err = abs(fd + 1.0 / 3.0)
    el = time.perf_counter() - t0
    ok = err <= 1e-5 and el < 1.0
    report(3, "deficit curvature", ok,
           "FD second derivative at eps=0: %.8f, |err vs -1/3| = %.2e "
           "(tol 1e-5), %.2f s (budget 1 s)" % (fd, err, el))


def test_c04_nonminimality_witness_all_pyramids():
    t0 = time.perf_counter()
    worst = -math.inf
    for a in (0.5, 1.0, 2.0):
        for b in (0.5, 1.0, 2.0):
            star = cmp.epsilon_star(cmp.deficit_sweep(
                a, b, cmp.feasible_params(a), grid=32))
            worst = max(worst, math.inf if star is None else star[1].deficit)
    el = time.perf_counter() - t0
    ok = worst < -1e-9 and el < 10.0
    report(4, "non-minimality witness", ok,
           "largest certified deficit over (a,b) in {0.5,1,2}^2: %.3e "
           "(must be < -1e-9), %.2f s (budget 10 s)" % (worst, el))


def test_c05_competitor_mesh_area_order_two():
    t0 = time.perf_counter()
    spec = cmp.CompetitorSpec(a=1.0, b=1.0, profile=cmp.feasible_params(1.0),
                              epsilon=0.2)
    rep = cmp.area_deficit(spec)
    target = rep.A_eps + rep.ruled_area
    errs = [abs(msh.surface_area(cmp.export_competitor_mesh(spec, res))
                - target) for res in (16, 32, 64)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    el = time.perf_counter() - t0
    ok = 2.8 <= r1 <= 5.2 and 2.8 <= r2 <= 5.2 and el < 30.0
    report(5, "mesh/analytic consistency", ok,
           "error ratios per halving: %.2f, %.2f (must be 4 +/- 30%%), "
           "%.2f s (budget 30 s)" % (r1, r2, el))


# -------------------------------------------------------------- spherical

def _cap_point(rng, center, cap_radius):
    while True:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        t = v - (v @ center) * center
        nt = np.linalg.norm(t)
        if nt > 1e-6:
            break
    ang = cap_radius * rng.uniform(0.05, 1.0)
    return math.cos(ang) * center + math.sin(ang) * (t / nt)


def test_c06_excess_matches_lhuilier():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    done = 0
    while done < 1000:
        center = rng.normal(size=3)
        center /= np.linalg.norm(center)
        pts = [_cap_point(rng, center, 1.0) for _ in range(3)]
        if min(np.linalg.norm(pts[i] - pts[(i + 1) % 3])
               for i in range(3)) < 1e-3:
            continue
        tri = sph.GeodesicPolygon(tuple(pts))
        oracle = lhuilier_excess(sph.arc_length(pts[0], pts[1]),
                                 sph.arc_length(pts[1], pts[2]),
                                 sph.arc_length(pts[2], pts[0]))
        worst = max(worst, abs(sph.spherical_excess(tri) - oracle))
        done += 1
    octant = sph.GeodesicPolygon(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    oct_err = abs(sph.spherical_excess(octant) - math.pi / 2)
    el = time.perf_counter() - t0
    ok = worst <= 1e-10 and oct_err <= 1e-14 and el < 5.0
    report(6, "Gauss-Bonnet", ok,
           "max |excess - L'Huilier| = %.2e on 1000 hemispheric triangles "
           "(tol 1e-10), |octant - pi/2| = %.1e, %.2f s (budget 5 s)"
           % (worst, oct_err, el))


def test_c07_two_arc_infeasibility():
    t0 = time.perf_counter()
    # the 500 audits run as one batch; each row is its own audit's report
    rep = sph.two_arc_audit(*_random_audit_inputs(np.random.default_rng(0),
                                                  500))
    min_excess = float(np.min(rep.angle_sum - 2.0 * math.pi))
    min_second = float(np.min(np.maximum(rep.alpha2t, rep.beta2t)))
    base_dev = float(max(np.max(np.abs(rep.alpha1 - math.pi / 2)),
                         np.max(np.abs(rep.beta1 - math.pi / 2))))
    witnesses = bool(np.all(rep.infeasibility_witness))
    el = time.perf_counter() - t0
    ok = (witnesses and min_excess > 1e-9 and min_second > math.pi / 2
          and el < 5.0)
    report(7, "two-arc infeasibility", ok,
           "500/500 witnesses, min angle-sum excess over 2pi = %.3e, "
           "min max(alpha2~, beta2~) - pi/2 = %.3e, base angles off pi/2 "
           "by <= %.1e, %.2f s (budget 5 s)"
           % (min_excess, min_second - math.pi / 2, base_dev, el))


# ---------------------------------------------------------------- descent

def test_c08_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    cone = geo.pyramid_to_cone(1.0, 1.0)
    worst = 0.0
    for _ in range(20):
        m = dsc.make_initial_plane(cone, 1.0, 3)
        m.vertices += 0.08 * rng.standard_normal(m.vertices.shape)
        m.vertex_class[:] = msh.VertexClass.INTERIOR
        m.facet[:] = -1
        m.facet2[:] = -1
        m.clamp_radius = None

        def area_fn(v):
            c = m.copy()
            c.vertices = np.asarray(v)
            return msh.surface_area(c)

        g = dsc.area_gradient(m)
        fd = fd_surface_gradient(area_fn, m.vertices)
        worst = max(worst, float(np.max(np.abs(g - fd))))
    el = time.perf_counter() - t0
    ok = worst <= 1e-6 and el < 10.0
    report(8, "gradient oracle", ok,
           "max |gradient - central FD| = %.2e over 20 random meshes "
           "(tol 1e-6), %.2f s (budget 10 s)" % (worst, el))


def test_c09_wedge_plane_stationarity():
    t0 = time.perf_counter()
    cone = geo.wedge_above(1.0, 1)
    m = dsc.make_initial_plane(cone, 1.0, 24)
    a0 = msh.surface_area(m)
    gnorm = float(np.linalg.norm(
        dsc.project_gradient(m, cone, dsc.area_gradient(m))))
    cfg = dsc.MinimizeConfig(max_iters=500, grad_tol=1e-10,
                             initial_step=0.25, armijo_c=0.3,
                             clamp_radius=1.0, seed=0)
    final, diag = dsc.minimize(m, cone, cfg)
    drift = max((abs(a - a0) for a in diag.area_history), default=0.0)
    drift = max(drift, abs(msh.surface_area(final) - a0))
    el = time.perf_counter() - t0
    ok = (gnorm <= 1e-8 and drift <= 1e-8
          and diag.status == "converged" and el < 30.0)
    report(9, "wedge stationarity", ok,
           "projected-gradient norm %.2e (tol 1e-8), area drift %.2e "
           "(tol 1e-8) with status %s after %d accepted steps of the "
           "500-iteration budget, %.2f s (budget 30 s)"
           % (gnorm, drift, diag.status, diag.accepted_steps, el))


# ----------------------------------------------- shared minimizer fixture

@pytest.fixture(scope="module")
def pyramid_run():
    """Descent in C_{1,1} intersected with the unit ball at resolution 64
    with a 4000-step budget; it uses the whole budget (status max_iters,
    not converged); shared by criteria 10, 11, 13 and 14."""
    cone = geo.pyramid_to_cone(1.0, 1.0)
    m = dsc.make_initial_plane(cone, 1.0, 64)
    flat_area = msh.surface_area(m)
    cfg = dsc.MinimizeConfig(max_iters=4000, grad_tol=1e-8,
                             initial_step=0.25, armijo_c=0.3,
                             clamp_radius=1.0, seed=0)
    t0 = time.perf_counter()
    final, diag = dsc.minimize(m, cone, cfg, jitter=0.06)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(cone=cone, flat_area=flat_area, final=final,
                           diag=diag, elapsed=elapsed)


def test_c10_vertex_skipping_desk_scale(pyramid_run):
    r = pyramid_run
    final_area = msh.surface_area(r.final)
    vd = np.asarray(r.diag.vertex_distance_history)
    post = vd[len(vd) // 10:]
    dip = float((np.maximum.accumulate(post) - post).max())
    ok = (final_area < r.flat_area - 1e-4 and vd[-1] > 0.05
          and dip <= 1e-9 and r.elapsed < 300.0)
    report(10, "vertex skipping", ok,
           "area %.6f -> %.6f (drop %.2e, must exceed 1e-4), final "
           "vertex_distance %.4f (> 0.05), post-10%% dip %.1e, "
           "%.0f s (budget 300 s)"
           % (r.flat_area, final_area, r.flat_area - final_area, vd[-1],
              dip, r.elapsed))


def test_c11_monotonicity_ratio(pyramid_run):
    t0 = time.perf_counter()
    worst_const = 0.0
    for b in (1.0, 2.0):
        cone = geo.pyramid_to_cone(1.0, b)
        m = dsc.make_initial_plane(cone, 1.0, 64)
        m.vertices[0] = 0.0
        table = dgn.monotonicity_ratio(m, np.linspace(0.15, 0.95, 10))
        expect = math.atan(1.0 / b)
        worst_const = max(worst_const,
                          max(abs(p - expect) for _, p in table))
    p = [q for _, q in pyramid_run.diag.p_ratios]
    worst_inc = min(p[i + 1] - p[i] for i in range(len(p) - 1))
    el = time.perf_counter() - t0
    ok = worst_const <= 1e-3 and worst_inc >= -1e-3 and el < 60.0
    report(11, "monotonicity ratio", ok,
           "planar-cone p(r) off arctan(1/b) by <= %.2e for b in {1,2} "
           "(tol 1e-3), minimizer p increments >= %.2e across 10 radii "
           "(tol -1e-3), %.2f s (budget 60 s)"
           % (worst_const, worst_inc, el))


def _offset_plane_mesh(half, n):
    g = np.linspace(-half, half, n + 1)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel(), np.ones(xx.size)])
    i0 = np.arange(n)[:, None] * (n + 1) + np.arange(n)[None, :]
    v00 = i0.ravel()
    v10 = v00 + (n + 1)
    tris = np.concatenate([np.column_stack([v00, v10, v10 + 1]),
                           np.column_stack([v00, v10 + 1, v00 + 1])])
    cls = np.zeros(len(verts), dtype=np.int64)
    return msh.TriMesh(verts, tris.astype(np.int64), cls)


def _pyramid_lateral_mesh(a, b, z_max=2.0, n=40):
    rows = []
    for z in np.linspace(0.0, z_max, n + 1):
        y = np.linspace(-z / b, z / b, n + 1)
        x = np.full(n + 1, z / a)
        rows.append(np.column_stack([x, y, np.full(n + 1, z)]))
    verts = np.concatenate(rows)
    tris = []
    for i in range(n):
        r0, r1 = i * (n + 1), (i + 1) * (n + 1)
        for j in range(n):
            tris.append((r0 + j, r1 + j, r1 + j + 1))
            tris.append((r0 + j, r1 + j + 1, r0 + j + 1))
    cls = np.zeros(len(verts), dtype=np.int64)
    return msh.TriMesh(verts, np.array(tris, dtype=np.int64), cls)


def test_c12_conical_deviation():
    t0 = time.perf_counter()
    sector = dsc.make_initial_plane(geo.pyramid_to_cone(1.0, 1.0), 1.0, 32)
    sector.vertices[0] = 0.0
    worst_cone = abs(dgn.conical_deviation(sector, 0.1, 0.9))
    for a, b in ((1.0, 1.0), (2.0, 0.5)):
        m = _pyramid_lateral_mesh(a, b)
        worst_cone = max(worst_cone, abs(dgn.conical_deviation(m, 0.2, 1.5)))
    offset = _offset_plane_mesh(half=1.85, n=700)
    got = dgn.conical_deviation(offset, 1.1, 2.0)
    want = annulus_inverse_cube_integral(1.1, 2.0)
    off_err = abs(got - want)
    el = time.perf_counter() - t0
    ok = worst_cone <= 1e-10 and off_err <= 1e-6 and el < 10.0
    report(12, "conical deviation", ok,
           "max |deviation| on exact cone meshes = %.2e (tol 1e-10), "
           "offset plane vs polar quadrature |%.8f - %.8f| = %.2e "
           "(tol 1e-6), %.2f s (budget 10 s)"
           % (worst_cone, got, want, off_err, el))


def test_c13_free_boundary_orthogonality(pyramid_run):
    stats = dgn.boundary_angle_audit(pyramid_run.final, pyramid_run.cone,
                                     min_norm=0.2)
    ok = stats.count > 0 and 88.0 <= stats.min_deg and stats.max_deg <= 92.0
    report(13, "boundary orthogonality", ok,
           "%d free-boundary edges with |x| > 0.2, contact angles in "
           "[%.3f, %.3f] deg (must lie within 2 deg of 90)"
           % (stats.count, stats.min_deg, stats.max_deg))


def test_c14_csv_determinism(pyramid_run, tmp_path):
    t0 = time.perf_counter()
    payload = {"kind": "minimize", "cone": {"pyramid": {"a": 1.0, "b": 1.0}},
               "R": 1.0, "resolution": 10, "max_iters": 120,
               "jitter": 0.05, "seed": 3}
    blobs = []
    for tag in ("run1", "run2", "run3"):
        cfg_path = tmp_path / (tag + ".json")
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "conemin.cli", "run", str(cfg_path),
             "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        blobs.append(tuple((out / name).read_bytes()
                           for name in ("iterations.csv", "ratios.csv")))
    el = time.perf_counter() - t0
    budget = 2.0 * pyramid_run.elapsed
    identical = blobs[0] == blobs[1] == blobs[2]
    ok = identical and el < budget
    report(14, "determinism", ok,
           "iterations.csv and ratios.csv byte-identical across three "
           "runs: %s, %.1f s (budget 2x criterion-10 cost = %.1f s)"
           % (identical, el, budget))
