"""Scenario runner: batch entry point tying the toolkit together.

Usage:
    conemin run <config.json> [--out DIR]
    conemin validate <config.json>

A config is a JSON object with a "kind" (competitor, minimize,
audit-geodesics), a cone given as exactly one of {"pyramid": {"a", "b"}}
or {"halfspaces": [[nx, ny, nz], ...]} (no cone for audit-geodesics), a
seed (default 0), verdict tolerances, and kind-specific parameters.  `run`
writes report.json, CSV tables, and any meshes to the output directory and
exits 0 when every verdict passes, 2 on a verdict failure, 1 on execution
or config errors.  `validate` runs the same config check, cone included,
and prints the normalized config.

CSV floats are printed with %.17g and "\n" endings, and the minimizer
reduces in a fixed order, so repeated runs produce byte-identical tables.
Timings stay out of the tables and out of the report's results: they sit
at its top level, wall_clock_seconds for the run and phase_seconds for
the phases of a minimize run, beside threads, the number of threads that
the kernels of a large mesh run on (descent._thread_count).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .competitor import (
    CompetitorSpec,
    ConnectionProfile,
    deficit_sweep,
    epsilon_star,
    export_competitor_mesh,
    feasible_params,
    weighted_energy,
)
from .descent import (MinimizeConfig, _sector_rays, _thread_count,
                      make_initial_plane, minimize)
from .geometry import as_number, cone_from_dict, row_cross, unit
from .mesh import save_obj, surface_area
from .spherical import two_arc_audit


# The config check is this table: kind -> field -> (default, number kind,
# bound).  A default of None marks a required field.  A bound is a
# (test, wording) pair; None leaves the range to MinimizeConfig, whose own
# checks run on the minimize fields.  Every number must be finite, and every
# tolerance >= 0: a negative one would let its verdict pass on the opposite
# outcome, such as an area increase.
POSITIVE = (lambda x: x > 0, "> 0")
NONNEGATIVE = (lambda x: x >= 0, ">= 0")
NUMBERS = {
    "competitor": {"sweep_grid": (64, int, POSITIVE),
                   "mesh_resolution": (64, int, POSITIVE)},
    "minimize": {"R": (1.0, float, POSITIVE),
                 "resolution": (64, int, POSITIVE),
                 "max_iters": (MinimizeConfig.max_iters, int, None),
                 "grad_tol": (MinimizeConfig.grad_tol, float, None),
                 "initial_step": (MinimizeConfig.initial_step, float, None),
                 "armijo_c": (MinimizeConfig.armijo_c, float, None),
                 "jitter": (0.0, float, NONNEGATIVE)},
    "audit-geodesics": {"count": (500, int, POSITIVE)},
}
SEED = (0, int, NONNEGATIVE)
PROFILE = {"h": (None, float, POSITIVE), "alpha": (None, float, POSITIVE)}
TOLERANCES = {
    "competitor": {"deficit_witness": (1e-9, float, NONNEGATIVE)},
    "minimize": {"area_decrease": (0.0, float, NONNEGATIVE),
                 "vertex_monotone": (1e-6, float, NONNEGATIVE),
                 "p_monotone": (1e-3, float, NONNEGATIVE)},
    "audit-geodesics": {"excess_witness": (1e-9, float, NONNEGATIVE)},
}
COMMON_KEYS = {"kind", "seed", "out", "tolerances"}
OTHER_KEYS = {"competitor": {"cone", "profile"}, "minimize": {"cone"}}


def _number(raw, name, default, kind, bound):
    val = raw.get(name, default)
    if val is None:
        raise ValueError(f"missing required field '{name}'")
    val = as_number(val, name)
    if kind is int and int(val) != val:
        raise ValueError(f"field '{name}' must be an integer")
    if bound is not None and not bound[0](val):
        raise ValueError(f"field '{name}' must be {bound[1]}")
    return kind(val)


def _numbers(raw, table) -> dict:
    return {name: _number(raw, name, *spec) for name, spec in table.items()}


def normalize_config(raw) -> dict:
    """Fill defaults and check every field; raises ValueError naming the
    field at fault."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    kind = raw.get("kind")
    if kind is None:
        raise ValueError("missing required field 'kind'")
    if not isinstance(kind, str) or kind not in NUMBERS:
        raise ValueError(f"unknown kind '{kind}'")
    allowed = COMMON_KEYS | set(NUMBERS[kind]) | OTHER_KEYS.get(kind, set())
    for key in raw:
        if key not in allowed:
            raise ValueError(f"unknown field '{key}' for kind '{kind}'")

    cfg = {"kind": kind}
    if "cone" in allowed:
        cone = cone_from_dict(raw.get("cone"))
        if kind == "minimize":
            _sector_rays(cone)  # the initial plane is the {x1 = 0} section
        # the spec is checked: only its ints still need to become floats
        cfg["cone"] = json.loads(json.dumps(raw["cone"]), parse_int=float)
    if kind == "competitor" and "pyramid" not in cfg["cone"]:
        raise ValueError("competitor scenario requires a pyramid cone")
    cfg["seed"] = _number(raw, "seed", *SEED)
    cfg["out"] = raw.get("out", f"runs/{kind}")
    if not isinstance(cfg["out"], str) or not cfg["out"]:
        raise ValueError("field 'out' must be a nonempty string")
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ValueError("field 'tolerances' must be an object")
    for key in tolerances:
        if key not in TOLERANCES[kind]:
            raise ValueError(f"unknown field '{key}' in tolerances")
    cfg["tolerances"] = _numbers(tolerances, TOLERANCES[kind])
    cfg.update(_numbers(raw, NUMBERS[kind]))

    if kind == "competitor":
        prof = raw.get("profile")
        if prof is not None and (not isinstance(prof, dict)
                                 or set(prof) - set(PROFILE)):
            raise ValueError("profile must be an object with fields h, alpha")
        cfg["profile"] = None if prof is None else _numbers(prof, PROFILE)
        if prof is None:
            # run builds the default profile from a: an a without one fails
            feasible_params(cfg["cone"]["pyramid"]["a"])
    elif kind == "minimize":
        # MinimizeConfig checks the ranges the table leaves open
        MinimizeConfig(**{key: cfg[key] for key in
                          ("max_iters", "grad_tol", "initial_step", "armijo_c")})
    return cfg


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")


def _verdict(value, tolerance, passed, detail=""):
    return {"pass": bool(passed), "value": value, "tolerance": tolerance,
            "detail": detail}


def _monotone_verdict(values, tolerance,
                      detail="p(r) nondecreasing across sampled radii"):
    """Pass when no forward increment of values falls below -tolerance; the
    value is the smallest increment, None for fewer than two values."""
    floor = min((b - a for a, b in zip(values, values[1:])), default=None)
    return _verdict(floor, tolerance, floor is None or floor >= -tolerance,
                    detail)


def _run_competitor(cfg, outdir: Path):
    a = cfg["cone"]["pyramid"]["a"]
    b = cfg["cone"]["pyramid"]["b"]
    tol = cfg["tolerances"]
    if cfg["profile"] is not None:
        profile = ConnectionProfile(h=cfg["profile"]["h"],
                                    alpha=cfg["profile"]["alpha"])
    else:
        profile = feasible_params(a)
    energy = weighted_energy(profile)

    sweep = deficit_sweep(a, b, profile, cfg["sweep_grid"])
    rows = [(eps, rep.deficit, rep.ruled_area) for eps, rep in sweep]
    _write_csv(outdir / "sweep.csv", ("epsilon", "deficit", "ruled_area"), rows)
    star = epsilon_star(sweep)

    results = {
        "profile": {"h": profile.h, "alpha": profile.alpha},
        "weighted_energy": energy,
        "epsilon_star": None if star is None else star[0],
    }
    if star is not None:
        eps_star, rep = star
        results["report_at_epsilon_star"] = dataclasses.asdict(rep)
        mesh = export_competitor_mesh(
            CompetitorSpec(a=a, b=b, profile=profile, epsilon=eps_star),
            cfg["mesh_resolution"])
        save_obj(mesh, outdir / "competitor.obj")
        results["mesh_area"] = surface_area(mesh)
        results["analytic_area"] = rep.A_eps + rep.ruled_area

    min_deficit = min(rep.deficit_upper for _, rep in sweep)
    verdicts = {
        "energy_feasible": _verdict(energy - a * a, 0.0, energy < a * a,
                                    "weighted_energy - a^2 < 0"),
        "deficit_witness": _verdict(
            min_deficit, tol["deficit_witness"],
            min_deficit < -tol["deficit_witness"],
            "some sweep epsilon has deficit_upper < -tolerance"),
    }
    return results, verdicts, {}


def _run_minimize(cfg, outdir: Path):
    cone = cone_from_dict(cfg["cone"])
    tol = cfg["tolerances"]
    mesh0 = make_initial_plane(cone, cfg["R"], cfg["resolution"])
    mcfg = MinimizeConfig(max_iters=cfg["max_iters"], grad_tol=cfg["grad_tol"],
                          initial_step=cfg["initial_step"],
                          armijo_c=cfg["armijo_c"], clamp_radius=cfg["R"],
                          seed=cfg["seed"])
    initial_area = surface_area(mesh0)
    mesh, diag = minimize(mesh0, cone, mcfg, jitter=cfg["jitter"])

    t0 = time.perf_counter()
    it_rows = [(i + 1, *row) for i, row in enumerate(zip(
        diag.area_history, diag.vertex_distance_history, diag.step_history,
        diag.halvings_history))]
    _write_csv(outdir / "iterations.csv",
               ("iteration", "area", "vertex_distance", "step", "halvings"),
               it_rows)
    _write_csv(outdir / "ratios.csv", ("r", "p_r"), diag.p_ratios)
    save_obj(mesh, outdir / "final_mesh.obj")
    phases = dict(diag.phase_seconds, write_outputs=time.perf_counter() - t0)

    final_area = diag.area_history[-1] if diag.area_history else initial_area
    ps = [p for _, p in diag.p_ratios]
    results = {
        "initial_area": initial_area,
        "final_area": final_area,
        "iterations": diag.accepted_steps,
        "status": diag.status,
        "final_vertex_distance": (diag.vertex_distance_history[-1]
                                  if diag.vertex_distance_history else None),
        "pinned_vertices": diag.pinned_vertices,
        "conical_deviation": [list(row) for row in diag.conical_deviation],
        "density_ratio_bounds": [min(ps), max(ps)],
    }
    if diag.boundary_angle_stats is not None:
        s = diag.boundary_angle_stats
        results["boundary_angles_deg"] = {
            "count": s.count, "min": s.min_deg, "mean": s.mean_deg,
            "max": s.max_deg,
        }

    burn = len(diag.vertex_distance_history) // 10
    verdicts = {
        "area_decreased": _verdict(
            initial_area - final_area, tol["area_decrease"],
            final_area < initial_area - tol["area_decrease"],
            "final area below initial area"),
        "vertex_distance_monotone": _monotone_verdict(
            diag.vertex_distance_history[burn:], tol["vertex_monotone"],
            "vertex distance nondecreasing after 10% burn-in"),
        "p_nondecreasing": _monotone_verdict(ps, tol["p_monotone"]),
    }
    return results, verdicts, phases


def _random_audit_inputs(rng, count):
    """The five (count, 3) input arrays of count random two-arc audits.
    Each audit draws a random frame (a QR factor with det +1), then the
    base angle theta and the two meridian heights, in that order, so the
    draws do not depend on count; the factorizations and the arithmetic
    run over all of them at once."""
    draws = [(rng.standard_normal((3, 3)), rng.uniform(0.3, math.pi - 0.3),
              rng.uniform(0.15, 1.35), rng.uniform(0.15, 1.35))
             for _ in range(count)]
    gauss, *angles = zip(*draws)
    frame = np.linalg.qr(np.array(gauss))[0]
    flip = np.linalg.det(frame) < 0
    frame[flip, :, 2] = -frame[flip, :, 2]
    p1, e2, pole = frame[..., 0], frame[..., 1], frame[..., 2]
    angles = np.array(angles)[..., None]
    (cos_t, cos_p, cos_q), (sin_t, sin_p, sin_q) = np.cos(angles), np.sin(angles)
    q1 = cos_t * p1 + sin_t * e2
    x_p = cos_p * pole + sin_p * p1
    x_q = cos_q * pole + sin_q * q1
    return p1, q1, e2, unit(row_cross(pole, q1)), unit(row_cross(x_p, x_q))


def _run_audit(cfg, outdir: Path):
    tol = cfg["tolerances"]
    rng = np.random.default_rng(cfg["seed"])
    rep = two_arc_audit(*_random_audit_inputs(rng, cfg["count"]))
    fields = (rep.alpha1, rep.beta1, rep.alpha2t, rep.beta2t, rep.angle_sum,
              rep.excess, rep.infeasibility_witness)
    _write_csv(outdir / "audits.csv",
               ("alpha1", "beta1", "alpha2t", "beta2t", "angle_sum",
                "excess", "infeasibility_witness"),
               zip(*(f.tolist() for f in fields)))
    min_excess = min(rep.excess.tolist())
    failures = int(np.count_nonzero(~rep.infeasibility_witness))
    results = {"count": cfg["count"], "min_excess": min_excess,
               "witness_failures": failures}
    verdicts = {
        "all_witnesses": _verdict(
            min_excess, tol["excess_witness"],
            failures == 0 and min_excess > tol["excess_witness"],
            "every configuration certifies angle sum > 2*pi"),
    }
    return results, verdicts, {}


_RUNNERS = {
    "competitor": _run_competitor,
    "minimize": _run_minimize,
    "audit-geodesics": _run_audit,
}


def _load_config(config_path):
    """The normalized config, or None after saying why there is none."""
    try:
        return normalize_config(json.loads(Path(config_path).read_text()))
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    return None


def run(config_path, out_override=None) -> int:
    cfg = _load_config(config_path)
    if cfg is None:
        return 1
    if out_override:
        cfg["out"] = str(out_override)
    outdir = Path(cfg["out"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 1

    start = time.monotonic()
    try:
        results, verdicts, phases = _RUNNERS[cfg["kind"]](cfg, outdir)
    except Exception as exc:
        print(f"execution error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - start

    from conemin import __version__
    report = {
        "tool": "conemin",
        "version": __version__,
        "config": cfg,
        "wall_clock_seconds": elapsed,
        "threads": _thread_count(),
        "phase_seconds": phases,
        "results": results,
        "verdicts": verdicts,
        "pass": all(v["pass"] for v in verdicts.values()),
    }
    try:
        (outdir / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 1
    for name, v in sorted(verdicts.items()):
        print(f"{'PASS' if v['pass'] else 'FAIL'} {name}: value={v['value']} "
              f"tolerance={v['tolerance']}")
    return 0 if report["pass"] else 2


def validate(config_path) -> int:
    cfg = _load_config(config_path)
    if cfg is None:
        return 1
    print(json.dumps(cfg, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conemin",
        description="cone-constrained surface toolkit scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None,
                       help="override the output directory")
    p_val = sub.add_parser("validate", help="check a config and echo it")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, out_override=args.out)
    return validate(args.config)


if __name__ == "__main__":
    raise SystemExit(main())
