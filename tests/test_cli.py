"""End-to-end tests of the scenario runner: exit codes, outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conemin import cli, competitor, geometry, spherical

from oracles import bridge_excess_simpson


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "conemin.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


MINIMIZE_CFG = {
    "kind": "minimize",
    "cone": {"pyramid": {"a": 1.0, "b": 1.0}},
    "R": 1.0,
    "resolution": 10,
    "max_iters": 120,
    "jitter": 0.05,
    "seed": 3,
}


def test_validate_echoes_normalized_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "minimize",
                               "cone": {"pyramid": {"a": 2, "b": 1}},
                               "resolution": 16})
    assert cli.main(["validate", cfg]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["kind"] == "minimize"
    assert echoed["seed"] == 0
    assert echoed["R"] == 1.0
    assert echoed["resolution"] == 16
    assert echoed["max_iters"] == 2000
    assert echoed["cone"]["pyramid"] == {"a": 2.0, "b": 1.0}


def test_validate_rejects_missing_kind(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"cone": {"pyramid": {"a": 1, "b": 1}}})
    assert cli.main(["validate", cfg]) == 1
    assert "missing required field 'kind'" in capsys.readouterr().err


def test_validate_rejects_unknown_kind(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "frobnicate"})
    assert cli.main(["validate", cfg]) == 1
    assert "unknown kind" in capsys.readouterr().err


def test_validate_rejects_nonpositive_pyramid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "minimize",
                               "cone": {"pyramid": {"a": -1, "b": 1}}})
    assert cli.main(["validate", cfg]) == 1
    assert "field 'a' must be > 0" in capsys.readouterr().err


def test_validate_requires_exactly_one_cone_spec(tmp_path, capsys):
    both = {"kind": "minimize",
            "cone": {"pyramid": {"a": 1, "b": 1},
                     "halfspaces": [[0, 0, -1]]}}
    cfg = write_cfg(tmp_path, both)
    assert cli.main(["validate", cfg]) == 1
    assert "exactly one cone spec" in capsys.readouterr().err
    neither = {"kind": "minimize"}
    cfg = write_cfg(tmp_path, neither, "cfg2.json")
    assert cli.main(["validate", cfg]) == 1
    assert "exactly one cone spec" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("payload, field", [
    ({"kind": "audit-geodesics", "seed": NAN}, "seed"),
    ({"kind": "audit-geodesics", "count": INF}, "count"),
    (dict(MINIMIZE_CFG, jitter=NAN), "jitter"),
    (dict(MINIMIZE_CFG, cone={"pyramid": {"a": INF, "b": 1.0}}), "a"),
    (dict(MINIMIZE_CFG, cone={"halfspaces": [[0, 0, -1], [1, NAN, -1]]}),
     "halfspaces[1]"),
])
def test_nonfinite_numbers_rejected(tmp_path, capsys, command, payload,
                                    field):
    # Python's json writes and reads NaN and Infinity
    cfg = write_cfg(tmp_path, dict(payload, out=str(tmp_path / "out")))
    assert cli.main([command, cfg]) == 1
    err = capsys.readouterr().err
    assert f"config error: field '{field}' must be a finite number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value, message", [
    ("resolution", 0, "must be > 0"),
    ("seed", 1.5, "must be an integer"),
    ("max_iters", -1, "must be a nonnegative integer"),
    ("grad_tol", 0, "must be > 0"),
    ("armijo_c", 1.5, "must lie in (0, 1)"),
    ("jitter", "0.1", "must be a finite number"),
])
def test_validate_rejects_out_of_range_minimize_field(tmp_path, capsys, field,
                                                      value, message):
    cfg = write_cfg(tmp_path, dict(MINIMIZE_CFG, **{field: value}))
    assert cli.main(["validate", cfg]) == 1
    assert (f"config error: field '{field}' {message}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("payload, field", [
    ({"kind": "competitor", "cone": {"pyramid": {"a": 1.0, "b": 1.0}}},
     "deficit_witness"),
    (MINIMIZE_CFG, "area_decrease"),
    ({"kind": "audit-geodesics"}, "excess_witness"),
    (MINIMIZE_CFG, "p_monotone"),
])
def test_negative_tolerance_rejected(tmp_path, capsys, payload, field):
    # a negative tolerance would turn its verdict's test around
    cfg = write_cfg(tmp_path, dict(payload, out=str(tmp_path / "out"),
                                   tolerances={field: -5}))
    assert cli.main(["run", cfg]) == 1
    assert (f"config error: field '{field}' must be >= 0"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_validate_rejects_empty_interior_halfspaces(tmp_path, capsys):
    box = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
           [0, 0, -1]]
    cfg = write_cfg(tmp_path, {"kind": "minimize",
                               "cone": {"halfspaces": box}})
    assert cli.main(["validate", cfg]) == 1
    assert ("config error: bad halfspaces: cone has empty interior"
            in capsys.readouterr().err)


def test_validate_names_zero_halfspace(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "minimize",
                               "cone": {"halfspaces": [[0, 0, -1],
                                                       [0, 0, 0]]}})
    assert cli.main(["validate", cfg]) == 1
    assert ("bad halfspaces: halfspace 1: cannot normalize a zero vector"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("kind", ["minimize"])
def test_cone_without_sector_section_rejected(tmp_path, capsys, command,
                                              kind):
    # a valid cone, but {x1 = 0} is one of its facets, so no initial plane
    cfg = write_cfg(tmp_path, {"kind": kind,
                               "cone": {"halfspaces": [[0, 0, -1], [1, 0, 0]]},
                               "out": str(tmp_path / "out")})
    assert cli.main([command, cfg]) == 1
    assert ("config error: plane {x1 = 0} lies in a cone facet: "
            "no interior section" in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_competitor_without_feasible_default_profile_rejected(tmp_path, capsys,
                                                              command):
    # with no profile, run builds one from a; at a = 0.09 its (1+h)^4 =
    # 5^(4/a^2) overflows, and so would the competitor mesh's area
    cfg = write_cfg(tmp_path, {"kind": "competitor",
                               "cone": {"pyramid": {"a": 0.09, "b": 1.0}},
                               "out": str(tmp_path / "out")})
    assert cli.main([command, cfg]) == 1
    assert ("config error: a = 0.09 is too small for the default profile"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("a", [0.1, 0.2])
def test_run_competitor_at_small_a(tmp_path, capsys, a):
    # the default profile's h is 7.9e69 at a = 0.1 and 3.0e17 at a = 0.2;
    # the bracket at epsilon_star holds a Simpson rule in ln t
    for b in (0.5, 1.0, 2.0):
        out = tmp_path / f"b{b}"
        cfg = write_cfg(tmp_path, {"kind": "competitor",
                                   "cone": {"pyramid": {"a": a, "b": b}},
                                   "out": str(out)})
        assert cli.main(["run", cfg]) == 0
        capsys.readouterr()
        text = (out / "report.json").read_text()
        # json writes a non-finite float as Infinity, -Infinity or NaN
        assert "Infinity" not in text and "NaN" not in text
        results = json.loads(text)["results"]
        profile = results["profile"]
        eps = results["epsilon_star"]
        rep = results["report_at_epsilon_star"]
        oracle = (bridge_excess_simpson(b, profile["h"], profile["alpha"], eps)
                  - a * a * eps * eps / b)
        slack = 1e-12 * abs(oracle)
        assert rep["deficit_lower"] - slack <= oracle
        assert oracle <= rep["deficit_upper"] + slack


CONFIGS = sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_normalizes_idempotently(path):
    cfg = cli.normalize_config(json.loads(path.read_text()))
    assert cli.normalize_config(cfg) == cfg


@pytest.mark.parametrize("command", ["validate", "run"])
def test_audit_rejects_cone(tmp_path, capsys, command):
    # an audit-geodesics run draws its frames at random and reads no cone
    cfg = write_cfg(tmp_path, {"kind": "audit-geodesics",
                               "cone": {"pyramid": {"a": 1.0, "b": 1.0}},
                               "out": str(tmp_path / "out")})
    assert cli.main([command, cfg]) == 1
    assert ("config error: unknown field 'cone' for kind 'audit-geodesics'"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_scenario_kinds_agree_across_runner_configs_and_readme():
    # every kind has a runner, exactly one shipped config and a README row,
    # and nothing names a kind without a runner
    shipped = [json.loads(path.read_text())["kind"] for path in CONFIGS]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme[readme.index("| kind"):]
    table = table[:table.index("\n\n")]
    rows = [line.split("|")[1].strip().strip("`")
            for line in table.splitlines() if line.startswith("| `")]
    assert sorted(shipped) == sorted(set(shipped))
    assert set(shipped) == set(cli._RUNNERS) == set(rows)
    assert len(rows) == len(set(rows))


def test_validate_rejects_unknown_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "audit-geodesics", "radii": [1.0]})
    assert cli.main(["validate", cfg]) == 1
    assert "unknown field 'radii'" in capsys.readouterr().err


def test_validate_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["validate", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_run_missing_file_returns_one(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_run_competitor_scenario(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "competitor",
                               "cone": {"pyramid": {"a": 1.0, "b": 1.0}},
                               "sweep_grid": 16,
                               "mesh_resolution": 12,
                               "out": str(tmp_path / "out")})
    assert cli.main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS energy_feasible" in out
    assert "PASS deficit_witness" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is True
    assert report["results"]["epsilon_star"] is not None
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert (tmp_path / "out" / "competitor.obj").exists()


def test_run_competitor_sweeps_each_deficit_once(tmp_path, capsys,
                                                monkeypatch):
    calls = []
    kernel = competitor._bridge_excess

    def counted(b, profile, eps):
        calls.append(eps.tolist())
        return kernel(b, profile, eps)

    monkeypatch.setattr(competitor, "_bridge_excess", counted)
    cfg = write_cfg(tmp_path, {"kind": "competitor",
                               "cone": {"pyramid": {"a": 1.0, "b": 1.0}},
                               "sweep_grid": 16,
                               "mesh_resolution": 8,
                               "out": str(tmp_path / "out")})
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    assert len(calls) == 1 and len(calls[0]) == len(set(calls[0])) == 16
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    eps_star = report["results"]["epsilon_star"]
    monkeypatch.undo()
    assert eps_star == competitor.epsilon_star(competitor.deficit_sweep(
        1.0, 1.0, competitor.feasible_params(1.0), 16))[0]
    star = competitor.area_deficit(competitor.CompetitorSpec(
        a=1.0, b=1.0, profile=competitor.feasible_params(1.0),
        epsilon=eps_star))
    shown = report["results"]["report_at_epsilon_star"]
    assert shown["deficit"] == star.deficit
    assert shown["deficit_lower"] == star.deficit_lower
    assert shown["deficit_upper"] == star.deficit_upper
    assert star.deficit_lower <= star.deficit <= star.deficit_upper < 0


def test_deficit_witness_judged_on_bracket_upper_end(tmp_path, capsys,
                                                     monkeypatch):
    # a kernel whose bracket reaches 0 at every eps, while its last
    # partial sum stays where the true one is: no eps is certified
    kernel = competitor._bridge_excess

    def widened(b, profile, eps):
        prev, last = kernel(b, profile, eps)
        return last + 1.0, last

    monkeypatch.setattr(competitor, "_bridge_excess", widened)
    cfg = write_cfg(tmp_path, {"kind": "competitor",
                               "cone": {"pyramid": {"a": 1.0, "b": 1.0}},
                               "sweep_grid": 8,
                               "out": str(tmp_path / "out")})
    assert cli.main(["run", cfg]) == 2
    assert "FAIL deficit_witness" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["epsilon_star"] is None
    assert report["verdicts"]["deficit_witness"]["value"] > 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert all(float(row.split(",")[1]) < 0 for row in rows)


def test_import_loads_no_scipy():
    src = Path(competitor.__file__).resolve().parents[1]
    code = ("import sys, conemin, conemin.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


def test_competitor_run_loads_no_scipy(tmp_path):
    src = Path(competitor.__file__).resolve().parents[1]
    cfg = write_cfg(tmp_path, {"kind": "competitor",
                               "cone": {"pyramid": {"a": 2.0, "b": 1.0}},
                               "sweep_grid": 16,
                               "mesh_resolution": 8,
                               "out": str(tmp_path / "out")})
    code = ("import sys, conemin.cli; code = conemin.cli.main(['run', %r]); "
            "print(code, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))" % cfg)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.splitlines()[-1] == "0 []"


def test_run_competitor_infeasible_profile_fails(tmp_path, capsys):
    # energy(h=1, alpha=1) = 3/2 > a^2 = 1, so the witness verdict fails
    cfg = write_cfg(tmp_path, {"kind": "competitor",
                               "cone": {"pyramid": {"a": 1.0, "b": 1.0}},
                               "profile": {"h": 1.0, "alpha": 1.0},
                               "sweep_grid": 8,
                               "out": str(tmp_path / "out")})
    assert cli.main(["run", cfg]) == 2
    out = capsys.readouterr().out
    assert "FAIL energy_feasible" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is False


def test_run_minimize_scenario(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(MINIMIZE_CFG, out=str(tmp_path / "out")))
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["final_area"] < report["results"]["initial_area"]
    assert report["verdicts"]["area_decreased"]["pass"] is True
    assert (tmp_path / "out" / "iterations.csv").exists()
    assert (tmp_path / "out" / "ratios.csv").exists()
    assert (tmp_path / "out" / "final_mesh.obj").exists()


def test_iterations_csv_records_steps_and_halvings(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(MINIMIZE_CFG, out=str(tmp_path / "out")))
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    lines = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
    assert lines[0] == "iteration,area,vertex_distance,step,halvings"
    first = previous = cli.MinimizeConfig.initial_step  # the default
    for row in lines[1:]:
        step, halvings = float(row.split(",")[3]), int(row.split(",")[4])
        assert step == min(2.0 * previous, first) * 2.0 ** -halvings
        previous = step
    assert len(lines) == 1 + MINIMIZE_CFG["max_iters"]


def test_minimize_report_times_each_phase(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(MINIMIZE_CFG, out=str(tmp_path / "out")))
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    phases = report["phase_seconds"]
    assert set(phases) == {"descent", "vertex_distance", "ball_audits",
                           "angle_audit", "write_outputs", "start",
                           "gradient", "line_search", "vertex_prune"}
    assert all(np.isfinite(t) and t >= 0.0 for t in phases.values())
    # the start state's set-up and the three parts of the loop are timed
    # inside the descent phase
    assert (phases["start"] + phases["gradient"] + phases["line_search"]
            + phases["vertex_prune"] <= phases["descent"])
    # timings stay out of the results, which a fixed config fixes
    assert "phase_seconds" not in report["results"]


def test_run_audit_scenario_without_cone(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "audit-geodesics", "count": 40,
                               "seed": 11, "out": str(tmp_path / "out")})
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["witness_failures"] == 0
    lines = (tmp_path / "out" / "audits.csv").read_text().splitlines()
    assert len(lines) == 41


def test_audit_run_checks_all_quadrilaterals_in_one_pass(tmp_path, capsys,
                                                       monkeypatch):
    # the audits run as one batch: one hemisphere test covers all their
    # quadrilaterals, not one call per audit
    calls = []

    def counted_slack(points, slack=geometry.open_hemisphere_slack):
        calls.append(np.shape(points))
        return slack(points)

    monkeypatch.setattr(spherical, "open_hemisphere_slack", counted_slack)
    cfg = write_cfg(tmp_path, {"kind": "audit-geodesics", "count": 200,
                               "seed": 1, "out": str(tmp_path / "out")})
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    assert calls == [(200, 4, 3)]


def test_out_override_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "audit-geodesics", "count": 8,
                               "out": str(tmp_path / "ignored")})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "chosen")]) == 0
    capsys.readouterr()
    assert (tmp_path / "chosen" / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_minimize_csv_bytes_reproducible(tmp_path):
    results = []
    for tag in ("run1", "run2", "run3"):
        out = tmp_path / tag
        cfg = write_cfg(tmp_path, dict(MINIMIZE_CFG, out=str(out)),
                        f"{tag}.json")
        proc = run_cli(["run", cfg])
        assert proc.returncode == 0, proc.stderr
        results.append(((out / "iterations.csv").read_bytes(),
                        (out / "ratios.csv").read_bytes()))
    assert results[0] == results[1]
    assert results[0] == results[2]
