"""End-to-end tests of the scenario runner: exit codes, outputs, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conemin import cli


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "conemin.cli", *args],
                          capture_output=True, text=True)


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
    cfg = write_cfg(tmp_path, {"kind": "monotonicity",
                               "cone": {"pyramid": {"a": 2, "b": 1}},
                               "resolution": 16})
    assert cli.main(["validate", cfg]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["kind"] == "monotonicity"
    assert echoed["seed"] == 0
    assert echoed["R"] == 1.0
    assert len(echoed["radii"]) == 10
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
    ({"kind": "monotonicity", "cone": {"pyramid": {"a": INF, "b": 1.0}}},
     "a"),
    ({"kind": "monotonicity",
      "cone": {"halfspaces": [[0, 0, -1], [1, NAN, -1]]}}, "halfspaces[1]"),
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


def test_validate_rejects_empty_interior_halfspaces(tmp_path, capsys):
    box = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
           [0, 0, -1]]
    cfg = write_cfg(tmp_path, {"kind": "monotonicity",
                               "cone": {"halfspaces": box}})
    assert cli.main(["validate", cfg]) == 1
    assert ("config error: bad halfspaces: cone has empty interior"
            in capsys.readouterr().err)


def test_validate_names_zero_halfspace(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "monotonicity",
                               "cone": {"halfspaces": [[0, 0, -1],
                                                       [0, 0, 0]]}})
    assert cli.main(["validate", cfg]) == 1
    assert ("bad halfspaces: halfspace 1: cannot normalize a zero vector"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("kind", ["minimize", "monotonicity"])
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


CONFIGS = sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_normalizes_idempotently(path):
    cfg = cli.normalize_config(json.loads(path.read_text()))
    assert cli.normalize_config(cfg) == cfg


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


def test_run_audit_scenario_without_cone(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "audit-geodesics", "count": 40,
                               "seed": 11, "out": str(tmp_path / "out")})
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["witness_failures"] == 0
    lines = (tmp_path / "out" / "audits.csv").read_text().splitlines()
    assert len(lines) == 41


def test_run_monotonicity_scenario(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "monotonicity",
                               "cone": {"pyramid": {"a": 1.0, "b": 2.0}},
                               "resolution": 32,
                               "out": str(tmp_path / "out")})
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdicts"]["p_nondecreasing"]["pass"] is True


def test_out_override_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"kind": "monotonicity",
                               "cone": {"pyramid": {"a": 1.0, "b": 1.0}},
                               "resolution": 8,
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
