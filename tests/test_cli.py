"""Config parsing, command dispatch, artifacts, exit codes, determinism."""

import json
import math
import os
import re
from pathlib import Path

import pytest

from circthermo import cli
from circthermo.cli import (EXIT_CONFIG, EXIT_HYPOTHESES, EXIT_RESOURCE, EXIT_SOLVER,
                            SCAN_ROW_GUARD, main, parse_config, run)
from circthermo.spectral import ARNOLDI_HANDOVER
from circthermo.errors import ConfigError


def base_config(**overrides):
    cfg = {
        "map": {"family": "doubling"},
        "potential": {"form": "constant", "c": 0.0},
        "discretization": {"n": 128, "scheme": "collocation",
                           "interpolation": "linear"},
        "output": {"dir": "out"},
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parse_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps({"map": {"family": "doubling"}}))
    assert cfg.discretization.n == 512
    assert cfg.discretization.scheme == "collocation"
    assert cfg.potential == {"form": "constant", "c": 0.0}
    assert cfg.tolerances["eig_tol"] == 1e-12
    assert cfg.hypotheses["enforce"] is True
    assert cfg.seed == 0


def test_parse_rejects_small_grid_naming_the_key():
    with pytest.raises(ConfigError, match=r"discretization\.n"):
        parse_config(json.dumps(base_config(discretization={"n": 4})))


def test_parse_rejects_unknown_key_with_path():
    cfg = base_config()
    cfg["map"]["wobble"] = 1
    with pytest.raises(ConfigError, match=r"map\.wobble"):
        parse_config(json.dumps(cfg))


def test_parse_rejects_bad_alpha():
    cfg = base_config(map={"family": "manneville-pomeau", "alpha": -0.5})
    with pytest.raises(ConfigError, match=r"map\.alpha"):
        parse_config(json.dumps(cfg))


def test_parse_scan_values_exclusive_with_range():
    cfg = base_config(scan={"values": [0.1], "start": 0.0, "stop": 1.0, "step": 0.5})
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config(json.dumps(cfg))


def test_family_params_roundtrip_through_echo(tmp_path):
    cfg = base_config(map={"family": "manneville-pomeau", "alpha": 0.5},
                      potential={"form": "log-deriv", "coefficient": -0.1},
                      hypotheses={"enforce": False},
                      output={"dir": str(tmp_path / "out")})
    report = run("pressure", parse_config(json.dumps(cfg)))
    echoed = json.load(open(tmp_path / "out" / "report.json"))["config"]
    assert echoed["map"]["alpha"] == 0.5
    assert echoed["potential"]["coefficient"] == -0.1


def test_pressure_command_reports_log2(tmp_path):
    cfg = base_config(output={"dir": str(tmp_path / "out")})
    report = run("pressure", parse_config(json.dumps(cfg)))
    assert report.result["pressure"] == pytest.approx(math.log(2), abs=1e-12)
    stored = json.load(open(tmp_path / "out" / "report.json"))
    assert abs(stored["result"]["pressure"] - 0.6931472) < 1e-6
    assert stored["hypotheses"]["verdicts"]["P"] is True


def test_equilibrium_command_writes_density_csv(tmp_path):
    cfg = base_config(output={"dir": str(tmp_path / "out")})
    run("equilibrium", parse_config(json.dumps(cfg)))
    lines = (tmp_path / "out" / "equilibrium.csv").read_text().splitlines()
    assert lines[1] == "x,mu_weight"
    assert len(lines) == 2 + 128


def test_spectrum_command_exports_operator(tmp_path):
    cfg = base_config(output={"dir": str(tmp_path / "out")})
    report = run("spectrum", parse_config(json.dumps(cfg)))
    assert report.result["lambda"] == pytest.approx(2.0, abs=1e-10)
    header = (tmp_path / "out" / "operator.csv").read_text().splitlines()[0]
    assert "scheme=collocation" in header and "map=doubling" in header


def test_bifurcation_scan_row_count_and_dimension_identity(tmp_path):
    cfg = base_config(map={"family": "perturbed-doubling", "t": 0.0},
                      discretization={"n": 128},
                      scan={"start": 0.0, "stop": 0.2, "step": 0.02},
                      output={"dir": str(tmp_path / "out")})
    report = run("bifurcation-scan", parse_config(json.dumps(cfg)))
    assert report.result["rows"] == 11
    rows = (tmp_path / "out" / "scan.csv").read_text().splitlines()[2:]
    assert len(rows) == 11
    for line in rows:
        _, p, h, ly, dim = map(float, line.split(","))
        assert dim == pytest.approx(h / ly, rel=1e-12)


def test_response_command_pressure_map(tmp_path):
    cfg = base_config(map={"family": "perturbed-doubling", "t": 0.1},
                      potential={"form": "trig", "cos": [0.05]},
                      discretization={"n": 128, "interpolation": "fourier"},
                      hypotheses={"enforce": False},
                      response={"derivative": "pressure-map"},
                      output={"dir": str(tmp_path / "out")})
    report = run("response", parse_config(json.dumps(cfg)))
    assert report.result["rel_error"] < 1e-3
    assert report.result["derivative"] == "pressure-map"


def test_response_command_potential_direction(tmp_path):
    cfg = base_config(potential={"form": "trig", "cos": [0.01]},
                      discretization={"n": 64, "interpolation": "fourier"},
                      response={"derivative": "pressure-potential",
                                "direction": {"form": "trig", "sin": [0.1]}},
                      output={"dir": str(tmp_path / "out")})
    report = run("response", parse_config(json.dumps(cfg)))
    assert report.result["rel_error"] < 1e-6


@pytest.mark.parametrize("fd_step", [0.0, -1e-4])
def test_response_rejects_nonpositive_fd_step(tmp_path, fd_step):
    cfg = base_config(response={"derivative": "pressure-potential",
                                "direction": {"form": "trig", "sin": [0.1]},
                                "fd_step": fd_step},
                      output={"dir": str(tmp_path / "out")})
    with pytest.raises(ConfigError, match=r"response\.fd_step"):
        parse_config(json.dumps(cfg))
    assert main(["response", write_config(tmp_path, cfg)]) == EXIT_CONFIG


def test_correlation_and_clt_commands(tmp_path):
    cfg = base_config(
        discretization={"n": 128, "interpolation": "fourier"},
        correlation={"obs_a": {"form": "trig", "cos": [1.0]},
                     "obs_b": {"form": "trig", "cos": [1.0]}, "n_max": 10},
        clt={"observable": {"form": "trig", "cos": [1.0]}},
        output={"dir": str(tmp_path / "out")})
    rep1 = run("correlation", parse_config(json.dumps(cfg)))
    assert rep1.result["c0"] == pytest.approx(0.5, abs=1e-12)
    rep2 = run("clt", parse_config(json.dumps(cfg)))
    assert rep2.result["variance"] == pytest.approx(0.5, abs=1e-10)
    lines = (tmp_path / "out" / "correlation.csv").read_text().splitlines()
    assert len(lines) == 2 + 11


def test_hypothesis_gate_exit_code(tmp_path):
    # oscillation 0.2 fails (P); enforcement maps to exit 3
    cfg = base_config(potential={"form": "trig", "cos": [0.1]},
                      output={"dir": str(tmp_path / "out")})
    rc = main(["pressure", write_config(tmp_path, cfg)])
    assert rc == EXIT_HYPOTHESES
    # the partial report still lands with failure context
    stored = json.load(open(tmp_path / "out" / "report.json"))
    assert stored["result"]["status"] == "hypotheses failed"
    # override runs the computation and records a warning
    cfg["hypotheses"] = {"enforce": False}
    rc = main(["pressure", write_config(tmp_path, cfg, "override.json")])
    assert rc == 0
    stored = json.load(open(tmp_path / "out" / "report.json"))
    assert any("override" in w for w in stored["warnings"])


def test_solver_failure_exit_code(tmp_path):
    cfg = base_config(potential={"form": "trig", "cos": [-1.2]},
                      discretization={"n": 128, "interpolation": "fourier"},
                      hypotheses={"enforce": False},
                      output={"dir": str(tmp_path / "out")})
    rc = main(["pressure", write_config(tmp_path, cfg)])
    assert rc == EXIT_SOLVER


def test_config_error_exit_code(tmp_path):
    cfg = base_config(discretization={"n": 4})
    rc = main(["pressure", write_config(tmp_path, cfg)])
    assert rc == EXIT_CONFIG
    rc = main(["pressure", str(tmp_path / "missing.json")])
    assert rc == EXIT_CONFIG


def test_huge_potential_oscillation_fails_hypotheses_without_traceback(tmp_path):
    cfg = base_config(potential={"form": "trig", "cos": [400.0]},
                      output={"dir": str(tmp_path / "out")})
    path = write_config(tmp_path, cfg)
    assert main(["pressure", path]) == EXIT_HYPOTHESES
    assert main(["check-hypotheses", path]) == 0
    stored = json.load(open(tmp_path / "out" / "report.json"))
    assert stored["hypotheses"]["vep_value"] == math.inf
    assert stored["result"]["passed"] is False


def test_overflowing_alpha_exits_config(tmp_path, capsys):
    cfg = base_config(map={"family": "manneville-pomeau", "alpha": 1e300},
                      output={"dir": str(tmp_path / "out")})
    assert main(["pressure", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("scan", [{"start": 0.0, "stop": 1e300, "step": 0.01},
                                  {"start": 0.0, "stop": float(SCAN_ROW_GUARD), "step": 1.0}],
                         ids=["overflowing", "one-past-guard"])
def test_scan_row_guard_exits_resource(tmp_path, capsys, scan):
    cfg = base_config(scan=scan, output={"dir": str(tmp_path / "out")})
    assert main(["bifurcation-scan", write_config(tmp_path, cfg)]) == EXIT_RESOURCE
    assert "rows" in capsys.readouterr().err
    scan = dict(scan, stop=scan["start"] + (SCAN_ROW_GUARD - 1) * scan["step"])
    assert len(parse_config(json.dumps(base_config(scan=scan))).blocks["scan"]["values"]) \
        == SCAN_ROW_GUARD


def test_intermittent_pressure_reruns_are_byte_identical(tmp_path):
    # MP alpha=0.5 at -log f' mixes slowly, so its triple comes from Arnoldi
    cfg = base_config(map={"family": "manneville-pomeau", "alpha": 0.5},
                      potential={"form": "log-deriv", "coefficient": -1.0},
                      discretization={"n": 362}, hypotheses={"enforce": False})
    path = write_config(tmp_path, cfg)
    out = {}
    for tag in ("a", "b"):
        assert main(["pressure", path, "--out", str(tmp_path / tag)]) == 0
        out[tag] = {name: (tmp_path / tag / name).read_bytes()
                    for name in os.listdir(tmp_path / tag)}
    assert out["a"] == out["b"]
    result = json.loads(out["a"]["report.json"])["result"]
    assert result["iterations"] > ARNOLDI_HANDOVER


def test_unknown_command_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", write_config(tmp_path, base_config())])
    assert exc.value.code == EXIT_CONFIG


def test_byte_identical_reruns(tmp_path):
    cfg = base_config(
        discretization={"n": 64},
        free_energy={"observable": {"form": "trig", "cos": [1.0]}, "t0": 1.2,
                     "n_t": 21},
        ldp={"observable": {"form": "trig", "cos": [1.0]},
             "interval": [0.25, 0.45], "n_list": [5, 10], "n_samples": 20000,
             "t0": 1.2, "n_t": 21})
    path = write_config(tmp_path, cfg)
    out = {}
    for tag in ("a", "b"):
        assert main(["ldp", path, "--out", str(tmp_path / tag)]) == 0
        out[tag] = {
            name: (tmp_path / tag / name).read_bytes()
            for name in os.listdir(tmp_path / tag)
        }
    assert out["a"].keys() == out["b"].keys()
    for name in out["a"]:
        assert out["a"][name] == out["b"][name], name


@pytest.mark.parametrize("command,block", [
    ("clt", {"clt": {"observable": {"form": "trig", "cos": [1.0], "sin": [0.3]}}}),
    ("response", {"map": {"family": "perturbed-doubling", "t": 0.1},
                  "hypotheses": {"enforce": False},
                  "response": {"derivative": "maxentropy-map",
                               "observable": {"form": "trig", "cos": [0.0, 1.0]}}}),
])
def test_clt_and_maxentropy_response_reruns_are_byte_identical(tmp_path, command, block):
    cfg = base_config(discretization={"n": 128, "interpolation": "fourier"}, **block)
    path = write_config(tmp_path, cfg)
    out = {}
    for tag in ("a", "b"):
        assert main([command, path, "--out", str(tmp_path / tag)]) == 0
        out[tag] = {
            name: (tmp_path / tag / name).read_bytes()
            for name in os.listdir(tmp_path / tag)
        }
    assert out["a"].keys() == out["b"].keys()
    for name in out["a"]:
        assert out["a"][name] == out["b"][name], name
    result = json.loads(out["a"]["report.json"])["result"]
    assert not {"series_terms", "tail_bound", "series_terms_used",
                "truncation_tail_bound"} & result.keys()


def test_seed_override_changes_samples(tmp_path):
    cfg = base_config(
        discretization={"n": 64},
        free_energy={"observable": {"form": "trig", "cos": [1.0]}, "t0": 1.2,
                     "n_t": 21},
        ldp={"observable": {"form": "trig", "cos": [1.0]},
             "interval": [0.25, 0.45], "n_list": [10], "n_samples": 20000,
             "t0": 1.2, "n_t": 21},
        output={"dir": str(tmp_path / "out")})
    path = write_config(tmp_path, cfg)
    assert main(["ldp", path, "--out", str(tmp_path / "s1"), "--seed", "1"]) == 0
    assert main(["ldp", path, "--out", str(tmp_path / "s2"), "--seed", "2"]) == 0
    r1 = json.load(open(tmp_path / "s1" / "report.json"))["result"]["rates"]
    r2 = json.load(open(tmp_path / "s2" / "report.json"))["result"]["rates"]
    assert r1 != r2


def test_piecewise_poly_map_config(tmp_path):
    # doubling expressed as an explicit piecewise-polynomial lift
    cfg = base_config(map={"family": "piecewise-poly",
                           "breakpoints": [0.0, 0.5, 1.0],
                           "coeffs": [[0.0, 2.0], [0.0, 2.0]]},
                      output={"dir": str(tmp_path / "out")})
    report = run("pressure", parse_config(json.dumps(cfg)))
    assert report.result["pressure"] == pytest.approx(math.log(2), abs=1e-10)


def test_check_hypotheses_command(tmp_path):
    cfg = base_config(output={"dir": str(tmp_path / "out")})
    report = run("check-hypotheses", parse_config(json.dumps(cfg)))
    assert report.result["passed"] is True


_TRIG = {"form": "trig", "cos": [1.0]}


@pytest.mark.parametrize("command,path,overrides", [
    ("pressure", "hypotheses.m", {"hypotheses": {"m": "x"}}),
    ("pressure", "hypotheses.region_a", {"hypotheses": {"region_a": 5}}),
    ("correlation", "correlation.n_max",
     {"correlation": {"obs_a": _TRIG, "obs_b": _TRIG, "n_max": "abc"}}),
    ("correlation", "correlation.n_max",
     {"correlation": {"obs_a": _TRIG, "obs_b": _TRIG, "n_max": -3}}),
    ("pressure", "tolerances.max_iter", {"tolerances": {"max_iter": 0}}),
    ("pressure", "tolerances.eig_tol", {"tolerances": {"eig_tol": "x"}}),
    ("pressure", "map.t", {"map": {"family": "perturbed-doubling", "t": "abc"}}),
    ("pressure", "potential.cos", {"potential": {"form": "trig", "cos": 0.01}}),
    ("free-energy", "free_energy.n_t", {"free_energy": {"observable": _TRIG, "n_t": 41.7}}),
], ids=["m-string", "region_a-scalar", "n_max-string", "n_max-negative", "max_iter-zero",
        "eig_tol-string", "t-string", "cos-scalar", "n_t-fraction"])
def test_malformed_value_exits_config_naming_the_key(tmp_path, capsys, command, path,
                                                     overrides):
    cfg = base_config(output={"dir": str(tmp_path / "out")}, **overrides)
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert f"config error: {path}:" in capsys.readouterr().err


def _readme_section(heading):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _readme_table(section, label):
    """{name: [parameter, ...]} from a README line `label: `name` (+`p`, ...), ...`."""
    listing = re.split(r"\.\s", section.split(f"{label}:", 1)[1], maxsplit=1)[0]
    return {name: re.findall(r"`([a-z_]+)`", params)
            for name, params in re.findall(r"`([a-z-]+)`(?:\s*\(\+([^)]*)\))?", listing)}


def test_readme_command_line_matches_the_schema(tmp_path):
    section = _readme_section("Command line")
    minimal = section.split("A minimal config:\n\n```json\n", 1)[1].split("```", 1)[0]
    cfg = json.loads(minimal)
    cfg["output"] = {"dir": str(tmp_path / "out")}
    assert main(["check-hypotheses", write_config(tmp_path, cfg)]) == 0
    assert _readme_table(section, "Map families") == {
        name: list(entry.spec) for name, entry in cli._FAMILIES.items()}
    assert _readme_table(section, "Potential forms") == {
        name: list(entry.spec) for name, entry in cli._FORMS.items()}
