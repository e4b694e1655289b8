"""Config parsing, command dispatch, artifacts, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circthermo import Discretization, cli, doubling, zero_potential
from circthermo.cli import (EXIT_CONFIG, EXIT_HYPOTHESES, EXIT_RESOURCE, EXIT_SOLVER,
                            SCAN_ROW_GUARD, main, parse_config, run)
from circthermo.spectral import ARNOLDI_HANDOVER
from circthermo.errors import ConfigError
from circthermo.operator import DiscretizedOperator


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
    assert cfg.discretization.tol == 1e-12
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


@pytest.mark.parametrize("scheme,rule,offset", [("collocation", "linear", 0.0),
                                                 ("ulam", "cell", 0.5)])
def test_csv_x_columns_are_the_sites_of_the_values(tmp_path, scheme, rule, offset):
    # Ulam values are cell averages: their x is the cell midpoint (i + 1/2)/N
    n = 64
    cfg = base_config(map={"family": "perturbed-doubling", "t": 0.1},
                      potential={"form": "trig", "cos": [0.05]},
                      discretization={"n": n, "scheme": scheme},
                      hypotheses={"enforce": False},
                      response={"derivative": "density-potential",
                                "direction": {"form": "trig", "sin": [0.1]}},
                      output={"dir": str(tmp_path / "out")})
    config = parse_config(json.dumps(cfg))
    for command in ("spectrum", "equilibrium", "response"):
        run(command, config)
    bmap = cli.build_map(config.map)
    triple = cli._triple(config, bmap, cli.build_potential(config.potential, bmap))

    def columns(name):
        rows = (tmp_path / "out" / name).read_text().splitlines()[2:]
        return np.array([[float(v) for v in row.split(",")] for row in rows]).T

    sites = (np.arange(n) + offset) / n
    x, h, nu = columns("eigen.csv")
    assert np.array_equal(x, sites)
    assert np.array_equal(h, triple.h.values) and np.array_equal(nu, triple.nu)
    x, mu = columns("equilibrium.csv")
    assert np.array_equal(x, sites) and np.array_equal(mu, triple.mu_weights)
    assert np.array_equal(columns("density_derivative.csv")[0], sites)
    header = (tmp_path / "out" / "operator.csv").read_text().splitlines()[0]
    assert f"scheme={scheme} " in header and f"interpolation={rule} " in header


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


_RESPONSE_KEYS = {"derivative", "analytic_value", "fd_value", "fd_step", "rel_error"}
_DENSITY_KEYS = {"derivative", "analytic_sup_norm", "fd_sup_norm", "sup_norm_error", "fd_step"}


@pytest.mark.parametrize("kind", ["lambda-potential", "pressure-potential", "density-potential",
                                  "conformal-potential", "equilibrium-potential",
                                  "pressure-map", "maxentropy-map"])
def test_every_response_kind_matches_its_fd_twin(tmp_path, kind):
    # potential kinds on doubling, map kinds on perturbed doubling t = 0.1
    map_kind = kind.endswith("-map")
    cfg = base_config(map={"family": "perturbed-doubling", "t": 0.1} if map_kind else
                      {"family": "doubling"},
                      potential=({"form": "constant", "c": 0.0} if kind == "maxentropy-map" else
                                 {"form": "trig", "cos": [0.01]}),
                      discretization={"n": 64, "interpolation": "fourier"},
                      hypotheses={"enforce": False},
                      response={"derivative": kind, "direction": {"form": "trig", "sin": [0.1]},
                                "observable": _TRIG},
                      output={"dir": str(tmp_path / "out")})
    result = run("response", parse_config(json.dumps(cfg))).result
    assert json.load(open(tmp_path / "out" / "report.json"))["result"] == result
    if kind == "density-potential":
        assert result.keys() == _DENSITY_KEYS
        assert result["sup_norm_error"] <= 1e-8
        assert (tmp_path / "out" / "density_derivative.csv").exists()
    else:
        assert result.keys() == _RESPONSE_KEYS
        assert result["rel_error"] <= (1e-6 if map_kind else 1e-8)
    assert result["derivative"] == kind and result["fd_step"] == 1e-4


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
    assert float(stored["hypotheses"]["vep_value"]) == math.inf
    assert stored["result"]["passed"] is False


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def test_report_writes_non_finite_floats_as_strings(tmp_path):
    cfg = base_config(potential={"form": "trig", "cos": [400.0]},
                      output={"dir": str(tmp_path / "out")})
    assert main(["check-hypotheses", write_config(tmp_path, cfg)]) == 0
    assert _strict_json(tmp_path / "out" / "report.json")["hypotheses"]["vep_value"] == "inf"
    report = cli.RunReport(command="x", config={}, hypotheses=None, warnings=[],
                           result={"a": np.array([1.5, -np.inf]), "b": (np.float64(np.nan),),
                                   "c": {"d": np.float32(np.inf), "e": np.int64(3)}})
    stored = _strict_json(report.write(str(tmp_path)))
    assert stored["result"] == {"a": [1.5, "-inf"], "b": ["nan"], "c": {"d": "inf", "e": 3}}


def test_overflowing_alpha_exits_config(tmp_path, capsys):
    cfg = base_config(map={"family": "manneville-pomeau", "alpha": 1e300},
                      output={"dir": str(tmp_path / "out")})
    assert main(["pressure", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("command,overrides", [
    ("pressure", {"potential": {"form": "constant", "c": 800.0}}),
    ("free-energy", {"free_energy": {"observable": {"form": "trig", "cos": [1.0]},
                                     "t0": float("inf")}}),
    ("free-energy", {"free_energy": {"observable": {"form": "trig", "cos": [1.0]},
                                     "t0": 1000.0}}),
], ids=["overflowing-potential", "infinite-t0", "huge-t0"])
def test_non_finite_weights_exit_config_before_lapack(tmp_path, capfd, command, overrides):
    cfg = base_config(hypotheses={"enforce": False}, output={"dir": str(tmp_path / "out")},
                      **overrides)
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert "config error:" in err and "DLASCL" not in err and "ARPACK" not in err


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


@pytest.mark.parametrize("seed,flag,path", [(2 ** 128, [], "seed"),
                                            (7, ["--seed", "-3"], "--seed"),
                                            (7, ["--seed", str(2 ** 128)], "--seed")],
                         ids=["config-2**128", "flag-negative", "flag-2**128"])
def test_seed_outside_the_philox_key_range_exits_config(tmp_path, capsys, seed, flag, path):
    cfg = base_config(seed=seed, output={"dir": str(tmp_path / "out")},
                      ldp={"observable": _TRIG, "interval": [0.25, 0.45], "n_list": [10],
                           "n_samples": 2000})
    assert main(["ldp", write_config(tmp_path, cfg)] + flag) == EXIT_CONFIG
    assert (f"config error: {path}: must be a nonnegative integer below 2**128"
            in capsys.readouterr().err)


def test_largest_seed_is_accepted():
    assert parse_config(json.dumps(base_config(seed=2 ** 128 - 1))).seed == 2 ** 128 - 1


def test_echoed_config_leaves_out_the_flags(tmp_path):
    cfg = base_config(output={"dir": str(tmp_path / "out")})
    path = write_config(tmp_path, cfg)
    assert main(["check-hypotheses", path, "--out", str(tmp_path / "o2"), "--seed", "5"]) == 0
    assert json.load(open(tmp_path / "o2" / "report.json"))["config"] == cfg


@pytest.mark.parametrize("arc", [[0.5, 0.2], [0.0, 1.0], [-0.5, 0.7]])
def test_region_arc_must_be_ordered_and_shorter_than_a_turn(tmp_path, capsys, arc):
    cfg = base_config(hypotheses={"region_a": [[0.0, 0.05], arc]},
                      output={"dir": str(tmp_path / "out")})
    assert main(["check-hypotheses", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert ("config error: hypotheses.region_a[1]: need a <= b < a + 1"
            in capsys.readouterr().err)


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
    ("ldp", "ldp.n_list", {"ldp": {"observable": _TRIG, "interval": [0.1, 0.3], "n_list": [],
                                   "n_samples": 100}}),
    # settings the run would ignore: Ulam has no interpolation, and the measure
    # of maximal entropy no potential
    ("pressure", "discretization.interpolation",
     {"discretization": {"n": 64, "scheme": "ulam", "interpolation": "fourier"}}),
    ("response", "potential", {"map": {"family": "perturbed-doubling", "t": 0.1},
                               "potential": {"form": "trig", "cos": [0.01]},
                               "response": {"derivative": "maxentropy-map", "observable": _TRIG}}),
], ids=["m-string", "region_a-scalar", "n_max-string", "n_max-negative", "max_iter-zero",
        "eig_tol-string", "t-string", "cos-scalar", "n_t-fraction", "n_list-empty",
        "ulam-fourier", "maxentropy-trig"])
def test_malformed_value_exits_config_naming_the_key(tmp_path, capsys, command, path,
                                                     overrides):
    cfg = base_config(output={"dir": str(tmp_path / "out")}, **overrides)
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert f"config error: {path}:" in capsys.readouterr().err


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("command,path,overrides,shown", [
    ("pressure", "map.s", {"map": {"family": "translated-doubling", "s": _NAN}}, "nan"),
    ("check-hypotheses", "hypotheses.delta", {"hypotheses": {"delta": _INF}}, "inf"),
    ("response", "response.fd_step",
     {"response": {"derivative": "pressure-potential", "direction": _TRIG, "fd_step": _INF}},
     "inf"),
    ("free-energy", "free_energy.t0", {"free_energy": {"observable": _TRIG, "t0": _INF}}, "inf"),
    ("pressure", "tolerances.eig_tol", {"tolerances": {"eig_tol": _INF}}, "inf"),
    ("pressure", "potential.c", {"potential": {"form": "constant", "c": _INF}}, "inf"),
    ("pressure", "potential.cos[0]", {"potential": {"form": "trig", "cos": [_NAN]}}, "nan"),
    ("pressure", "potential.c", {"potential": {"form": "constant", "c": -_INF}}, "-inf"),
], ids=["s-nan", "delta-inf", "fd_step-inf", "t0-inf", "eig_tol-inf", "c-inf", "cos-nan",
        "c-minus-inf"])
def test_non_finite_number_exits_config_naming_the_key(tmp_path, capsys, command, path,
                                                       overrides, shown):
    # json reads NaN and Infinity; every number of a config must be finite
    cfg = base_config(output={"dir": str(tmp_path / "out")}, **overrides)
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert (f"config error: {path}: expected a finite number, got {shown}\n"
            in capsys.readouterr().err)


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


# MP alpha=0.5 needs far more than two power steps to converge; the map scans
# need a family with a map derivative, and perturbed doubling needs more than two
_MP = {"family": "manneville-pomeau", "alpha": 0.5}
_PD = {"family": "perturbed-doubling", "t": 0.1}


def _max_iter_2_config(tmp_path, map_block=_MP, derivative="pressure-potential"):
    return base_config(
        map=map_block,
        discretization={"n": 362}, hypotheses={"enforce": False},
        tolerances={"max_iter": 2}, output={"dir": str(tmp_path / "out")},
        correlation={"obs_a": _TRIG, "obs_b": _TRIG},
        clt={"observable": _TRIG},
        scan={"values": [0.5, 0.6]},
        ldp={"observable": _TRIG, "interval": [0.1, 0.3], "n_list": [5],
             "n_samples": 100, "n_t": 5},
        free_energy={"observable": _TRIG, "t0": 0.1, "n_t": 5},
        rate_scan={"observable": _TRIG, "s_grid": [0.0], "v_grid": [0.1], "t0": 0.1},
        response={"derivative": derivative, "direction": _TRIG, "observable": _TRIG})


@pytest.mark.parametrize("command", ["pressure", "spectrum", "equilibrium", "correlation",
                                     "clt", "bifurcation-scan", "ldp", "response",
                                     "free-energy", "rate-scan"])
def test_every_eigensolve_honours_max_iter(tmp_path, capsys, command):
    cfg = _max_iter_2_config(tmp_path, _PD if command == "rate-scan" else _MP)
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_SOLVER
    assert "no eigenvalue convergence in 2 iterations" in capsys.readouterr().err


@pytest.mark.parametrize("derivative", ["pressure-map", "maxentropy-map"])
def test_map_responses_honour_max_iter(tmp_path, capsys, derivative):
    cfg = _max_iter_2_config(tmp_path, _PD, derivative)
    assert main(["response", write_config(tmp_path, cfg)]) == EXIT_SOLVER
    assert "no eigenvalue convergence in 2 iterations" in capsys.readouterr().err


def test_rate_scan_writes_a_rate_per_grid_pair(tmp_path):
    cfg = base_config(map={"family": "perturbed-doubling", "t": 0.0},
                      discretization={"n": 64, "interpolation": "fourier"},
                      rate_scan={"observable": _TRIG, "s_grid": [-0.02, 0.0, 0.02],
                                 "v_grid": [0.0, 0.04], "t0": 0.2, "n_t": 21},
                      output={"dir": str(tmp_path / "out")})
    result = run("rate-scan", parse_config(json.dumps(cfg))).result
    rows = np.loadtxt(tmp_path / "out" / "rate_scan.csv", delimiter=",", skiprows=2)
    assert rows.shape == (6, 3) and np.all(rows[:, 2] >= 0.0)
    assert rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0), 2].tolist() == [0.0]
    rates = rows[:, 2].reshape(2, 3)    # one row of s per v
    assert result["modulus"] == np.max(np.abs(rates[1] - rates[0]))


def test_free_energy_table_has_n_t_rows_and_an_exact_zero(tmp_path):
    cfg = base_config(discretization={"n": 64, "interpolation": "fourier"},
                      free_energy={"observable": _TRIG, "t0": 0.2, "n_t": 15},
                      output={"dir": str(tmp_path / "out")})
    assert main(["free-energy", write_config(tmp_path, cfg)]) == 0
    lines = (tmp_path / "out" / "free_energy.csv").read_text().splitlines()
    assert lines[1] == "t,e,e_prime,e_second"
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert len(rows) == 15
    assert [row[:2] for row in rows if row[0] == 0.0] == [[0.0, 0.0]]
    result = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert result["nodes"] in cli.stats.FREE_ENERGY_LEVELS and 0.0 <= result["tail"] <= 1e-10


def _fresh_python(script):
    """Run `script` in a fresh interpreter that imports circthermo from src/."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def _fresh_cli(command, config_path, probe):
    """`main([command, config_path])` in a fresh interpreter that then prints `probe`."""
    return _fresh_python("import sys; from circthermo.cli import main; "
                         f"code = main([{command!r}, {config_path!r}]); "
                         f"print({probe}); sys.exit(code)")


# the names of the scipy modules a process has loaded, space-separated
_SCIPY_LOADED = "' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_free_energy_command_leaves_scipy_interpolate_unimported(tmp_path):
    cfg = base_config(discretization={"n": 64, "interpolation": "fourier"},
                      free_energy={"observable": _TRIG, "t0": 0.2},
                      output={"dir": str(tmp_path / "out")})
    proc = _fresh_cli("free-energy", write_config(tmp_path, cfg),
                      "'scipy.interpolate' in sys.modules")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def test_import_loads_no_scipy():
    proc = _fresh_python(f"import sys, circthermo, circthermo.cli; print({_SCIPY_LOADED})")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("command,block", [
    ("pressure", {}),
    ("free-energy", {"free_energy": {"observable": _TRIG, "t0": 0.2}}),
    # the resolvent commands: the dense border is solved by numpy.linalg
    ("clt", {"clt": {"observable": _TRIG}}),
    ("response", {"response": {"derivative": "density-potential", "direction": _TRIG}}),
    ("response", {"response": {"derivative": "conformal-potential", "direction": _TRIG,
                               "observable": _TRIG}}),
    ("response", {"response": {"derivative": "equilibrium-potential", "direction": _TRIG,
                               "observable": _TRIG}}),
    ("response", {"map": {"family": "perturbed-doubling", "t": 0.1},
                  "hypotheses": {"enforce": False},
                  "response": {"derivative": "maxentropy-map", "observable": _TRIG}}),
])
def test_fourier_commands_load_no_scipy(tmp_path, command, block):
    cfg = base_config(discretization={"n": 64, "interpolation": "fourier"},
                      output={"dir": str(tmp_path / "out")}, **block)
    proc = _fresh_cli(command, write_config(tmp_path, cfg), _SCIPY_LOADED)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("command,interpolation,block,needs", [
    ("pressure", "linear", {}, "scipy.sparse"),                 # CSR assembly
    ("clt", "linear", {"clt": {"observable": _TRIG}}, "scipy.sparse.linalg"),   # splu
])
def test_csr_and_lu_commands_load_scipy(tmp_path, command, interpolation, block, needs):
    cfg = base_config(discretization={"n": 64, "interpolation": interpolation},
                      output={"dir": str(tmp_path / "out")}, **block)
    proc = _fresh_cli(command, write_config(tmp_path, cfg), _SCIPY_LOADED)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert needs in proc.stdout.split()


def _reference_csv_lines(rows):
    """The one-f-string-per-value formatting the writers must reproduce."""
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def test_csv_writers_match_per_value_formatting(tmp_path):
    special = [-0.0, 5e-324, 1e-300, 123456789.0, np.nan, np.inf, -np.inf, 0.1, -2.5e17]
    mat = np.array([special[i:] + special[:i] for i in range(len(special))])
    op = DiscretizedOperator(mat, Discretization(n=len(special), interpolation="fourier"),
                             doubling(), zero_potential())
    op.export_csv(tmp_path / "operator.csv")
    header, body = (tmp_path / "operator.csv").read_text().split("\n", 1)
    assert header.startswith("# circthermo operator")
    assert body == _reference_csv_lines(mat)
    rows = [(i, *row) for i, row in enumerate(mat)]
    cli.write_csv(tmp_path / "table.csv", ["n"] + [f"c{j}" for j in range(len(special))],
                  rows)
    assert (tmp_path / "table.csv").read_text().split("\n", 1)[1] == _reference_csv_lines(rows)
