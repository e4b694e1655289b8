"""Config-driven command line front end.

One JSON config file describes the map, potential, discretization and
command-specific blocks; subcommands dispatch into the library and write
a self-contained ``report.json`` plus CSV artifacts into the output
directory.  Identical config and seed produce byte-identical outputs
(timing goes to stderr only).

Exit codes: 0 ok, 2 config error, 3 hypotheses failed, 4 solver failure,
5 resource guard.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import maps, stats
from .errors import (ConfigError, HypothesisError, ResourceLimitError,
                     SchemeQualityError, SmoothnessError, SolverError)
from .maps import HypothesisAux, ParamFamily, check_hypotheses
from .operator import Discretization, Grid, OperatorSetup
from .response import (central_difference, d_conformal_expectation,
                       d_density_d_potential, d_equilibrium_expectation,
                       d_lambda_d_potential, d_maxentropy_expectation,
                       d_pressure_d_dynamics, d_pressure_d_potential)
from .spectral import gap_estimate, triple_at
from .thermo import equilibrium_state, pressure

COMMANDS = ("check-hypotheses", "pressure", "spectrum", "equilibrium",
            "response", "correlation", "clt", "free-energy", "ldp",
            "rate-scan", "bifurcation-scan")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESES = 3
EXIT_SOLVER = 4
EXIT_RESOURCE = 5


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _require(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _check_keys(block, path, allowed, required=()):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in block:
            raise ConfigError(f"{path}.{key}: missing required key")


@dataclass
class RunConfig:
    """Validated, normalized run configuration."""
    map: dict
    potential: dict
    discretization: Discretization
    tolerances: dict
    hypotheses: dict
    output_dir: str
    seed: int
    blocks: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def parse_config(text: str) -> RunConfig:
    """Parse and validate the JSON config; reports the first offending key."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    top_allowed = {"map", "potential", "discretization", "tolerances",
                   "hypotheses", "output", "seed", "response", "correlation",
                   "clt", "free_energy", "ldp", "rate_scan", "scan"}
    _check_keys(raw, "config", top_allowed, required=("map",))

    map_block = _validate_map(raw["map"], "map")
    pot_block = _validate_potential(raw.get("potential", {"form": "constant", "c": 0.0}),
                                    "potential")

    disc_block = raw.get("discretization", {})
    _check_keys(disc_block, "discretization", {"n", "scheme", "interpolation"})
    n = disc_block.get("n", 512)
    _require(isinstance(n, int) and n >= 8, "discretization.n",
             f"N must be an integer >= 8, got {n!r}")
    scheme = disc_block.get("scheme", "collocation")
    _require(scheme in ("collocation", "ulam"), "discretization.scheme",
             f"unknown scheme {scheme!r}")
    interpolation = disc_block.get("interpolation", "linear")
    _require(interpolation in ("linear", "fourier"), "discretization.interpolation",
             f"unknown interpolation {interpolation!r}")
    disc = Discretization(n=n, scheme=scheme, interpolation=interpolation)

    tol_block = raw.get("tolerances", {})
    _check_keys(tol_block, "tolerances", {"eig_tol", "max_iter"})
    tolerances = {"eig_tol": float(tol_block.get("eig_tol", 1e-12)),
                  "max_iter": int(tol_block.get("max_iter", 100000))}
    _require(tolerances["eig_tol"] >= 1e-14, "tolerances.eig_tol",
             "must be >= 1e-14")

    hyp_block = raw.get("hypotheses", {})
    _check_keys(hyp_block, "hypotheses", {"m", "delta", "region_a", "q", "enforce"})
    hypotheses = {
        "m": hyp_block.get("m"),
        "delta": float(hyp_block.get("delta", 0.05)),
        "region_a": hyp_block.get("region_a"),
        "q": hyp_block.get("q"),
        "enforce": bool(hyp_block.get("enforce", True)),
    }

    out_block = raw.get("output", {})
    _check_keys(out_block, "output", {"dir"})
    output_dir = out_block.get("dir", "out")

    seed = raw.get("seed", 0)
    _require(isinstance(seed, int) and seed >= 0, "seed",
             "must be a nonnegative integer")

    blocks = {}
    if "response" in raw:
        blocks["response"] = _validate_response(raw["response"], "response")
    if "correlation" in raw:
        b = raw["correlation"]
        _check_keys(b, "correlation", {"obs_a", "obs_b", "n_max"},
                    required=("obs_a", "obs_b"))
        blocks["correlation"] = {
            "obs_a": _validate_potential(b["obs_a"], "correlation.obs_a"),
            "obs_b": _validate_potential(b["obs_b"], "correlation.obs_b"),
            "n_max": int(b.get("n_max", 30)),
        }
    if "clt" in raw:
        b = raw["clt"]
        _check_keys(b, "clt", {"observable"}, required=("observable",))
        blocks["clt"] = {"observable": _validate_potential(b["observable"],
                                                           "clt.observable")}
    if "free_energy" in raw:
        b = raw["free_energy"]
        _check_keys(b, "free_energy", {"observable", "t0", "n_t"},
                    required=("observable",))
        blocks["free_energy"] = {
            "observable": _validate_potential(b["observable"], "free_energy.observable"),
            "t0": b.get("t0"),
            "n_t": int(b.get("n_t", 41)),
        }
    if "ldp" in raw:
        b = raw["ldp"]
        _check_keys(b, "ldp", {"observable", "interval", "n_list", "n_samples",
                               "t0", "n_t"},
                    required=("observable", "interval", "n_list", "n_samples"))
        interval = b["interval"]
        _require(isinstance(interval, list) and len(interval) == 2,
                 "ldp.interval", "expected [a, b]")
        blocks["ldp"] = {
            "observable": _validate_potential(b["observable"], "ldp.observable"),
            "interval": [float(interval[0]), float(interval[1])],
            "n_list": [int(v) for v in b["n_list"]],
            "n_samples": int(b["n_samples"]),
            "t0": b.get("t0"),
            "n_t": int(b.get("n_t", 41)),
        }
    if "rate_scan" in raw:
        b = raw["rate_scan"]
        _check_keys(b, "rate_scan", {"observable", "s_grid", "v_grid", "t0", "n_t"},
                    required=("observable", "s_grid", "v_grid"))
        blocks["rate_scan"] = {
            "observable": _validate_potential(b["observable"], "rate_scan.observable"),
            "s_grid": [float(v) for v in b["s_grid"]],
            "v_grid": [float(v) for v in b["v_grid"]],
            "t0": b.get("t0"),
            "n_t": int(b.get("n_t", 21)),
        }
    if "scan" in raw:
        b = raw["scan"]
        _check_keys(b, "scan", {"start", "stop", "step", "values", "quantities"})
        if "values" in b:
            _require("start" not in b and "stop" not in b and "step" not in b,
                     "scan.values", "mutually exclusive with start/stop/step")
            values = [float(v) for v in b["values"]]
        else:
            _check_keys(b, "scan", {"start", "stop", "step", "quantities"},
                        required=("start", "stop", "step"))
            start, stop, step = float(b["start"]), float(b["stop"]), float(b["step"])
            _require(step > 0 and stop >= start, "scan.step", "need step > 0, stop >= start")
            count = int(round((stop - start) / step)) + 1
            values = [start + i * step for i in range(count)]
        quantities = b.get("quantities", ["pressure", "entropy", "lyapunov", "dimension"])
        for q in quantities:
            _require(q in ("pressure", "entropy", "lyapunov", "dimension"),
                     "scan.quantities", f"unknown quantity {q!r}")
        blocks["scan"] = {"values": values, "quantities": quantities}

    return RunConfig(map=map_block, potential=pot_block, discretization=disc,
                     tolerances=tolerances, hypotheses=hypotheses,
                     output_dir=output_dir, seed=seed, blocks=blocks, raw=raw)


def _validate_map(block, path):
    _check_keys(block, path, {"family", "degree", "alpha", "t", "s",
                              "breakpoints", "coeffs"}, required=("family",))
    family = block["family"]
    if family == "doubling":
        _check_keys(block, path, {"family"})
        return {"family": "doubling"}
    if family == "linear":
        _check_keys(block, path, {"family", "degree"}, required=("degree",))
        _require(isinstance(block["degree"], int) and block["degree"] >= 2,
                 f"{path}.degree", "must be an integer >= 2")
        return {"family": "linear", "degree": block["degree"]}
    if family == "manneville-pomeau":
        _check_keys(block, path, {"family", "alpha"}, required=("alpha",))
        alpha = block["alpha"]
        _require(isinstance(alpha, (int, float)) and alpha > 0,
                 f"{path}.alpha", f"must be > 0, got {alpha!r}")
        return {"family": "manneville-pomeau", "alpha": float(alpha)}
    if family == "perturbed-doubling":
        _check_keys(block, path, {"family", "t"}, required=("t",))
        return {"family": "perturbed-doubling", "t": float(block["t"])}
    if family == "translated-doubling":
        _check_keys(block, path, {"family", "s"}, required=("s",))
        return {"family": "translated-doubling", "s": float(block["s"])}
    if family == "piecewise-poly":
        _check_keys(block, path, {"family", "breakpoints", "coeffs"},
                    required=("breakpoints", "coeffs"))
        bp = [float(v) for v in block["breakpoints"]]
        _require(len(bp) >= 2 and bp[0] == 0.0 and bp[-1] == 1.0
                 and all(b2 > b1 for b1, b2 in zip(bp, bp[1:])),
                 f"{path}.breakpoints", "must increase from 0.0 to 1.0")
        coeffs = [[float(c) for c in piece] for piece in block["coeffs"]]
        _require(len(coeffs) == len(bp) - 1, f"{path}.coeffs",
                 "need one coefficient list per piece")
        return {"family": "piecewise-poly", "breakpoints": bp, "coeffs": coeffs}
    raise ConfigError(f"{path}.family: unknown family {family!r}")


def _validate_potential(block, path):
    _check_keys(block, path, {"form", "c", "cos", "sin", "const", "coefficient",
                              "values", "interpolation"}, required=("form",))
    form = block["form"]
    if form == "constant":
        _check_keys(block, path, {"form", "c"})
        return {"form": "constant", "c": float(block.get("c", 0.0))}
    if form == "trig":
        _check_keys(block, path, {"form", "cos", "sin", "const"})
        return {"form": "trig",
                "cos": [float(v) for v in block.get("cos", [])],
                "sin": [float(v) for v in block.get("sin", [])],
                "const": float(block.get("const", 0.0))}
    if form == "log-deriv":
        _check_keys(block, path, {"form", "coefficient"}, required=("coefficient",))
        return {"form": "log-deriv", "coefficient": float(block["coefficient"])}
    if form == "grid":
        _check_keys(block, path, {"form", "values", "interpolation"},
                    required=("values",))
        interp = block.get("interpolation", "linear")
        _require(interp in ("linear", "fourier"), f"{path}.interpolation",
                 f"unknown interpolation {interp!r}")
        return {"form": "grid", "values": [float(v) for v in block["values"]],
                "interpolation": interp}
    raise ConfigError(f"{path}.form: unknown potential form {form!r}")


_RESPONSE_KINDS = ("lambda-potential", "pressure-potential", "density-potential",
                   "conformal-potential", "equilibrium-potential",
                   "pressure-map", "maxentropy-map")


def _validate_response(block, path):
    _check_keys(block, path, {"derivative", "direction", "observable", "fd_step"},
                required=("derivative",))
    kind = block["derivative"]
    _require(kind in _RESPONSE_KINDS, f"{path}.derivative",
             f"must be one of {_RESPONSE_KINDS}")
    out = {"derivative": kind, "fd_step": float(block.get("fd_step", 1e-4))}
    _require(out["fd_step"] > 0.0, f"{path}.fd_step", "must be > 0")
    if kind.endswith("-potential"):
        _require("direction" in block, f"{path}.direction",
                 "potential derivatives need a direction")
        out["direction"] = _validate_potential(block["direction"], f"{path}.direction")
    if kind in ("conformal-potential", "equilibrium-potential", "maxentropy-map"):
        _require("observable" in block, f"{path}.observable",
                 "this derivative needs an observable g")
        out["observable"] = _validate_potential(block["observable"],
                                                f"{path}.observable")
    return out


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_map(map_block):
    family = map_block["family"]
    if family == "doubling":
        return maps.doubling()
    if family == "linear":
        return maps.linear_map(map_block["degree"])
    if family == "manneville-pomeau":
        return maps.manneville_pomeau(map_block["alpha"])
    if family == "perturbed-doubling":
        return maps.perturbed_doubling(map_block["t"])
    if family == "translated-doubling":
        return maps.translated_doubling(map_block["s"])
    if family == "piecewise-poly":
        return _piecewise_poly_map(map_block["breakpoints"], map_block["coeffs"])
    raise ConfigError(f"unknown family {family!r}")


def _piecewise_poly_map(breakpoints, coeffs):
    bp = np.asarray(breakpoints)
    polys = [np.poly1d(list(reversed(c))) for c in coeffs]
    dpolys = [p.deriv() for p in polys]
    ddpolys = [p.deriv(2) for p in polys]
    for k in range(len(polys) - 1):
        if abs(polys[k](bp[k + 1]) - polys[k + 1](bp[k + 1])) > 1e-9:
            raise ConfigError(
                f"map.coeffs: pieces {k} and {k + 1} disagree at x={bp[k + 1]}")
    degree = polys[-1](1.0) - polys[0](0.0)
    if abs(degree - round(degree)) > 1e-9 or round(degree) < 2:
        raise ConfigError(
            f"map.coeffs: lift increment over [0,1] must be an integer >= 2, "
            f"got {degree}")

    def piece_eval(ps, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, len(ps) - 1)
        out = np.empty_like(x)
        for k, p in enumerate(ps):
            mask = idx == k
            if np.any(mask):
                out[mask] = p(x[mask])
        return out

    return maps.BranchMap(
        int(round(degree)),
        lambda x: piece_eval(polys, x),
        lambda x: piece_eval(dpolys, x),
        lambda x: piece_eval(ddpolys, x),
        family_tag="piecewise-poly",
        family_params={"breakpoints": list(map(float, bp)),
                       "coeffs": [list(map(float, c)) for c in coeffs]},
    )


def build_potential(pot_block, branch_map):
    form = pot_block["form"]
    if form == "constant":
        return maps.constant(pot_block["c"])
    if form == "trig":
        return maps.trig_polynomial(cos_coeffs=pot_block["cos"],
                                    sin_coeffs=pot_block["sin"],
                                    const_term=pot_block["const"])
    if form == "log-deriv":
        return maps.log_derivative_weight(pot_block["coefficient"], branch_map)
    if form == "grid":
        return maps.grid_potential(pot_block["values"], pot_block["interpolation"])
    raise ConfigError(f"unknown potential form {form!r}")


def build_family(map_block) -> ParamFamily:
    family = map_block["family"]
    if family == "perturbed-doubling":
        return maps.perturbed_doubling_family()
    if family == "translated-doubling":
        return maps.translated_doubling_family()
    raise ConfigError(
        f"map family {family!r} has no parameter derivative; use "
        "perturbed-doubling or translated-doubling for map-direction scans")


def _family_param(map_block):
    return map_block.get("t", map_block.get("s", 0.0))


def hypothesis_aux(config: RunConfig) -> HypothesisAux:
    h = config.hypotheses
    region = h["region_a"]
    if region is not None:
        region = [tuple(map(float, arc)) for arc in region]
    return HypothesisAux(m=h["m"], delta=h["delta"], region_a=region, q=h["q"])


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(value):
    return f"{value:.17g}"


def write_csv(path, header_cols, rows, comment=None):
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header_cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


@dataclass
class RunReport:
    command: str
    config: dict
    hypotheses: Optional[dict]
    result: dict
    warnings: list

    def write(self, out_dir):
        payload = {
            "command": self.command,
            "config": self.config,
            "hypotheses": self.hypotheses,
            "result": self.result,
            "warnings": self.warnings,
        }
        path = os.path.join(out_dir, "report.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2, default=_json_default)
            fh.write("\n")
        return path


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def run(command: str, config: RunConfig) -> RunReport:
    """Execute one subcommand; writes CSV artifacts and returns the report."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    os.makedirs(config.output_dir, exist_ok=True)
    branch_map = build_map(config.map)
    pot = build_potential(config.potential, branch_map)
    aux = hypothesis_aux(config)
    hyp = check_hypotheses(branch_map, pot, aux)
    warnings = []
    if not hyp.passed():
        failed = [k for k, v in hyp.verdicts.items() if v is False]
        if config.hypotheses["enforce"] and command != "check-hypotheses":
            report = RunReport(command=command, config=config.raw,
                               hypotheses=hyp.as_dict(),
                               result={"status": "hypotheses failed"},
                               warnings=[f"failed: {failed}"])
            report.write(config.output_dir)
            raise HypothesisError(
                f"standing hypotheses failed ({failed}); "
                "set hypotheses.enforce=false to override")
        warnings.append(f"hypotheses not all satisfied: {failed} (override active)")

    handler = _HANDLERS[command]
    result, extra_warnings = handler(config, branch_map, pot, hyp)
    report = RunReport(command=command, config=config.raw,
                       hypotheses=hyp.as_dict(), result=result,
                       warnings=warnings + extra_warnings)
    report.write(config.output_dir)
    return report


def _cmd_check_hypotheses(config, branch_map, pot, hyp):
    return {"passed": hyp.passed()}, []


def _cmd_pressure(config, branch_map, pot, hyp):
    disc = config.discretization
    triple = triple_at(OperatorSetup.of(branch_map, disc), pot,
                       tol=config.tolerances["eig_tol"],
                       max_iter=config.tolerances["max_iter"])
    return {"pressure": pressure(branch_map, pot, disc, triple=triple),
            "lambda": float(triple.lam),
            "iterations": triple.iterations,
            "residual_right": triple.residual_right,
            "residual_left": triple.residual_left}, []


def _cmd_spectrum(config, branch_map, pot, hyp):
    disc = config.discretization
    triple = triple_at(OperatorSetup.of(branch_map, disc), pot,
                       tol=config.tolerances["eig_tol"],
                       max_iter=config.tolerances["max_iter"])
    op = triple.op
    tau = gap_estimate(op, triple)
    nodes = op.grid.nodes
    write_csv(os.path.join(config.output_dir, "eigen.csv"),
              ["x", "h", "nu"],
              zip(nodes, map(float, triple.h.values), map(float, triple.nu)),
              comment=f"leading eigendata scheme={disc.scheme} N={disc.n} "
                      f"map={branch_map.family_tag}")
    op.export_csv(os.path.join(config.output_dir, "operator.csv"))
    warnings = []
    if triple.clipped_nu_mass > 0:
        warnings.append(f"clipped negative nu mass {triple.clipped_nu_mass:.2e}")
    if op.dropped_entries:
        warnings.append(f"ulam assembly dropped {op.dropped_entries} degenerate arcs")
    return {"lambda": float(triple.lam), "tau": tau,
            "tau_is_upper_bound": triple.tau_is_upper_bound,
            "iterations": triple.iterations,
            "residual_right": triple.residual_right,
            "residual_left": triple.residual_left}, warnings


def _cmd_equilibrium(config, branch_map, pot, hyp):
    disc = config.discretization
    rep = equilibrium_state(branch_map, pot, disc)
    nodes = Grid(disc.n).nodes
    write_csv(os.path.join(config.output_dir, "equilibrium.csv"),
              ["x", "mu_weight"], zip(nodes, map(float, rep.equilibrium)),
              comment=f"equilibrium weights scheme={disc.scheme} N={disc.n} "
                      f"map={branch_map.family_tag}")
    return rep.as_dict(), []


def _cmd_response(config, branch_map, pot, hyp):
    block = config.blocks.get("response")
    if block is None:
        raise ConfigError("response: block missing from config")
    disc = config.discretization
    kind = block["derivative"]
    eps = block["fd_step"]
    if kind.endswith("-potential"):
        direction = build_potential(block["direction"], branch_map)
        # one setup serves the base triple and its two FD twins at +-eps
        setup = OperatorSetup.of(branch_map, disc)
        tol = config.tolerances["eig_tol"]
        triple = triple_at(setup, pot, tol=tol)
        twins = {e: triple_at(setup, pot + e * direction, tol=tol)
                 for e in (eps, -eps)}

        if kind == "lambda-potential":
            analytic = d_lambda_d_potential(branch_map, pot, direction, disc,
                                            triple=triple)
            fd = central_difference(lambda e: float(twins[e].lam), eps)
        elif kind == "pressure-potential":
            analytic = d_pressure_d_potential(branch_map, pot, direction, disc,
                                              triple=triple)
            fd = central_difference(lambda e: math.log(twins[e].lam), eps)
        elif kind == "density-potential":
            deriv = d_density_d_potential(branch_map, pot, direction, disc,
                                          triple=triple)
            write_csv(os.path.join(config.output_dir, "density_derivative.csv"),
                      ["x", "dh"], zip(Grid(disc.n).nodes, map(float, deriv.values)),
                      comment="density derivative in the given direction")
            hp = twins[eps].h.values
            hm = twins[-eps].h.values
            fd_vec = (np.asarray(hp, float) - np.asarray(hm, float)) / (2 * eps)
            analytic = float(np.max(np.abs(deriv.values)))
            fd = float(np.max(np.abs(fd_vec)))
            sup_err = float(np.max(np.abs(np.asarray(deriv.values, float) - fd_vec)))
            return {"derivative": kind, "analytic_sup_norm": analytic,
                    "fd_sup_norm": fd, "sup_norm_error": sup_err,
                    "fd_step": eps}, []
        else:
            g = build_potential(block["observable"], branch_map)
            conformal = kind == "conformal-potential"
            derivative = (d_conformal_expectation if conformal
                          else d_equilibrium_expectation)
            analytic = derivative(branch_map, pot, g, direction, disc, triple=triple)

            def observable_at(e):
                t = twins[e]
                weights = t.nu if conformal else t.mu_weights
                return float(np.asarray(g(t.op.grid.nodes), float) @
                             np.asarray(weights, float))
            fd = central_difference(observable_at, eps)
        rel = abs(analytic - fd) / max(1.0, abs(fd))
        return {"derivative": kind, "analytic_value": float(analytic),
                "fd_value": float(fd), "fd_step": eps, "rel_error": rel}, []

    family = build_family(config.map)
    s0 = _family_param(config.map)
    if kind == "pressure-map":
        rep = d_pressure_d_dynamics(family, pot, s0, disc, fd_step=eps)
    else:
        g = build_potential(block["observable"], branch_map)
        rep = d_maxentropy_expectation(family, g, s0, disc, fd_step=eps)
    out = rep.as_dict()
    out["derivative"] = kind
    return out, []


def _cmd_correlation(config, branch_map, pot, hyp):
    block = config.blocks.get("correlation")
    if block is None:
        raise ConfigError("correlation: block missing from config")
    obs_a = build_potential(block["obs_a"], branch_map)
    obs_b = build_potential(block["obs_b"], branch_map)
    series = stats.correlation(branch_map, pot, obs_a, obs_b, block["n_max"],
                               config.discretization)
    write_csv(os.path.join(config.output_dir, "correlation.csv"),
              ["n", "c"], enumerate(map(float, series.values)),
              comment=f"correlation series map={branch_map.family_tag}")
    result = {"c0": float(series.values[0]), "tau_fit": series.tau_fit,
              "fit_residual": series.fit_residual}
    return result, ([series.note] if series.note else [])


def _cmd_clt(config, branch_map, pot, hyp):
    block = config.blocks.get("clt")
    if block is None:
        raise ConfigError("clt: block missing from config")
    psi = build_potential(block["observable"], branch_map)
    clt = stats.clt_parameters(branch_map, pot, psi, config.discretization)
    result = {"mean": clt.mean, "variance": clt.variance, "coboundary": clt.coboundary}
    return result, ([clt.note] if clt.note else [])


def _cmd_free_energy(config, branch_map, pot, hyp):
    block = config.blocks.get("free_energy")
    if block is None:
        raise ConfigError("free_energy: block missing from config")
    psi = build_potential(block["observable"], branch_map)
    curve = stats.free_energy(branch_map, pot, psi, t0=block["t0"],
                              n_t=block["n_t"], disc=config.discretization,
                              hyp_aux=hypothesis_aux(config))
    rate = stats.rate_function(curve)
    write_csv(os.path.join(config.output_dir, "free_energy.csv"),
              ["t", "e", "e_prime", "e_second"],
              zip(curve.t_grid, curve.values, curve.e_prime, curve.e_second),
              comment=f"free energy t0={_fmt(curve.t0)}")
    write_csv(os.path.join(config.output_dir, "rate_function.csv"),
              ["s", "rate"], zip(rate.s_grid, rate.values),
              comment="Legendre rate function")
    return {"t0": curve.t0, "convex": curve.convex,
            "domain": list(curve.domain), "argmin": rate.argmin}, []


def _cmd_ldp(config, branch_map, pot, hyp):
    block = config.blocks.get("ldp")
    if block is None:
        raise ConfigError("ldp: block missing from config")
    psi = build_potential(block["observable"], branch_map)
    curve = stats.free_energy(branch_map, pot, psi, t0=block["t0"],
                              n_t=block["n_t"], disc=config.discretization,
                              hyp_aux=hypothesis_aux(config))
    rate = stats.rate_function(curve)
    exp = stats.ldp_monte_carlo(branch_map, pot, psi, block["interval"],
                                block["n_list"], block["n_samples"],
                                config.seed, rate, disc=config.discretization)
    write_csv(os.path.join(config.output_dir, "ldp.csv"),
              ["n", "hits", "rate", "ci95"],
              [(n, exp.hits[n], exp.rates[n], exp.ci95[n]) for n in exp.n_list],
              comment=f"seed={exp.seed} samples={exp.n_samples} "
                      f"interval=[{_fmt(exp.interval[0])},{_fmt(exp.interval[1])}]")
    return {"predicted_rate": exp.predicted, "seed": exp.seed,
            "interval": list(exp.interval),
            "rates": {str(n): exp.rates[n] for n in exp.n_list},
            "ci95": {str(n): exp.ci95[n] for n in exp.n_list}}, list(exp.notes)


def _cmd_rate_scan(config, branch_map, pot, hyp):
    block = config.blocks.get("rate_scan")
    if block is None:
        raise ConfigError("rate_scan: block missing from config")
    family = build_family(config.map)
    psi = build_potential(block["observable"], branch_map)
    scan = stats.rate_continuity_scan(family, pot, psi, block["s_grid"],
                                      block["v_grid"], disc=config.discretization,
                                      t0=block["t0"], n_t=block["n_t"],
                                      hyp_aux=hypothesis_aux(config))
    rows = []
    for i, v in enumerate(scan.v_grid):
        for j, s in enumerate(scan.s_grid):
            rows.append((v, s, scan.table[i, j]))
    write_csv(os.path.join(config.output_dir, "rate_scan.csv"),
              ["v", "s", "rate"], rows, comment="rate-function continuity scan")
    return {"modulus": scan.modulus,
            "v_grid": list(map(float, scan.v_grid)),
            "s_grid": list(map(float, scan.s_grid))}, []


_SCAN_PARAM_KEY = {"perturbed-doubling": "t", "translated-doubling": "s",
                   "manneville-pomeau": "alpha"}


def _cmd_bifurcation_scan(config, branch_map, pot, hyp):
    block = config.blocks.get("scan")
    if block is None:
        raise ConfigError("scan: block missing from config")
    family_tag = config.map["family"]
    param_key = _SCAN_PARAM_KEY.get(family_tag)
    if param_key is None:
        raise ConfigError(
            f"scan: family {family_tag!r} has no scan parameter")
    quantities = block["quantities"]
    rows = []
    for v in block["values"]:
        fmap = build_map({**config.map, param_key: v})
        fpot = build_potential(config.potential, fmap)
        rep = equilibrium_state(fmap, fpot, config.discretization)
        row = [v]
        for q in quantities:
            val = getattr(rep, q)
            row.append(np.nan if val is None else val)
        rows.append(row)
    write_csv(os.path.join(config.output_dir, "scan.csv"),
              ["parameter"] + list(quantities), rows,
              comment=f"bifurcation scan family={family_tag}")
    return {"rows": len(rows), "quantities": list(quantities)}, []


_HANDLERS = {
    "check-hypotheses": _cmd_check_hypotheses,
    "pressure": _cmd_pressure,
    "spectrum": _cmd_spectrum,
    "equilibrium": _cmd_equilibrium,
    "response": _cmd_response,
    "correlation": _cmd_correlation,
    "clt": _cmd_clt,
    "free-energy": _cmd_free_energy,
    "ldp": _cmd_ldp,
    "rate-scan": _cmd_rate_scan,
    "bifurcation-scan": _cmd_bifurcation_scan,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="circthermo",
        description="Thermodynamic-formalism numerics for expanding circle maps")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument("--out", help="override output.dir")
    parser.add_argument("--seed", type=int, help="override the config seed")
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        with open(args.config) as fh:
            text = fh.read()
        config = parse_config(text)
        if args.out is not None:
            config.output_dir = args.out
        if args.seed is not None:
            config.seed = args.seed
        report = run(args.command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as exc:
        print(f"hypotheses failed: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESES
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SolverError, SchemeQualityError, SmoothnessError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    elapsed = time.monotonic() - started
    print(f"{args.command}: ok ({elapsed:.2f}s) -> "
          f"{os.path.join(config.output_dir, 'report.json')}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
