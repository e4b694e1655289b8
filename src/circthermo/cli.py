"""Config-driven command line front end.

One JSON config file describes the map, potential, discretization and
command-specific blocks; subcommands dispatch into the library and write
a self-contained ``report.json`` plus CSV artifacts into the output
directory.  Identical config and seed produce byte-identical outputs
(timing goes to stderr only).

The config schema is declared once: each map family is one entry of
``_FAMILIES``, each potential form one entry of ``_FORMS``, and every block
one spec in ``_CONFIG``.  One walker type-checks every value against them,
and the first offending key is reported by its path (``map.alpha``).

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
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import maps, stats
from .errors import (ConfigError, HypothesisError, ResourceLimitError,
                     SchemeQualityError, SmoothnessError, SolverError)
from .maps import HypothesisAux, ParamFamily, check_hypotheses
from .operator import NODAL_RULES, SCHEMES, Discretization, OperatorSetup, discretize
from .response import (ResponseReport, central_difference, d_conformal_expectation,
                       d_density_d_potential, d_equilibrium_expectation,
                       d_lambda_d_potential, d_maxentropy_expectation,
                       d_pressure_d_dynamics, d_pressure_d_potential)
from .spectral import gap_estimate, leading_triple
from .thermo import equilibrium_state, pressure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESES = 3
EXIT_SOLVER = 4
EXIT_RESOURCE = 5

SCAN_ROW_GUARD = 2 ** 16   # rows of a start/stop/step scan, each a full solve


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------
#
# A spec maps each key of a config object to (kind, default[, rule, message]).
# kind is int, float, str or bool; a tuple of allowed values; [kind] for a
# list; a spec dict for a nested object; or a function (value, path) ->
# normalized value.  An absent key takes its default, which is walked like a
# given value: REQUIRED makes the key mandatory, and a None default also
# accepts JSON null.  The rule must hold for the normalized value.

REQUIRED = object()

_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false"}


def _check_keys(block, path, allowed, required=()):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in block:
            raise ConfigError(f"{path}.{key}: missing required key")


def _value(value, path, kind):
    """Type-check one value against its kind; returns it normalized."""
    if isinstance(kind, dict):
        return _block(value, path, kind)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return [_value(v, f"{path}[{i}]", kind[0]) for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{path}: must be one of {', '.join(kind)}, got {value!r}")
        return value
    if kind not in _KIND_NAMES:
        return kind(value, path)
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        # json reads NaN and Infinity, and an integer of any size
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ConfigError(f"{path}: expected {_KIND_NAMES[kind]}, got {value!r}")


def _checked(value, path, kind, default, rule=None, message=None):
    """One value walked against its spec entry (kind, default[, rule, message])."""
    if value is None and default is None:
        return None
    value = _value(value, path, kind)
    if rule and not rule(value):
        raise ConfigError(f"{path}: {message}, got {value!r}")
    return value


def _block(raw, path, spec):
    """Walk one config object against its spec; returns the normalized dict."""
    _check_keys(raw, path, spec, [k for k, entry in spec.items() if entry[1] is REQUIRED])
    return {key: _checked(raw.get(key, entry[1]), key if path == "config" else f"{path}.{key}",
                          *entry) for key, entry in spec.items()}    # top-level keys go bare


def _tagged(tag, table):
    """Kind of an object whose `tag` value picks the spec of its other keys."""
    def check(raw, path):
        _check_keys(raw, path, raw, required=(tag,))    # the other keys: below
        name = _value(raw[tag], f"{path}.{tag}", tuple(table))
        return _block(raw, path, {tag: (str, REQUIRED), **table[name].spec})
    return check


class _Family(NamedTuple):
    build: Callable                      # normalized map block -> BranchMap
    spec: dict                           # the family's parameters
    family: Optional[Callable] = None    # ParamFamily factory, for map derivatives


class _Form(NamedTuple):
    build: Callable                      # (normalized block, branch map) -> Potential
    spec: dict


_FAMILIES = {
    "doubling": _Family(lambda p: maps.doubling(), {}),
    "linear": _Family(lambda p: maps.linear_map(p["degree"]),
                      {"degree": (int, REQUIRED, lambda d: d >= 2, "must be >= 2")}),
    "manneville-pomeau": _Family(lambda p: maps.manneville_pomeau(p["alpha"]),
                                 {"alpha": (float, REQUIRED, lambda a: a > 0, "must be > 0")}),
    "perturbed-doubling": _Family(lambda p: maps.perturbed_doubling(p["t"]),
                                  {"t": (float, REQUIRED)}, maps.perturbed_doubling_family),
    "translated-doubling": _Family(lambda p: maps.translated_doubling(p["s"]),
                                   {"s": (float, REQUIRED)}, maps.translated_doubling_family),
    "piecewise-poly": _Family(
        lambda p: _piecewise_poly_map(p["breakpoints"], p["coeffs"]),
        {"breakpoints": ([float], REQUIRED,
                         lambda bp: len(bp) >= 2 and bp[0] == 0.0 and bp[-1] == 1.0
                         and all(b2 > b1 for b1, b2 in zip(bp, bp[1:])),
                         "must increase from 0.0 to 1.0"),
         "coeffs": ([[float]], REQUIRED)}),
}

_FORMS = {
    "constant": _Form(lambda p, f: maps.constant(p["c"]), {"c": (float, 0.0)}),
    "trig": _Form(lambda p, f: maps.trig_polynomial(cos_coeffs=p["cos"], sin_coeffs=p["sin"],
                                                    const_term=p["const"]),
                  {"cos": ([float], []), "sin": ([float], []), "const": (float, 0.0)}),
    "log-deriv": _Form(lambda p, f: maps.log_derivative_weight(p["coefficient"], f),
                       {"coefficient": (float, REQUIRED)}),
    "grid": _Form(lambda p, f: maps.grid_potential(p["values"], p["interpolation"]),
                  {"values": ([float], REQUIRED),
                   "interpolation": (NODAL_RULES, "linear")}),
}

_POTENTIAL = _tagged("form", _FORMS)


class _Kind(NamedTuple):
    needs: tuple                         # the potentials it needs besides the base potential
    analytic: Callable                   # the library derivative, in a common signature
    twin: Optional[Callable] = None      # (triple, observable) -> what the +-eps twins read


# A potential kind's analytic takes (map, potential, direction, observable, disc,
# triple) and is paired here with central differences of its twin.  A map kind
# (no twin) takes (family, potential, observable, s0, disc, fd_step=) and returns
# the library's ResponseReport, which carries its own twin.
_RESPONSE_KINDS = {
    "lambda-potential": _Kind(
        ("direction",), lambda f, p, h, g, d, t: d_lambda_d_potential(f, p, h, d, triple=t),
        lambda t, g: float(t.lam)),
    "pressure-potential": _Kind(
        ("direction",), lambda f, p, h, g, d, t: d_pressure_d_potential(f, p, h, d, triple=t),
        lambda t, g: math.log(t.lam)),
    "density-potential": _Kind(
        ("direction",), lambda f, p, h, g, d, t: d_density_d_potential(f, p, h, d, triple=t),
        lambda t, g: np.asarray(t.h.values, float)),
    "conformal-potential": _Kind(
        ("direction", "observable"),
        lambda f, p, h, g, d, t: d_conformal_expectation(f, p, g, h, d, triple=t),
        lambda t, g: float(np.asarray(t.sample(g), float) @ np.asarray(t.nu, float))),
    "equilibrium-potential": _Kind(
        ("direction", "observable"),
        lambda f, p, h, g, d, t: d_equilibrium_expectation(f, p, g, h, d, triple=t),
        lambda t, g: float(np.asarray(t.sample(g), float) @ np.asarray(t.mu_weights, float))),
    "pressure-map": _Kind((), lambda fam, p, g, *a, **kw: d_pressure_d_dynamics(fam, p, *a, **kw)),
    "maxentropy-map": _Kind(
        ("observable",), lambda fam, p, g, *a, **kw: d_maxentropy_expectation(fam, g, *a, **kw)),
}


def _response(raw, path):
    block = _block(raw, path, {
        "derivative": (tuple(_RESPONSE_KINDS), REQUIRED),
        "direction": (_POTENTIAL, None),
        "observable": (_POTENTIAL, None),
        "fd_step": (float, 1e-4, lambda h: h > 0.0, "must be > 0")})
    needs = _RESPONSE_KINDS[block["derivative"]].needs
    for need in needs:
        if block[need] is None:
            raise ConfigError(f"{path}.{need}: {block['derivative']} needs a {need}")
    return {k: v for k, v in block.items() if k in ("derivative", "fd_step") + needs}


_QUANTITIES = ("pressure", "entropy", "lyapunov", "dimension")


def _scan(raw, path):
    block = _block(raw, path, {"start": (float, None), "stop": (float, None),
                               "step": (float, None), "values": ([float], None),
                               "quantities": ([_QUANTITIES], list(_QUANTITIES))})
    start, stop, step = (block[key] for key in ("start", "stop", "step"))
    if block["values"] is not None:
        if (start, stop, step) != (None, None, None):
            raise ConfigError(f"{path}.values: mutually exclusive with start/stop/step")
        values = block["values"]
    else:
        for key in ("start", "stop", "step"):
            if block[key] is None:
                raise ConfigError(f"{path}.{key}: missing required key")
        if not (step > 0 and stop >= start):
            raise ConfigError(f"{path}.step: need step > 0, stop >= start")
        span = (stop - start) / step
        if not span < SCAN_ROW_GUARD - 0.5:    # round(span) + 1 rows; inf fails too
            raise ResourceLimitError(
                f"{path} would have {span + 1:.6g} rows (> {SCAN_ROW_GUARD})")
        values = [start + i * step for i in range(int(round(span)) + 1)]
    return {"values": values, "quantities": block["quantities"]}


def _arc(raw, path):
    arc = _value(raw, path, [float])
    if len(arc) == 2:
        maps.region_arc(arc, path)
    return arc


def _positive(v):
    return v > 0


_T0 = (float, None, _positive, "must be > 0")
_GRID = ([float], REQUIRED, lambda grid: len(grid) > 0, "must not be empty")

_CONFIG = {
    "map": (_tagged("family", _FAMILIES), REQUIRED),
    "potential": (_POTENTIAL, {"form": "constant", "c": 0.0}),
    "discretization": ({"n": (int, 512, lambda n: n >= 8, "N must be >= 8"),
                        "scheme": (SCHEMES, "collocation"),
                        "interpolation": (NODAL_RULES, "linear")}, {}),
    "tolerances": ({"eig_tol": (float, 1e-12, lambda v: v >= 1e-14, "must be >= 1e-14"),
                    "max_iter": (int, 100000, _positive, "must be >= 1")}, {}),
    "hypotheses": ({"m": (int, None, _positive, "must be >= 1"),
                    "delta": (float, 0.05, _positive, "must be > 0"),
                    "region_a": ([_arc], None, lambda arcs: all(len(a) == 2 for a in arcs),
                                 "expected a list of [a, b] arcs"),
                    "q": (int, None, lambda q: q >= 0, "must be >= 0"),
                    "enforce": (bool, True)}, {}),
    "output": ({"dir": (str, "out")}, {}),
    "seed": (int, 0, lambda s: 0 <= s < stats.SEED_LIMIT,
             "must be a nonnegative integer below 2**128"),
    # command blocks; each command reads one (see _HANDLERS)
    "response": (_response, None),
    "correlation": ({"obs_a": (_POTENTIAL, REQUIRED), "obs_b": (_POTENTIAL, REQUIRED),
                     "n_max": (int, 30, lambda n: n >= 0, "must be >= 0")}, None),
    "clt": ({"observable": (_POTENTIAL, REQUIRED)}, None),
    "free_energy": ({"observable": (_POTENTIAL, REQUIRED), "t0": _T0, "n_t": (int, 41)}, None),
    "ldp": ({"observable": (_POTENTIAL, REQUIRED),
             "interval": ([float], REQUIRED, lambda ab: len(ab) == 2, "expected [a, b]"),
             "n_list": ([int], REQUIRED, lambda ns: len(ns) > 0, "must not be empty"),
             "n_samples": (int, REQUIRED, _positive, "must be >= 1"),
             "t0": _T0, "n_t": (int, 41)}, None),
    "rate_scan": ({"observable": (_POTENTIAL, REQUIRED), "s_grid": _GRID, "v_grid": _GRID,
                   "t0": _T0, "n_t": (int, 21)}, None),
    "scan": (_scan, None),
}


@dataclass
class RunConfig:
    """Validated, normalized run configuration."""
    map: dict
    potential: dict
    discretization: Discretization     # carries the tolerances block as tol, max_iter
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
    c = _block(raw, "config", _CONFIG)
    blocks = {name: c[name] for _, name in _HANDLERS.values()
              if name is not None and c[name] is not None}
    return RunConfig(map=c["map"], potential=c["potential"],
                     discretization=Discretization(**c["discretization"],
                                                   tol=c["tolerances"]["eig_tol"],
                                                   max_iter=c["tolerances"]["max_iter"]),
                     hypotheses=c["hypotheses"],
                     output_dir=c["output"]["dir"], seed=c["seed"], blocks=blocks, raw=raw)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_map(map_block):
    return _FAMILIES[map_block["family"]].build(map_block)


def _piecewise_poly_map(breakpoints, coeffs):
    bp = np.asarray(breakpoints)
    if len(coeffs) != len(bp) - 1:
        raise ConfigError("map.coeffs: need one coefficient list per piece")
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
    return _FORMS[pot_block["form"]].build(pot_block, branch_map)


def build_family(map_block) -> ParamFamily:
    family = map_block["family"]
    if _FAMILIES[family].family is None:
        raise ConfigError(
            f"map family {family!r} has no parameter derivative; use "
            f"{' or '.join(k for k, e in _FAMILIES.items() if e.family)} "
            "for map-direction scans")
    return _FAMILIES[family].family()


def _float_param(family):
    """The family's one float parameter: the scan and map-derivative axis."""
    keys = [key for key, (kind, *_) in _FAMILIES[family].spec.items() if kind is float]
    return keys[0] if len(keys) == 1 else None


def hypothesis_aux(config: RunConfig) -> HypothesisAux:
    h = config.hypotheses
    return HypothesisAux(m=h["m"], delta=h["delta"], region_a=h["region_a"], q=h["q"])


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(value):
    return f"{value:.17g}"


def write_csv(path, header_cols, rows, comment=None):
    """Rows of numbers, one per header column, each written as %.17g."""
    line = ",".join(["%.17g"] * len(header_cols)) + "\n"
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header_cols) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


def _jsonable(obj):
    """obj with numpy values made native and non-finite floats written as
    the strings "inf", "-inf" and "nan", which strict JSON readers accept."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


@dataclass
class RunReport:
    command: str
    config: dict
    hypotheses: Optional[dict]
    result: dict
    warnings: list

    def write(self, out_dir):
        path = os.path.join(out_dir, "report.json")
        with open(path, "w") as fh:
            json.dump(_jsonable(vars(self)), fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
        return path


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def run(command: str, config: RunConfig) -> RunReport:
    """Execute one subcommand; writes CSV artifacts and returns the report."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    handler, block_name = _HANDLERS[command]
    block = config.blocks.get(block_name)
    if block_name is not None and block is None:
        raise ConfigError(f"{block_name}: block missing from config")
    os.makedirs(config.output_dir, exist_ok=True)
    branch_map = build_map(config.map)
    pot = build_potential(config.potential, branch_map)
    if command == "response" and block["derivative"] == "maxentropy-map" and not pot.is_constant():
        raise ConfigError(f"potential: maxentropy-map needs a constant one, got {pot.describe()}")
    hyp = check_hypotheses(branch_map, pot, hypothesis_aux(config))
    failed = [k for k, v in hyp.verdicts.items() if v is False]
    gated = not hyp.passed() and config.hypotheses["enforce"] and command != "check-hypotheses"
    if gated:
        result, warnings = {"status": "hypotheses failed"}, [f"failed: {failed}"]
    else:
        result, warnings = handler(config, block, branch_map, pot, hyp)
        if not hyp.passed():
            warnings = [f"hypotheses not all satisfied: {failed} (override active)"] + warnings
    report = RunReport(command=command, config=config.raw, hypotheses=asdict(hyp),
                       result=result, warnings=warnings)
    report.write(config.output_dir)
    if gated:
        raise HypothesisError(f"standing hypotheses failed ({failed}); "
                              "set hypotheses.enforce=false to override")
    return report


def _cmd_check_hypotheses(config, block, branch_map, pot, hyp):
    return {"passed": hyp.passed()}, []


def _triple(config, branch_map, pot):
    return leading_triple(discretize(branch_map, pot, config.discretization))


def _cmd_pressure(config, block, branch_map, pot, hyp):
    triple = _triple(config, branch_map, pot)
    return {"pressure": pressure(branch_map, pot, config.discretization, triple=triple),
            "lambda": float(triple.lam),
            "iterations": triple.iterations,
            "residual_right": triple.residual_right,
            "residual_left": triple.residual_left}, []


def _cmd_spectrum(config, block, branch_map, pot, hyp):
    disc = config.discretization
    triple = _triple(config, branch_map, pot)
    op = triple.op
    tau = gap_estimate(op, triple)
    write_csv(os.path.join(config.output_dir, "eigen.csv"),
              ["x", "h", "nu"],
              zip(triple.h.sites, map(float, triple.h.values), map(float, triple.nu)),
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


def _cmd_equilibrium(config, block, branch_map, pot, hyp):
    disc = config.discretization
    triple = _triple(config, branch_map, pot)
    rep = equilibrium_state(branch_map, pot, triple=triple)
    write_csv(os.path.join(config.output_dir, "equilibrium.csv"),
              ["x", "mu_weight"], zip(triple.h.sites, map(float, rep.equilibrium)),
              comment=f"equilibrium weights scheme={disc.scheme} N={disc.n} "
                      f"map={branch_map.family_tag}")
    # every field but the grid weights; dimension only where it is defined
    return {k: v for k, v in asdict(rep).items() if k != "equilibrium" and v is not None}, []


def _cmd_response(config, block, branch_map, pot, hyp):
    disc, kind, eps = config.discretization, block["derivative"], block["fd_step"]
    _, analytic, twin = _RESPONSE_KINDS[kind]
    g = build_potential(block["observable"], branch_map) if "observable" in block else None
    if twin is None:
        family = build_family(config.map)
        s0 = config.map[_float_param(config.map["family"])]
        rep = analytic(family, pot, g, s0, disc, fd_step=eps)
    else:
        direction = build_potential(block["direction"], branch_map)
        # one setup serves the base triple and its two FD twins at +-eps
        setup = OperatorSetup(branch_map, disc)
        triple = leading_triple(setup.operator(pot))
        twins = {e: leading_triple(setup.operator(pot + e * direction)) for e in (eps, -eps)}
        value = analytic(branch_map, pot, direction, g, disc, triple)
        fd = central_difference(lambda e: twin(twins[e], g), eps)
        if kind == "density-potential":
            write_csv(os.path.join(config.output_dir, "density_derivative.csv"),
                      ["x", "dh"], zip(value.sites, map(float, value.values)),
                      comment="density derivative in the given direction")
            err = np.asarray(value.values, float) - fd
            return {"derivative": kind, "analytic_sup_norm": float(np.max(np.abs(value.values))),
                    "fd_sup_norm": float(np.max(np.abs(fd))),
                    "sup_norm_error": float(np.max(np.abs(err))), "fd_step": eps}, []
        rep = ResponseReport(float(value), float(fd), eps)
    return {**asdict(rep), "rel_error": rep.rel_error, "derivative": kind}, []


def _cmd_correlation(config, block, branch_map, pot, hyp):
    obs_a = build_potential(block["obs_a"], branch_map)
    obs_b = build_potential(block["obs_b"], branch_map)
    series = stats.correlation(branch_map, pot, obs_a, obs_b, block["n_max"],
                               triple=_triple(config, branch_map, pot))
    write_csv(os.path.join(config.output_dir, "correlation.csv"),
              ["n", "c"], enumerate(map(float, series.values)),
              comment=f"correlation series map={branch_map.family_tag}")
    result = {"c0": float(series.values[0]), "tau_fit": series.tau_fit,
              "fit_residual": series.fit_residual}
    return result, ([series.note] if series.note else [])


def _cmd_clt(config, block, branch_map, pot, hyp):
    psi = build_potential(block["observable"], branch_map)
    clt = stats.clt_parameters(branch_map, pot, psi, triple=_triple(config, branch_map, pot))
    result = {"mean": clt.mean, "variance": clt.variance, "coboundary": clt.coboundary}
    return result, ([clt.note] if clt.note else [])


def _curve_and_rate(config, block, branch_map, pot):
    """The free-energy curve of the block's observable and its rate function."""
    psi = build_potential(block["observable"], branch_map)
    curve = stats.free_energy(branch_map, pot, psi, t0=block["t0"],
                              n_t=block["n_t"], disc=config.discretization,
                              hyp_aux=hypothesis_aux(config))
    return psi, curve, stats.rate_function(curve)


def _cmd_free_energy(config, block, branch_map, pot, hyp):
    _, curve, rate = _curve_and_rate(config, block, branch_map, pot)
    write_csv(os.path.join(config.output_dir, "free_energy.csv"),
              ["t", "e", "e_prime", "e_second"],
              zip(curve.t_grid, curve.values, curve.e_prime, curve.e_second),
              comment=f"free energy t0={_fmt(curve.t0)}")
    write_csv(os.path.join(config.output_dir, "rate_function.csv"),
              ["s", "rate"], zip(rate.s_grid, rate.values),
              comment="Legendre rate function")
    return {"t0": curve.t0, "convex": curve.convex, "nodes": len(curve.nodes),
            "tail": curve.tail, "domain": list(curve.domain), "argmin": rate.argmin}, []


def _cmd_ldp(config, block, branch_map, pot, hyp):
    psi, _, rate = _curve_and_rate(config, block, branch_map, pot)
    exp = stats.ldp_monte_carlo(branch_map, pot, psi, block["interval"],
                                block["n_list"], block["n_samples"],
                                config.seed, rate, triple=_triple(config, branch_map, pot))
    write_csv(os.path.join(config.output_dir, "ldp.csv"),
              ["n", "hits", "rate", "ci95"],
              [(n, exp.hits[n], exp.rates[n], exp.ci95[n]) for n in exp.n_list],
              comment=f"seed={exp.seed} samples={exp.n_samples} "
                      f"interval=[{_fmt(exp.interval[0])},{_fmt(exp.interval[1])}]")
    return {"predicted_rate": exp.predicted, "seed": exp.seed,
            "interval": list(exp.interval),
            "rates": {str(n): exp.rates[n] for n in exp.n_list},
            "ci95": {str(n): exp.ci95[n] for n in exp.n_list}}, list(exp.notes)


def _cmd_rate_scan(config, block, branch_map, pot, hyp):
    family = build_family(config.map)
    psi = build_potential(block["observable"], branch_map)
    scan = stats.rate_continuity_scan(family, pot, psi, block["s_grid"],
                                      block["v_grid"], disc=config.discretization,
                                      t0=block["t0"], n_t=block["n_t"],
                                      hyp_aux=hypothesis_aux(config))
    rows = [(v, s, scan.table[i, j]) for i, v in enumerate(scan.v_grid)
            for j, s in enumerate(scan.s_grid)]
    write_csv(os.path.join(config.output_dir, "rate_scan.csv"),
              ["v", "s", "rate"], rows, comment="rate-function continuity scan")
    return {"modulus": scan.modulus,
            "v_grid": list(map(float, scan.v_grid)),
            "s_grid": list(map(float, scan.s_grid))}, []


def _cmd_bifurcation_scan(config, block, branch_map, pot, hyp):
    family_tag = config.map["family"]
    param_key = _float_param(family_tag)
    if param_key is None:
        raise ConfigError(f"scan: family {family_tag!r} has no scan parameter")
    quantities = block["quantities"]
    rows = []
    for v in block["values"]:
        fmap = build_map({**config.map, param_key: v})
        fpot = build_potential(config.potential, fmap)
        rep = equilibrium_state(fmap, fpot, triple=_triple(config, fmap, fpot))
        row = [v]
        for q in quantities:
            val = getattr(rep, q)
            row.append(np.nan if val is None else val)
        rows.append(row)
    write_csv(os.path.join(config.output_dir, "scan.csv"),
              ["parameter"] + list(quantities), rows,
              comment=f"bifurcation scan family={family_tag}")
    return {"rows": len(rows), "quantities": list(quantities)}, []


# command -> (handler, the config block it reads or None)
_HANDLERS = {
    "check-hypotheses": (_cmd_check_hypotheses, None),
    "pressure": (_cmd_pressure, None),
    "spectrum": (_cmd_spectrum, None),
    "equilibrium": (_cmd_equilibrium, None),
    "response": (_cmd_response, "response"),
    "correlation": (_cmd_correlation, "correlation"),
    "clt": (_cmd_clt, "clt"),
    "free-energy": (_cmd_free_energy, "free_energy"),
    "ldp": (_cmd_ldp, "ldp"),
    "rate-scan": (_cmd_rate_scan, "rate_scan"),
    "bifurcation-scan": (_cmd_bifurcation_scan, "scan"),
}
COMMANDS = tuple(_HANDLERS)


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
            config.seed = _checked(args.seed, "--seed", *_CONFIG["seed"])
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
