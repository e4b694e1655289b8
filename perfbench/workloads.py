"""The three benchmark workloads: their inputs, operations and checks.

A workload is built from a seed into a list of operations.  One round runs
every operation once, in order; an operation is one (N, scheme) solve, one
CLI command or one oracle evaluation.  Each operation's output is checked
right after it returns, outside its timer.  The seed moves phases, shifts,
amplitudes and sample points, never the amount of work: grid sizes, depths,
sample counts and command lists are fixed, so every seed does the same
operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import circthermo as ct
import circthermo.cli as ct_cli

import checks

LOG2 = math.log(2.0)


@dataclass
class Op:
    """One timed operation and the check of its output.

    ``run(results)`` and ``check(result, results)`` see ``results``, the
    outputs of the operations before it in the round; ``check`` returns a
    list of ``(ok, detail)``.  An
    operation with ``known_fault`` set fails its check on every input
    because of a fault in the program; it is counted as failed, not as
    incorrect.
    """
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list]
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Callable[[], object]
    round_check: Callable[[dict], list] = lambda results: []
    accuracy: Callable[[dict], dict] = lambda results: {}
    work_dir: Optional[str] = None

    def close(self):
        if self.work_dir and os.path.isdir(self.work_dir):
            shutil.rmtree(self.work_dir)


def _phase_trig(amplitude, theta, harmonic=1):
    """amplitude * cos(2 pi (k x + theta)) as a trig polynomial."""
    cos = [0.0] * harmonic
    sin = [0.0] * harmonic
    cos[-1] = amplitude * math.cos(2.0 * math.pi * theta)
    sin[-1] = -amplitude * math.sin(2.0 * math.pi * theta)
    return cos, sin


def _trig(amplitude, theta, harmonic=1):
    cos, sin = _phase_trig(amplitude, theta, harmonic)
    return ct.trig_polynomial(cos_coeffs=cos, sin_coeffs=sin)


# ---------------------------------------------------------------------------
# intermittent_refine: few large solves on a slowly mixing map
# ---------------------------------------------------------------------------

# Dense matrices of 1, 4.2 and 16.8 MB: inside one core's 2 MiB L2, about
# the 4 MiB of both L2s, and inside the shared 105 MiB L3.  N = 2048 (32 MB) was left out: one collocation rung
# there with its finite-difference twin takes about 30 s, and its matvec
# time spread 13% between repetitions on a 2-vCPU Xeon VM.
LADDER_N = (362, 724, 1448)
FD_STEP = 1e-4
FD_REL_TOL = 1e-3
ULAM_PRESSURE_TOL = 1e-10


def _intermittent(seed, work_dir):
    rng = np.random.default_rng(seed)
    fmap = ct.manneville_pomeau(0.5)
    phi = ct.log_derivative_weight(-1.0, fmap)        # physical potential, P = 0
    g = _trig(1.0, rng.random())                       # observable
    direction = _trig(0.5, rng.random(), harmonic=2)   # potential direction H

    def collocation_rung(n):
        disc = ct.Discretization(n=n, scheme="collocation")

        def run(_results):
            op = ct.discretize(fmap, phi, disc)
            triple = ct.leading_triple(op)
            tau = ct.gap_estimate(op, triple)
            eq = ct.equilibrium_state(fmap, phi, disc, triple=triple)
            analytic = ct.d_equilibrium_expectation(fmap, phi, g, direction, disc,
                                                    triple=triple)
            gv = np.asarray(g(op.grid.nodes), dtype=float)

            def mu_g(eps):
                t = ct.leading_triple(ct.discretize(fmap, phi + eps * direction, disc))
                return float(gv @ t.mu_weights)

            fd = (mu_g(FD_STEP) - mu_g(-FD_STEP)) / (2.0 * FD_STEP)
            return {"pressure": math.log(float(triple.lam)), "tau": tau,
                    "tau_bound": triple.tau_is_upper_bound, "mu": eq.equilibrium,
                    "analytic": analytic, "fd": fd, "iterations": triple.iterations}

        def check(r, results):
            return [checks.gap_below_one(f"collocation N={n}", r["tau"], r["tau_bound"]),
                    _mass_one(f"collocation N={n}", r["mu"]),
                    checks.fd_agrees(f"collocation N={n} d mu(g)", r["analytic"], r["fd"],
                                     FD_REL_TOL)]
        return Op(f"collocation_{n}", run, check)

    # The Ulam rungs carry no response: the analytic potential derivatives
    # sample the direction at the left cell ends, where the Ulam weights sit
    # at arc midpoints, so they match their FD twin only to O(1/N) (see the
    # FOUND line in CHANGES.md).
    def ulam_rung(n):
        disc = ct.Discretization(n=n, scheme="ulam")

        def run(_results):
            op = ct.discretize(fmap, phi, disc)
            triple = ct.leading_triple(op)
            tau = ct.gap_estimate(op, triple)
            eq = ct.equilibrium_state(fmap, phi, disc, triple=triple)
            return {"pressure": math.log(float(triple.lam)), "tau": tau,
                    "tau_bound": triple.tau_is_upper_bound, "mu": eq.equilibrium,
                    "iterations": triple.iterations}

        def check(r, results):
            # column-stochastic at phi = -log f', so lambda = 1 exactly
            return [checks.within(f"ulam N={n} pressure", r["pressure"], 0.0,
                                  ULAM_PRESSURE_TOL),
                    checks.gap_below_one(f"ulam N={n}", r["tau"], r["tau_bound"]),
                    _mass_one(f"ulam N={n}", r["mu"])]
        return Op(f"ulam_{n}", run, check)

    ops = [collocation_rung(n) for n in LADDER_N] + [ulam_rung(n) for n in LADDER_N]

    def round_check(results):
        return [checks.strictly_decreasing_positive(
            "collocation P_N along the ladder",
            [results[f"collocation_{n}"]["pressure"] for n in LADDER_N])]

    def accuracy(results):
        out = {}
        for n in LADDER_N:
            c = results[f"collocation_{n}"]
            u = results[f"ulam_{n}"]
            out[f"collocation_{n}"] = {
                "pressure": c["pressure"], "tau": c["tau"], "iterations": c["iterations"],
                "fd_rel_error": abs(c["analytic"] - c["fd"]) / max(1.0, abs(c["fd"]))}
            out[f"ulam_{n}"] = {"pressure_error": abs(u["pressure"]), "tau": u["tau"],
                                "iterations": u["iterations"]}
        return out

    return Workload("intermittent_refine", ops, lambda: ops[0].run({}), round_check,
                    accuracy)


def _mass_one(name, mu):
    mu = np.asarray(mu, dtype=float)
    err = abs(float(mu.sum()) - 1.0)
    ok = err <= 1e-12 and float(mu.min()) >= 0.0
    return ok, f"{name}: equilibrium mass error {err:.1e}, min weight {float(mu.min()):.2e}"


# ---------------------------------------------------------------------------
# analytic_sweep: many small solves through the CLI
# ---------------------------------------------------------------------------

F256 = {"n": 256, "interpolation": "fourier"}
F512 = {"n": 512, "interpolation": "fourier"}
DOUBLING = {"family": "doubling"}
# amplitudes that keep (H1), (H2) and (P') true, so the CLI's hypothesis
# gate lets every command through
POT_AMPLITUDE = 0.01
PD_POT_AMPLITUDE = 0.005
RESPONSE_TOL = 1e-3


def _trig_block(amplitude, theta, harmonic=1):
    cos, sin = _phase_trig(amplitude, theta, harmonic)
    return {"form": "trig", "cos": cos, "sin": sin}


def _analytic(seed, work_dir):
    rng = np.random.default_rng(seed)
    theta = rng.random()
    psi = _trig_block(1.0, theta)                       # variance 1/2 at phi = 0
    # psi_cob = u o f - u with u = cos(2 pi (x + theta)): a coboundary
    u2c, u2s = _phase_trig(1.0, theta, harmonic=2)
    u1c, u1s = _phase_trig(1.0, theta, harmonic=1)
    coboundary = {"form": "trig", "cos": [-u1c[0], u2c[1]], "sin": [-u1s[0], u2s[1]]}
    pot = _trig_block(POT_AMPLITUDE, rng.random())
    pd_pot = _trig_block(PD_POT_AMPLITUDE, rng.random())
    direction = _trig_block(0.5, rng.random())
    observable = _trig_block(1.0, rng.random(), harmonic=2)
    geometric_t = sorted(float(t) for t in rng.uniform(0.05, 0.95, 3))
    shift = float(rng.random())
    pd_t = float(rng.uniform(0.05, 0.15))

    commands = []    # (op name, command, config)

    def add(name, command, config):
        commands.append((name, command, config))

    fe = {"map": DOUBLING, "discretization": F512,
          "free_energy": {"observable": psi, "t0": 0.2, "n_t": 41}}
    add("free_energy_t0", "free-energy", fe)
    add("free_energy_t0_again", "free-energy", fe)
    add("free_energy_auto", "free-energy",
        {"map": DOUBLING, "discretization": F512,
         "free_energy": {"observable": psi, "n_t": 41}})
    add("rate_scan", "rate-scan",
        {"map": {"family": "perturbed-doubling", "t": 0.0}, "discretization": F512,
         "rate_scan": {"observable": psi, "s_grid": [-0.02, 0.0, 0.02],
                       "v_grid": [0.0, 0.04, 0.08, 0.12], "t0": 0.2, "n_t": 21}})
    add("bifurcation_scan", "bifurcation-scan",
        {"map": {"family": "perturbed-doubling", "t": 0.0}, "discretization": F512,
         "scan": {"start": 0.0, "stop": 0.3, "step": 0.025}})
    for i, t in enumerate(geometric_t):
        add(f"pressure_geometric_{i}", "pressure",
            {"map": DOUBLING, "discretization": F256,
             "potential": {"form": "constant", "c": -t * LOG2}})
    for kind in ("lambda", "pressure", "density", "conformal", "equilibrium"):
        add(f"response_{kind}_potential", "response",
            {"map": DOUBLING, "potential": pot, "discretization": F256,
             "response": {"derivative": f"{kind}-potential", "direction": direction,
                          "observable": observable}})
    add("response_pressure_map_translated", "response",
        {"map": {"family": "translated-doubling", "s": shift}, "discretization": F256,
         "response": {"derivative": "pressure-map"}})
    add("response_pressure_map_perturbed", "response",
        {"map": {"family": "perturbed-doubling", "t": pd_t}, "potential": pd_pot,
         "discretization": F256, "response": {"derivative": "pressure-map"}})
    add("response_maxentropy_map", "response",
        {"map": {"family": "perturbed-doubling", "t": pd_t}, "discretization": F256,
         "response": {"derivative": "maxentropy-map", "observable": observable}})
    add("clt", "clt", {"map": DOUBLING, "discretization": F256, "clt": {"observable": psi}})
    add("clt_coboundary", "clt",
        {"map": DOUBLING, "discretization": F256, "clt": {"observable": coboundary}})
    add("correlation", "correlation",
        {"map": DOUBLING, "discretization": F256,
         "correlation": {"obs_a": psi, "obs_b": psi, "n_max": 20}})
    add("spectrum", "spectrum", {"map": DOUBLING, "discretization": F512})

    os.makedirs(work_dir, exist_ok=True)
    paths = {}
    for name, command, config in commands:
        path = os.path.join(work_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        paths[name] = path

    def cli_op(name, command):
        out_dir = os.path.join(work_dir, name)

        def run(_results):
            # the CLI reports its timing on stderr; keep it out of the log
            with contextlib.redirect_stderr(io.StringIO()):
                code = ct_cli.main([command, paths[name], "--out", out_dir])
            if code != 0:
                raise RuntimeError(f"circthermo {command} exited with code {code}")
            with open(os.path.join(out_dir, "report.json")) as fh:
                report = json.load(fh)
            return {"report": report["result"], "dir": out_dir}
        return run

    check_of = {
        "free_energy_t0": lambda r, rs: [(r["report"]["convex"], "free energy t0=0.2 convex")],
        "free_energy_t0_again": lambda r, rs: [_same_artifacts(
            rs["free_energy_t0"]["dir"], r["dir"])],
        "free_energy_auto": lambda r, rs: [(r["report"]["convex"], "free energy auto t0 convex")],
        "rate_scan": lambda r, rs: [_rate_scan_ok(r["dir"])],
        "bifurcation_scan": lambda r, rs: _bifurcation_row0(r["dir"]),
        "response_pressure_map_translated": lambda r, rs: [
            checks.within("translated doubling dP/ds analytic", r["report"]["analytic_value"],
                          0.0, 1e-10),
            checks.within("translated doubling dP/ds fd", r["report"]["fd_value"], 0.0, 1e-8)],
        "clt": lambda r, rs: [checks.within("Green-Kubo variance", r["report"]["variance"],
                                            0.5, 1e-6)],
        "clt_coboundary": lambda r, rs: [
            (r["report"]["coboundary"] and r["report"]["variance"] == 0.0,
             f"coboundary variance {r['report']['variance']}")],
        "correlation": lambda r, rs: _correlation_ok(r["dir"]),
        "spectrum": lambda r, rs: _spectrum_ok(r),
    }
    for i, t in enumerate(geometric_t):
        check_of[f"pressure_geometric_{i}"] = (
            lambda r, rs, t=t: [checks.within(f"P(-{t:.3f} log 2)", r["report"]["pressure"],
                                              (1.0 - t) * LOG2, 1e-10)])
    for name, _, _ in commands:
        if name.startswith("response_") and name not in check_of:
            check_of[name] = lambda r, rs, name=name: [_response_ok(name, r["report"])]

    ops = [Op(name, cli_op(name, command), check_of[name]) for name, command, _ in commands]

    def round_check(results):
        # E''(0) of the free energy is the Green-Kubo variance (criterion 6)
        e2 = _free_energy_e2_at_zero(results["free_energy_auto"]["dir"])
        return [checks.within("E''(0) against the variance", e2,
                              results["clt"]["report"]["variance"], 1e-4)]

    def accuracy(results):
        out = {"e2_minus_variance": _free_energy_e2_at_zero(results["free_energy_auto"]["dir"])
               - results["clt"]["report"]["variance"],
               "spectrum_pressure_error": abs(math.log(results["spectrum"]["report"]["lambda"])
                                              - LOG2)}
        for name, r in results.items():
            if name.startswith("response_"):
                rep = r["report"]
                out[name] = rep.get("rel_error", rep.get("sup_norm_error"))
        return out

    warm_dir = os.path.join(work_dir, "warmup")

    def warmup():
        with contextlib.redirect_stderr(io.StringIO()):
            return ct_cli.main(["correlation", paths["correlation"], "--out", warm_dir])

    return Workload("analytic_sweep", ops, warmup, round_check, accuracy,
                    work_dir=work_dir)


def _read_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append(line.rstrip("\n").split(","))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _same_artifacts(dir_a, dir_b):
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False, f"artifact sets differ: {names} vs {sorted(os.listdir(dir_b))}"
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False, f"{name} differs between two runs of one command"
    return True, f"byte-identical artifacts: {names}"


def _rate_scan_ok(out_dir):
    _, rows = _read_csv(os.path.join(out_dir, "rate_scan.csv"))
    rates = np.array([r[2] for r in rows])
    ok = rates.size == 12 and bool(np.all(np.isfinite(rates))) and bool(np.all(rates >= 0.0))
    return ok, f"rate scan: {rates.size} finite nonnegative rates"


def _bifurcation_row0(out_dir):
    header, rows = _read_csv(os.path.join(out_dir, "scan.csv"))
    row = dict(zip(header, rows[0]))
    return [(len(rows) == 13 and row["parameter"] == 0.0, f"scan rows {len(rows)}"),
            checks.within("t=0 entropy", row["entropy"], LOG2, 1e-10),
            checks.within("t=0 lyapunov", row["lyapunov"], LOG2, 1e-10),
            checks.within("t=0 dimension", row["dimension"], 1.0, 1e-10)]


def _correlation_ok(out_dir):
    _, rows = _read_csv(os.path.join(out_dir, "correlation.csv"))
    c = np.array([r[1] for r in rows])
    return [checks.within("C(0)", c[0], 0.5, 1e-10),
            checks.within("max |C(n>=1)|", float(np.max(np.abs(c[1:]))), 0.0, 1e-10)]


def _spectrum_ok(result):
    lam = result["report"]["lambda"]
    with open(os.path.join(result["dir"], "operator.csv")) as fh:
        rows = sum(1 for line in fh if not line.startswith("#"))
    return [checks.within("log lambda at phi=0", math.log(lam), LOG2, 1e-12),
            (rows == F512["n"], f"operator.csv rows {rows}")]


def _response_ok(name, report):
    if "rel_error" in report:
        return checks.fd_agrees(name, report["analytic_value"], report["fd_value"],
                                RESPONSE_TOL)
    err = report["sup_norm_error"] / max(1.0, report["fd_sup_norm"])
    return err <= RESPONSE_TOL, f"{name}: sup-norm error {err:.2e} (tol {RESPONSE_TOL:g})"


def _free_energy_e2_at_zero(out_dir):
    header, rows = _read_csv(os.path.join(out_dir, "free_energy.csv"))
    t_col, e2_col = header.index("t"), header.index("e_second")
    return next(r[e2_col] for r in rows if r[t_col] == 0.0)


# ---------------------------------------------------------------------------
# oracles: discretization-free pressure and deviation routes
# ---------------------------------------------------------------------------

MC_SAMPLES = 10 ** 6
MC_N = (10, 15, 20, 25, 30)
MC_INTERVAL = (0.25, 0.45)
DP_N = MC_N + (60, 120, 240, 480)
# inputs of the known-fault operation; they do not depend on the seed.  A
# quarter of the samples keeps its cost down; its gap to r_60 (0.04) is
# still about 165 times its 95% half width.
MC60_SEED = 20250808
MC60_SAMPLES = MC_SAMPLES // 4
DYADIC_N = 15
DYADIC_TOL = 1e-4


def _oracles(seed, work_dir):
    rng = np.random.default_rng(seed)
    zero = ct.zero_potential()
    doubling = ct.doubling()
    linear3 = ct.linear_map(3)
    pd = ct.perturbed_doubling(0.1)
    mp1 = ct.manneville_pomeau(1.0)
    pot_pd = _trig(float(rng.uniform(0.05, 0.15)), rng.random())
    pot_mp = _trig(float(rng.uniform(0.05, 0.15)), rng.random())
    x0 = [float(v) for v in rng.uniform(0.05, 0.95, 4)]
    mc_seed = int(rng.integers(1, 2 ** 31))
    psi = ct.trig_polynomial(cos_coeffs=[1.0])
    disc_spec = ct.Discretization(n=1024)
    disc_rate = ct.Discretization(n=256)

    ops = []

    def add(name, run, check, known_fault=False):
        ops.append(Op(name, run, check, known_fault))

    def periodic_exact(name, fmap, d, n):
        exact = math.log(d ** n - 1) / n        # d^n - 1 fixed points of z -> d z
        add(name, lambda rs: ct.pressure_oracle_periodic(fmap, zero, n),
            lambda r, rs: [checks.within(name, r[0], exact, 1e-14)])

    def tree_exact(name, fmap, d, n, x):
        add(name, lambda rs: ct.pressure_oracle_tree(fmap, zero, x, n),
            lambda r, rs: [checks.within(name, r, math.log(d), 1e-12)])

    periodic_exact("periodic_doubling_n14", doubling, 2, 14)
    periodic_exact("periodic_linear3_n9", linear3, 3, 9)
    tree_exact("tree_doubling_n18", doubling, 2, 18, x0[0])
    tree_exact("tree_linear3_n12", linear3, 3, 12, x0[1])

    # spectral, tree and periodic routes to one pressure: (tag, map, potential,
    # tree depth, period, tree base point)
    triangles = (("perturbed", pd, pot_pd, 16, 12, x0[2]), ("mp1", mp1, pot_mp, 19, 12, x0[3]))
    for tag, fmap, pot, tree_n, per_n, x in triangles:
        add(f"spectral_{tag}", lambda rs, fmap=fmap, pot=pot: ct.pressure(fmap, pot, disc_spec),
            lambda r, rs: [])
        add(f"tree_{tag}_n{tree_n}",
            lambda rs, fmap=fmap, pot=pot, x=x, n=tree_n: ct.pressure_oracle_tree(fmap, pot, x, n),
            lambda r, rs: [])
        add(f"periodic_{tag}_n{per_n}",
            lambda rs, fmap=fmap, pot=pot, n=per_n: ct.pressure_oracle_periodic(fmap, pot, n),
            lambda r, rs, tag=tag, tree_n=tree_n: [checks.triangulation(
                tag, rs[f"spectral_{tag}"], rs[f"tree_{tag}_n{tree_n}"], r[0])])

    dyadic = {}

    def dyadic_check(r15):
        if "value" not in dyadic:       # the twin is the benchmark's, computed once
            dyadic["value"] = checks.dyadic_deviation_rate(DYADIC_N, *MC_INTERVAL)
        return checks.within("r_15 against dyadic quadrature", r15, dyadic["value"],
                             DYADIC_TOL)

    def rate(rs):
        curve = ct.free_energy(doubling, zero, psi, t0=1.2, disc=disc_rate)
        return ct.rate_function(curve)

    add("rate_function", rate, lambda r, rs: _rate_ok(r))
    add("deviation_probability",
        lambda rs: ct.deviation_probability(doubling, zero, psi, MC_INTERVAL, list(DP_N),
                                            rs["rate_function"]),
        lambda r, rs: [dyadic_check(r.rates[DYADIC_N]), _converges(r, rs["rate_function"])])
    add("mc_doubling_n30",
        lambda rs: ct.ldp_monte_carlo(doubling, zero, psi, MC_INTERVAL, list(MC_N),
                                      MC_SAMPLES, mc_seed, rs["rate_function"],
                                      disc=disc_rate),
        lambda r, rs: [checks.mc_within_ci(f"MC n={n}", r.rates[n],
                                           rs["deviation_probability"].rates[n], r.ci95[n])
                       for n in MC_N])
    # float64 doubling orbits collapse to x = 0 after about 53 steps, so this
    # rate is wrong on every input (see the FOUND line in CHANGES.md)
    add("mc_doubling_n60",
        lambda rs: ct.ldp_monte_carlo(doubling, zero, psi, MC_INTERVAL, [60],
                                      MC60_SAMPLES, MC60_SEED, rs["rate_function"],
                                      disc=disc_rate),
        lambda r, rs: [checks.mc_within_ci("MC n=60", r.rates[60],
                                           rs["deviation_probability"].rates[60], r.ci95[60])],
        known_fault=True)

    def accuracy(results):
        out = {}
        for tag, _, _, tree_n, per_n, _ in triangles:
            s, t, p = (results[f"spectral_{tag}"], results[f"tree_{tag}_n{tree_n}"],
                       results[f"periodic_{tag}_n{per_n}"][0])
            out[tag] = {"spectral-tree": abs(s - t), "spectral-periodic": abs(s - p),
                        "tree-periodic": abs(t - p)}
        dp = results["deviation_probability"].rates
        mc = results["mc_doubling_n30"]
        out["mc_gap_over_ci95"] = {n: abs(mc.rates[n] - dp[n]) / mc.ci95[n] for n in MC_N}
        out["r15_minus_dyadic"] = dp[DYADIC_N] - dyadic.get("value", float("nan"))
        mc60 = results["mc_doubling_n60"]
        out["mc60"] = {"rate": mc60.rates[60], "ci95": mc60.ci95[60], "r_60": dp[60]}
        return out

    return Workload("oracles", ops, lambda: ct.pressure_oracle_tree(doubling, zero, 0.3, 12),
                    accuracy=accuracy)


def _rate_ok(rate):
    """Criterion-7 properties: I >= 0, convex, zero at the mean E'(0) = 0."""
    second = np.diff(rate.values, 2)
    ok = (bool(np.all(rate.values >= 0.0)) and bool(np.all(second >= -1e-10))
          and abs(rate.argmin) <= 1e-6 and float(rate(np.array([rate.argmin]))[0]) <= 1e-10)
    return [(ok, f"rate function: min {rate.values.min():.2e}, min second difference "
                 f"{second.min():.2e}, argmin {rate.argmin:.1e}")]


def _converges(dp, rate):
    """r_n -> -inf I: the excess |r_n + I| falls strictly as n doubles."""
    inf_i = rate.infimum(*MC_INTERVAL)
    ns = [30, 60, 120, 240, 480]
    excess = [abs(dp.rates[n] + inf_i) for n in ns]
    ok = all(b < a for a, b in zip(excess, excess[1:]))
    return ok, "excess |r_n + I|: " + " ".join(f"{e:.4f}" for e in excess)


BUILDERS = {"intermittent_refine": _intermittent, "analytic_sweep": _analytic,
            "oracles": _oracles}


def build(name, seed, work_dir):
    """The workload's maps, potentials and configs, ready for its first call."""
    return BUILDERS[name](seed, work_dir)
