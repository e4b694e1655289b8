"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 8 checks that the operator's thermodynamics predicts the
Monte-Carlo deviation rates in two steps: (a) the n=30 empirical rate lies
within its confidence interval of the exact finite-n rate r_30 that the
twisted operator gives, and (b) the operator's r_n converge to the
asymptotic rate -inf I at the Bahadur-Rao speed as n doubles; see the
README note on this criterion.
"""

import math
import time

import numpy as np

from circthermo import (Discretization, ParamFamily, clt_parameters, constant,
                        correlation, d_conformal_expectation,
                        d_density_d_potential, d_equilibrium_expectation,
                        d_lambda_d_potential, d_maxentropy_expectation,
                        d_pressure_d_dynamics, d_pressure_d_potential,
                        deviation_probability, discretize, doubling,
                        equilibrium_state, free_energy,
                        ldp_monte_carlo, leading_triple, linear_map,
                        manneville_pomeau, perturbed_doubling,
                        perturbed_doubling_family, pressure,
                        pressure_oracle_periodic, pressure_oracle_tree,
                        rate_continuity_scan, rate_function,
                        translated_doubling_family,
                        trig_polynomial, zero_potential)
from circthermo.stats import legendre_sup

PSI_COS = trig_polynomial(cos_coeffs=[1.0])


def cos1(x):
    return np.cos(2 * np.pi * np.asarray(x, dtype=float))


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name:<28} {status}  {detail}", flush=True)
    return ok


def test_criterion_01_exact_pressure():
    t0 = time.monotonic()
    p2 = pressure(doubling(), zero_potential(), Discretization(n=256))
    dt2 = time.monotonic() - t0
    t0 = time.monotonic()
    p3 = pressure(linear_map(3), zero_potential(), Discretization(n=256))
    dt3 = time.monotonic() - t0
    err2 = abs(p2 - math.log(2))
    err3 = abs(p3 - math.log(3))
    ok = err2 < 1e-10 and err3 < 1e-10 and dt2 < 1.0 and dt3 < 1.0
    assert report(1, "exact pressure", ok,
                  f"|err|={max(err2, err3):.2e} times=({dt2:.2f}s,{dt3:.2f}s)")


def test_criterion_02_geometric_family():
    errs = []
    for t in (0.0, 0.3, 0.9):
        p = pressure(doubling(), constant(-t * math.log(2)), Discretization(n=256))
        errs.append(abs(p - (1 - t) * math.log(2)))
    ok = max(errs) < 1e-10
    assert report(2, "pressure closed form", ok, f"max err={max(errs):.2e}")


def test_criterion_03_oracle_triangulation():
    t0 = time.monotonic()
    pot = trig_polynomial(cos_coeffs=[0.1])
    p_spec = pressure(doubling(), pot, Discretization(n=1024))
    p_tree = pressure_oracle_tree(doubling(), pot, 0.3, 20)
    p_per, skipped = pressure_oracle_periodic(doubling(), pot, 16)
    elapsed = time.monotonic() - t0
    d_st = abs(p_spec - p_tree)
    d_sp = abs(p_spec - p_per)
    d_tp = abs(p_tree - p_per)
    ok = d_st < 0.02 and d_sp < 0.02 and d_tp < 0.01 and elapsed < 30.0
    assert report(3, "oracle triangulation", ok,
                  f"|s-t|={d_st:.1e} |s-p|={d_sp:.1e} |t-p|={d_tp:.1e} "
                  f"skipped={skipped} t={elapsed:.1f}s")


def test_criterion_04_linear_response_vs_fd():
    t_start = time.monotonic()
    dtype = np.longdouble if np.finfo(np.longdouble).eps < 1e-18 else np.float64
    disc = Discretization(n=64, scheme="collocation", interpolation="fourier", tol=1e-13)
    m = doubling()
    phi0 = trig_polynomial(cos_coeffs=[0.1])
    g = trig_polynomial(cos_coeffs=[0.4, 0.0, 0.1], sin_coeffs=[0.0, 0.25])
    rng = np.random.Generator(np.random.Philox(key=20250808))
    xs = np.arange(4096) / 4096

    def triple_at(pot):
        return leading_triple(discretize(m, pot, disc, dtype=dtype))

    tr0 = triple_at(phi0)
    ops = ("lambda", "pressure", "density", "conformal", "equilibrium")
    errs = {eps: {op: [] for op in ops} for eps in (1e-3, 1e-4)}
    worst_rel = 0.0
    for _ in range(10):
        raw = trig_polynomial(cos_coeffs=rng.standard_normal(4),
                              sin_coeffs=rng.standard_normal(4))
        H = (0.1 / float(np.max(np.abs(raw(xs))))) * raw
        ana = {
            "lambda": d_lambda_d_potential(m, phi0, H, disc, triple=tr0),
            "pressure": d_pressure_d_potential(m, phi0, H, disc, triple=tr0),
            "density": np.asarray(
                d_density_d_potential(m, phi0, H, disc, triple=tr0).values),
            "conformal": d_conformal_expectation(m, phi0, g, H, disc, triple=tr0),
            "equilibrium": d_equilibrium_expectation(m, phi0, g, H, disc, triple=tr0),
        }
        for eps in (1e-3, 1e-4):
            tp = triple_at(phi0 + eps * H)
            tm = triple_at(phi0 + (-eps) * H)
            nodes = np.asarray(tp.op.grid.nodes, dtype=dtype)
            gv = np.asarray(g(nodes))
            fd = {
                "lambda": (tp.lam - tm.lam) / (2 * eps),
                "pressure": (np.log(tp.lam) - np.log(tm.lam)) / (2 * eps),
                "density": (tp.h.values - tm.h.values) / (2 * eps),
                "conformal": (gv @ tp.nu - gv @ tm.nu) / (2 * eps),
                "equilibrium": (gv @ tp.mu_weights - gv @ tm.mu_weights) / (2 * eps),
            }
            for op in ops:
                err = float(np.max(np.abs(np.asarray(ana[op]) - np.asarray(fd[op]))))
                errs[eps][op].append(err)
                if eps == 1e-4:
                    scale = max(1.0, float(np.max(np.abs(np.asarray(fd[op])))))
                    worst_rel = max(worst_rel, err / scale)

    ratios = {}
    for op in ops:
        rms3 = math.sqrt(np.mean(np.square(errs[1e-3][op])))
        rms4 = math.sqrt(np.mean(np.square(errs[1e-4][op])))
        ratios[op] = rms3 / rms4
    elapsed = time.monotonic() - t_start
    ratio_ok = all(50.0 <= r <= 200.0 for r in ratios.values())
    ok = worst_rel < 1e-4 and ratio_ok and elapsed < 120.0
    assert report(4, "linear response vs FD", ok,
                  f"worst rel={worst_rel:.1e} ratios="
                  + ",".join(f"{ratios[op]:.0f}" for op in ops)
                  + f" t={elapsed:.1f}s")


def test_criterion_05_response_in_dynamics():
    disc = Discretization(n=256, scheme="collocation", interpolation="fourier")
    disc_lin = Discretization(n=256, scheme="collocation", interpolation="linear")
    zero_pot = zero_potential()
    # phi = 0: zero pressure response on every builtin family, including
    # frozen families probed with a nontrivial direction field (rough
    # conformal weights on the intermittent family want the linear scheme)
    bump = lambda x: np.sin(2 * np.pi * np.asarray(x, dtype=float)) ** 2
    families = [
        (perturbed_doubling_family(), disc),
        (translated_doubling_family(), disc),
        (ParamFamily("frozen-doubling", lambda s: doubling(), lambda s0: bump), disc),
        (ParamFamily("frozen-linear3", lambda s: linear_map(3), lambda s0: bump), disc),
        (ParamFamily("frozen-mp", lambda s: manneville_pomeau(1.0), lambda s0: bump),
         disc_lin),
    ]
    zero_vals = []
    for fam, fam_disc in families:
        rep = d_pressure_d_dynamics(fam, zero_pot, 0.1, fam_disc)
        zero_vals.append(abs(rep.analytic_value))
    zeros_ok = max(zero_vals) < 1e-8

    rep_p = d_pressure_d_dynamics(perturbed_doubling_family(),
                                  trig_polynomial(cos_coeffs=[0.05]), 0.1, disc)
    rep_m = d_maxentropy_expectation(perturbed_doubling_family(), PSI_COS, 0.1, disc)
    ok = zeros_ok and rep_p.rel_error < 1e-3 and rep_m.rel_error < 1e-3
    assert report(5, "response in dynamics", ok,
                  f"max|zero|={max(zero_vals):.1e} "
                  f"pressure rel={rep_p.rel_error:.1e} "
                  f"maxent rel={rep_m.rel_error:.1e}")


def test_criterion_06_correlation_clt():
    disc = Discretization(n=128, scheme="collocation", interpolation="fourier")
    m = doubling()
    pot0 = zero_potential()
    series = correlation(m, pot0, cos1, cos1, 20, disc)
    c0_err = abs(series.values[0] - 0.5)
    tail = float(np.max(np.abs(series.values[1:])))
    clt = clt_parameters(m, pot0, cos1, disc)
    var_err = abs(clt.variance - 0.5)
    cob = clt_parameters(m, pot0,
                         lambda x: np.cos(4 * np.pi * x) - np.cos(2 * np.pi * x),
                         disc)
    curve = free_energy(m, pot0, PSI_COS, disc=disc)
    e2 = float(curve.e(0.0, 2))
    curv_err = abs(clt.variance - e2)
    ok = (c0_err < 1e-10 and tail < 1e-10 and var_err < 1e-6
          and cob.variance < 1e-8 and curv_err < 1e-4)
    assert report(6, "correlation/CLT exactness", ok,
                  f"C0 err={c0_err:.1e} tail={tail:.1e} var err={var_err:.1e} "
                  f"coboundary={cob.variance:.1e} E'' err={curv_err:.1e}")


def test_criterion_07_free_energy_rate_properties():
    disc = Discretization(n=128, scheme="collocation", interpolation="fourier")
    m = doubling()
    pot0 = zero_potential()
    checks = {}

    curve = free_energy(m, pot0, PSI_COS, t0=0.2, disc=disc)
    checks["E(0)=0"] = curve.values[len(curve.values) // 2] == 0.0
    tpos = curve.t_grid > 0
    tneg = curve.t_grid < 0
    checks["bounds"] = (
        np.all(curve.values[tpos] <= curve.t_grid[tpos] + 1e-12)
        and np.all(curve.values[tpos] >= -curve.t_grid[tpos] - 1e-12)
        and np.all(curve.values[tneg] <= -curve.t_grid[tneg] + 1e-12)
        and np.all(curve.values[tneg] >= curve.t_grid[tneg] - 1e-12))

    affine = free_energy(m, pot0, constant(0.7), t0=0.3, disc=disc)
    checks["affine"] = float(np.max(np.abs(
        affine.values - 0.7 * affine.t_grid))) < 1e-10

    rate = rate_function(curve)
    checks["I>=0"] = bool(np.all(rate.values >= 0.0))
    checks["I convex"] = bool(np.all(np.diff(rate.values, 2) >= -1e-10))
    checks["I(m)<=1e-10"] = float(rate(np.array([rate.argmin]))[0]) <= 1e-10

    duality = 0.0
    for t_star in curve.t_grid[1:-1]:
        s_star = float(curve.e(t_star, 1))
        lhs = legendre_sup(curve, s_star)[0]
        rhs = t_star * s_star - float(curve.e(t_star))
        duality = max(duality, abs(lhs - rhs))
    checks["duality"] = duality < 1e-8

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    assert report(7, "free energy/rate function", ok,
                  f"duality={duality:.1e}" + (f" failed={failed}" if failed else ""))


def test_criterion_08_monte_carlo_ldp():
    t0c = time.monotonic()
    m = doubling()
    pot0 = zero_potential()
    disc = Discretization(n=1024)
    curve = free_energy(m, pot0, PSI_COS, t0=1.2, disc=disc)
    rate = rate_function(curve)
    exp = ldp_monte_carlo(m, pot0, cos1, (0.25, 0.45), list(range(10, 31, 5)),
                          10 ** 6, 20250808, rate, disc=disc)
    doublings = [30 * 2 ** j for j in range(5)]
    oracle = deviation_probability(m, pot0, cos1, (0.25, 0.45),
                                   list(exp.n_list) + doublings, rate)
    r_n = oracle.rates
    # (a) the Monte-Carlo rate at n=30 against the exact finite-n rate
    gap = abs(exp.rates[30] - r_n[30])
    ci = exp.ci95[30]
    # (b) r_n -> -inf I: |r_n + I| shrinks, and the Bahadur-Rao statistic
    # d_n = n (r_n + I) + log(n) / 2 settles, with increments contracting
    # geometrically; an error delta in I makes them grow like n delta
    inf_i = -exp.predicted
    excess = [abs(r_n[n] + inf_i) for n in doublings]
    d_n = [n * (r_n[n] + inf_i) + 0.5 * math.log(n) for n in doublings]
    steps = np.diff(d_n)
    converges = (all(e1 < e0 for e0, e1 in zip(excess, excess[1:]))
                 and all(abs(s1) <= 0.75 * abs(s0)
                         for s0, s1 in zip(steps, steps[1:])))
    elapsed = time.monotonic() - t0c
    ok = gap <= ci and converges and elapsed < 300.0
    assert report(
        8, "Monte-Carlo LDP", ok,
        f"|rate(30)-r_30|={gap:.1e} ci={ci:.1e} predicted={exp.predicted:.4f} "
        "rate/r_n: " + " ".join(f"n={n}:{exp.rates[n]:.4f}/{r_n[n]:.4f}"
                                for n in exp.n_list)
        + " r_n: " + " ".join(f"n={n}:{r_n[n]:.4f}" for n in doublings[1:])
        + " d_n steps: " + ",".join(f"{s:.3f}" for s in steps)
        + f" t={elapsed:.0f}s")


def test_criterion_09_continuity_scans():
    t0c = time.monotonic()
    pot0 = zero_potential()
    disc = Discretization(n=256)

    def scan_rows(step):
        values = np.arange(0.0, 0.2 + step / 2, step)
        rows = []
        for t in values:
            rep = equilibrium_state(perturbed_doubling(float(t)), pot0, disc)
            rows.append([rep.pressure, rep.entropy, rep.lyapunov, rep.dimension])
        return np.asarray(rows)

    coarse = scan_rows(0.02)
    fine = scan_rows(0.01)
    jumps = np.abs(np.diff(coarse, axis=0))
    fine_jumps = np.abs(np.diff(fine, axis=0))
    local_estimate = fine_jumps[0::2] + fine_jumps[1::2]
    scan_ok = bool(np.all(jumps <= 3.0 * local_estimate + 1e-9))

    fam = perturbed_doubling_family()
    s_grid = np.linspace(-0.12, 0.12, 7)
    m_coarse = rate_continuity_scan(fam, pot0, PSI_COS, s_grid,
                                    [0.0, 0.1, 0.2], disc=disc,
                                    t0=0.4, n_t=21).modulus
    m_fine = rate_continuity_scan(fam, pot0, PSI_COS, s_grid,
                                  [0.0, 0.05, 0.1, 0.15, 0.2], disc=disc,
                                  t0=0.4, n_t=21).modulus
    factor = m_coarse / m_fine
    elapsed = time.monotonic() - t0c
    ok = scan_ok and factor >= 1.5
    assert report(9, "continuity scans", ok,
                  f"scan jumps ok={scan_ok} rate-scan factor={factor:.2f} "
                  f"t={elapsed:.0f}s")


def test_criterion_10_determinism(tmp_path):
    import json
    import os

    from circthermo.cli import parse_config, run

    cfg = {
        "map": {"family": "doubling"},
        "potential": {"form": "constant", "c": 0.0},
        "discretization": {"n": 64},
        "free_energy": {"observable": {"form": "trig", "cos": [1.0]},
                        "t0": 1.2, "n_t": 21},
        "ldp": {"observable": {"form": "trig", "cos": [1.0]},
                "interval": [0.25, 0.45], "n_list": [5, 10],
                "n_samples": 20000, "t0": 1.2, "n_t": 21},
        "seed": 4242,
    }
    text = json.dumps(cfg)
    outputs = {}
    for tag in ("a", "b"):
        for command in ("ldp", "pressure"):
            config = parse_config(text)
            config.output_dir = str(tmp_path / f"{tag}-{command}")
            run(command, config)
        outputs[tag] = {}
        for command in ("ldp", "pressure"):
            sub = tmp_path / f"{tag}-{command}"
            for name in os.listdir(sub):
                outputs[tag][f"{command}/{name}"] = (sub / name).read_bytes()
    ok = outputs["a"] == outputs["b"]
    assert report(10, "determinism", ok,
                  f"{len(outputs['a'])} artifacts byte-compared")
