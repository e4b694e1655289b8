"""Acceptance checks the benchmark applies to every operation's output.

Each check returns ``(ok, detail)``.  The checks compare against a closed
form, an exact property the method must have, or a computation made apart
from the program (the dyadic quadrature below), never against a value the
same code path produced.
"""

from __future__ import annotations

import math

import numpy as np

# The batch-means interval of ldp_monte_carlo is a 95% interval: a sound
# estimator leaves it on about one sampling seed in twenty (sampling seed 4
# does, at n = 10).  Three times its half width is 5.9 batch standard
# errors, which a t variable with 19 degrees of freedom exceeds with
# probability 1.2e-5, so the check stays quiet while a real fault, such as
# the n = 60 collapse (gap 0.04 against a half width of 2.4e-4), still
# fails it.
MC_CI_WIDENING = 3.0

# Tolerances of acceptance criterion 3 (spectral, tree, periodic pressure).
TRIANGULATION_TOL = {"spectral-tree": 0.02, "spectral-periodic": 0.02,
                     "tree-periodic": 0.01}


def within(name, value, target, tol):
    """|value - target| <= tol."""
    err = abs(float(value) - float(target))
    return err <= tol, f"{name}: |{value:.12g} - {target:.12g}| = {err:.2e} (tol {tol:g})"


def fd_agrees(name, analytic, fd, rel_tol):
    """Analytic derivative against its central difference, relative error."""
    rel = abs(float(analytic) - float(fd)) / max(1.0, abs(float(fd)))
    return rel <= rel_tol, f"{name}: analytic {analytic:.10g} fd {fd:.10g} rel {rel:.2e} (tol {rel_tol:g})"


def strictly_decreasing_positive(name, values):
    """Collocation pressures at the physical potential along a grid ladder."""
    vals = [float(v) for v in values]
    ok = all(v > 0.0 for v in vals) and all(b < a for a, b in zip(vals, vals[1:]))
    return ok, f"{name}: " + " > ".join(f"{v:.6g}" for v in vals)


def gap_below_one(name, tau, is_upper_bound):
    ok = (not is_upper_bound) and 0.0 <= float(tau) < 1.0
    return ok, f"{name}: tau {tau:.6f}" + (" (upper bound)" if is_upper_bound else "")


def triangulation(name, spectral, tree, periodic):
    """Three pressure routes agree within the criterion-3 tolerances."""
    gaps = {"spectral-tree": abs(spectral - tree),
            "spectral-periodic": abs(spectral - periodic),
            "tree-periodic": abs(tree - periodic)}
    ok = all(gaps[k] < TRIANGULATION_TOL[k] for k in gaps)
    return ok, f"{name}: " + " ".join(f"{k} {v:.1e}" for k, v in gaps.items())


def mc_within_ci(name, mc_rate, exact_rate, ci95, widening=MC_CI_WIDENING):
    """A Monte-Carlo deviation rate against the exact finite-n rate r_n."""
    gap = abs(float(mc_rate) - float(exact_rate))
    half = widening * float(ci95)
    ok = math.isfinite(gap) and math.isfinite(half) and gap <= half
    return ok, f"{name}: |{mc_rate:.6f} - r_n {exact_rate:.6f}| = {gap:.1e} (band {half:.1e})"


def dyadic_deviation_rate(n, a, b, bits=22, chunk_bits=20):
    """(1/n) log Leb{x : S_n(x)/n in [a, b]} for psi = cos(2 pi x), doubling map.

    Midpoint quadrature over the 2^bits dyadic cells.  Doubling a dyadic
    rational and reducing mod 1 are exact in floating point, so every orbit
    is followed exactly; the only error is the quadrature of the set's
    boundary.  Nothing here goes through circthermo.
    """
    hits = 0
    chunk = 1 << chunk_bits
    for start in range(0, 1 << bits, chunk):
        x = (2.0 * np.arange(start, start + chunk) + 1.0) / 2.0 ** (bits + 1)
        s = np.zeros_like(x)
        for _ in range(n):
            s += np.cos(2.0 * np.pi * x)
            x = 2.0 * x % 1.0
        hits += int(np.count_nonzero((s >= a * n) & (s <= b * n)))
    return math.log(hits / 2.0 ** bits) / n
