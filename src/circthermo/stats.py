"""Statistical laws of equilibrium states: correlation decay, central limit
parameters, free-energy curves, Legendre rate functions, exact finite-n
deviation probabilities, and a seeded Monte-Carlo local large-deviations
experiment.

Correlations are computed through the normalized operator (no orbit
simulation).  A free-energy curve is the Chebyshev interpolant of the
pressures at nested Chebyshev-Lobatto nodes, refined until its coefficient
tail is negligible, and its rate function is the Legendre transform of that
polynomial.  Monte-Carlo orbits use exact map evaluation so the deviation
experiment stays independent of the discretization behind the rate
function.  The Monte Carlo runs in blocks sized below the mmap threshold.
The finite-n probabilities invert the twisted operator's characteristic
function; a twist shared by several n is iterated once for all of them,
and only until its iterate lies along the twisted operator's leading
eigenvector, after which every later moment is that eigenvalue's power
(Nagaev-Guivarc'h; Hennion-Herve, LNM 1766).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebfit, chebval

from .errors import ConfigError, HypothesisError, SchemeQualityError, SolverError
from .maps import (BranchMap, HypothesisAux, ParamFamily, Potential, check_hypotheses,
                   monotone_root, zero_potential)
from .operator import Discretization, OperatorSetup
from .response import FD_DEFAULT_STEP, ResponseReport, central_difference
from .spectral import SpectralTriple, resolvent_solve, triple_at

COBOUNDARY_TOL = 1e-8


# ---------------------------------------------------------------------------
# Correlations and the CLT
# ---------------------------------------------------------------------------

@dataclass
class CorrelationSeries:
    values: np.ndarray           # C(0), ..., C(n_max)
    tau_fit: Optional[float]
    fit_residual: Optional[float]
    note: Optional[str] = None


def correlation(branch_map: BranchMap, pot: Potential, obs_a, obs_b,
                n_max: int, disc: Discretization = Discretization(),
                triple: Optional[SpectralTriple] = None) -> CorrelationSeries:
    """Time-n correlations of (obs_a, obs_b) under the equilibrium state.

    C(n) = int obs_a . Ltil^n(P0(obs_b h)) d nu; the decay rate is fitted
    by least squares on log |C(n)| over the terms above the noise floor.
    """
    if triple is None:
        triple = triple_at(OperatorSetup.of(branch_map, disc), pot)
    av = triple.sample(obs_a)
    bv = triple.sample(obs_b)
    z = triple.project_zero_mean(bv * triple.h.values)
    vals = np.empty(n_max + 1)
    for n in range(n_max + 1):
        vals[n] = float(triple.integrate_nu(av * z))
        z = triple.project_zero_mean(triple.normalized_apply(z))
    mask = np.abs(vals[1:]) > 1e-13
    note = None
    tau_fit = resid = None
    if np.count_nonzero(mask) >= 2:
        ns = np.arange(1, n_max + 1)[mask]
        logs = np.log(np.abs(vals[1:][mask]))
        coef, residuals, *_ = np.polyfit(ns, logs, 1, full=True)
        tau_fit = float(np.exp(coef[0]))
        resid = float(residuals[0]) if len(residuals) else 0.0
    else:
        note = "correlations below noise floor; no decay rate fitted"
    return CorrelationSeries(values=vals, tau_fit=tau_fit, fit_residual=resid,
                             note=note)


@dataclass
class CltParameters:
    mean: float
    variance: float
    coboundary: bool
    note: Optional[str] = None


def clt_parameters(branch_map: BranchMap, pot: Potential, psi,
                   disc: Discretization = Discretization(),
                   triple: Optional[SpectralTriple] = None) -> CltParameters:
    """Mean and Green-Kubo variance of Birkhoff sums of psi.

    variance = C(0) + 2 sum_{n>=1} C(n) = int psi (2u - z) d nu, with
    z = P0(psi h) and u = R z summed by one resolvent solve; a variance
    within the coboundary tolerance of zero is clamped to exactly zero.
    """
    if triple is None:
        triple = triple_at(OperatorSetup.of(branch_map, disc), pot)
    pv = triple.sample(psi)
    mean = float(triple.integrate_mu(pv))
    z = triple.project_zero_mean(pv * triple.h.values)
    var = float(triple.integrate_nu(pv * (2.0 * resolvent_solve(triple, z) - z)))

    note = None
    coboundary = False
    if abs(var) < COBOUNDARY_TOL:
        var = 0.0
        coboundary = True
    elif var < 0.0:
        var = 0.0
        coboundary = True
        note = "negative variance clamped to zero"
    return CltParameters(mean=mean, variance=var, coboundary=coboundary, note=note)


def d_correlation_d_dynamics(family: ParamFamily, obs_a, obs_b, n: int,
                             s0: float,
                             disc: Discretization = Discretization(),
                             fd_step: float = FD_DEFAULT_STEP) -> ResponseReport:
    """FD derivative of s -> C(n) at the maximal entropy measure (phi = 0).

    The asymptotic statement is that this derivative converges to zero in
    n, so the report's analytic_value is the limiting target 0 and
    fd_value the measured derivative at this n.
    """
    pot0 = zero_potential()

    def c_n(s):
        series = correlation(family.at(s), pot0, obs_a, obs_b, n, disc)
        return float(series.values[n])

    fd = central_difference(lambda e: c_n(s0 + e), fd_step)
    return ResponseReport(analytic_value=0.0, fd_value=fd, fd_step=fd_step)


# ---------------------------------------------------------------------------
# Free energy and rate functions
# ---------------------------------------------------------------------------

# Chebyshev-Lobatto node counts, coarse to fine.  Each level halves the
# angular spacing of the last, so its nodes include every earlier node.
FREE_ENERGY_LEVELS = (9, 17, 33, 65, 129)
# A level is accepted once its last two Chebyshev coefficients sum to at
# most this bound times max(1, max |E| at the nodes).
FREE_ENERGY_TAIL_TOL = 1e-10


@dataclass
class FreeEnergyCurve:
    """E(t) = P(phi + t psi) - P(phi) on [-t0, t0] as a Chebyshev interpolant.

    The pressures were solved at `nodes`, the ascending Chebyshev-Lobatto
    nodes, and E there is `node_values`.  `coeffs` are the Chebyshev
    coefficients of the interpolant in t / t0, and `tail`, the sum of the
    last two, is its error bar.  The uniform table `t_grid`, `values`,
    `e_prime`, `e_second` is read off the interpolant, and `convex` says
    whether E'' >= -1e-10 on it.
    """
    t0: float
    nodes: np.ndarray
    node_values: np.ndarray
    coeffs: np.ndarray
    tail: float
    t_grid: np.ndarray
    values: np.ndarray = field(init=False)
    e_prime: np.ndarray = field(init=False)
    e_second: np.ndarray = field(init=False)
    convex: bool = field(init=False)

    def __post_init__(self):
        self.values, self.e_prime, self.e_second = (self.e(self.t_grid, k) for k in range(3))
        self.values[self.t_grid == 0.0] = 0.0       # E(0) = 0 by definition
        self.convex = bool(np.all(self.e_second >= -1e-10))

    def e(self, t, k=0):
        """The k-th derivative of E at t."""
        return chebval(np.asarray(t) / self.t0, chebder(self.coeffs, k, scl=1.0 / self.t0))

    def eprime(self, t):
        return self.e(t, 1)

    @property
    def domain(self):
        return float(self.e(-self.t0, 1)), float(self.e(self.t0, 1))


def _auto_t0(branch_map, phi, psi, aux):
    tried = []
    for k in range(0, 15):
        t = 0.4 ** k
        rep_p = check_hypotheses(branch_map, phi + t * psi, aux)
        rep_m = check_hypotheses(branch_map, phi + (-t) * psi, aux)
        if rep_p.passed() and rep_m.passed():
            return t
        tried.append((t, rep_p.vep_value, rep_p.vepp_value))
    t, vep, vepp = tried[-1]
    raise HypothesisError(
        f"no admissible t0 found down to t={t:.3g}: smallness inequalities "
        f"give vep={vep:.4f}, vepp={vepp:.4f} (need both < 1)")


def free_energy(branch_map: BranchMap, phi: Potential, psi: Potential,
                t0: Optional[float] = None, n_t: int = 41,
                disc: Discretization = Discretization(),
                hyp_aux: Optional[HypothesisAux] = None,
                tol: float = 1e-12, max_iter: int = 100000) -> FreeEnergyCurve:
    """Pressure-difference free energy t -> P(phi + t psi) - P(phi).

    Without an explicit t0, the largest radius on the geometric trial grid
    0.4^k whose endpoints pass the smallness checks is used.  An explicit
    t0 is a caller override and is not re-certified.

    E is analytic in t, so its Chebyshev interpolant converges
    geometrically.  The pressures are solved at the Chebyshev-Lobatto
    nodes t0 sin(pi (2j - m) / 2m), j = 0..m, whose middle node is exactly
    0, for m + 1 = 9, 17, 33, ... in FREE_ENERGY_LEVELS; each level reuses
    every pressure of the last.  The first level whose coefficient tail is
    under FREE_ENERGY_TAIL_TOL is kept, and SchemeQualityError is raised
    when none is.  The operator geometry is set up once; each pressure
    only reweights it, and every eigensolve runs under tol and max_iter.

    n_t (odd, >= 5) is the number of rows of the uniform table on
    [-t0, t0] read off the interpolant; its middle row is t = 0.
    """
    if n_t < 5 or n_t % 2 == 0:
        raise ConfigError(f"n_t must be odd and >= 5, got {n_t}")
    if t0 is None:
        t0 = _auto_t0(branch_map, phi, psi, hyp_aux or HypothesisAux())
    if not t0 > 0.0:
        raise ConfigError(f"t0 must be > 0, got {t0}")
    setup = OperatorSetup.of(branch_map, disc)

    def pressures(ts):
        return [math.log(triple_at(setup, phi + float(t) * psi, tol=tol,
                                   max_iter=max_iter).lam) for t in ts]

    p = np.empty(0)
    for n in FREE_ENERGY_LEVELS:
        m = n - 1
        x = np.sin(np.pi * np.arange(-m, m + 1, 2) / (2 * m))
        level = np.empty(n)
        level[::2] = p if p.size else pressures(t0 * x[::2])
        level[1::2] = pressures(t0 * x[1::2])
        p = level
        values = p - p[m // 2]
        coeffs = chebfit(x, values, m)
        tail = float(abs(coeffs[-2]) + abs(coeffs[-1]))
        bound = FREE_ENERGY_TAIL_TOL * max(1.0, float(np.max(np.abs(values))))
        if tail <= bound:
            break
    else:
        raise SchemeQualityError(
            f"free energy unresolved by {n} Chebyshev nodes on [-{t0:g}, {t0:g}]: "
            f"coefficient tail {tail:.2e} > {bound:.2e}; reduce t0")
    t_grid = np.linspace(-t0, t0, n_t)
    t_grid[n_t // 2] = 0.0
    return FreeEnergyCurve(t0=float(t0), nodes=t0 * x, node_values=values,
                           coeffs=coeffs, tail=tail, t_grid=t_grid)


@dataclass
class RateFunction:
    s_grid: np.ndarray
    values: np.ndarray
    argmin: float
    t0: float
    curve: FreeEnergyCurve = field(repr=False)

    def __call__(self, s):
        return legendre_sup(self.curve, s)[0]

    def infimum(self, a, b):
        """inf over [a, b] (clipped to the domain); uses convexity."""
        lo, hi = self.s_grid[0], self.s_grid[-1]
        a_, b_ = max(a, lo), min(b, hi)
        if a_ > b_:
            raise ConfigError(f"interval [{a}, {b}] outside rate domain [{lo}, {hi}]")
        if a_ <= self.argmin <= b_:
            return 0.0
        s = a_ if self.argmin < a_ else b_
        return float(legendre_sup(self.curve, s)[0])


def legendre_sup(curve: FreeEnergyCurve, s):
    """sup_t { s t - E(t) } over [-t0, t0] and its maximizer, for each s.

    The maximizer solves E'(t) = s on the interpolant.  One monotone_root
    solve, with E'' as the derivative, finds it inside a bracket taken from
    the slopes on the table, to a residual of 64 ulps of the largest slope.
    Outside [E'(-t0), E'(t0)] the maximizer is clamped to -t0 or t0.
    Returns arrays shaped like s.
    """
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    nodes = curve.t_grid
    # the running maximum keeps a sign change of E' - s inside each bracket
    slopes = np.maximum.accumulate(curve.e_prime)
    t = np.where(flat <= slopes[0], -curve.t0, curve.t0)
    inside = np.flatnonzero((flat > slopes[0]) & (flat < slopes[-1]))
    i = np.searchsorted(slopes, flat[inside])
    tol = 64.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(slopes))))
    t[inside] = monotone_root(curve.eprime, lambda x: curve.e(x, 2), flat[inside],
                              nodes[i - 1], nodes[i], slopes[i - 1], slopes[i], tol=tol,
                              describe=lambda v: f"E'(t) = {v:.17g}")
    val = flat * t - curve.e(t)
    if np.any(val < -1e-10):
        raise ConfigError(f"negative rate value {np.min(val):.3e}; curve not convex?")
    return np.maximum(val, 0.0).reshape(s.shape)[()], t.reshape(s.shape)[()]


def rate_function(curve: FreeEnergyCurve) -> RateFunction:
    """Legendre transform of the free-energy curve on [E'(-t0), E'(t0)]."""
    if not curve.convex:
        raise ConfigError("free-energy curve is not convex; no rate function")
    s_lo, s_hi = curve.domain
    m = float(curve.eprime(0.0))
    if s_hi - s_lo < 1e-12:
        # affine curve: the transform degenerates to a single point
        return RateFunction(s_grid=np.array([m]), values=np.array([0.0]),
                            argmin=m, t0=curve.t0, curve=curve)
    s_grid = np.linspace(s_lo, s_hi, len(curve.t_grid))
    return RateFunction(s_grid=s_grid, values=legendre_sup(curve, s_grid)[0],
                        argmin=m, t0=curve.t0, curve=curve)


# ---------------------------------------------------------------------------
# Monte-Carlo local large deviations
# ---------------------------------------------------------------------------

def _deviation_interval(interval, rate):
    a, b = float(interval[0]), float(interval[1])
    if a >= b:
        raise ConfigError(f"empty interval [{a}, {b}]")
    lo, hi = rate.s_grid[0], rate.s_grid[-1]
    if a < lo - 1e-12 or b > hi + 1e-12:
        raise ConfigError(
            f"interval [{a}, {b}] not inside the rate domain [{lo:.6f}, {hi:.6f}]")
    return a, b


# Monte-Carlo samples per block: a float64 array of a block is 64 KiB, below
# glibc's default 128 KiB mmap threshold, so the temporaries of each step are
# reused from the heap instead of being mapped and page-faulted afresh.
MC_BLOCK = 2 ** 13
MC_BATCHES = 20      # the batch means behind each ci95


@dataclass
class DeviationExperiment:
    interval: tuple
    n_list: tuple
    n_samples: int
    seed: int
    hits: dict                    # n -> hit count
    rates: dict                   # n -> (1/n) log(hit fraction), -inf on zero hits
    ci95: dict                    # n -> batch-mean half width (nan if undefined)
    predicted: float              # -inf_{[a,b]} I
    n_batches: int
    notes: tuple = ()


def ldp_monte_carlo(branch_map: BranchMap, pot: Potential, psi,
                    interval, n_list: Sequence[int], n_samples: int, seed: int,
                    rate: RateFunction,
                    disc: Discretization = Discretization(),
                    triple: Optional[SpectralTriple] = None) -> DeviationExperiment:
    """Empirical deviation rates of Birkhoff averages against -inf I.

    Initial points are drawn from the discretized equilibrium density by
    inverse CDF; orbits are iterated with exact map evaluation.  The RNG
    is counter-based (Philox) keyed by the recorded seed.  Samples are
    drawn and iterated in consecutive blocks of MC_BLOCK, which gives the
    same draws and counts as one full-length pass in bounded memory.

    `predicted` is the n -> infinity limit of the rates; at finite n the
    rates sit below it by a prefactor of order log(n)/n.  The exact
    finite-n value comes from `deviation_probability`.  A given triple
    brings its own map (`triple.op`), which is the one iterated.
    """
    a, b = _deviation_interval(interval, rate)
    predicted = -rate.infimum(a, b)
    n_sorted = sorted(set(int(n) for n in n_list))
    if n_sorted[0] < 1:
        raise ConfigError("n_list entries must be >= 1")
    batch = n_samples // MC_BATCHES
    if batch < 1:
        raise ConfigError("fewer samples than batches")

    if triple is None:
        triple = triple_at(OperatorSetup.of(branch_map, disc), pot)
    branch_map = triple.op.branch_map
    mu = triple.mu_weights
    n_cells = triple.op.grid.n_cells
    cum = np.concatenate(([0.0], np.cumsum(mu)))
    cum[-1] = 1.0

    rng = np.random.Generator(np.random.Philox(key=seed))
    # hits per batch; the last slot takes the remainder past MC_BATCHES * batch
    counts = {n: np.zeros(MC_BATCHES + 1, dtype=np.int64) for n in n_sorted}
    for start in range(0, n_samples, MC_BLOCK):
        # inverse-CDF draw from the piecewise-constant equilibrium density
        u = rng.random(min(MC_BLOCK, n_samples - start))
        cells = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, n_cells - 1)
        frac = (u - cum[cells]) / np.maximum(mu[cells], 1e-300)
        x = (cells + np.clip(frac, 0.0, 1.0)) / n_cells
        which = np.minimum(np.arange(start, start + len(u)) // batch, MC_BATCHES)
        s = np.zeros(len(u))
        step = 0
        for n in n_sorted:
            while step < n:
                s += psi(x)
                x = branch_map(x)
                step += 1
            mask = ((s / n) >= a) & ((s / n) <= b)
            counts[n] += np.bincount(which[mask], minlength=MC_BATCHES + 1)

    hits, rates, ci95 = {}, {}, {}
    notes = []
    for n in n_sorted:
        total = int(counts[n].sum())
        hits[n] = total
        if total == 0:
            rates[n] = -np.inf
            ci95[n] = np.nan
            notes.append(f"n={n}: -inf (0 hits / {n_samples})")
            continue
        rates[n] = math.log(total / n_samples) / n
        per_batch = counts[n][:MC_BATCHES]
        good = per_batch > 0
        if np.count_nonzero(good) >= 2:
            r_b = np.log(per_batch[good] / batch) / n
            ci95[n] = float(1.96 * np.std(r_b, ddof=1)
                            / math.sqrt(np.count_nonzero(good)))
            if not np.all(good):
                notes.append(f"n={n}: {np.count_nonzero(~good)} empty batches "
                             "excluded from the CI")
        else:
            ci95[n] = np.nan
            notes.append(f"n={n}: too few nonempty batches for a CI")
    return DeviationExperiment(interval=(a, b), n_list=tuple(n_sorted),
                               n_samples=n_samples, seed=seed, hits=hits,
                               rates=rates, ci95=ci95, predicted=predicted,
                               n_batches=MC_BATCHES, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Finite-n deviation probabilities from the twisted operator
# ---------------------------------------------------------------------------

# Truncating the inversion to |k| <= FOURIER_MODES costs about 2e-5 in rate
# at n = 15 on the doubling map; the error falls with n as the twisted
# characteristic function decays.
FOURIER_MODES = 200
TWIST_RESOLUTION_TOL = 1e-8
# Every RETIRE_CHECK_PERIOD steps, a twist column whose iterate f satisfies
# |L f - rho f| <= RETIRE_TOL |L f| (sup norms) stops iterating.
RETIRE_CHECK_PERIOD = 8
RETIRE_TOL = 64.0 * np.finfo(float).eps
LOG2 = math.log(2.0)


@dataclass
class DeviationProbability:
    interval: tuple
    tilt: float                   # real part t of every z_k
    rates: dict                   # n -> (1/n) log mu(S_n/n in [a, b])
    column_steps: int             # twist-column applications of the operator


def _twist_key(k, n):
    """Mode k of n in lowest terms: modes with equal k/n have equal twists."""
    g = math.gcd(k, n)
    return k // g, n // g


def deviation_probability(branch_map: BranchMap, pot: Potential, psi,
                          interval, n_list: Sequence[int], rate: RateFunction,
                          disc: Discretization = Discretization(
                              n=256, interpolation="fourier")
                          ) -> DeviationProbability:
    """Exact finite-n deviation rates (1/n) log mu(S_n / n in [a, b]).

    With Ltil = L_phi / lambda and the twist Ltil_z f = Ltil(e^{z psi} f),
    E_mu[e^{z S_n}] = nu(Ltil_z^n h).  As |S_n| <= n sup|psi|, on a period
    P = 2 n c > 2 n sup|psi| the indicator of [na, nb] expands in the modes
    e^{z_k s}, z_k = t + i w_k, w_k = 2 pi k / P, |k| <= FOURIER_MODES:

        mu(S_n in [na, nb]) = sum_k g_k E_mu[e^{z_k S_n}],
        g_k = (e^{-z_k na} - e^{-z_k nb}) / (z_k P).

    The real tilt t is the Legendre maximizer at the point of [a, b]
    nearest the mean, so every term lives on the scale e^{-n I} and the
    relative accuracy holds at large n.  The sum does not depend on t, so
    the rates are independent of the rate function's own error.  S_n is
    real, so the mode -k term is the conjugate of the mode k term: only
    k >= 0 is iterated and the sum is g_0 E_0 + 2 Re sum_{k>=1} g_k E_k.

    Since w_k = pi (k/n) / c, mode k of n and mode k' of n' have the same
    twist whenever k/n = k'/n'.  Each distinct twist is iterated once, as
    one column, up to the largest n that needs it, and every n reads its
    modes off the shared columns.  Each step renormalizes every column by
    a power of two and carries the exponent, so a column's iterate does
    not depend on the columns beside it.

    Every RETIRE_CHECK_PERIOD steps, each column's step f_m -> f_{m+1}
    gives rho = nu f_{m+1} / nu f_m.  A column with
    |f_{m+1} - rho f_m| <= RETIRE_TOL |f_{m+1}| (sup norms) lies along the
    leading eigenvector of its twisted operator to rounding, so every later
    step only multiplies it by the eigenvalue rho.  It retires, and each
    later n reads log nu F_n = log nu F_m + (n - m) log rho, with the
    carried exponent folded into both logs so nothing overflows.  The part
    of f_m off the eigenvector is of the order of the residual and shrinks
    relative to it at every later step, so the extrapolation is exact to
    rounding.  A column that never meets the residual, such as a
    high-frequency twist of a small n, is iterated to its last n.
    `column_steps` counts the column applications made.

    Raises SchemeQualityError when the grid cannot resolve the twist
    e^{z psi} at the outermost mode of some n, and SolverError when the
    inversion cancels to a nonpositive probability.
    """
    a, b = _deviation_interval(interval, rate)
    n_sorted = sorted(set(int(n) for n in n_list))
    if n_sorted[0] < 1:
        raise ConfigError("n_list entries must be >= 1")
    tilt = float(legendre_sup(rate.curve, min(max(rate.argmin, a), b))[1])
    triple = triple_at(OperatorSetup.of(branch_map, disc), pot)
    grid = triple.op.grid
    pv = np.asarray(triple.sample(psi), dtype=float)
    mid = triple.h.sites + 0.5 * grid.cell_width
    pmid = np.asarray(psi(mid), dtype=float)
    half_period = 1.05 * float(max(np.max(np.abs(pv)), np.max(np.abs(pmid))))
    hv = np.asarray(triple.h.values, dtype=float)
    nu = np.asarray(triple.nu, dtype=float)

    # one column per distinct twist, ordered by the last n that needs it,
    # so the columns still needed after any step are a prefix
    last = {}
    for n in n_sorted:
        for k in range(FOURIER_MODES + 1):
            last[_twist_key(k, n)] = n
    keys = sorted(last, key=last.get, reverse=True)
    column = {key: j for j, key in enumerate(keys)}
    last_n = np.array([last[key] for key in keys])
    omega = np.array([np.pi * p / (q * half_period) for p, q in keys])
    modes = {n: np.array([column[_twist_key(k, n)] for k in range(FOURIER_MODES + 1)])
             for n in n_sorted}

    for n in n_sorted:
        w_top = omega[modes[n][-1]]
        top = np.exp((tilt + 1j * w_top) * pv)
        interp = triple.op.grid_function(top)(mid)
        exact = np.exp((tilt + 1j * w_top) * pmid)
        err = float(np.max(np.abs(interp - exact)) / np.max(np.abs(exact)))
        if err > TWIST_RESOLUTION_TOL:
            raise SchemeQualityError(
                f"N={grid.n_cells} does not resolve the twist at "
                f"omega={w_top:.3g} (n={n}): interpolation error {err:.2e} "
                f"> {TWIST_RESOLUTION_TOL:g}; refine the grid")

    # live[j] is the column whose iterate 2^exponent[j] f[:, j] is still
    # applied; a retired column c reads its moment at every later n as
    # log nu F_n = log_base[c] + (n - base[c]) log_rho[c]
    live = np.arange(len(keys))
    twist = np.exp(np.outer(pv, tilt + 1j * omega))
    f = np.repeat(hv[:, None], len(keys), axis=1).astype(complex)
    exponent = np.zeros(len(keys), dtype=int)
    base = np.full(len(keys), -1)
    log_base = np.zeros(len(keys), dtype=complex)
    log_rho = np.zeros(len(keys), dtype=complex)
    log_lam = math.log(float(triple.lam))
    column_steps = 0
    rates = {}
    step = 0
    for n in n_sorted:
        while step < n:
            keep = (last_n[live] > step) & (base[live] < 0)
            if not np.all(keep):
                live, exponent = live[keep], exponent[keep]
                f, twist = (np.compress(keep, a, axis=1) for a in (f, twist))
            if not live.size:
                break
            prev = f
            # real matrix on the interleaved (re, im) columns of the product
            fr = triple.op.apply((twist * f).view(float))
            e = np.frexp(np.abs(fr).max(axis=0).reshape(live.size, 2).max(axis=1))[1]
            fr *= np.repeat(np.ldexp(1.0, -e), 2)
            f = fr.view(complex)
            exponent = exponent + e
            column_steps += live.size
            step += 1
            if step % RETIRE_CHECK_PERIOD == 0:
                nu_f = nu @ f
                with np.errstate(divide="ignore", invalid="ignore"):
                    rho = nu_f / (nu @ prev)
                    resid = np.abs(f - rho * prev).max(axis=0) / np.abs(f).max(axis=0)
                done = resid <= RETIRE_TOL
                c = live[done]
                base[c] = step
                log_base[c] = np.log(nu_f[done]) + exponent[done] * LOG2
                log_rho[c] = np.log(rho[done]) + e[done] * LOG2
        step = n

        idx = modes[n]
        retired = base[idx] >= 0
        r = idx[retired]
        log_retired = log_base[r] + (n - base[r]) * log_rho[r]
        pos = np.searchsorted(live, idx[~retired])
        e_top = int(np.concatenate((exponent[pos], np.round(log_retired.real / LOG2))).max())
        moments = np.empty(len(idx), dtype=complex)
        moments[~retired] = (nu @ f[:, pos]) * np.ldexp(1.0, exponent[pos] - e_top)
        moments[retired] = np.exp(log_retired - e_top * LOG2)
        # g_k with the common factor e^{-t n a} taken out
        z = tilt + 1j * omega[idx]
        lo, width = n * a, n * (b - a)
        w = -z * width
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(w == 0, 1.0, np.expm1(w) / w)
        g = np.exp(-1j * omega[idx] * lo) * width * ratio / (2.0 * n * half_period)
        terms = (g * moments).real
        total = float(terms[0] + 2.0 * np.sum(terms[1:]))
        if not total > 0.0:
            raise SolverError(
                f"Fourier inversion at n={n} gave a nonpositive probability "
                f"({total:.3e}): truncation or discretization error dominates")
        rates[n] = (e_top * LOG2 - n * log_lam - tilt * lo
                    + math.log(total)) / n
    return DeviationProbability(interval=(a, b), tilt=tilt, rates=rates,
                                column_steps=column_steps)


# ---------------------------------------------------------------------------
# Rate-function continuity scan
# ---------------------------------------------------------------------------

@dataclass
class RateScan:
    v_grid: np.ndarray
    s_grid: np.ndarray
    table: np.ndarray             # I[f_v](s), shape (len(v), len(s))
    modulus: float                # max over adjacent rows of sup_s |delta I|


def rate_continuity_scan(family: ParamFamily, phi: Potential, psi: Potential,
                         s_grid, v_grid,
                         disc: Discretization = Discretization(),
                         t0: Optional[float] = None, n_t: int = 21,
                         hyp_aux: Optional[HypothesisAux] = None,
                         tol: float = 1e-12, max_iter: int = 100000) -> RateScan:
    """Table of rate functions I_{f_v}(s) over a map family.

    Every f_v must admit the requested s values inside its own rate
    domain; the common interval is intersected and an empty intersection
    is an error.  Every eigensolve runs under tol and max_iter.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    v_grid = np.asarray(v_grid, dtype=float)
    curves = []
    j_lo, j_hi = -np.inf, np.inf
    for v in v_grid:
        curve = free_energy(family.at(float(v)), phi, psi, t0=t0, n_t=n_t,
                            disc=disc, hyp_aux=hyp_aux, tol=tol, max_iter=max_iter)
        lo, hi = curve.domain
        j_lo, j_hi = max(j_lo, lo), min(j_hi, hi)
        curves.append(curve)
    if j_lo > j_hi:
        raise ConfigError("empty common rate-domain interval across the family")
    if np.min(s_grid) < j_lo - 1e-12 or np.max(s_grid) > j_hi + 1e-12:
        raise ConfigError(
            f"s_grid not inside the common interval [{j_lo:.6f}, {j_hi:.6f}]")
    table = np.array([legendre_sup(c, s_grid)[0] for c in curves])
    modulus = float(np.max(np.abs(np.diff(table, axis=0)))) if len(curves) > 1 else 0.0
    return RateScan(v_grid=v_grid, s_grid=s_grid, table=table, modulus=modulus)
