"""Correlations, CLT parameters, free energy, rate functions, Monte-Carlo LDP."""

import math
import tracemalloc

import numpy as np
import pytest

from circthermo import (ConfigError, Discretization, HypothesisError,
                        HypothesisAux, SchemeQualityError, clt_parameters,
                        constant, constant_family, correlation,
                        d_correlation_d_dynamics, deviation_probability,
                        doubling, free_energy, ldp_monte_carlo, leading_triple,
                        discretize, log_derivative_weight, manneville_pomeau,
                        perturbed_doubling, perturbed_doubling_family,
                        rate_continuity_scan,
                        rate_function, translated_doubling_family,
                        trig_polynomial, zero_potential)
from circthermo import stats
from circthermo.operator import OperatorSetup
from circthermo.spectral import gap_estimate, triple_at
from circthermo.stats import FOURIER_MODES, MC_BLOCK, legendre_sup

from conftest import cos1

DISC_F = Discretization(n=128, scheme="collocation", interpolation="fourier")
PSI_COS = trig_polynomial(cos_coeffs=[1.0])


def test_correlation_constant_observable_vanishes():
    series = correlation(doubling(), zero_potential(), cos1,
                         lambda x: np.full_like(np.asarray(x, float), 2.0),
                         10, DISC_F)
    assert np.max(np.abs(series.values)) < 1e-13


def test_correlation_doubling_cos_orthogonality():
    series = correlation(doubling(), zero_potential(), cos1, cos1, 20, DISC_F)
    assert series.values[0] == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(series.values[1:])) < 1e-12
    assert series.note is not None          # nothing to fit above the floor


def test_correlation_decay_rate_bounded_by_gap():
    mp = manneville_pomeau(0.5)
    pot = log_derivative_weight(-0.1, mp)
    tr = leading_triple(discretize(mp, pot, Discretization(n=512)))
    tau = gap_estimate(tr.op, tr)
    series = correlation(mp, pot, cos1,
                         lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x),
                         30, Discretization(n=512), triple=tr)
    assert series.tau_fit is not None
    assert series.tau_fit <= tau + 0.05


def test_d_correlation_translated_family_is_zero():
    fam = translated_doubling_family()
    for n in (1, 3, 5):
        rep = d_correlation_d_dynamics(fam, cos1, cos1, n, 0.2,
                                       Discretization(n=64, interpolation="fourier"))
        assert abs(rep.fd_value) < 1e-9


def test_d_correlation_decays_for_perturbed_family():
    fam = perturbed_doubling_family()
    disc = Discretization(n=128, interpolation="fourier")
    rep_small = d_correlation_d_dynamics(fam, cos1, cos1, 2, 0.1, disc)
    rep_large = d_correlation_d_dynamics(fam, cos1, cos1, 30, 0.1, disc)
    assert abs(rep_large.fd_value) < 1e-6
    assert abs(rep_large.fd_value) <= abs(rep_small.fd_value) + 1e-12


def test_d_correlation_constant_observable():
    fam = perturbed_doubling_family()
    rep = d_correlation_d_dynamics(fam, cos1,
                                   lambda x: np.ones_like(np.asarray(x, float)),
                                   4, 0.1, Discretization(n=64, interpolation="fourier"))
    assert abs(rep.fd_value) < 1e-12


def test_clt_doubling_cosine():
    clt = clt_parameters(doubling(), zero_potential(), cos1, DISC_F)
    assert clt.mean == pytest.approx(0.0, abs=1e-13)
    assert clt.variance == pytest.approx(0.5, abs=1e-10)
    assert not clt.coboundary


def test_clt_coboundary_degenerates():
    cob = lambda x: np.cos(4 * np.pi * x) - np.cos(2 * np.pi * x)
    clt = clt_parameters(doubling(), zero_potential(), cob, DISC_F)
    assert clt.variance == 0.0
    assert clt.coboundary


def _green_kubo_series(triple, pv, floor=1e-14, max_terms=5000):
    """C(0) + 2 sum C(n), summed term by term: the reference for the one solve."""
    z = triple.project_zero_mean(pv * triple.h.values)
    var = float(triple.integrate_nu(pv * z))
    stop = floor * max(1.0, float(np.max(np.abs(z))))
    for _ in range(max_terms):
        z = triple.project_zero_mean(triple.normalized_apply(z))
        var += 2.0 * float(triple.integrate_nu(pv * z))
        if float(np.max(np.abs(z))) < stop:
            return var
    raise AssertionError(f"Green-Kubo series not summed in {max_terms} terms")


@pytest.mark.parametrize("alpha,pot_of,n,tau_range", [
    (1.0, lambda m: trig_polynomial(cos_coeffs=[0.004]), 256, (0.4, 0.6)),
    (0.3, lambda m: log_derivative_weight(-1.0, m), 512, (0.95, 0.99)),
])
def test_clt_variance_matches_green_kubo_series(alpha, pot_of, n, tau_range):
    mp = manneville_pomeau(alpha)
    pot = pot_of(mp)
    disc = Discretization(n=n)
    tr = leading_triple(discretize(mp, pot, disc))
    assert tau_range[0] < gap_estimate(tr.op, tr) < tau_range[1]
    clt = clt_parameters(mp, pot, cos1, disc, triple=tr)
    ref = _green_kubo_series(tr, cos1(tr.op.grid.nodes))
    assert abs(clt.variance - ref) <= 1e-10 * abs(ref)


def test_clt_ulam_samples_the_observable_at_cell_midpoints():
    # the Ulam weights are cell masses; sampling psi at the left cell ends
    # biases the mean by O(1/N) (2.4e-4 here)
    pd = perturbed_doubling(0.1)
    pot = trig_polynomial(cos_coeffs=[0.05])
    psi = trig_polynomial(sin_coeffs=[1.0])
    ulam = clt_parameters(pd, pot, psi, Discretization(n=512, scheme="ulam"))
    fourier = clt_parameters(pd, pot, psi, Discretization(n=512, interpolation="fourier"))
    assert abs(ulam.mean - fourier.mean) < 2e-5


def test_clt_variance_matches_free_energy_curvature():
    curve = free_energy(doubling(), zero_potential(), PSI_COS, disc=DISC_F)
    clt = clt_parameters(doubling(), zero_potential(), cos1, DISC_F)
    e2 = float(curve.e(0.0, 2))
    assert abs(clt.variance - e2) < 1e-4


def test_clt_variance_nonnegative_random_observables():
    rng = np.random.Generator(np.random.Philox(key=23))
    for _ in range(5):
        psi = trig_polynomial(cos_coeffs=rng.standard_normal(3) * 0.5,
                              sin_coeffs=rng.standard_normal(3) * 0.5)
        clt = clt_parameters(doubling(), zero_potential(), psi, DISC_F)
        assert clt.variance >= 0.0


# ---------------------------------------------------------------------------
# Free energy and rate function
# ---------------------------------------------------------------------------

def test_free_energy_auto_radius_doubling_cos():
    curve = free_energy(doubling(), zero_potential(), PSI_COS, disc=DISC_F)
    # largest 0.4^k whose endpoints pass the smallness checks
    assert curve.t0 == pytest.approx(0.4 ** 5, rel=1e-12)
    assert curve.values[len(curve.values) // 2] == 0.0
    assert curve.convex


def test_free_energy_no_admissible_radius():
    # declaring q = deg breaks (H2) and the smallness inequalities outright
    with pytest.raises(HypothesisError, match="vep"):
        free_energy(doubling(), zero_potential(), PSI_COS,
                    hyp_aux=HypothesisAux(q=2), disc=DISC_F)


def test_free_energy_affine_for_constant_observable():
    curve = free_energy(doubling(), zero_potential(), constant(0.7), t0=0.3,
                        disc=DISC_F)
    assert np.max(np.abs(curve.values - 0.7 * curve.t_grid)) < 1e-12
    rate = rate_function(curve)
    assert rate.s_grid.shape == (1,)
    assert rate.s_grid[0] == pytest.approx(0.7, abs=1e-9)
    assert rate.values[0] == 0.0


def test_free_energy_bounds_and_strict_convexity():
    curve = free_energy(doubling(), zero_potential(), PSI_COS, t0=0.2, disc=DISC_F)
    tpos = curve.t_grid[curve.t_grid > 0]
    assert np.all(curve.values[curve.t_grid > 0] <= tpos * 1.0 + 1e-12)
    assert np.all(curve.values[curve.t_grid > 0] >= tpos * (-1.0) - 1e-12)
    tneg = curve.t_grid[curve.t_grid < 0]
    assert np.all(curve.values[curve.t_grid < 0] <= tneg * (-1.0) + 1e-12)
    assert np.all(curve.values[curve.t_grid < 0] >= tneg * 1.0 - 1e-12)
    assert np.all(curve.e_second > 0.0)     # strictly convex: not a coboundary


def test_free_energy_slope_at_zero_matches_mean():
    # E'(0) = int psi d mu, the pressure-derivative consistency
    from circthermo import equilibrium_state
    psi = trig_polynomial(cos_coeffs=[0.6], sin_coeffs=[0.3])
    curve = free_energy(doubling(), zero_potential(), psi, t0=0.05, disc=DISC_F)
    rep = equilibrium_state(doubling(), zero_potential(), DISC_F)
    nodes = np.arange(DISC_F.n) / DISC_F.n
    mean = float(np.asarray(psi(nodes)) @ rep.equilibrium)
    assert abs(float(curve.eprime(0.0)) - mean) < 1e-6


def test_rate_function_properties():
    curve = free_energy(doubling(), zero_potential(), PSI_COS, t0=0.2, disc=DISC_F)
    rate = rate_function(curve)
    assert np.all(rate.values >= 0.0)
    assert np.all(np.diff(rate.values, 2) >= -1e-10)
    assert float(rate(np.array([rate.argmin]))[0]) <= 1e-10
    assert abs(rate.argmin) < 1e-8          # mean of cos under Lebesgue


def test_rate_function_duality_identity():
    curve = free_energy(doubling(), zero_potential(), PSI_COS, t0=0.2, disc=DISC_F)
    rate = rate_function(curve)
    for t_star in curve.t_grid[3:-3:6]:
        s_star = float(curve.eprime(t_star))
        lhs = float(rate(np.array([s_star]))[0])
        rhs = t_star * s_star - float(curve.e(t_star))
        assert abs(lhs - rhs) < 1e-8


def test_legendre_involution_recovers_free_energy():
    curve = free_energy(doubling(), zero_potential(), PSI_COS, t0=0.2, disc=DISC_F)
    rate = rate_function(curve)
    s_grid = np.linspace(*curve.domain, 81)
    from scipy.interpolate import CubicSpline
    ispline = CubicSpline(s_grid, rate(s_grid))
    for t in curve.t_grid[8:-8:5]:
        ss = np.linspace(s_grid[0], s_grid[-1], 600)
        back = float(np.max(t * ss - ispline(ss)))
        assert abs(back - float(curve.e(t))) < 1e-6


def _direct_free_energy(disc, ts):
    """E(t) = P(t psi) - P(0) for doubling, one fresh eigensolve per t."""
    setup = OperatorSetup.of(doubling(), disc)
    p = [math.log(triple_at(setup, zero_potential() + float(t) * PSI_COS).lam)
         for t in np.concatenate(([0.0], ts))]
    return np.array(p[1:]) - p[0]


def test_free_energy_matches_direct_pressures_off_the_nodes():
    curve = free_energy(doubling(), zero_potential(), PSI_COS, t0=0.2, disc=DISC_F)
    ts = np.linspace(-0.2, 0.2, 202)[1:-1]
    assert not np.isin(ts, curve.nodes).any()
    err = np.max(np.abs(curve.e(ts) - _direct_free_energy(DISC_F, ts)))
    assert err <= 1e-12, err


def test_free_energy_solves_each_node_once(monkeypatch):
    ts = []
    original = stats.triple_at

    def counted(setup, pot, **kwargs):
        ts.append(float(pot(np.zeros(1))[0]))        # phi + t cos 2 pi x at x = 0 is t
        return original(setup, pot, **kwargs)

    monkeypatch.setattr(stats, "triple_at", counted)
    curve = free_energy(doubling(), zero_potential(), PSI_COS, t0=0.2, disc=DISC_F)
    # 9 nodes, then the 8 that 17 adds: no pressure is solved twice
    assert len(ts) == len(set(ts)) == len(curve.nodes) == 17
    np.testing.assert_array_equal(sorted(ts), curve.nodes)
    assert curve.nodes[8] == 0.0 and curve.node_values[8] == 0.0
    tail = abs(curve.coeffs[-2]) + abs(curve.coeffs[-1])
    assert curve.tail == tail
    assert 0.0 < tail <= stats.FREE_ENERGY_TAIL_TOL * max(1.0, np.max(np.abs(curve.node_values)))


def test_free_energy_unresolved_raises_naming_the_tail(monkeypatch):
    monkeypatch.setattr(stats, "FREE_ENERGY_LEVELS", (9, 17))
    monkeypatch.setattr(stats, "FREE_ENERGY_TAIL_TOL", 1e-30)
    with pytest.raises(SchemeQualityError, match=r"17 Chebyshev nodes.*tail"):
        free_energy(doubling(), zero_potential(), PSI_COS, t0=0.2, disc=DISC_F)


def test_rate_function_rejects_nonconvex():
    curve = free_energy(doubling(), zero_potential(), PSI_COS, t0=0.05, disc=DISC_F)
    curve.convex = False
    with pytest.raises(ConfigError, match="convex"):
        rate_function(curve)


# ---------------------------------------------------------------------------
# Monte-Carlo deviations
# ---------------------------------------------------------------------------

def _doubling_rate_setup(t0=1.2, n=512):
    disc = Discretization(n=n)
    curve = free_energy(doubling(), zero_potential(), PSI_COS, t0=t0, disc=disc)
    return rate_function(curve), disc


def test_ldp_typical_interval_rate_goes_to_zero():
    rate, disc = _doubling_rate_setup()
    exp = ldp_monte_carlo(doubling(), zero_potential(), cos1, (-0.2, 0.2),
                          [5, 10, 20], 100000, 7, rate, disc=disc)
    assert exp.predicted == 0.0
    assert exp.rates[20] > exp.rates[5]
    assert abs(exp.rates[20]) < 0.05


def test_ldp_deviation_interval_bracket_and_reproducibility():
    rate, disc = _doubling_rate_setup()
    exp1 = ldp_monte_carlo(doubling(), zero_potential(), cos1, (0.25, 0.45),
                           [10, 20, 30], 200000, 20250808, rate, disc=disc)
    exp2 = ldp_monte_carlo(doubling(), zero_potential(), cos1, (0.25, 0.45),
                           [10, 20, 30], 200000, 20250808, rate, disc=disc)
    assert exp1.rates == exp2.rates          # seeded, counter-based RNG
    # LDP upper-bound bracket at the largest n
    assert exp1.rates[30] <= exp1.predicted + exp1.ci95[30]


def test_ldp_zero_hits_reported_as_minus_infinity():
    rate, disc = _doubling_rate_setup()
    exp = ldp_monte_carlo(doubling(), zero_potential(), cos1, (0.8, 0.86),
                          [30], 10000, 11, rate, disc=disc)
    assert exp.rates[30] == -np.inf
    assert any("0 hits" in note for note in exp.notes)


def test_ldp_ci_scales_with_sample_count():
    rate, disc = _doubling_rate_setup(n=256)
    cis = []
    for n_samples in (50000, 200000):
        exp = ldp_monte_carlo(doubling(), zero_potential(), cos1, (0.25, 0.45),
                              [10], n_samples, 3, rate, disc=disc)
        cis.append(exp.ci95[10])
    # quadrupling the samples roughly halves the batch CI
    assert abs(cis[1] / cis[0] - 0.5) < 0.2


def test_ldp_monte_carlo_iterates_the_map_of_its_triple():
    rate, disc = _doubling_rate_setup(n=128)
    pd = perturbed_doubling(0.3)
    triple = triple_at(OperatorSetup.of(pd, disc), zero_potential())
    args = (zero_potential(), cos1, (0.25, 0.45), [10], 20000, 5, rate)
    mixed = ldp_monte_carlo(doubling(), *args, triple=triple)
    own = ldp_monte_carlo(pd, *args, triple=triple)
    assert mixed.hits == own.hits


def test_ldp_interval_outside_domain_rejected():
    rate, disc = _doubling_rate_setup(t0=0.01024, n=128)
    with pytest.raises(ConfigError, match="domain"):
        ldp_monte_carlo(doubling(), zero_potential(), cos1, (0.25, 0.45),
                        [10], 1000, 1, rate, disc=disc)


def _dyadic_deviation_rate(n, a, b, bits=22):
    """(1/n) log Leb{x : S_n(x)/n in [a, b]} for psi = cos(2 pi x).

    Midpoint quadrature at the 2^bits dyadic midpoints, iterated by the
    doubling map, which is exact in floating point on these points.
    """
    hits = 0
    chunk = 1 << 20
    for start in range(0, 1 << bits, chunk):
        x = (2.0 * np.arange(start, start + chunk) + 1.0) / 2.0 ** (bits + 1)
        s = np.zeros_like(x)
        for _ in range(n):
            s += np.cos(2 * np.pi * x)
            x = 2.0 * x % 1.0
        hits += np.count_nonzero((s >= a * n) & (s <= b * n))
    return math.log(hits / 2.0 ** bits) / n


def test_deviation_probability_matches_dyadic_quadrature():
    rate, _ = _doubling_rate_setup()
    quad = _dyadic_deviation_rate(15, 0.25, 0.45)
    assert quad == pytest.approx(-0.169230, abs=1e-6)
    dp = deviation_probability(doubling(), zero_potential(), cos1,
                               (0.25, 0.45), [15], rate)
    assert abs(dp.rates[15] - quad) < 1e-4


def test_deviation_probability_unresolved_twist_raises():
    rate, _ = _doubling_rate_setup()
    with pytest.raises(SchemeQualityError, match="resolve the twist"):
        deviation_probability(doubling(), zero_potential(), cos1,
                              (0.25, 0.45), [30], rate,
                              disc=Discretization(n=16, interpolation="fourier"))


# ---------------------------------------------------------------------------
# Rate-function continuity scans
# ---------------------------------------------------------------------------

def test_rate_scan_constant_family_identical_rows():
    fam = constant_family(doubling())
    scan = rate_continuity_scan(fam, zero_potential(), PSI_COS,
                                np.linspace(-0.003, 0.003, 5), [0.0, 0.5, 1.0],
                                disc=DISC_F)
    assert scan.modulus < 1e-13


def test_rate_scan_translated_family_rows_coincide():
    # conjugation by rotation: at small radius the curves agree to high order
    fam = translated_doubling_family()
    scan = rate_continuity_scan(fam, zero_potential(), PSI_COS,
                                np.linspace(-0.0008, 0.0008, 7),
                                [0.0, 0.25, 0.5],
                                disc=Discretization(n=256, interpolation="fourier"),
                                t0=0.002)
    assert scan.modulus < 1e-8


def test_rate_scan_refinement_shrinks_modulus():
    fam = perturbed_doubling_family()
    disc = Discretization(n=256)
    s_grid = np.linspace(-0.12, 0.12, 7)
    coarse = rate_continuity_scan(fam, zero_potential(), PSI_COS, s_grid,
                                  [0.0, 0.1, 0.2], disc=disc, t0=0.4, n_t=21)
    fine = rate_continuity_scan(fam, zero_potential(), PSI_COS, s_grid,
                                [0.0, 0.05, 0.1, 0.15, 0.2], disc=disc,
                                t0=0.4, n_t=21)
    assert coarse.modulus / fine.modulus >= 1.5


def test_rate_scan_empty_common_interval_rejected():
    fam = perturbed_doubling_family()
    with pytest.raises(ConfigError, match="common"):
        rate_continuity_scan(fam, zero_potential(), PSI_COS,
                             np.linspace(-0.9, 0.9, 5), [0.0, 0.1],
                             disc=Discretization(n=128), t0=0.4)


# ---------------------------------------------------------------------------
# Shared twists and blocked Monte Carlo against their one-pass twins
# ---------------------------------------------------------------------------

def _per_n_deviation_rates(branch_map, pot, psi, interval, n_list, tilt,
                           disc=Discretization(n=256, interpolation="fourier")):
    """Each n iterates its own FOURIER_MODES + 1 twists, with one common scale."""
    a, b = interval
    triple = triple_at(OperatorSetup.of(branch_map, disc), pot)
    grid = triple.op.grid
    pv = np.asarray(psi(grid.nodes), dtype=float)
    pmid = np.asarray(psi(grid.nodes + 0.5 * grid.cell_width), dtype=float)
    half_period = 1.05 * float(max(np.max(np.abs(pv)), np.max(np.abs(pmid))))
    lam = float(triple.lam)
    k = np.arange(FOURIER_MODES + 1)
    rates = {}
    for n in n_list:
        period = 2.0 * n * half_period
        omega = 2.0 * np.pi * k / period
        z = tilt + 1j * omega
        lo, width = n * a, n * (b - a)
        w = -z * width
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(w == 0, 1.0, np.expm1(w) / w)
        g = np.exp(-1j * omega * lo) * width * ratio / period
        twist = np.exp(np.outer(pv, z))
        f = np.repeat(triple.h.values[:, None], len(k), axis=1).astype(complex)
        log_scale = 0.0
        for _ in range(n):
            f = triple.op.apply((twist * f).view(float)).view(complex)
            scale = float(np.max(np.abs(f)))
            f /= scale
            log_scale += math.log(scale / lam)
        terms = (g * (triple.nu @ f)).real
        total = terms[0] + 2.0 * np.sum(terms[1:])
        rates[n] = (log_scale - tilt * lo + math.log(total)) / n
    return rates


@pytest.fixture(scope="module", params=["doubling", "perturbed"])
def deviation_case(request):
    if request.param == "doubling":
        fmap, pot = doubling(), zero_potential()
    else:
        fmap, pot = perturbed_doubling(0.1), trig_polynomial(cos_coeffs=[0.05])
    curve = free_energy(fmap, pot, PSI_COS, t0=1.2, disc=Discretization(n=256))
    return fmap, pot, rate_function(curve)


@pytest.mark.parametrize("n_list", [[10, 15, 20, 25, 30, 60, 120, 240, 480], [7, 11, 13]],
                         ids=["shared", "coprime"])
def test_shared_twists_match_per_n_iteration(deviation_case, n_list):
    fmap, pot, rate = deviation_case
    dp = deviation_probability(fmap, pot, PSI_COS, (0.25, 0.45), n_list, rate)
    twin = _per_n_deviation_rates(fmap, pot, PSI_COS, (0.25, 0.45), n_list, dp.tilt)
    assert sorted(dp.rates) == n_list
    for n in n_list:
        assert abs(dp.rates[n] - twin[n]) <= 1e-12, n


BENCH_N_LIST = [10, 15, 20, 25, 30, 60, 120, 240, 480]
# column applications when every distinct twist runs to its last n
FULL_COLUMN_STEPS = 149_620


def test_converged_twist_columns_retire(deviation_case):
    fmap, pot, rate = deviation_case
    dp = deviation_probability(fmap, pot, PSI_COS, (0.25, 0.45), BENCH_N_LIST, rate)
    assert dp.column_steps <= 0.45 * FULL_COLUMN_STEPS
    again = deviation_probability(fmap, pot, PSI_COS, (0.25, 0.45), BENCH_N_LIST, rate)
    assert again.column_steps == dp.column_steps
    assert again.rates == dp.rates


def test_retired_twist_columns_extrapolate_to_rounding(deviation_case):
    fmap, pot, rate = deviation_case
    dp = deviation_probability(fmap, pot, PSI_COS, (0.25, 0.45), BENCH_N_LIST, rate)
    twin = _per_n_deviation_rates(fmap, pot, PSI_COS, (0.25, 0.45), BENCH_N_LIST, dp.tilt)
    for n in BENCH_N_LIST:
        assert abs(dp.rates[n] - twin[n]) <= 1e-14, n


def _unblocked_monte_carlo(branch_map, psi, interval, n_list, n_samples, seed, triple,
                           n_batches=20):
    """One full-length draw and orbit array: hits and batch-means CI per n."""
    a, b = interval
    mu = triple.mu_weights
    n_cells = triple.op.grid.n_cells
    u = np.random.Generator(np.random.Philox(key=seed)).random(n_samples)
    cum = np.concatenate(([0.0], np.cumsum(mu)))
    cum[-1] = 1.0
    cells = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, n_cells - 1)
    frac = (u - cum[cells]) / np.maximum(mu[cells], 1e-300)
    x = (cells + np.clip(frac, 0.0, 1.0)) / n_cells
    batch = n_samples // n_batches
    s = np.zeros(n_samples)
    step = 0
    hits, ci95 = {}, {}
    for n in n_list:
        while step < n:
            s += psi(x)
            x = branch_map(x)
            step += 1
        mask = ((s / n) >= a) & ((s / n) <= b)
        hits[n] = int(np.count_nonzero(mask))
        counts = np.array([np.count_nonzero(mask[i * batch:(i + 1) * batch])
                           for i in range(n_batches)])
        good = counts > 0
        ci95[n] = np.nan
        if hits[n] and np.count_nonzero(good) >= 2:
            r_b = np.log(counts[good] / batch) / n
            ci95[n] = float(1.96 * np.std(r_b, ddof=1) / math.sqrt(np.count_nonzero(good)))
    return hits, ci95


@pytest.mark.parametrize("n_samples, interval", [
    (3 * MC_BLOCK + 1234, (0.25, 0.45)),     # not a multiple of the block
    (5000, (0.25, 0.45)),                    # below one block
    (45, (-0.2, 0.2)),                       # remainder past the batches exceeds a batch
])
def test_blocked_monte_carlo_matches_one_pass(n_samples, interval):
    rate, disc = _doubling_rate_setup(n=256)
    triple = triple_at(OperatorSetup.of(doubling(), disc), zero_potential())
    exp = ldp_monte_carlo(doubling(), zero_potential(), PSI_COS, interval, [5, 10, 20],
                          n_samples, 17, rate, triple=triple)
    hits, ci95 = _unblocked_monte_carlo(doubling(), PSI_COS, interval, [5, 10, 20],
                                        n_samples, 17, triple)
    assert exp.hits == hits
    np.testing.assert_equal(exp.ci95, ci95)


def test_monte_carlo_block_size_moves_no_hit(monkeypatch):
    rate, disc = _doubling_rate_setup(n=256)
    triple = triple_at(OperatorSetup.of(doubling(), disc), zero_potential())
    runs = []
    for block in (2 ** 12, 2 ** 13, 2 ** 14):
        monkeypatch.setattr(stats, "MC_BLOCK", block)
        exp = ldp_monte_carlo(doubling(), zero_potential(), PSI_COS, (0.25, 0.45),
                              [5, 10, 20], 50_000, 29, rate, triple=triple)
        runs.append((exp.hits, exp.ci95))
    assert runs[0] == runs[1] == runs[2]


def test_monte_carlo_block_arrays_stay_below_the_mmap_threshold():
    assert MC_BLOCK * 8 < 2 ** 17, (
        "a float64 block array must stay below glibc's default 128 KiB "
        "M_MMAP_THRESHOLD, or each step's temporaries may be mapped afresh")


def test_monte_carlo_memory_stays_within_blocks():
    rate, disc = _doubling_rate_setup(n=256)
    triple = triple_at(OperatorSetup.of(doubling(), disc), zero_potential())
    tracemalloc.start()
    try:
        ldp_monte_carlo(doubling(), zero_potential(), PSI_COS, (0.25, 0.45), [10],
                        10 ** 6, 5, rate, triple=triple)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"traced peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def _ternary_legendre(curve, s, iters=200):
    """sup_t { s t - E(t) } over [-t0, t0] by ternary search on the concave objective."""
    lo, hi = -curve.t0, curve.t0
    for _ in range(iters):
        if hi - lo < 1e-14 * max(1.0, curve.t0):
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if s * m1 - curve.e(m1) < s * m2 - curve.e(m2):
            lo = m1
        else:
            hi = m2
    t_star = 0.5 * (lo + hi)
    return float(s * t_star - curve.e(t_star)), t_star


@pytest.mark.parametrize("t0, n", [(1.2, 256), (0.2, 128)])
def test_legendre_newton_matches_ternary_search(t0, n):
    curve = free_energy(doubling(), zero_potential(), PSI_COS, t0=t0,
                        disc=Discretization(n=n))
    lo, hi = curve.domain
    # points past either end of the domain clamp the maximizer to -t0 or t0
    s = np.linspace(lo - 0.05, hi + 0.05, 57)
    values, t_star = legendre_sup(curve, s)
    assert values.shape == t_star.shape == s.shape
    for si, vi, ti in zip(s, values, t_star):
        v_ref, t_ref = _ternary_legendre(curve, si)
        assert abs(vi - max(v_ref, 0.0)) <= 1e-14
        assert abs(ti - t_ref) <= 1e-6
    assert t_star[0] == -t0 and t_star[-1] == t0
    value, t_mid = legendre_sup(curve, 0.5 * (lo + hi))
    assert np.ndim(value) == 0 and np.ndim(t_mid) == 0


def test_rate_function_makes_one_legendre_call(monkeypatch):
    curve = free_energy(doubling(), zero_potential(), PSI_COS, t0=0.2, disc=DISC_F)
    calls = []
    original = stats.legendre_sup

    def counted(curve, s):
        calls.append(np.size(s))
        return original(curve, s)

    monkeypatch.setattr(stats, "legendre_sup", counted)
    rate = rate_function(curve)
    rate(rate.s_grid[::2])
    rate.infimum(rate.s_grid[30], rate.s_grid[35])
    scan = rate_continuity_scan(constant_family(doubling()), zero_potential(), PSI_COS,
                                [0.0, 0.01], [0.0, 0.1], disc=DISC_F, t0=0.2)
    assert scan.table.shape == (2, 2)
    assert calls == [len(curve.t_grid), len(rate.s_grid[::2]), 1, 2, 2]
