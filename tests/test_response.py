"""Linear-response formulas against closed forms and finite differences."""

import math

import numpy as np
import pytest

from circthermo import (BranchMap, Discretization, ResourceLimitError,
                        SmoothnessError, constant,
                        d_conformal_expectation, d_density_d_potential,
                        d_equilibrium_expectation, d_lambda_d_potential,
                        d_maxentropy_expectation, d_pressure_d_dynamics,
                        d_pressure_d_potential, d_transfer_d_dynamics,
                        d_transfer_n_d_dynamics, discretize, doubling,
                        grid_potential, leading_triple, log_derivative_weight,
                        manneville_pomeau, OperatorSetup, perturbed_doubling,
                        perturbed_doubling_family,
                        translated_doubling_family, constant_family,
                        trig_polynomial, zero_potential)
from circthermo.response import central_difference

DISC_F = Discretization(n=64, scheme="collocation", interpolation="fourier")


def _triple(bmap, pot, disc=DISC_F, dtype=np.float64):
    return leading_triple(discretize(bmap, pot, disc, dtype=dtype))


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def test_d_lambda_unit_direction_returns_lambda():
    m = doubling()
    phi0 = trig_polynomial(cos_coeffs=[0.1])
    tr = _triple(m, phi0)
    val = d_lambda_d_potential(m, phi0, ones, DISC_F, triple=tr)
    assert val == pytest.approx(float(tr.lam), rel=1e-13)


def test_d_lambda_zero_for_mean_zero_direction_at_lebesgue():
    m = doubling()
    val = d_lambda_d_potential(m, zero_potential(),
                               lambda x: np.cos(2 * np.pi * x), DISC_F)
    assert abs(val) < 1e-13


def test_d_lambda_matches_fd():
    m = doubling()
    phi0 = trig_polynomial(cos_coeffs=[0.1])
    H = trig_polynomial(cos_coeffs=[0.03, 0.02], sin_coeffs=[0.04])
    tr = _triple(m, phi0)
    ana = d_lambda_d_potential(m, phi0, H, DISC_F, triple=tr)
    fd = central_difference(
        lambda e: float(_triple(m, phi0 + e * H).lam), 1e-4)
    assert abs(ana - fd) / max(1.0, abs(fd)) < 1e-5


def test_d_pressure_unit_direction_is_one():
    m = doubling()
    phi0 = trig_polynomial(cos_coeffs=[0.1])
    assert d_pressure_d_potential(m, phi0, ones, DISC_F) == pytest.approx(1.0, abs=1e-13)


def test_d_pressure_equals_d_lambda_over_lambda():
    m = manneville_pomeau(1.0)
    phi0 = trig_polynomial(cos_coeffs=[0.004])
    H = trig_polynomial(sin_coeffs=[0.05])
    disc = Discretization(n=256)
    tr = _triple(m, phi0, disc)
    dp = d_pressure_d_potential(m, phi0, H, disc, triple=tr)
    dl = d_lambda_d_potential(m, phi0, H, disc, triple=tr)
    assert dp == pytest.approx(dl / float(tr.lam), abs=1e-12)


def test_d_pressure_mp_geometric_direction_fd():
    mp = manneville_pomeau(0.5)
    phi0 = log_derivative_weight(-0.05, mp)
    H = log_derivative_weight(-1.0, mp)
    # Holder-rough direction: the node-quadrature pairing converges at O(1/N)
    disc = Discretization(n=2048)
    ana = d_pressure_d_potential(mp, phi0, H, disc)

    def p_at(e):
        return math.log(float(_triple(mp, phi0 + e * H, disc).lam))

    fd = central_difference(p_at, 1e-4)
    assert abs(ana - fd) < 1e-4


def test_d_density_annihilated_direction_is_zero():
    # at phi0 = 0 the operator kills cos(2 pi x), so the density is stationary
    m = doubling()
    dh = d_density_d_potential(m, zero_potential(),
                               lambda x: np.sin(2 * np.pi * x), DISC_F)
    assert np.max(np.abs(dh.values)) < 1e-12


def test_d_density_matches_fd_nontrivial_direction():
    # direction with a surviving image under the operator: the density moves
    m = doubling()
    H = trig_polynomial(cos_coeffs=[0.0, 1.0])
    dh = d_density_d_potential(m, zero_potential(), H, DISC_F)
    eps = 1e-5
    hp = _triple(m, eps * H).h.values
    hm = _triple(m, (-eps) * H).h.values
    fd = (np.asarray(hp, float) - np.asarray(hm, float)) / (2 * eps)
    assert np.max(np.abs(np.asarray(dh.values, float) - fd)) < 1e-8
    assert np.max(np.abs(dh.values)) > 0.5       # genuinely nonzero


def test_d_density_fd_at_tilted_base():
    m = doubling()
    phi0 = trig_polynomial(cos_coeffs=[0.1])
    H = trig_polynomial(sin_coeffs=[1.0])
    dh = d_density_d_potential(m, phi0, H, DISC_F)
    eps = 1e-4
    hp = _triple(m, phi0 + eps * H).h.values
    hm = _triple(m, phi0 + (-eps) * H).h.values
    fd = (np.asarray(hp, float) - np.asarray(hm, float)) / (2 * eps)
    assert np.max(np.abs(np.asarray(dh.values, float) - fd)) < 1e-3


def test_d_density_linear_in_direction():
    m = doubling()
    phi0 = trig_polynomial(cos_coeffs=[0.1])
    H = trig_polynomial(sin_coeffs=[0.3], cos_coeffs=[0.1])
    tr = _triple(m, phi0)
    d1 = d_density_d_potential(m, phi0, H, DISC_F, triple=tr)
    d2 = d_density_d_potential(m, phi0, 2.0 * H, DISC_F, triple=tr)
    assert np.max(np.abs(d2.values - 2.0 * d1.values)) < 1e-10


def test_d_conformal_probability_is_conserved():
    m = doubling()
    phi0 = trig_polynomial(cos_coeffs=[0.1])
    H = trig_polynomial(sin_coeffs=[0.2])
    val = d_conformal_expectation(m, phi0, ones, H, DISC_F)
    assert abs(val) < 1e-14


def test_d_conformal_cos_pair_gives_half():
    m = doubling()
    c = lambda x: np.cos(2 * np.pi * x)
    val = d_conformal_expectation(m, zero_potential(), c, c, DISC_F)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_d_conformal_matches_fd():
    m = doubling()
    phi0 = trig_polynomial(cos_coeffs=[0.1])
    g = trig_polynomial(cos_coeffs=[0.4], sin_coeffs=[0.0, 0.2])
    H = trig_polynomial(sin_coeffs=[0.1], cos_coeffs=[0.05])
    ana = d_conformal_expectation(m, phi0, g, H, DISC_F)

    def nu_g(e):
        t = _triple(m, phi0 + e * H)
        return float(np.asarray(g(t.op.grid.nodes)) @ np.asarray(t.nu, float))

    fd = central_difference(nu_g, 1e-4)
    assert abs(ana - fd) < 1e-4


def test_d_equilibrium_cos_pair_gives_half():
    m = doubling()
    c = lambda x: np.cos(2 * np.pi * x)
    val = d_equilibrium_expectation(m, zero_potential(), c, c, DISC_F)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_d_equilibrium_constant_observable_is_zero():
    m = doubling()
    phi0 = trig_polynomial(cos_coeffs=[0.1])
    H = trig_polynomial(sin_coeffs=[0.2])
    assert abs(d_equilibrium_expectation(m, phi0, ones, H, DISC_F)) < 1e-14


def test_d_equilibrium_matches_fd():
    m = doubling()
    phi0 = trig_polynomial(cos_coeffs=[0.1])
    g = trig_polynomial(cos_coeffs=[0.4], sin_coeffs=[0.0, 0.2])
    H = trig_polynomial(sin_coeffs=[0.1], cos_coeffs=[0.05])
    ana = d_equilibrium_expectation(m, phi0, g, H, DISC_F)

    def mu_g(e):
        t = _triple(m, phi0 + e * H)
        return float(np.asarray(g(t.op.grid.nodes)) @ np.asarray(t.mu_weights, float))

    fd = central_difference(mu_g, 1e-4)
    assert abs(ana - fd) < 1e-4


def test_d_equilibrium_ulam_matches_fd_on_intermittent_map():
    # the Ulam weights sit at cell midpoints, so H must be sampled there;
    # sampling it at the left cell ends leaves a 2e-3 error at this N
    mp = manneville_pomeau(0.5)
    phi0 = log_derivative_weight(-1.0, mp)
    g = trig_polynomial(cos_coeffs=[1.0])
    H = trig_polynomial(cos_coeffs=[0.0, 0.5])
    disc = Discretization(n=512, scheme="ulam")
    ana = d_equilibrium_expectation(mp, phi0, g, H, disc)

    def mu_g(e):
        t = leading_triple(discretize(mp, phi0 + e * H, disc))
        return float(t.sample(g) @ t.mu_weights)

    fd = central_difference(mu_g, 1e-4)
    assert abs(ana - fd) / max(1.0, abs(fd)) <= 5e-4


def test_d_equilibrium_ulam_agrees_with_fourier():
    # g is sampled at the Ulam cell midpoints, where the weights sit; at the
    # nodes it carried an O(1/N) bias of -1.7e-3 at this N
    f = perturbed_doubling(0.1)
    phi0 = trig_polynomial(cos_coeffs=[0.05])
    g = trig_polynomial(sin_coeffs=[1.0])
    H = trig_polynomial(cos_coeffs=[0.0, 0.5])
    ulam = d_equilibrium_expectation(f, phi0, g, H, Discretization(n=512, scheme="ulam"))
    fourier = d_equilibrium_expectation(f, phi0, g, H,
                                        Discretization(n=512, interpolation="fourier"))
    assert abs(ulam - fourier) < 1e-4


def test_fd_error_decays_at_second_order():
    # FD error against the analytic value shrinks ~100x from eps=1e-3 to 1e-4
    m = doubling()
    phi0 = trig_polynomial(cos_coeffs=[0.1])
    rng = np.random.Generator(np.random.Philox(key=42))
    p = trig_polynomial(cos_coeffs=rng.standard_normal(4),
                        sin_coeffs=rng.standard_normal(4))
    xs = np.arange(4096) / 4096
    H = (0.1 / float(np.max(np.abs(p(xs))))) * p
    dtype = np.longdouble
    tr = _triple(m, phi0, dtype=dtype)
    ana = d_lambda_d_potential(m, phi0, H, DISC_F, triple=tr)
    errs = {}
    for eps in (1e-3, 1e-4):
        fd = central_difference(
            lambda e: _triple(m, phi0 + e * H, dtype=dtype).lam, eps)
        errs[eps] = abs(float(fd) - ana)
    ratio = errs[1e-3] / errs[1e-4]
    assert 50 <= ratio <= 200


# ---------------------------------------------------------------------------
# Derivatives in the dynamics
# ---------------------------------------------------------------------------

def test_d_transfer_zero_direction():
    fam = translated_doubling_family()
    g = trig_polynomial(cos_coeffs=[0.0, 1.0])
    val = d_transfer_d_dynamics(fam.at(0.0), zero_potential(), g,
                                lambda y: np.zeros_like(np.asarray(y, float)), 0.3)
    assert val == 0.0


def test_d_transfer_unit_observable_is_stationary():
    # L_f 1 = deg(f) for phi = 0 regardless of f
    one_pair = (ones, lambda y: np.zeros_like(np.asarray(y, dtype=float)))
    for fam in (translated_doubling_family(), perturbed_doubling_family()):
        for x in (0.0, 0.41, 0.9):
            val = d_transfer_d_dynamics(fam.at(0.1), zero_potential(), one_pair,
                                        fam.direction(0.1), x)
            assert abs(val) < 1e-14


def test_d_transfer_translated_closed_form():
    # L_s cos(4 pi .) = 2 cos(2 pi (x - 2s)); derivative in s at 0 is
    # 8 pi sin(2 pi x), and the direction field is H = ds f_s = 2
    fam = translated_doubling_family()
    g = trig_polynomial(cos_coeffs=[0.0, 1.0])
    for x in (0.1, 0.37, 0.77):
        val = d_transfer_d_dynamics(fam.at(0.0), zero_potential(), g,
                                    fam.direction(0.0), x)
        assert val == pytest.approx(8 * np.pi * np.sin(2 * np.pi * x), abs=1e-12)
    # L_s^n cos(2 pi 2^n .) = 2^n cos(2 pi (x - (2^(n+1) - 2) s)), so its
    # derivative in s at 0 is 2^n 2 pi (2^(n+1) - 2) sin(2 pi x)
    for n in range(1, 7):
        g = trig_polynomial(cos_coeffs=[0.0] * (2 ** n - 1) + [1.0])
        for x in (0.1, 0.37, 0.77):
            val = d_transfer_n_d_dynamics(fam.at(0.0), zero_potential(), g,
                                          fam.direction(0.0), x, n)
            exact = 2 ** n * 2 * np.pi * (2 ** (n + 1) - 2) * np.sin(2 * np.pi * x)
            assert val == pytest.approx(exact, rel=1e-12), (n, x)
    # cos(2 pi .) is annihilated identically along the family
    g1 = trig_polynomial(cos_coeffs=[1.0])
    val = d_transfer_d_dynamics(fam.at(0.0), zero_potential(), g1,
                                fam.direction(0.0), 0.37)
    assert abs(val) < 1e-13


def test_d_transfer_requires_smooth_observable():
    fam = translated_doubling_family()
    rough = grid_potential(np.random.default_rng(0).standard_normal(16), "linear")
    with pytest.raises(SmoothnessError):
        d_transfer_d_dynamics(fam.at(0.0), zero_potential(), rough,
                              fam.direction(0.0), 0.3)


def test_d_transfer_n_depth_one_consistency():
    fam = perturbed_doubling_family()
    g = trig_polynomial(cos_coeffs=[0.0, 1.0])
    pot = trig_polynomial(cos_coeffs=[0.05])
    x = 0.29
    v1 = d_transfer_n_d_dynamics(fam.at(0.1), pot, g, fam.direction(0.1), x, 1)
    v0 = d_transfer_d_dynamics(fam.at(0.1), pot, g, fam.direction(0.1), x)
    assert v1 == pytest.approx(v0, abs=1e-13)


def test_d_transfer_n_unit_observable_all_depths():
    fam = perturbed_doubling_family()
    one_pair = (ones, lambda y: np.zeros_like(np.asarray(y, dtype=float)))
    for n in (1, 2, 4):
        val = d_transfer_n_d_dynamics(fam.at(0.1), zero_potential(), one_pair,
                                      fam.direction(0.1), 0.3, n)
        assert abs(val) < 1e-13


def test_d_transfer_n_linear_in_direction():
    fam = perturbed_doubling_family()
    g = trig_polynomial(cos_coeffs=[0.0, 1.0])
    h1 = lambda y: np.cos(2 * np.pi * y)
    h2 = lambda y: np.sin(4 * np.pi * y)
    t = 0.7
    combo = d_transfer_n_d_dynamics(
        fam.at(0.0), zero_potential(), g,
        lambda y: h1(y) + t * h2(y), 0.3, 3)
    split = (d_transfer_n_d_dynamics(fam.at(0.0), zero_potential(), g, h1, 0.3, 3)
             + t * d_transfer_n_d_dynamics(fam.at(0.0), zero_potential(), g, h2, 0.3, 3))
    assert combo == pytest.approx(split, abs=1e-10)


def test_d_transfer_n_matches_fd():
    from circthermo import apply_transfer_tree
    fam = perturbed_doubling_family()
    pot = zero_potential()
    g = trig_polynomial(cos_coeffs=[0.0, 1.0])
    x, n = 0.37, 3
    ana = d_transfer_n_d_dynamics(fam.at(0.1), pot, g, fam.direction(0.1), x, n)
    fd = central_difference(
        lambda e: apply_transfer_tree(fam.at(0.1 + e), pot,
                                      lambda y: np.cos(4 * np.pi * y), x, n), 1e-6)
    assert abs(ana - fd) / max(1.0, abs(fd)) < 1e-5


def test_d_transfer_n_walks_the_tree_once(monkeypatch):
    # one forward sweep: one preimages call per level (the per-term chain rule
    # made n^2)
    calls = []
    preimages = BranchMap.preimages

    def counted(self, x):
        calls.append(1)
        return preimages(self, x)

    monkeypatch.setattr(BranchMap, "preimages", counted)
    fam = perturbed_doubling_family()
    g = trig_polynomial(cos_coeffs=[0.0, 1.0])
    for n in range(1, 7):
        calls.clear()
        d_transfer_n_d_dynamics(fam.at(0.1), zero_potential(), g, fam.direction(0.1),
                                np.array([0.1, 0.6]), n)
        assert len(calls) == n


def test_d_transfer_n_past_the_leaf_guard_raises_resource_limit():
    fam = translated_doubling_family()
    g = trig_polynomial(cos_coeffs=[1.0])
    with pytest.raises(ResourceLimitError):
        d_transfer_n_d_dynamics(fam.at(0.0), zero_potential(), g, fam.direction(0.0),
                                0.3, 25)


def test_d_pressure_in_map_vanishes_at_zero_potential():
    fams = [(perturbed_doubling_family(), 0.1, "fourier"),
            (translated_doubling_family(), 0.2, "fourier"),
            (constant_family(manneville_pomeau(1.0)), 0.0, "linear")]
    for fam, s0, interp in fams:
        rep = d_pressure_d_dynamics(fam, zero_potential(), s0,
                                    Discretization(n=128, interpolation=interp))
        assert abs(rep.analytic_value) < 1e-8, fam.name
        assert abs(rep.fd_value) < 1e-8, fam.name


def test_d_pressure_in_map_constant_potential_translated():
    rep = d_pressure_d_dynamics(translated_doubling_family(), constant(0.3), 0.1,
                                Discretization(n=128, interpolation="fourier"))
    assert abs(rep.analytic_value) < 1e-10
    assert abs(rep.fd_value) < 1e-10


def test_d_pressure_in_map_fd_agreement():
    rep = d_pressure_d_dynamics(perturbed_doubling_family(),
                                trig_polynomial(cos_coeffs=[0.05]), 0.1,
                                Discretization(n=256, interpolation="fourier"))
    assert rep.rel_error < 1e-3
    assert rep.fd_step == 1e-4
    assert abs(rep.analytic_value) > 1e-4   # genuinely nonzero response


def test_d_maxentropy_constant_observable():
    rep = d_maxentropy_expectation(perturbed_doubling_family(), constant(2.0), 0.1,
                                   Discretization(n=128, interpolation="fourier"))
    assert abs(rep.analytic_value) < 1e-12


def test_d_maxentropy_translated_family_is_stationary():
    rep = d_maxentropy_expectation(translated_doubling_family(),
                                   trig_polynomial(cos_coeffs=[1.0]), 0.3,
                                   Discretization(n=128, interpolation="fourier"))
    assert abs(rep.analytic_value) < 1e-10
    assert abs(rep.fd_value) < 1e-9


def _maxentropy_series(family, g, s0, disc, floor=1e-15, max_terms=5000):
    """sum_k int DLtil(Ltil^k P0 g) . H d mu, summed term by term."""
    tr = leading_triple(discretize(family.at(s0), zero_potential(), disc))
    ys = OperatorSetup(family.at(s0), disc).points
    weight = (-np.asarray(family.direction(s0)(ys))
              / np.asarray(family.at(s0).dlift(ys)) / tr.lam)
    w = tr.project_zero_mean(np.asarray(g(tr.op.grid.nodes)))
    stop = floor * max(1.0, float(np.max(np.abs(w))))
    total = 0.0
    for _ in range(max_terms):
        field = np.sum(np.asarray(tr.op.grid_function(w).derivative()(ys)) * weight, axis=0)
        total += float(tr.integrate_mu(field))
        if float(np.max(np.abs(w))) < stop:
            return total
        w = tr.project_zero_mean(tr.normalized_apply(w))
    raise AssertionError(f"max-entropy series not summed in {max_terms} terms")


def test_d_maxentropy_fd_agreement_with_series_metadata():
    rep = d_maxentropy_expectation(perturbed_doubling_family(),
                                   trig_polynomial(cos_coeffs=[1.0]), 0.1,
                                   Discretization(n=256, interpolation="fourier"))
    assert rep.rel_error < 1e-3
    ref = _maxentropy_series(perturbed_doubling_family(), trig_polynomial(cos_coeffs=[1.0]),
                             0.1, Discretization(n=256, interpolation="fourier"))
    assert abs(rep.analytic_value - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("s0", [0.1, 0.2])
def test_ulam_map_derivatives_agree_with_fourier(s0):
    # Ulam's h is a cell average: D(h) is taken at the cell midpoints where it
    # sits.  At the nodes the pressure derivative carried a bias of 6.3e-7
    # (s0 = 0.1) and the maximal-entropy derivative one of 2.3e-3
    family = perturbed_doubling_family()
    phi = trig_polynomial(cos_coeffs=[0.05])
    g = trig_polynomial(cos_coeffs=[0.0, 1.0])
    ulam = Discretization(n=512, scheme="ulam")
    fourier = Discretization(n=512, interpolation="fourier")
    dp = [d_pressure_d_dynamics(family, phi, s0, d).analytic_value for d in (ulam, fourier)]
    assert abs(dp[0] - dp[1]) <= 3e-7
    dmu = [d_maxentropy_expectation(family, g, s0, d).analytic_value for d in (ulam, fourier)]
    assert abs(dmu[0] - dmu[1]) <= 5e-4


def test_response_report_rel_error_recomputed():
    from circthermo.response import ResponseReport
    rep = ResponseReport(analytic_value=2.0, fd_value=2.5, fd_step=1e-4)
    assert rep.rel_error == abs(2.0 - 2.5) / 2.5
