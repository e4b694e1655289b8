"""Pressure routes, equilibrium states, entropy and Lyapunov exponents."""

import math
import tracemalloc

import numpy as np
import pytest

import circthermo.thermo as ct_thermo
from circthermo import (ConfigError, Discretization, SolverError, constant, discretize,
                        doubling, equilibrium_state, leading_triple, linear_map,
                        log_derivative_weight, manneville_pomeau,
                        perturbed_doubling, pressure, pressure_oracle_periodic,
                        pressure_oracle_tree, translated_doubling,
                        trig_polynomial, zero_potential)

from conftest import builtin_maps


def test_pressure_doubling_is_log2():
    assert pressure(doubling(), zero_potential(), Discretization(n=256)) == \
        pytest.approx(math.log(2), abs=1e-12)


def test_pressure_obeys_the_solver_limits_of_its_discretization():
    # MP alpha = 0.5 needs far more than two power steps
    with pytest.raises(SolverError, match="no eigenvalue convergence in 2 iterations"):
        pressure(manneville_pomeau(0.5), zero_potential(), Discretization(n=256, max_iter=2))


def test_pressure_degree3_is_log3():
    assert pressure(linear_map(3), zero_potential(), Discretization(n=256)) == \
        pytest.approx(math.log(3), abs=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.3, 0.9])
def test_pressure_geometric_family_closed_form(t):
    p = pressure(doubling(), constant(-t * math.log(2)), Discretization(n=256))
    assert p == pytest.approx((1 - t) * math.log(2), abs=1e-10)


def test_pressure_shifts_by_constant():
    disc = Discretization(n=128)
    pot = trig_polynomial(cos_coeffs=[0.01])
    base = pressure(doubling(), pot, disc)
    shifted = pressure(doubling(), pot + 0.37, disc)
    assert shifted - base == pytest.approx(0.37, abs=1e-12)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def test_tree_oracle_exact_for_maximal_entropy():
    for x0 in (0.1, 0.5, 0.92):
        assert pressure_oracle_tree(doubling(), zero_potential(), x0, 20) == \
            pytest.approx(math.log(2), abs=1e-12)


def test_tree_oracle_constant_potential_exact():
    # (1/n) log(d^n e^{nc}) = log d + c for every depth
    val = pressure_oracle_tree(linear_map(3), constant(0.4), 0.2, 6)
    assert val == pytest.approx(math.log(3) + 0.4, abs=1e-12)


def test_tree_oracle_depth_stability_and_spectral_match():
    pot = trig_polynomial(cos_coeffs=[0.1])
    p18 = pressure_oracle_tree(doubling(), pot, 0.3, 18)
    p20 = pressure_oracle_tree(doubling(), pot, 0.3, 20)
    assert abs(p18 - p20) < 0.01
    ps = pressure(doubling(), pot, Discretization(n=1024))
    assert abs(p18 - ps) < 0.02 and abs(p20 - ps) < 0.02


def test_periodic_oracle_doubling_count():
    # #Fix(f^10) = 2^10 - 1 periodic points, unit weights
    val, skipped = pressure_oracle_periodic(doubling(), zero_potential(), 10)
    assert val == pytest.approx(math.log(2 ** 10 - 1) / 10, abs=1e-12)
    assert skipped == 0


def test_periodic_oracle_constant_closed_form():
    val, _ = pressure_oracle_periodic(linear_map(3), constant(0.25), 8)
    expect = math.log(3) + 0.25 + math.log(1 - 3.0 ** -8) / 8
    assert val == pytest.approx(expect, abs=1e-12)


def test_periodic_oracle_matches_spectral():
    pot = trig_polynomial(cos_coeffs=[0.1])
    val, skipped = pressure_oracle_periodic(doubling(), pot, 16)
    ps = pressure(doubling(), pot, Discretization(n=1024))
    assert abs(val - ps) < 0.02
    assert skipped == 0


@pytest.mark.parametrize("bmap", builtin_maps() + [manneville_pomeau(0.5)],
                         ids=lambda m: f"{m.family_tag}{list(m.family_params.values())}")
def test_periodic_oracle_counts_every_fixed_point(bmap):
    # d^n - 1 points with unit weights; among them the seam points of the
    # translated map, whose F(0) = 0.6 is off the integers, and the neutral
    # fixed point x = 0 of Manneville-Pomeau
    d = bmap.degree
    n = 12 if d == 2 else 8
    val, skipped = pressure_oracle_periodic(bmap, zero_potential(), n)
    assert abs(val - math.log(d ** n - 1) / n) <= 1e-14
    assert skipped == 0


def test_periodic_oracle_constant_shift_on_translated_doubling():
    val, _ = pressure_oracle_periodic(translated_doubling(0.3), constant(0.25), 12)
    assert abs(val - (math.log(2 ** 12 - 1) / 12 + 0.25)) <= 1e-14


def test_periodic_oracle_rejects_period_zero():
    with pytest.raises(ConfigError, match="period"):
        pressure_oracle_periodic(doubling(), zero_potential(), 0)


PERIODIC_POT = trig_polynomial(cos_coeffs=[0.1], sin_coeffs=[0.05])


@pytest.mark.parametrize("bmap, n, block", [
    (doubling(), 17, None),                  # 2^17 - 1 targets: four blocks of 2^15
    (perturbed_doubling(0.1), 11, 2 ** 8),
    (manneville_pomeau(1.0), 10, 2 ** 7),
    (linear_map(3), 7, 2 ** 8),
], ids=["doubling", "perturbed", "mp1", "linear3"])
def test_periodic_oracle_in_blocks_is_bit_identical_to_one_block(monkeypatch, bmap, n, block):
    if block is not None:
        monkeypatch.setattr(ct_thermo, "TREE_BLOCK", block)
    blocks = pressure_oracle_periodic(bmap, PERIODIC_POT, n)
    monkeypatch.setattr(ct_thermo, "TREE_BLOCK", bmap.degree ** n)
    assert blocks == pressure_oracle_periodic(bmap, PERIODIC_POT, n)


def test_periodic_oracle_memory_is_its_roots_plus_one_block():
    # 2^18 - 1 Birkhoff sums hold 2.1 MB; one solve of every root peaked at 86 MB
    tracemalloc.start()
    try:
        pressure_oracle_periodic(doubling(), PERIODIC_POT, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_three_pressure_routes_agree_on_builtin_families():
    # small oscillation so the smallness conditions hold on every family
    for bmap in builtin_maps():
        pot = trig_polynomial(cos_coeffs=[0.003])
        n_tree = min(18, int(24 * math.log(2) / math.log(bmap.degree)) - 4)
        n_per = max(8, n_tree - 2)
        ps = pressure(bmap, pot, Discretization(n=512))
        pt = pressure_oracle_tree(bmap, pot, 0.37, n_tree)
        pp, _ = pressure_oracle_periodic(bmap, pot, n_per)
        assert abs(ps - pt) < 0.02, bmap.family_tag
        assert abs(ps - pp) < 0.02, bmap.family_tag
        assert abs(pt - pp) < 0.02, bmap.family_tag


# ---------------------------------------------------------------------------
# Equilibrium states
# ---------------------------------------------------------------------------

def test_equilibrium_doubling_maximal_entropy():
    rep = equilibrium_state(doubling(), zero_potential(), Discretization(n=256))
    assert np.max(np.abs(rep.equilibrium - 1.0 / 256)) < 1e-12
    assert rep.entropy == pytest.approx(math.log(2), abs=1e-12)
    assert rep.lyapunov == pytest.approx(math.log(2), abs=1e-12)
    assert rep.dimension == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t", [0.2, 0.7])
def test_equilibrium_uniform_for_geometric_doubling(t):
    rep = equilibrium_state(doubling(), constant(-t * math.log(2)),
                            Discretization(n=128))
    assert np.max(np.abs(rep.equilibrium - 1.0 / 128)) < 1e-12


def test_dimension_present_for_geometric_potential():
    mp = manneville_pomeau(0.5)
    rep = equilibrium_state(mp, log_derivative_weight(-0.1, mp),
                            Discretization(n=256))
    assert rep.dimension == pytest.approx(rep.entropy / rep.lyapunov, rel=1e-12)


def test_dimension_absent_for_generic_potential():
    rep = equilibrium_state(doubling(), trig_polynomial(cos_coeffs=[0.01]),
                            Discretization(n=128))
    assert rep.dimension is None


def test_equilibrium_state_reads_map_and_potential_from_the_triple():
    pd, phi = perturbed_doubling(0.3), trig_polynomial(cos_coeffs=[0.1])
    triple = leading_triple(discretize(pd, phi, Discretization(n=128)))
    mixed = equilibrium_state(doubling(), zero_potential(), triple=triple)
    own = equilibrium_state(pd, phi, triple=triple)
    assert (mixed.entropy, mixed.lyapunov, mixed.dimension) == \
        (own.entropy, own.lyapunov, None)
    assert mixed.provenance == own.provenance
    assert mixed.provenance["map"] == pd.family_tag
    assert abs(mixed.lyapunov - math.log(2)) > 1e-3


def test_psi_expectation_matches_pressure_derivative():
    # int psi d mu == d/dt P(phi + t psi) by central differences
    disc = Discretization(n=128, interpolation="fourier")
    phi = trig_polynomial(cos_coeffs=[0.02])
    psi = trig_polynomial(sin_coeffs=[0.5])
    rep = equilibrium_state(doubling(), phi, disc)
    nodes = np.arange(128) / 128
    expect = float(psi(nodes) @ rep.equilibrium)
    eps = 1e-4
    fd = (pressure(doubling(), phi + eps * psi, disc)
          - pressure(doubling(), phi + (-eps) * psi, disc)) / (2 * eps)
    assert abs(expect - fd) < 1e-5


def test_equilibrium_invariance_on_builtin_families():
    rng = np.random.Generator(np.random.Philox(key=5))
    ks = np.arange(1, 9)
    g = trig_polynomial(cos_coeffs=rng.standard_normal(8) * 0.1 / ks ** 2)
    nodes = np.arange(1024) / 1024
    for bmap in builtin_maps():
        pot = trig_polynomial(cos_coeffs=[0.003])
        rep = equilibrium_state(bmap, pot, Discretization(n=1024))
        err = abs(float(g(bmap(nodes)) @ rep.equilibrium)
                  - float(g(nodes) @ rep.equilibrium))
        assert err < 1e-6, bmap.family_tag


def test_ulam_equilibrium_integrates_at_cell_midpoints():
    # Ulam's weights sit at the cell midpoints, so phi and log F' are sampled there
    fmap, pot = perturbed_doubling(0.3), trig_polynomial(sin_coeffs=[0.2])
    ref = equilibrium_state(fmap, pot, Discretization(n=512, interpolation="fourier"))
    ulam = equilibrium_state(fmap, pot, Discretization(n=1024, scheme="ulam"))
    assert abs(ulam.entropy - ref.entropy) <= 1e-6
    assert abs(ulam.lyapunov - ref.lyapunov) <= 5e-6


def test_conformality_of_left_weights():
    mp = manneville_pomeau(1.0)
    pot = trig_polynomial(cos_coeffs=[0.004])
    tr = leading_triple(discretize(mp, pot, Discretization(n=256)))
    rng = np.random.Generator(np.random.Philox(key=9))
    g = rng.standard_normal(256)
    lhs = float(tr.nu @ tr.op.apply(g))
    rhs = float(tr.lam) * float(tr.nu @ g)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_entropy_positive_and_bounded():
    for bmap in builtin_maps():
        pot = trig_polynomial(cos_coeffs=[0.003])
        rep = equilibrium_state(bmap, pot, Discretization(n=512))
        assert 0.0 < rep.entropy <= math.log(bmap.degree) + 1e-12, bmap.family_tag
