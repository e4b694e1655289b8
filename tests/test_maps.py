"""Map families, branch inverses, potentials, and the hypothesis checker."""

import dataclasses
import json

import numpy as np
import pytest

from circthermo import (BranchMap, ConfigError, Grid, HypothesisAux, SmoothnessError,
                        SolverError, check_hypotheses, circle_distance, constant, doubling,
                        grid_potential, linear_map, log_derivative_weight,
                        manneville_pomeau, perturbed_doubling, translated_doubling,
                        trig_polynomial, wrap, zero_potential)
from circthermo.cli import main
from circthermo.maps import (HypothesisReport, _cos_sin_2pi, lift_target, monotone_root,
                             smallness_values)

from conftest import builtin_maps


def test_preimages_doubling_quarter():
    ys = doubling().preimages(0.25)
    assert np.allclose(ys, [0.125, 0.625], atol=1e-14)


def test_preimages_mp_alpha1_half():
    # branch-0 preimage solves 2 y^2 + y - 0.5 = 0; take the root in [0, 1/2]
    roots = np.roots([2.0, 1.0, -0.5])
    root = float(roots[(roots >= 0) & (roots <= 0.5)][0])
    mp = manneville_pomeau(1.0)
    ys = mp.preimages(0.5)
    assert abs(ys[0] - root) < 1e-12
    assert abs(ys[1] - 0.75) < 1e-12
    # forward evaluation confirms both
    assert np.max(circle_distance(mp(ys), 0.5)) < 1e-12


def test_preimages_degree3_endpoint_tie():
    ys = linear_map(3).preimages(0.0)
    assert np.allclose(ys, [0.0, 1.0 / 3.0, 2.0 / 3.0], atol=1e-14)
    assert len(ys) == 3


@pytest.mark.parametrize("bmap", builtin_maps(), ids=lambda m: m.family_tag)
def test_preimage_forward_identity(bmap):
    rng = np.random.Generator(np.random.Philox(key=1))
    xs = rng.random(1000)
    ys = bmap.preimages(xs)
    assert ys.shape == (bmap.degree, 1000)
    assert float(np.max(circle_distance(bmap(ys), xs[None, :]))) < 1e-12


@pytest.mark.parametrize("bmap", builtin_maps(), ids=lambda m: m.family_tag)
def test_preimages_monotone_per_branch(bmap):
    xs = np.linspace(0.01, 0.99, 200)
    ys = bmap.preimages(xs)
    # monotone along each branch wherever the branch inverse does not wrap
    jumps = np.diff(ys, axis=1)
    wraps = np.count_nonzero(jumps <= 0, axis=1)
    assert np.all(wraps <= 1)   # at most the single seam crossing per branch


ENGINE_MAPS = builtin_maps() + [manneville_pomeau(0.5)]


def _branch_target(bmap, k, x):
    x = np.asarray(x, dtype=float)
    return x + np.ceil(bmap.lift(np.zeros(1))[0] - x) + k


@pytest.mark.parametrize("bmap", ENGINE_MAPS, ids=lambda m: m.family_tag)
def test_invert_branch_bit_equal_to_preimages(bmap):
    rng = np.random.Generator(np.random.Philox(key=2))
    xs = rng.random(500)
    ys = bmap.preimages(xs)
    for k in range(bmap.degree):
        assert np.array_equal(bmap.invert_branch(k, xs), ys[k])
    assert np.array_equal(bmap.invert_branch(np.arange(bmap.degree)[:, None], xs), ys)


@pytest.mark.parametrize("bmap", ENGINE_MAPS, ids=lambda m: m.family_tag)
def test_invert_branch_residual_at_edge_targets(bmap):
    # x = F(0) mod 1 makes every target exactly F(0) + k
    xs = np.array([0.0, 1.0 - 2.0 ** -53, float(wrap(bmap.lift(np.zeros(1))[0]))])
    b = bmap.branch_bounds
    for k in range(bmap.degree):
        y = bmap.invert_branch(k, xs)
        assert np.max(np.abs(bmap.lift(y) - _branch_target(bmap, k, xs))) <= 1e-12
        assert np.all((y >= b[k]) & (y <= b[k + 1]))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is no wider than float64 here")
@pytest.mark.parametrize("s", [0.3, 0.123456789, -0.7])
def test_lift_target_is_the_correctly_rounded_target(s):
    # x + (m + k) is exact in longdouble, so rounding it to float64 gives the
    # correctly rounded target that branch inversion and the polish aim at
    bmap = translated_doubling(s)
    x = Grid(1448).nodes
    f0 = bmap.lift(np.zeros(1))[0]
    ks = np.arange(bmap.degree)[:, None]
    ref = (x.astype(np.longdouble) + (np.ceil(f0 - x) + ks)).astype(float)
    assert np.array_equal(lift_target(f0, ks, x), ref)
    assert not np.array_equal(x + np.ceil(f0 - x) + ks, ref)    # rounding twice misses


@pytest.mark.parametrize("bmap", ENGINE_MAPS, ids=lambda m: m.family_tag)
def test_equal_targets_give_bit_equal_roots(bmap):
    rng = np.random.Generator(np.random.Philox(key=3))
    base = rng.random(64)
    xs = np.concatenate([base, rng.random(300), base[::-1]])
    ys = bmap.preimages(xs)
    assert np.array_equal(ys[:, :64], ys[:, -64:][:, ::-1])
    # a root does not depend on the other points solved alongside it
    for i in (0, 17, 63):
        assert np.array_equal(bmap.preimages(base[i]), ys[:, i])


def _evals_per_point(bmap, xs):
    counts = {"lift": 0, "dlift": 0}

    def counted(name, fn):
        def wrapper(y):
            counts[name] += np.size(y)
            return fn(y)
        return wrapper
    lift, dlift = bmap.lift, bmap.dlift
    bmap.lift, bmap.dlift = counted("lift", lift), counted("dlift", dlift)
    try:
        bmap.preimages(xs)
    finally:
        bmap.lift, bmap.dlift = lift, dlift
    points = bmap.degree * xs.size
    return counts["lift"] / points, counts["dlift"] / points


@pytest.mark.parametrize("bmap", [doubling(), linear_map(3), translated_doubling(0.3)],
                         ids=lambda m: m.family_tag)
def test_affine_maps_invert_with_one_lift_evaluation(bmap):
    xs = np.random.Generator(np.random.Philox(key=4)).random(2000)
    assert _evals_per_point(bmap, xs) == (1.0, 0.0)


@pytest.mark.parametrize("bmap", [manneville_pomeau(0.5), manneville_pomeau(1.0),
                                  perturbed_doubling(0.1)], ids=lambda m: m.family_tag)
def test_nonlinear_maps_invert_within_six_evaluations(bmap):
    xs = np.random.Generator(np.random.Philox(key=4)).random(2000)
    lifts, dlifts = _evals_per_point(bmap, xs)
    assert lifts + dlifts <= 6.0


@pytest.mark.parametrize("t", [0.8, 0.9, 0.98])
def test_contracting_arc_inverts_without_newton_cycle(t):
    # min f' < 1 on branch 0: undamped Newton cycles across the inflection
    bmap = perturbed_doubling(t)
    assert float(np.min(bmap.dlift(np.linspace(0.0, 0.5, 4097)))) < 1.0
    xs = np.linspace(0.0, 1.0, 4097)
    ys = bmap.preimages(xs)
    b = bmap.branch_bounds
    for k in range(bmap.degree):
        assert np.max(np.abs(bmap.lift(ys[k]) - _branch_target(bmap, k, xs))) <= 1e-12
        assert np.all((ys[k] >= b[k]) & (ys[k] <= b[k + 1]))


def test_lift_with_jump_raises_solver_error():
    # monotone with F' > 0 wherever it is differentiable, but F jumps at 0.3
    bmap = BranchMap(2, lambda x: 1.9 * np.asarray(x) + 0.1 * (np.asarray(x) > 0.3),
                     lambda x: np.full_like(np.asarray(x, dtype=float), 1.9))
    assert abs(bmap.invert_branch(0, 0.2) * 1.9 - 0.2) < 1e-12
    with pytest.raises(SolverError, match="branch 0"):
        bmap.invert_branch(0, 0.62)   # F(0.3) = 0.57 and F(0.3+) = 0.67


def test_monotone_root_solves_each_target_and_names_a_failure():
    u = np.array([1e-3, 0.5, 7.9])
    y = monotone_root(lambda y: y ** 3, lambda y: 3.0 * y ** 2, u, 0.0, 2.0, 0.0, 8.0)
    assert np.max(np.abs(y ** 3 - u)) <= 1e-12
    with pytest.raises(SolverError, match="target 0.5:"):   # no root in [1, 2]
        monotone_root(lambda y: y ** 3, lambda y: 3.0 * y ** 2, 0.5, 1.0, 2.0, 1.0, 8.0)


def test_wrap_is_bit_identical_to_mod():
    rng = np.random.Generator(np.random.Philox(key=5))
    xs = np.concatenate([rng.uniform(-2.0, 2.0, 10000),
                         [1e-17, -1e-17, 0.0, -0.0, -3.0, -1.0, 1.0, 7.0,
                          1.0 - 2.0 ** -53, 2.0 ** 60 + 0.5, -(2.0 ** 60 + 0.5)]])
    assert np.array_equal(wrap(xs).view(np.int64), np.mod(xs, 1.0).view(np.int64))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_mp_indifferent_fixed_point(alpha):
    mp = manneville_pomeau(alpha)
    assert abs(mp.lift(np.array([0.5]))[0] - 1.0) < 1e-14
    assert abs(mp.dlift(np.array([0.0]))[0] - 1.0) == 0.0


def test_non_monotone_branch_rejected():
    with pytest.raises(ConfigError, match="non-monotone"):
        BranchMap(2,
                  lambda x: 2 * np.asarray(x) - 0.5 * np.sin(2 * np.pi * np.asarray(x)) ** 1,
                  lambda x: 2 - np.pi * np.cos(2 * np.pi * np.asarray(x)),
                  family_tag="bad")


def test_bad_lift_increment_rejected():
    with pytest.raises(ConfigError, match="increase by degree"):
        BranchMap(3, lambda x: 2.0 * np.asarray(x),
                  lambda x: np.full_like(np.asarray(x, dtype=float), 2.0))


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

def test_potential_algebra_and_derivative():
    phi = trig_polynomial(cos_coeffs=[0.3], sin_coeffs=[0.1, 0.2])
    psi = constant(0.5)
    x = np.linspace(0, 1, 33, endpoint=False)
    combo = phi + 2.0 * psi
    assert np.allclose(combo(x), phi(x) + 1.0)
    dphi = phi.derivative(x)
    expect = (-0.3 * 2 * np.pi * np.sin(2 * np.pi * x)
              + 0.1 * 2 * np.pi * np.cos(2 * np.pi * x)
              + 0.2 * 4 * np.pi * np.cos(4 * np.pi * x))
    assert np.allclose(dphi, expect, atol=1e-13)


def test_zero_scaled_term_is_bitwise_noop():
    phi = trig_polynomial(cos_coeffs=[0.1])
    psi = trig_polynomial(sin_coeffs=[0.7])
    x = np.linspace(0, 1, 100, endpoint=False)
    assert np.array_equal((phi + 0.0 * psi)(x), phi(x))


def test_log_derivative_potential():
    mp = manneville_pomeau(1.0)
    pot = log_derivative_weight(-0.5, mp)
    x = np.array([0.2, 0.7])
    assert np.allclose(pot(x), -0.5 * np.log(mp.dlift(x)))
    assert pot.holder_exponent == 1.0
    # derivative matches -0.5 F''/F'
    assert np.allclose(pot.derivative(x), -0.5 * mp.d2lift(x) / mp.dlift(x))


def test_grid_potential_seam_continuity():
    rng = np.random.Generator(np.random.Philox(key=3))
    vals = rng.standard_normal(32)
    pot = grid_potential(vals, "linear")
    left = pot(np.array([1.0 - 1e-12]))[0]
    right = pot(np.array([0.0]))[0]
    assert abs(left - right) < 1e-9
    assert abs(right - vals[0]) < 1e-14


def test_potential_oscillation():
    assert constant(3.5).oscillation() == 0.0
    assert abs(trig_polynomial(cos_coeffs=[0.1]).oscillation() - 0.2) < 1e-6


# --- the linear form c + trig coefficients + scaled fields -------------------

def test_line_of_trig_potentials_is_one_trig_polynomial():
    phi = trig_polynomial(cos_coeffs=[0.05, 0.0, 0.02], sin_coeffs=[0.01], const_term=0.1)
    psi = trig_polynomial(cos_coeffs=[1.0], sin_coeffs=[0.0, 0.3], const_term=-0.2)
    t = 0.37
    summed = trig_polynomial(cos_coeffs=[0.05 + t * 1.0, 0.0 + t * 0.0, 0.02],
                             sin_coeffs=[0.01 + t * 0.0, 0.0 + t * 0.3],
                             const_term=0.1 + t * -0.2)
    line = phi + t * psi
    x = np.concatenate([np.linspace(0.0, 1.0, 1001), [-1.3, 2.75]])
    for xs in (x, x.astype(np.longdouble)):
        assert line(xs).tobytes() == summed(xs).tobytes()
        assert line.derivative(xs).tobytes() == summed.derivative(xs).tobytes()
    assert line.describe() == "trig"


@pytest.mark.parametrize("pot,text", [
    (constant(0.3), "const(0.3)"),
    (zero_potential(), "const(0)"),
    (trig_polynomial(cos_coeffs=[0.1]), "trig"),
    (trig_polynomial(cos_coeffs=[0.1], sin_coeffs=[0.0, 0.2], const_term=0.3), "trig"),
    (log_derivative_weight(-1.0, manneville_pomeau(0.5)), "-1*log|f'|"),
    (grid_potential(np.arange(16.0)), "grid[16]"),
    (grid_potential(np.arange(16.0), "fourier"), "grid[16]"),
], ids=["const", "zero", "trig", "trig-const", "logderiv", "grid-linear", "grid-fourier"])
def test_single_forms_describe_as_before(pot, text):
    assert pot.describe() == text


def test_constant_only_trig_polynomial_is_constant():
    pot = trig_polynomial(const_term=0.3)
    assert pot.is_constant() and not pot.is_log_derivative()
    assert pot.describe() == "const(0.3)"
    assert not trig_polynomial(cos_coeffs=[0.1]).is_constant()
    geometric = log_derivative_weight(-1.0, doubling()) + 0.5
    assert geometric.is_log_derivative() and not geometric.is_constant()
    assert not (geometric + trig_polynomial(sin_coeffs=[0.1])).is_log_derivative()


def test_scaled_fourier_grid_potential_and_derivative():
    n = 16
    nodes = np.arange(n) / n
    pot = -2.5 * grid_potential(np.cos(2 * np.pi * nodes) + 0.5, "fourier")
    x = np.linspace(0.0, 1.0, 257)
    np.testing.assert_allclose(pot(x), -2.5 * (np.cos(2 * np.pi * x) + 0.5),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(pot.derivative(x), 2.5 * 2 * np.pi * np.sin(2 * np.pi * x),
                               rtol=0, atol=1e-12)
    assert pot.describe() == "grid[16]" and pot.smoothness_order == 1


def test_sum_takes_minimum_metadata():
    mp = manneville_pomeau(0.5)
    geometric = log_derivative_weight(-1.0, mp)
    assert (geometric.holder_exponent, geometric.smoothness_order) == (0.5, 0)
    trig = trig_polynomial(cos_coeffs=[0.1])
    assert (trig.holder_exponent, trig.smoothness_order) == (1.0, 99)
    for pot in (trig + geometric, geometric + trig, 3.0 * (trig + geometric)):
        assert (pot.holder_exponent, pot.smoothness_order) == (0.5, 0)
    fourier = trig + grid_potential(np.zeros(8), "fourier")
    assert fourier.smoothness_order == 1
    assert (fourier + constant(1.0, holder_exponent=0.25)).holder_exponent == 0.25
    with pytest.raises(SmoothnessError):
        (trig + grid_potential(np.zeros(8))).derivative(np.array([0.1]))


# ---------------------------------------------------------------------------
# Hypothesis checker
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_hypotheses_doubling_zero_potential(alpha):
    rep = check_hypotheses(doubling(), constant(0.0, holder_exponent=alpha))
    assert abs(rep.sigma - 2.0) < 1e-6
    assert rep.q == 0
    assert rep.eps_phi == 0.0
    assert abs(rep.vep_value - 2.0 ** (-alpha)) < 1e-6
    assert rep.verdicts["H1"] and rep.verdicts["H2"] and rep.verdicts["P"]


def test_hypotheses_constant_shift_matches_zero():
    rep0 = check_hypotheses(doubling(), zero_potential())
    repc = check_hypotheses(doubling(), constant(1.7))
    assert rep0.verdicts == repc.verdicts
    assert rep0.vep_value == repc.vep_value


def test_hypotheses_manneville_pomeau_declared_region():
    mp = manneville_pomeau(1.0)
    aux = HypothesisAux(region_a=[(0.0, 0.05)], q=1)
    rep = check_hypotheses(mp, zero_potential(), aux)
    assert abs(rep.big_l - 1.0) < 1e-3      # L = 1/f'(0) = 1 on A
    assert rep.q == 1
    assert rep.verdicts["H1"] and rep.verdicts["H2"] and rep.verdicts["P"]
    assert 1.0 < rep.sigma < 2.0            # expansion certified outside A only


def test_hypotheses_fail_for_large_oscillation():
    rep = check_hypotheses(doubling(), trig_polynomial(cos_coeffs=[0.1]))
    assert rep.verdicts["P"] is False       # eps = 0.2 breaks the m-weighted term
    assert rep.vep_value > 1.0


def test_smallness_values_monotone_in_eps():
    values = [smallness_values(2, 0, 2.0, 1.0, 1.0, eps, 10)
              for eps in (0.0, 0.01, 0.05, 0.2)]
    veps = [v[0] for v in values]
    vepps = [v[1] for v in values]
    assert all(a < b for a, b in zip(veps, veps[1:]))
    assert all(a < b for a, b in zip(vepps, vepps[1:]))


def test_smallness_values_overflow_to_inf():
    assert smallness_values(2, 0, 2.0, 1.0, 1.0, 800.0, 10) == (np.inf, np.inf)


def test_hypotheses_huge_oscillation_fails_smallness():
    rep = check_hypotheses(doubling(), trig_polynomial(cos_coeffs=[400.0]))
    assert rep.vep_value == np.inf and rep.vepp_value == np.inf
    assert rep.verdicts["P"] is False and rep.verdicts["P'"] is False
    assert not rep.passed()


def test_manneville_pomeau_rejects_overflowing_alpha():
    with pytest.raises(ConfigError, match="alpha"):
        manneville_pomeau(1e300)
    with pytest.raises(ConfigError, match="alpha"):
        manneville_pomeau(float("nan"))


@pytest.mark.parametrize("fmap", [linear_map(3), manneville_pomeau(0.5),
                                  perturbed_doubling(0.1), translated_doubling(0.3)],
                         ids=lambda m: m.family_tag)
def test_builtin_lifts_keep_floating_dtype(fmap):
    x = np.array([0.0, 0.125, 0.3, 0.75])
    for fn in (fmap.lift, fmap.dlift, fmap.d2lift):
        with np.errstate(divide="ignore", invalid="ignore"):
            wide = np.asarray(fn(x.astype(np.longdouble)))
            assert wide.dtype == np.longdouble
            # integer input is still cast, and float64 input is unchanged
            assert np.asarray(fn(np.array([0, 1]))).dtype == np.float64
            assert np.asarray(fn(x)).dtype == np.float64


@pytest.mark.parametrize("pot", [
    trig_polynomial(cos_coeffs=[0.3], sin_coeffs=[0.0, 0.2], const_term=0.1),
    log_derivative_weight(-1.0, manneville_pomeau(0.5)),
    constant(0.4),
    grid_potential(np.cos(2 * np.pi * np.arange(16) / 16), "fourier"),
], ids=["trig", "logderiv", "const", "grid"])
def test_potentials_keep_floating_dtype(pot):
    x = np.array([0.0, 0.125, 0.3, 0.75])
    for fn in [pot] + ([pot.derivative] if pot.smoothness_order >= 1 else []):
        with np.errstate(divide="ignore", invalid="ignore"):
            wide = np.asarray(fn(x.astype(np.longdouble)))
            assert wide.dtype == np.longdouble
            np.testing.assert_allclose(wide.astype(float), fn(x), rtol=1e-14, atol=1e-14)
            # integer input is still cast, and float64 input is unchanged
            assert np.asarray(fn(np.array([0, 1]))).dtype == np.float64
            assert np.asarray(fn(x)).dtype == np.float64


def test_hypothesis_report_roundtrips_to_dict(tmp_path):
    # the hypotheses block of report.json carries the report's fields as plain JSON
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"map": {"family": "doubling"}, "output": {"dir": str(tmp_path)},
                                  "hypotheses": {"region_a": [[0.0, 0.05]]}}))
    assert main(["check-hypotheses", str(config)]) == 0
    hyp = json.loads((tmp_path / "report.json").read_text())["hypotheses"]
    assert hyp["verdicts"]["P"] is True
    assert hyp["region_a"] == [[0.0, 0.05]]
    assert set(hyp) == {f.name for f in dataclasses.fields(HypothesisReport)}


@pytest.mark.parametrize("arc,plain", [([-0.05, 0.05], [0.95, 1.05]),
                                       ([1.0, 1.05], [0.0, 0.05]),
                                       ([-1.0, -0.95], [0.0, 0.05])])
def test_region_arcs_a_whole_turn_apart_give_the_same_verdicts(arc, plain):
    mp = manneville_pomeau(0.5)
    rep, ref = (check_hypotheses(mp, zero_potential(), HypothesisAux(region_a=[a]))
                for a in (arc, plain))
    assert (rep.q, rep.sigma, rep.big_l, rep.verdicts) == (ref.q, ref.sigma, ref.big_l,
                                                           ref.verdicts)
    assert rep.q == (2 if plain[1] > 1.0 else 1)   # an arc across 0 meets both branches


def test_trig_potential_phase_uses_longdouble_pi():
    x = np.linspace(0.0, 1.0, 1001, dtype=np.longdouble)
    pi_ld = 4 * np.arctan(np.longdouble(1))
    got = trig_polynomial(cos_coeffs=[1.0])(x)
    assert got.dtype == np.longdouble
    assert np.max(np.abs(got - np.cos(2 * pi_ld * x))) <= 1e-18
    slope = trig_polynomial(cos_coeffs=[1.0]).derivative(x)
    assert np.max(np.abs(slope + 2 * pi_ld * np.sin(2 * pi_ld * x))) <= 1e-17
    bump = perturbed_doubling(0.3).lift(x) - 2 * x
    exact = np.where(x <= 0.5, 0.3 * 0.25 * np.sin(2 * pi_ld * x) ** 4, 0.0)
    assert np.max(np.abs(bump - exact)) <= 1e-18


PI_LD = 4 * np.arctan(np.longdouble(1))


def _worst_cos_sin_error(y):
    c, s = _cos_sin_2pi(y)
    phase = 2 * PI_LD * y.astype(np.longdouble)
    return max(np.max(np.abs(c - np.cos(phase))), np.max(np.abs(s - np.sin(phase))))


def test_cos_sin_2pi_accuracy_in_float64():
    # the float64 phase y itself is the argument; the reference is longdouble
    x = np.arange(2 ** 15) / 2 ** 15 + 1e-6 * np.sin(np.arange(2 ** 15))
    x = x[(x >= 0.0) & (x < 1.0)]
    for k in range(1, 9):
        assert _worst_cos_sin_error(k * x) <= 4.5e-16, k
        assert _worst_cos_sin_error(-k * x) <= 4.5e-16, k
    y = np.linspace(-64.0, 64.0, 200_001) + 1e-7
    assert _worst_cos_sin_error(y) <= 4.5e-16
    assert _cos_sin_2pi(y)[0].dtype == np.float64


def test_cos_sin_2pi_special_points():
    c, s = _cos_sin_2pi(np.array([0.0, 0.25, 0.5, 0.75]))
    assert np.max(np.abs(c - [1.0, 0.0, -1.0, 0.0])) <= 2.3e-16
    assert np.max(np.abs(s - [0.0, 1.0, 0.0, -1.0])) <= 2.3e-16
    c0, s0 = _cos_sin_2pi(0.3)            # a scalar phase gives 0-d arrays
    assert abs(c0 - np.cos(2 * np.pi * 0.3)) <= 4.5e-16 and s0.shape == ()


@pytest.mark.parametrize("pot", [
    trig_polynomial(cos_coeffs=[1.0]),
    trig_polynomial(cos_coeffs=[0.3, 0.0, -0.2], sin_coeffs=[0.0, 0.4], const_term=0.1),
], ids=["cos", "mixed"])
def test_trig_potential_is_exactly_periodic(pot):
    x = np.arange(0, 2 ** 20, 37) / 2 ** 20
    value, slope = pot(x), pot.derivative(x)
    for m in (-3, 1, 5):
        np.testing.assert_array_equal(pot(x + m), value)
        np.testing.assert_array_equal(pot.derivative(x + m), slope)
