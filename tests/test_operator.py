"""Pointwise transfer application, tree sums, and matrix assembly."""

import math
import warnings

import numpy as np
import pytest

from scipy import sparse

import circthermo.operator as ct_operator
from circthermo import (Discretization, Grid, GridFunction, OperatorSetup,
                        ResourceLimitError, apply_transfer_point,
                        apply_transfer_tree, build_operator, constant,
                        doubling, free_energy, linear_map, log_derivative_weight,
                        manneville_pomeau, translated_doubling,
                        trig_polynomial, zero_potential)
from circthermo.operator import trig_interp_matrix
from circthermo.spectral import leading_triple

from conftest import builtin_maps, cos1


def ones(y):
    return np.ones_like(np.asarray(y, dtype=float))


def test_point_apply_doubling_constants():
    m = doubling()
    for x in (0.0, 0.3, 0.77):
        assert apply_transfer_point(m, zero_potential(), ones, x) == pytest.approx(2.0, abs=1e-14)
        assert apply_transfer_point(m, constant(0.4), ones, x) == pytest.approx(2 * math.exp(0.4), rel=1e-14)


def test_point_apply_doubling_cos_vanishes():
    m = doubling()
    xs = np.linspace(0, 1, 17, endpoint=False)
    vals = apply_transfer_point(m, zero_potential(), cos1, xs)
    assert np.max(np.abs(vals)) < 1e-13


def test_tree_counts_leaves():
    m = doubling()
    assert apply_transfer_tree(m, zero_potential(), ones, 0.3, 10) == pytest.approx(1024.0, abs=1e-9)


def test_tree_constant_weight():
    # each leaf weighs 2^{-t n} with t = 0.5, n = 8: total 2^8 * 2^{-4} = 16
    m = doubling()
    val = apply_transfer_tree(m, constant(-0.5 * math.log(2)), ones, 0.1, 8)
    assert val == pytest.approx(16.0, rel=1e-12)


def test_tree_depth_one_matches_point():
    mp = manneville_pomeau(1.0)
    pot = trig_polynomial(cos_coeffs=[0.05])
    for x in (0.2, 0.9):
        tree = apply_transfer_tree(mp, pot, cos1, x, 1)
        point = apply_transfer_point(mp, pot, cos1, x)
        assert tree == pytest.approx(point, abs=1e-14)


def test_tree_matches_composed_point_applies():
    # (L^3 g)(x) via the tree vs nested pointwise applications
    m = doubling()
    pot = trig_polynomial(cos_coeffs=[0.1])

    def level1(y):
        return apply_transfer_point(m, pot, cos1, y)

    def level2(y):
        return apply_transfer_point(m, pot, level1, y)

    for x in (0.13, 0.5, 0.86):
        composed = apply_transfer_point(m, pot, level2, x)
        tree = apply_transfer_tree(m, pot, cos1, x, 3)
        assert tree == pytest.approx(composed, abs=1e-10)


def test_tree_resource_guard():
    with pytest.raises(ResourceLimitError):
        apply_transfer_tree(doubling(), zero_potential(), ones, 0.1, 25)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def test_hand_assembled_two_cell_matrix():
    op = build_operator(doubling(), zero_potential(), Grid(2), "collocation", "linear")
    assert np.allclose(op.matrix, [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)


@pytest.mark.parametrize("interpolation", ["linear", "fourier"])
def test_collocation_row_sums_constant_potential(interpolation):
    for bmap in (doubling(), manneville_pomeau(1.0), translated_doubling(0.2)):
        op = build_operator(bmap, constant(0.3), Grid(64), "collocation", interpolation)
        target = bmap.degree * math.exp(0.3)
        assert np.max(np.abs(op.row_sums() - target)) < 5e-13


@pytest.mark.parametrize("bmap", builtin_maps(), ids=lambda m: m.family_tag)
def test_ulam_entries_nonnegative(bmap):
    pot = trig_polynomial(cos_coeffs=[0.02])
    op = build_operator(bmap, pot, Grid(128), "ulam")
    assert np.min(op.matrix) >= 0.0


def test_two_scheme_agreement_all_builtin_families():
    # |lam_coll - lam_ulam| within 10x the larger grid-doubling drift
    pot = trig_polynomial(cos_coeffs=[0.003])
    for bmap in builtin_maps():
        lam = {}
        for scheme in ("collocation", "ulam"):
            for n in (256, 512):
                lam[(scheme, n)] = float(leading_triple(
                    build_operator(bmap, pot, Grid(n), scheme)).lam)
        drift = max(abs(lam[("collocation", 256)] - lam[("collocation", 512)]),
                    abs(lam[("ulam", 256)] - lam[("ulam", 512)]))
        gap = abs(lam[("collocation", 512)] - lam[("ulam", 512)])
        assert gap <= 10 * max(drift, 1e-13), bmap.family_tag


def test_ulam_collocation_eigenvalue_agreement_mp():
    # two-scheme cross-check on the intermittent family
    mp = manneville_pomeau(0.5)
    pot = log_derivative_weight(-0.1, mp)
    lam = {}
    for scheme in ("collocation", "ulam"):
        for n in (512, 1024):
            lam[(scheme, n)] = float(leading_triple(
                build_operator(mp, pot, Grid(n), scheme)).lam)
    assert abs(lam[("collocation", 512)] - lam[("ulam", 512)]) < 1e-3
    disc_err = max(abs(lam[("collocation", 512)] - lam[("collocation", 1024)]),
                   abs(lam[("ulam", 512)] - lam[("ulam", 1024)]))
    assert abs(lam[("collocation", 512)] - lam[("ulam", 512)]) <= 10 * disc_err


def test_collocation_linear_second_order_consistency():
    # matrix-applied values converge to exact pointwise application at order ~2
    mp = manneville_pomeau(1.0)
    pot = trig_polynomial(cos_coeffs=[0.02])
    rng = np.random.Generator(np.random.Philox(key=5))
    g = trig_polynomial(cos_coeffs=rng.standard_normal(4) * 0.2,
                        sin_coeffs=rng.standard_normal(4) * 0.2)
    errs = []
    for n in (128, 256, 512, 1024):
        op = build_operator(mp, pot, Grid(n), "collocation", "linear")
        applied = op.apply(g(op.grid.nodes))
        idx = rng.integers(0, n, size=100)
        exact = apply_transfer_point(mp, pot, g, op.grid.nodes[idx])
        errs.append(float(np.max(np.abs(applied[idx] - exact))))
    assert errs[-1] < errs[0] / 30.0
    order_finest = math.log2(errs[-2] / errs[-1])
    assert order_finest > 1.9


def test_gridfunction_node_exactness_and_seam():
    rng = np.random.Generator(np.random.Philox(key=11))
    vals = rng.standard_normal(32)
    for interpolation in ("linear", "fourier"):
        gf = GridFunction(Grid(32), vals, interpolation)
        nodes = gf.grid.nodes
        assert np.max(np.abs(gf(nodes) - vals)) < 1e-12
        assert abs(gf(np.array([1.0 - 1e-12]))[0] - gf(np.array([0.0]))[0]) < 1e-9


@pytest.mark.parametrize("interpolation", ["linear", "fourier"])
def test_complex_gridfunction_evaluates_real_points(interpolation):
    vals = np.exp(1j * np.arange(8))
    gf = GridFunction(Grid(8), vals, interpolation)
    x = np.array([0.1, 0.5, 0.93])
    re = GridFunction(Grid(8), vals.real, interpolation)(x)
    im = GridFunction(Grid(8), vals.imag, interpolation)(x)
    assert np.max(np.abs(gf(x) - (re + 1j * im))) < 1e-14
    assert np.max(np.abs(gf(gf.grid.nodes) - vals)) < 1e-12
    # integer values interpolate at the points given, not at truncated ones
    pts = np.array([0.5, 0.55])
    as_int = GridFunction(Grid(8), np.arange(8), interpolation)(pts)
    as_float = GridFunction(Grid(8), np.arange(8.0), interpolation)(pts)
    assert np.array_equal(as_int, as_float)
    if interpolation == "linear":
        assert np.allclose(as_int, [4.0, 4.4], rtol=0, atol=1e-14)
    d_int = GridFunction(Grid(7), np.arange(7), interpolation).derivative().values
    d_float = GridFunction(Grid(7), np.arange(7.0), interpolation).derivative().values
    assert np.array_equal(d_int, d_float)
    wide = GridFunction(Grid(8), np.arange(8, dtype=np.longdouble), interpolation)
    assert wide(pts).dtype == np.longdouble


def test_fourier_derivative_keeps_complex_values():
    grid = Grid(8)
    vals = np.exp(2j * np.pi * grid.nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deriv = GridFunction(grid, vals, "fourier").derivative()
    assert np.iscomplexobj(deriv.values)
    assert np.max(np.abs(deriv.values - 2j * np.pi * vals)) < 1e-12


def test_trig_cardinal_rows_sum_to_one():
    pts = np.array([0.123, 0.5, 0.03125, 0.999])
    t = trig_interp_matrix(pts, 16)
    assert np.allclose(t.sum(axis=1), 1.0, atol=1e-13)
    # exact one-hot on a node
    t_node = trig_interp_matrix(np.array([3.0 / 16.0]), 16)
    assert t_node[0, 3] == pytest.approx(1.0, abs=1e-12)


def test_fourier_differentiation_matches_trig():
    gf = GridFunction(Grid(32), np.sin(2 * np.pi * np.arange(32) / 32), "fourier")
    dgf = gf.derivative()
    expect = 2 * np.pi * np.cos(2 * np.pi * gf.grid.nodes)
    assert np.max(np.abs(dgf.values - expect)) < 1e-10


def test_operator_csv_export_roundtrip(tmp_path):
    op = build_operator(doubling(), constant(0.1), Grid(16), "collocation", "linear")
    path = tmp_path / "op.csv"
    op.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and "scheme=collocation" in lines[0]
    assert "map=doubling" in lines[0] and "N=16" in lines[0]
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(data, np.asarray(op.matrix, dtype=float))


def _dense(op):
    return op.storage.toarray() if sparse.issparse(op.storage) else op.storage


@pytest.mark.parametrize("scheme,interpolation,dtype", [
    ("collocation", "linear", np.float64),
    ("collocation", "fourier", np.float64),
    ("ulam", "linear", np.float64),
    ("collocation", "linear", np.longdouble),
    ("collocation", "fourier", np.longdouble),
])
def test_reused_setup_matches_fresh_build(scheme, interpolation, dtype):
    mp = manneville_pomeau(0.5)
    grid = Grid(96)
    setup = OperatorSetup(mp, grid, scheme, interpolation, dtype)
    setup.operator(log_derivative_weight(-1.0, mp))   # an earlier sweep point
    pot = trig_polynomial(cos_coeffs=[0.2], sin_coeffs=[0.0, 0.05])
    reused = setup.operator(pot)
    fresh = build_operator(mp, pot, grid, scheme, interpolation, dtype=dtype)
    a, b = _dense(reused), _dense(fresh)
    assert a.dtype == b.dtype
    if scheme == "collocation":
        assert np.array_equal(a, b)
        assert np.array_equal(reused.preimage_table, fresh.preimage_table)
    else:
        assert np.array_equal(a != 0, b != 0)
        assert np.max(np.abs(a - b) / np.where(b != 0, np.abs(b), 1.0)) <= 1e-15
        assert reused.dropped_entries == fresh.dropped_entries
    assert reused.potential is pot


def test_free_energy_builds_cardinal_matrix_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return trig_interp_matrix(*args, **kwargs)

    monkeypatch.setattr(ct_operator, "trig_interp_matrix", counted)
    disc = Discretization(n=64, interpolation="fourier")
    psi = trig_polynomial(cos_coeffs=[1.0])
    curve = free_energy(doubling(), zero_potential(), psi, t0=0.2, n_t=41,
                        disc=disc)
    assert len(calls) == 1
    # a sweep point equals the pressure difference of freshly built operators
    p0 = math.log(leading_triple(build_operator(
        doubling(), zero_potential(), Grid(64), "collocation", "fourier")).lam)
    t = float(curve.t_grid[3])
    pt = math.log(leading_triple(build_operator(
        doubling(), zero_potential() + t * psi, Grid(64), "collocation",
        "fourier")).lam)
    assert curve.values[3] == pt - p0


def test_ulam_wrap_handling_translated_family():
    # the branch seam sits mid-cell for the translated family; mass must be
    # conserved across the wrap
    bmap = translated_doubling(0.13)
    op = build_operator(bmap, zero_potential(), Grid(64), "ulam")
    tr = leading_triple(op)
    assert float(tr.lam) == pytest.approx(2.0, abs=1e-6)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is float64 on this platform")
def test_longdouble_collocation_preimages_polish_below_float64():
    grid = Grid(257)
    ys = OperatorSetup(linear_map(3), grid, dtype=np.longdouble).points
    assert ys.dtype == np.longdouble
    u = np.asarray(grid.nodes, dtype=np.longdouble)
    targets = u[None, :] + np.arange(3, dtype=np.longdouble)[:, None]
    assert np.max(np.abs(3 * ys - targets)) <= 1e-18
