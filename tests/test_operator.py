"""Pointwise transfer application, tree sums, and matrix assembly."""

import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from scipy import sparse

import circthermo.operator as ct_operator
from circthermo import (BranchMap, ConfigError, Discretization, Grid, GridFunction,
                        OperatorSetup, ResourceLimitError, apply_transfer_point,
                        apply_transfer_tree, constant, discretize,
                        doubling, free_energy, grid_potential, linear_map,
                        log_derivative_weight,
                        manneville_pomeau, perturbed_doubling,
                        pressure_oracle_tree, translated_doubling,
                        trig_polynomial, zero_potential)
from circthermo.maps import monotone_root
from circthermo.operator import OperatorBlock, trig_interp_matrix
from circthermo.response import d_transfer_n_d_dynamics
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


def test_tree_guard_counts_the_leaves_of_every_root(monkeypatch):
    # 32 roots at depth 6 make 2^11 leaves: past a 2^10 guard, though each
    # root's own tree (2^6 leaves) is within it
    monkeypatch.setattr(ct_operator, "TREE_LEAF_GUARD", 2 ** 10)
    with pytest.raises(ResourceLimitError):
        apply_transfer_tree(doubling(), zero_potential(), ones,
                            np.linspace(0.0, 1.0, 32, endpoint=False), 6)


# ---------------------------------------------------------------------------
# The block walk against the level-by-level expansion
# ---------------------------------------------------------------------------

def level_by_level(bmap, pot, x, depth, h_field=None):
    """Every level of the tree at once: leaves, S, and vel and dS under H."""
    ys = np.asarray(x, dtype=float)
    shape = (-1,) + ys.shape
    log_w = vel = d_log_w = np.zeros_like(ys)
    for _ in range(depth):
        level = bmap.preimages(ys)
        log_w = (log_w[None] + pot(level)).reshape(shape)
        if h_field is not None:
            step = (vel[None] - np.asarray(h_field(level))) / np.asarray(bmap.dlift(level))
            d_log_w = (d_log_w[None] + pot.derivative(level) * step).reshape(shape)
            vel = step.reshape(shape)
        ys = level.reshape(shape)
    return ys, log_w, vel, d_log_w


TREE_POT = trig_polynomial(cos_coeffs=[0.1], sin_coeffs=[0.05])
TREE_G = trig_polynomial(cos_coeffs=[1.0], sin_coeffs=[0.3])
# (map, roots, depth): d = 2 and d = 3, one root and grids of roots
SMALL_TREES = [
    (doubling(), 0.27, 9),
    (linear_map(3), 0.41, 6),
    (manneville_pomeau(1.0), np.linspace(0.05, 0.95, 7), 5),
    (linear_map(3), np.linspace(0.0, 1.0, 40, endpoint=False), 1),
]
# past one block of 2^15 points: the frontier, or the roots at depth 1, split
LARGE_TREES = [
    (manneville_pomeau(1.0), 0.3, 17),
    (perturbed_doubling(0.1), 0.6, 16),
    (linear_map(3), 0.41, 10),
    (doubling(), np.linspace(0.01, 0.97, 32), 11),
    (linear_map(3), np.linspace(0.0, 1.0, 12000, endpoint=False), 1),
]


def h_sine(y):
    return 0.05 * np.sin(2 * np.pi * np.asarray(y))


def assert_tree_sums_match_the_expansion(bmap, x, depth):
    ys, log_w, _, _ = level_by_level(bmap, TREE_POT, x, depth)
    want = ct_operator.leaf_sum(np.exp(log_w) * TREE_G(ys))
    assert np.array_equal(apply_transfer_tree(bmap, TREE_POT, TREE_G, x, depth), want)
    ys, log_w, vel, d_log_w = level_by_level(bmap, TREE_POT, x, depth, h_sine)
    want = ct_operator.leaf_sum(np.exp(log_w) * (TREE_G.derivative(ys) * vel
                                                 + TREE_G(ys) * d_log_w))
    got = d_transfer_n_d_dynamics(bmap, TREE_POT, TREE_G, h_sine, x, depth)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("bmap, x, depth", SMALL_TREES + LARGE_TREES)
def test_tree_sums_are_bit_identical_to_the_level_by_level_expansion(bmap, x, depth):
    assert_tree_sums_match_the_expansion(bmap, x, depth)


@pytest.mark.parametrize("bmap, x, depth", SMALL_TREES)
def test_small_blocks_put_every_leaf_in_its_slot(monkeypatch, bmap, x, depth):
    # 16-point blocks split the roots and most levels into chunks
    monkeypatch.setattr(ct_operator, "TREE_BLOCK", 16)
    ys, log_w, vel, d_log_w = level_by_level(bmap, TREE_POT, x, depth, h_sine)
    for i, want in enumerate((ys, log_w, vel, d_log_w)):
        got = ct_operator.preimage_tree(bmap, TREE_POT, x, depth,
                                        lambda *leaf: leaf[i], h_sine)
        assert np.array_equal(got, want)
    assert_tree_sums_match_the_expansion(bmap, x, depth)


def test_tree_walk_leaves_no_reference_cycle():
    # a cycle would hold the leaf array until the cyclic collector runs, and
    # the process would keep that memory across calls
    mp = manneville_pomeau(1.0)
    gc.collect()
    gc.disable()
    try:
        apply_transfer_tree(mp, TREE_POT, TREE_G, 0.3, 17)
        d_transfer_n_d_dynamics(mp, TREE_POT, TREE_G, h_sine, 0.3, 17)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tree_oracle_memory_is_its_leaves_plus_blocks():
    # 2^20 leaves hold 8.4 MB; the level-by-level expansion peaked at 102 MB
    tracemalloc.start()
    try:
        pressure_oracle_tree(manneville_pomeau(1.0), TREE_POT, 0.3, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24e6


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def test_hand_assembled_two_cell_matrix():
    op = discretize(doubling(), zero_potential(), Discretization(n=2))
    assert np.allclose(op.matrix, [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)


@pytest.mark.parametrize("interpolation", ["linear", "fourier"])
def test_collocation_row_sums_constant_potential(interpolation):
    for bmap in (doubling(), manneville_pomeau(1.0), translated_doubling(0.2)):
        op = discretize(bmap, constant(0.3), Discretization(n=64, interpolation=interpolation))
        target = bmap.degree * math.exp(0.3)
        row_sums = np.asarray(op.storage.sum(axis=1)).ravel()
        assert np.max(np.abs(row_sums - target)) < 5e-13


@pytest.mark.parametrize("bmap", builtin_maps(), ids=lambda m: m.family_tag)
def test_ulam_entries_nonnegative(bmap):
    pot = trig_polynomial(cos_coeffs=[0.02])
    op = discretize(bmap, pot, Discretization(n=128, scheme="ulam"))
    assert np.min(op.matrix) >= 0.0


def test_two_scheme_agreement_all_builtin_families():
    # |lam_coll - lam_ulam| within 10x the larger grid-doubling drift
    pot = trig_polynomial(cos_coeffs=[0.003])
    for bmap in builtin_maps():
        lam = {}
        for scheme in ("collocation", "ulam"):
            for n in (256, 512):
                lam[(scheme, n)] = float(leading_triple(
                    discretize(bmap, pot, Discretization(n=n, scheme=scheme))).lam)
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
                discretize(mp, pot, Discretization(n=n, scheme=scheme))).lam)
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
        op = discretize(mp, pot, Discretization(n=n))
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


def test_cell_rule_sits_at_midpoints_and_interpolates_between_them():
    rng = np.random.Generator(np.random.Philox(key=12))
    vals = rng.standard_normal(8)
    gf = GridFunction(Grid(8), vals, "cell")
    assert np.array_equal(gf.sites, (np.arange(8) + 0.5) / 8)
    assert np.max(np.abs(gf(gf.sites) - vals)) < 1e-15
    # halfway between neighbouring sites: their mean, across the seam too
    halfway = np.append(gf.sites[:-1] + 1 / 16, [0.0, 1.0])
    means = np.append(0.5 * (vals[:-1] + vals[1:]), [0.5 * (vals[-1] + vals[0])] * 2)
    assert np.max(np.abs(gf(halfway) - means)) < 1e-15
    assert gf.derivative().interpolation == "cell"
    for rule in ("linear", "fourier"):
        assert np.array_equal(GridFunction(Grid(8), vals, rule).sites, Grid(8).nodes)
    ulam = discretize(doubling(), zero_potential(), Discretization(n=16, scheme="ulam"))
    assert ulam.disc.rule == ulam.grid_function(np.ones(16)).interpolation == "cell"


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is float64 on this platform")
def test_linear_grid_function_evaluates_in_the_precision_of_its_points():
    # values i/16 interpolate to x itself; float64 values at longdouble
    # points are evaluated at the longdouble points, not at rounded ones
    pot = grid_potential(np.arange(16) / 16, "linear")
    x = np.linspace(np.longdouble(0), np.longdouble(0.9), 1001)
    y = pot(x)
    assert y.dtype == np.longdouble
    assert np.array_equal(y, x)
    # float64 points keep the float64 formula bit for bit
    x64 = np.linspace(0.0, 0.9, 1001) + 1 / 3
    gf = GridFunction(Grid(16), np.cos(np.arange(16.0)), "linear")
    pos = ct_operator.wrap(x64) * 16
    idx = np.floor(pos).astype(int) % 16
    frac = pos - np.floor(pos)
    ref = gf.values[idx] * (1.0 - frac) + gf.values[(idx + 1) % 16] * frac
    assert np.array_equal(gf(x64), ref)


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


def _trig_interp_matrix_row_loop(points, n, dtype=np.float64):
    """The cardinal matrix as it was built before the in-place kernel: the reference."""
    pts = np.asarray(points, dtype=dtype).ravel()
    xk = np.arange(n, dtype=dtype) / np.asarray(n, dtype=dtype)
    w = np.where(np.arange(n) % 2 == 0, 1.0, -1.0).astype(dtype)
    pi = np.pi if pts.dtype == np.float64 else 4 * np.arctan(np.ones((), pts.dtype))
    d = pi * (pts[:, None] - xk[None, :])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kern = 1.0 / np.tan(d) if n % 2 == 0 else 1.0 / np.sin(d)
    num = kern * w
    denom = num.sum(axis=1)
    with np.errstate(invalid="ignore"):
        t = num / denom[:, None]
    bad = ~np.all(np.isfinite(t), axis=1)
    for p in np.nonzero(bad)[0]:
        t[p] = 0.0
        t[p, int(np.argmin(np.abs(d[p])))] = 1.0
    return t


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", [16, 17, 64, 65])
def test_trig_interp_matrix_matches_row_loop_bit_for_bit(n, dtype):
    rng = np.random.default_rng(n)
    nodes = np.arange(n) / n
    pts = np.concatenate([
        rng.random(200),
        nodes[::3],                              # on a node: one-hot rows
        nodes[1::5] + 1e-17, [1e-310, 0.0, 1.0 - 2.0 ** -53],
        perturbed_doubling(0.1).preimages(nodes).ravel(),
    ]).astype(dtype)
    got = trig_interp_matrix(pts, n, dtype)
    assert got.dtype == dtype
    ref = _trig_interp_matrix_row_loop(pts, n, dtype)
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
    assert np.count_nonzero(np.max(got, axis=1) == 1.0) >= len(nodes[::3])


def test_fourier_differentiation_matches_trig():
    gf = GridFunction(Grid(32), np.sin(2 * np.pi * np.arange(32) / 32), "fourier")
    dgf = gf.derivative()
    expect = 2 * np.pi * np.cos(2 * np.pi * gf.grid.nodes)
    assert np.max(np.abs(dgf.values - expect)) < 1e-10


def test_operator_csv_export_roundtrip(tmp_path):
    op = discretize(doubling(), constant(0.1), Discretization(n=16))
    path = tmp_path / "op.csv"
    op.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and "scheme=collocation" in lines[0]
    assert "map=doubling" in lines[0] and "N=16" in lines[0]
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(data, np.asarray(op.matrix, dtype=float))


@pytest.mark.parametrize("block_rows", [None, 5])
@pytest.mark.parametrize("scheme", ["collocation", "ulam"])
def test_csr_export_matches_dense_rows_and_caches_no_dense_copy(tmp_path, monkeypatch,
                                                                 scheme, block_rows):
    n = 96
    op = discretize(perturbed_doubling(0.1), trig_polynomial(cos_coeffs=[0.3]),
                    Discretization(n=n, scheme=scheme))
    assert sparse.issparse(op.storage)
    if block_rows is not None:     # 20 blocks, the last one short
        monkeypatch.setattr(ct_operator, "CSV_BLOCK_BYTES", 8 * n * block_rows)
    op.export_csv(tmp_path / "operator.csv")
    body = (tmp_path / "operator.csv").read_text().split("\n", 1)[1]
    assert body == "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                           for row in op.storage.toarray())
    assert op._dense is None


def test_extended_precision_triplets_sum_like_scipy():
    setup = OperatorSetup(manneville_pomeau(0.5), Discretization(n=96), dtype=np.longdouble)
    rows, cols = np.tile(setup._rows, 3), np.tile(setup._cols, 3)   # summed in order
    vals = np.linspace(0.1, 2.0, rows.size, dtype=np.longdouble) / 3
    got = ct_operator._from_triplets(rows, cols, vals, 96, np.longdouble)
    ref = sparse.coo_matrix((vals, (rows, cols)), shape=(96, 96),
                            dtype=np.longdouble).toarray()
    assert got.dtype == np.longdouble and got.tobytes() == ref.tobytes()


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
    disc = Discretization(n=96, scheme=scheme, interpolation=interpolation)
    setup = OperatorSetup(mp, disc, dtype)
    setup.operator(log_derivative_weight(-1.0, mp))   # an earlier sweep point
    pot = trig_polynomial(cos_coeffs=[0.2], sin_coeffs=[0.0, 0.05])
    reused = setup.operator(pot)
    fresh = discretize(mp, pot, disc, dtype=dtype)
    a, b = _dense(reused), _dense(fresh)
    assert a.dtype == b.dtype
    if scheme == "collocation":
        assert np.array_equal(a, b)
    else:
        assert np.array_equal(a != 0, b != 0)
        assert np.max(np.abs(a - b) / np.where(b != 0, np.abs(b), 1.0)) <= 1e-15
        assert reused.dropped_entries == fresh.dropped_entries
    assert reused.potential is pot


@pytest.mark.parametrize("scheme,interpolation,dtype", [
    ("collocation", "linear", np.float64),
    ("collocation", "fourier", np.float64),
    ("ulam", "linear", np.float64),
    ("collocation", "linear", np.longdouble),
    ("collocation", "fourier", np.longdouble),
])
def test_block_products_match_assembled_operators(scheme, interpolation, dtype):
    mp = manneville_pomeau(0.5)
    setup = OperatorSetup(mp, Discretization(n=96, scheme=scheme, interpolation=interpolation),
                          dtype)
    pots = [log_derivative_weight(-1.0, mp) + t * trig_polynomial(cos_coeffs=[1.0])
            for t in (-0.3, 0.0, 0.2)]
    block = OperatorBlock(setup, pots)
    rng = np.random.Generator(np.random.Philox(key=5))
    v, w = (rng.random((96, 3)).astype(dtype) for _ in range(2))
    ops = [setup.operator(pot) for pot in pots]
    eps = float(np.finfo(dtype).eps)

    def close(block_product, products):
        for k, product in enumerate(products):
            assert block_product.dtype == dtype
            err = np.max(np.abs(block_product[:, k] - product)) / np.max(np.abs(product))
            assert err <= 64 * eps, (k, err)

    close(block.apply(v), [op.apply(v[:, k]) for k, op in enumerate(ops)])
    close(block.apply_left(w), [op.apply_left(w[:, k]) for k, op in enumerate(ops)])
    block.keep(np.array([True, False, True]))
    close(block.apply(v[:, [0, 2]]), [ops[0].apply(v[:, 0]), ops[2].apply(v[:, 2])])
    assert block.operator(1).potential is pots[1]


@pytest.mark.parametrize("kwargs", [
    {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0}, {"tol": -1e-12},
    {"max_iter": 0}, {"max_iter": -1}, {"max_iter": 2.5}, {"max_iter": True}, {"n": 64.0},
    {"n": True},
], ids=["tol-nan", "tol-inf", "tol-zero", "tol-negative", "max_iter-zero", "max_iter-negative",
        "max_iter-float", "max_iter-bool", "n-float", "n-bool"])
def test_discretization_refuses_limits_it_cannot_use(kwargs):
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        Discretization(**kwargs)


def test_discretization_takes_numpy_integers():
    disc = Discretization(n=np.int64(64), max_iter=np.int32(7))
    assert disc.grid.n_cells == 64 and disc.max_iter == 7


@pytest.mark.parametrize("scheme,interpolation", [("collocation", "fourier"),
                                                  ("collocation", "linear"),
                                                  ("ulam", "linear")])
@pytest.mark.parametrize("pot,reaches", [(constant(800.0), "800"),
                                         (constant(float("nan")), "nan")],
                         ids=["overflow", "nan"])
def test_non_finite_weights_are_refused_before_any_solve(scheme, interpolation, pot, reaches):
    setup = OperatorSetup(doubling(), Discretization(n=64, scheme=scheme,
                                                     interpolation=interpolation))
    with pytest.raises(ConfigError, match=f"not finite in float64.*reaches {reaches}"):
        setup.operator(pot)
    with pytest.raises(ConfigError, match=f"reaches {reaches}"):
        OperatorBlock(setup, [zero_potential(), pot])


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
    # each node is the pressure difference of freshly built operators, to
    # rounding: the block applies the cards without assembling them
    p0 = math.log(leading_triple(discretize(doubling(), zero_potential(), disc)).lam)
    for t, value in zip(curve.nodes, curve.node_values):
        pt = math.log(leading_triple(discretize(doubling(), zero_potential() + float(t) * psi,
                                                disc)).lam)
        assert abs(value - (pt - p0)) <= 1e-14


def test_ulam_wrap_handling_translated_family():
    # the branch seam sits mid-cell for the translated family; mass must be
    # conserved across the wrap
    bmap = translated_doubling(0.13)
    op = discretize(bmap, zero_potential(), Discretization(n=64, scheme="ulam"))
    tr = leading_triple(op)
    assert float(tr.lam) == pytest.approx(2.0, abs=1e-6)


def _ulam_pieces_by_cell_loop(bmap, n):
    """Ulam arc pieces, one preimage arc and one cell at a time, in the
    order (r, i, j): rows, cols, midpoints, widths and the dropped count."""
    d, c0, b = bmap.degree, bmap._lift0, bmap.branch_bounds

    def invert(u):
        k = np.minimum(np.floor(u - c0), d - 1).astype(int)
        return monotone_root(lambda y: (bmap.lift(y), lambda i: bmap.dlift(y[i])),
                             u, b[k], b[k + 1], c0 + k, c0 + k + 1)

    rows, cols, mids, widths, dropped = [], [], [], [], 0
    x_left = np.arange(n) / n
    x_right = np.append(x_left[1:], 1.0)
    for r in range(d + 1):
        m = np.ceil(c0 - x_right) + r
        u_lo, u_hi = (np.clip(x + m, c0, c0 + d) for x in (x_left, x_right))
        keep = u_hi - u_lo > 0.0
        if not np.any(keep):
            continue
        for i, p, q in zip(np.nonzero(keep)[0], invert(u_lo[keep]), invert(u_hi[keep])):
            j = math.floor(p * n)
            while j / n < q:
                lo, hi = max(p, j / n), min(q, (j + 1) / n)
                if hi - lo >= 1e-14:
                    rows.append(i)
                    cols.append(j % n)
                    mids.append(0.5 * (lo + hi))
                    widths.append(hi - lo)
                elif hi - lo > 0.0:
                    dropped += 1
                j += 1
    return np.array(rows), np.array(cols), np.array(mids), np.array(widths), dropped


def _sorted_triplets(rows, cols, mids, factors):
    key = np.lexsort((factors, mids, cols, rows))
    return rows[key], cols[key], mids[key], factors[key]


# translated doubling s = 0.25 puts its seam F(0) = 0.5 on a node for even N
@pytest.mark.parametrize("bmap", builtin_maps() + [manneville_pomeau(0.5),
                                                   translated_doubling(0.25)],
                         ids=lambda m: f"{m.family_tag}{m.family_params}")
def test_ulam_setup_matches_cell_loop_bit_for_bit(bmap):
    for n in [*range(2, 12), 64, 257]:
        setup = OperatorSetup(bmap, Discretization(n=n, scheme="ulam"))
        rows, cols, mids, widths, dropped = _ulam_pieces_by_cell_loop(bmap, n)
        assert setup.dropped_entries == dropped
        got = _sorted_triplets(setup._rows, setup._cols, setup.points, setup._factors)
        ref = _sorted_triplets(rows, cols, mids, np.asarray(bmap.dlift(mids)) * widths * n)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("kwargs,dtype,match", [
    ({"interpolation": "fourier"}, np.float64, "discretization.interpolation"),
    ({}, np.longdouble, "float64 only"),
    ({}, np.float32, "float64 only"),
], ids=["fourier", "longdouble", "float32"])
def test_ulam_refuses_what_it_would_ignore_before_assembly(monkeypatch, kwargs, dtype, match):
    def no_assembly(self, x):
        raise AssertionError("preimages inverted before the refusal")

    monkeypatch.setattr(BranchMap, "preimages", no_assembly)
    with pytest.raises(ConfigError, match=match):
        discretize(doubling(), zero_potential(),
                   Discretization(n=64, scheme="ulam", **kwargs), dtype=dtype)


def test_ulam_setup_inverts_the_nodes_once(monkeypatch):
    calls = []
    preimages = BranchMap.preimages

    def counted(self, x):
        calls.append(np.array(x, copy=True))
        return preimages(self, x)

    monkeypatch.setattr(BranchMap, "preimages", counted)
    OperatorSetup(manneville_pomeau(0.5), Discretization(n=64, scheme="ulam"))
    assert len(calls) == 1
    assert np.array_equal(calls[0], Grid(64).nodes)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is float64 on this platform")
def test_longdouble_collocation_preimages_polish_below_float64():
    disc = Discretization(n=257)
    ys = OperatorSetup(linear_map(3), disc, dtype=np.longdouble).points
    assert ys.dtype == np.longdouble
    u = np.asarray(disc.grid.nodes, dtype=np.longdouble)
    targets = u[None, :] + np.arange(3, dtype=np.longdouble)[:, None]
    assert np.max(np.abs(3 * ys - targets)) <= 1e-18


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is float64 on this platform")
@pytest.mark.parametrize("interpolation", ["linear", "fourier"])
def test_longdouble_operator_weights_below_float64(interpolation):
    # under -log f' each of the three preimages weighs 1/3, so L 1 = 1
    setup = OperatorSetup(linear_map(3), Discretization(n=64, interpolation=interpolation),
                          dtype=np.longdouble)
    op = setup.operator(log_derivative_weight(-1.0, linear_map(3)))
    ones_ld = np.ones(64, dtype=np.longdouble)
    assert np.max(np.abs(op.apply(ones_ld) - 1)) <= 1e-17


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is float64 on this platform")
def test_longdouble_fourier_interpolant_and_derivative_keep_longdouble():
    ld = np.longdouble
    two_pi = 8 * np.arctan(ld(1))
    x = np.arange(16, dtype=ld) / 16
    f = GridFunction(Grid(16), np.cos(two_pi * x), "fourier")
    pts = np.linspace(ld(0), ld(1), 101, dtype=ld) + ld(1) / 7
    assert np.max(np.abs(f(pts) - np.cos(two_pi * pts))) <= 1e-18
    df = f.derivative()
    assert df.values.dtype == ld
    assert np.max(np.abs(df.values + two_pi * np.sin(two_pi * x))) <= 1e-17
