"""Leading triples, gap estimates, and resolvent solves."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy import sparse

import circthermo.spectral as spectral
from circthermo import (ConfigError, Discretization, SchemeQualityError, constant,
                        SolverError, discretize,
                        doubling, gap_estimate, leading_triple, linear_map,
                        log_derivative_weight, manneville_pomeau,
                        perturbed_doubling, resolvent_solve, trig_polynomial,
                        zero_potential)
from circthermo.operator import DiscretizedOperator, OperatorSetup


@pytest.mark.parametrize("scheme,interpolation", [("collocation", "linear"),
                                                  ("collocation", "fourier"),
                                                  ("ulam", "linear")])
def test_doubling_maximal_entropy_triple(scheme, interpolation):
    op = discretize(doubling(), zero_potential(),
                    Discretization(n=64, scheme=scheme, interpolation=interpolation))
    tr = leading_triple(op)
    assert float(tr.lam) == pytest.approx(2.0, abs=1e-10)
    assert np.max(np.abs(tr.h.values - 1.0)) < 1e-9
    assert np.max(np.abs(tr.nu - 1.0 / 64)) < 1e-9
    assert abs(float(tr.h.values @ tr.nu) - 1.0) < 1e-12
    assert tr.residual_right < 1e-10 and tr.residual_left < 1e-10


def test_constant_shift_scales_eigenvalue_only():
    disc = Discretization(n=64, interpolation="fourier")
    pot = trig_polynomial(cos_coeffs=[0.05])
    t0 = leading_triple(discretize(doubling(), pot, disc))
    tc = leading_triple(discretize(doubling(), pot + 0.8, disc))
    assert float(tc.lam) / math.exp(0.8) == pytest.approx(float(t0.lam), rel=1e-13)
    assert np.max(np.abs(tc.h.values - t0.h.values)) < 1e-10
    assert np.max(np.abs(tc.nu - t0.nu)) < 1e-10


def test_lebesgue_conformal_for_linear_geometric_potential():
    m3 = linear_map(3)
    tr = leading_triple(discretize(m3, log_derivative_weight(-1.0, m3),
                                   Discretization(n=81)))
    assert float(tr.lam) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(tr.nu - 1.0 / 81)) < 1e-10


def test_gap_doubling_fourier_nilpotent():
    op = discretize(doubling(), zero_potential(), Discretization(n=64, interpolation="fourier"))
    tr = leading_triple(op)
    tau = gap_estimate(op, tr)
    assert tau <= 1e-10


def test_gap_invariant_under_constant_shift():
    pot = trig_polynomial(cos_coeffs=[0.03])
    disc = Discretization(n=128)
    op0 = discretize(doubling(), pot, disc)
    opc = discretize(doubling(), pot + 0.6, disc)
    tau0 = gap_estimate(op0, leading_triple(op0))
    tauc = gap_estimate(opc, leading_triple(opc))
    assert tauc == pytest.approx(tau0, abs=1e-8)


def test_gap_stable_under_grid_doubling_mp():
    mp = manneville_pomeau(0.5)
    pot = log_derivative_weight(-0.1, mp)
    taus = []
    for n in (512, 1024):
        op = discretize(mp, pot, Discretization(n=n))
        taus.append(gap_estimate(op, leading_triple(op)))
    assert 0.0 < taus[0] < 1.0
    assert abs(taus[0] - taus[1]) < 0.05


def test_resolvent_trivial_and_cos():
    op = discretize(doubling(), zero_potential(), Discretization(n=64, interpolation="fourier"))
    tr = leading_triple(op)
    zero = resolvent_solve(tr, np.zeros(64))
    assert np.max(np.abs(zero)) < 1e-14
    v = np.cos(2 * np.pi * op.grid.nodes)
    u = resolvent_solve(tr, v)
    assert np.max(np.abs(u - v)) < 1e-12


def _mp_resolvent_problem(dtype):
    mp = manneville_pomeau(1.0)
    pot = trig_polynomial(cos_coeffs=[0.004])
    tr = leading_triple(discretize(mp, pot, Discretization(n=256), dtype=dtype))
    rng = np.random.Generator(np.random.Philox(key=17))
    nodes = np.asarray(tr.op.grid.nodes, dtype=dtype)
    raw = np.cos(2 * np.pi * np.outer(np.arange(1, 5), nodes)).T @ rng.standard_normal(4)
    return tr, tr.project_zero_mean(raw)


def test_extended_resolvent_matches_float64():
    tr64, v64 = _mp_resolvent_problem(np.float64)
    tr_ld, v_ld = _mp_resolvent_problem(np.longdouble)
    u64 = resolvent_solve(tr64, v64)
    u_ld = resolvent_solve(tr_ld, v_ld)
    assert u_ld.dtype == np.longdouble
    assert float(np.max(np.abs(u_ld - u64))) < 1e-9


def test_resolvent_solves_defining_system():
    tr, v = _mp_resolvent_problem(np.float64)
    u = resolvent_solve(tr, v)
    resid = u - tr.normalized_apply(u) - v
    resid -= tr.integrate_nu(resid) * tr.h.values
    assert np.max(np.abs(resid)) < 1e-9


def test_resolvent_rejects_nonzero_mean():
    op = discretize(doubling(), zero_potential(), Discretization(n=32))
    tr = leading_triple(op)
    with pytest.raises(ConfigError, match="nonzero"):
        resolvent_solve(tr, np.ones(32) * 0.5)


def test_extended_precision_resolvent_returns_longdouble():
    op = discretize(doubling(), trig_polynomial(cos_coeffs=[0.1]), Discretization(n=32),
                    dtype=np.longdouble)
    tr = leading_triple(op)
    v = tr.project_zero_mean(np.cos(2 * np.pi * op.grid.nodes))
    assert resolvent_solve(tr, v).dtype == np.longdouble


def _zero_mean_residual(tr, u, v):
    """Relative residual of (I - Ltilde) u = v on E_0, in the triple's dtype.

    The projection removes the border's c h term, which absorbs the
    eigenvector residual of a triple converged only to tol.
    """
    resid = tr.project_zero_mean(u - tr.normalized_apply(u) - v)
    return float(np.max(np.abs(resid))) / max(1.0, float(np.max(np.abs(v))),
                                              float(np.max(np.abs(u))))


def _resolvent_setups():
    mp = manneville_pomeau(0.5)
    return [(doubling(), trig_polynomial(cos_coeffs=[0.1]),
             Discretization(n=64, interpolation="fourier")),
            (mp, log_derivative_weight(-1.0, mp), Discretization(n=512))]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is float64 on this platform")
@pytest.mark.parametrize("bmap,pot,disc", _resolvent_setups(),
                         ids=["doubling-fourier-64", "mp0.5-geometric-linear-512"])
def test_extended_resolvent_refines_below_float64(bmap, pot, disc):
    # refinement on the float64 border reaches longdouble accuracy without tau,
    # also at tau = 0.97, where any series in Ltilde costs about 1/(1 - tau) terms
    tr = leading_triple(discretize(bmap, pot, disc, dtype=np.longdouble))
    v = tr.project_zero_mean(np.cos(2 * np.pi * np.asarray(tr.op.grid.nodes,
                                                           dtype=np.longdouble)))
    u = resolvent_solve(tr, v)
    assert _zero_mean_residual(tr, u, v) <= 1e-18
    assert tr.tau is None


@pytest.mark.parametrize("bmap,pot,disc", _resolvent_setups(),
                         ids=["doubling-fourier-64", "mp0.5-geometric-linear-512"])
def test_float64_resolvent_is_one_border_solve(bmap, pot, disc):
    # a float64 triple takes no refinement pass: its solution is bit for bit
    # the single solve of the cached factor, projected onto zero mean
    tr = leading_triple(discretize(bmap, pot, disc))
    factor = spectral._resolvent_factor(tr)
    outputs = []

    def spy(rhs):
        outputs.append(factor(rhs))
        return outputs[-1]

    tr.resolvent_factor = spy
    for calls, k in enumerate((1, 3, 5), start=1):
        u = resolvent_solve(tr, tr.project_zero_mean(np.cos(2 * np.pi * k * tr.op.grid.nodes)))
        assert len(outputs) == calls
        ref = outputs[-1][:-1]
        assert u.tobytes() == (ref - tr.integrate_nu(ref) * tr.h.values).tobytes()


def test_resolvent_refuses_gapless():
    op = discretize(doubling(), zero_potential(), Discretization(n=32))
    tr = leading_triple(op)
    tr.tau = 1.0 - 1e-9
    with pytest.raises(SolverError, match="not summable"):
        resolvent_solve(tr, tr.project_zero_mean(np.cos(2 * np.pi * op.grid.nodes)))


@pytest.mark.parametrize("interpolation,is_sparse", [("linear", True),
                                                     ("fourier", False)])
def test_singular_border_raises_solver_error(interpolation, is_sparse):
    # zero conformal weights make the border row, and so the system, singular;
    # the gap is known beforehand, so only the solve itself can notice
    op = discretize(doubling(), zero_potential(),
                    Discretization(n=32, interpolation=interpolation))
    assert sparse.issparse(op.storage) == is_sparse
    tr = leading_triple(op)
    assert gap_estimate(op, tr) < 0.5
    v = tr.project_zero_mean(np.cos(2 * np.pi * op.grid.nodes))
    tr.nu = np.zeros_like(tr.nu)
    with pytest.raises(SolverError):
        resolvent_solve(tr, v)


@pytest.mark.filterwarnings("error")
def test_dense_singular_border_raises_without_linalg_warning():
    # the zero pivot of the dense solve must come out as the typed error,
    # with every warning escalated so that none may precede it
    op = discretize(doubling(), zero_potential(), Discretization(n=32, interpolation="fourier"))
    assert not sparse.issparse(op.storage)
    tr = leading_triple(op)
    v = tr.project_zero_mean(np.cos(2 * np.pi * op.grid.nodes))
    tr.nu = np.zeros_like(tr.nu)
    with pytest.raises(SolverError, match="singular"):
        resolvent_solve(tr, v)


def test_dual_convergence_rate_bounded_by_gap():
    mp = manneville_pomeau(0.5)
    pot = log_derivative_weight(-0.1, mp)
    tr = leading_triple(discretize(mp, pot, Discretization(n=512)))
    tau = gap_estimate(tr.op, tr)
    rng = np.random.Generator(np.random.Philox(key=8))
    xi = rng.random(512)
    xi /= xi.sum()
    phi_test = np.cos(2 * np.pi * tr.op.grid.nodes)
    target = float((tr.h.values @ xi) * (phi_test @ tr.nu))
    vals = []
    w = xi.copy()
    for _ in range(40):
        w = (w @ tr.op.matrix) / tr.lam
        vals.append(abs(float(phi_test @ w) - target))
    vals = np.asarray(vals)
    mask = vals > 1e-13
    ns = np.arange(1, 41)[mask]
    rate = math.exp(np.polyfit(ns, np.log(vals[mask]), 1)[0])
    assert rate <= tau + 0.05


def test_negative_mass_aborts_with_scheme_error():
    # a strong tilt makes the fourier left vector lose positivity
    with pytest.raises(SchemeQualityError, match="negative mass"):
        leading_triple(discretize(doubling(), trig_polynomial(cos_coeffs=[-1.2]),
                                  Discretization(n=128, interpolation="fourier")))


def test_no_convergence_raises_with_residual():
    op = discretize(manneville_pomeau(1.0), trig_polynomial(cos_coeffs=[0.01]),
                    Discretization(n=64, tol=1e-13, max_iter=2))
    with pytest.raises(SolverError, match="residual"):
        leading_triple(op)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_nonpositive_max_iter_refused(max_iter):
    # the cap reaches leading_triple only through the operator's Discretization
    op = discretize(doubling(), zero_potential(), Discretization(n=32))
    with pytest.raises(ConfigError, match="max_iter"):
        leading_triple(replace(op, disc=replace(op.disc, max_iter=max_iter)))


def test_one_shot_triple_obeys_the_iteration_cap():
    # slow mixing: unconverged after 2 steps, however the operator was built
    mp = manneville_pomeau(0.5)
    op = discretize(mp, log_derivative_weight(-1.0, mp), Discretization(n=256, max_iter=2))
    with pytest.raises(SolverError, match="no eigenvalue convergence in 2 iterations"):
        leading_triple(op)


def test_one_shot_and_setup_triples_obey_the_same_tolerance():
    bmap, pot = doubling(), trig_polynomial(cos_coeffs=[0.1])
    disc = Discretization(n=64, tol=1e-6)
    one_shot = leading_triple(discretize(bmap, pot, disc))
    swept = leading_triple(OperatorSetup(bmap, disc).operator(pot))
    tight = leading_triple(discretize(bmap, pot, Discretization(n=64)))
    assert one_shot.iterations == swept.iterations < tight.iterations
    assert np.asarray(one_shot.lam).tobytes() == np.asarray(swept.lam).tobytes()


@pytest.fixture(scope="module", params=["collocation", "ulam"])
def mp_physical_triple(request):
    mp = manneville_pomeau(0.5)
    op = discretize(mp, log_derivative_weight(-1.0, mp),
                    Discretization(n=512, scheme=request.param))
    return leading_triple(op)


def test_local_stencils_are_stored_sparse(mp_physical_triple):
    assert sparse.issparse(mp_physical_triple.op.storage)
    fourier = discretize(doubling(), zero_potential(),
                         Discretization(n=64, interpolation="fourier"))
    extended = discretize(doubling(), zero_potential(), Discretization(n=64),
                          dtype=np.longdouble)
    assert not sparse.issparse(fourier.storage)
    assert not sparse.issparse(extended.storage)


def test_sparse_triple_matches_dense_eig(mp_physical_triple):
    tr = mp_physical_triple
    vals, left, right = scipy.linalg.eig(tr.op.matrix, left=True)
    lead = np.argmax(np.abs(vals))
    nu = left[:, lead].real
    nu = nu / nu.sum()
    h = right[:, lead].real
    h = h / (h @ nu)
    assert abs(float(tr.lam) - vals[lead].real) <= 1e-10 * abs(vals[lead])
    assert np.max(np.abs(tr.h.values - h)) <= 1e-10 * np.max(np.abs(h))
    assert np.max(np.abs(tr.nu - nu)) <= 1e-10 * np.max(np.abs(nu))


def test_sparse_gap_matches_dense_eigvals(mp_physical_triple):
    tr = mp_physical_triple
    moduli = np.sort(np.abs(np.linalg.eigvals(tr.op.matrix)))[::-1]
    assert gap_estimate(tr.op, tr) == pytest.approx(moduli[1] / moduli[0], abs=1e-8)


def test_sparse_resolvent_matches_dense_solve_and_factors_once(mp_physical_triple,
                                                               monkeypatch):
    tr = mp_physical_triple
    tr.resolvent_factor = None
    calls = []
    real_splu = scipy.sparse.linalg.splu

    def counting_splu(a):
        calls.append(a.shape)
        return real_splu(a)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    n = tr.op.grid.n_cells
    nodes = tr.op.grid.nodes
    mat = tr.op.matrix
    aug = np.eye(n) - mat / tr.lam + np.outer(tr.h.values, tr.nu)
    for k in (1, 3):
        rhs = tr.project_zero_mean(np.cos(2 * np.pi * k * nodes))
        u = resolvent_solve(tr, rhs)
        ref = np.linalg.solve(aug, rhs)
        assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert calls == [(n + 1, n + 1)]


def test_sparse_path_allocates_no_dense_matrix():
    n = 2048
    tracemalloc.start()
    try:
        op = discretize(doubling(), trig_polynomial(cos_coeffs=[0.2]),
                        Discretization(n=n))
        tr = leading_triple(op)
        gap_estimate(op, tr)
        resolvent_solve(tr, tr.project_zero_mean(np.cos(2 * np.pi * op.grid.nodes)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n           # an eighth of one dense N x N float64 array


# --- scipy's solvers, imported where they are called ------------------------

def test_unknown_attribute_raises_naming_the_module():
    with pytest.raises(AttributeError, match="'circthermo.spectral' has no attribute "
                                             "'no_such_name'"):
        spectral.no_such_name


def test_patched_solvers_are_the_ones_called(monkeypatch):
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    for module, name in ((scipy.sparse.linalg, "eigs"), (scipy.sparse.linalg, "splu"),
                         (np.linalg, "solve")):
        spy(module, name)
    mp = manneville_pomeau(0.5)
    csr = leading_triple(discretize(mp, log_derivative_weight(-1.0, mp),
                                    Discretization(n=362)))
    assert calls == ["eigs", "eigs"]            # the Arnoldi handover, right and left
    resolvent_solve(csr, csr.project_zero_mean(np.cos(2 * np.pi * csr.op.grid.nodes)))
    assert calls == ["eigs", "eigs", "splu"]
    dense = leading_triple(discretize(doubling(), trig_polynomial(cos_coeffs=[0.2]),
                                      Discretization(n=64, interpolation="fourier")))
    resolvent_solve(dense, dense.project_zero_mean(np.cos(2 * np.pi * dense.op.grid.nodes)))
    assert calls == ["eigs", "eigs", "splu", "solve"]


# --- Arnoldi handover -------------------------------------------------------

def _power_only(monkeypatch, op):
    """The triple from two-sided power iteration alone, with no handover."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "ARNOLDI_HANDOVER", 10 ** 9)
        return leading_triple(op)


@pytest.fixture(scope="module", params=["collocation", "ulam"])
def mp_physical_362(request):
    mp = manneville_pomeau(0.5)
    return discretize(mp, log_derivative_weight(-1.0, mp),
                      Discretization(n=362, scheme=request.param))


def test_handover_triple_matches_dense_eig(mp_physical_362):
    op = mp_physical_362
    tr = leading_triple(op)
    assert tr.iterations > spectral.ARNOLDI_HANDOVER   # the slow gap reached Arnoldi
    vals, right = np.linalg.eig(op.matrix)
    lead = np.argmax(np.abs(vals))
    lvals, left = np.linalg.eig(op.matrix.T)
    nu = left[:, np.argmax(np.abs(lvals))].real
    nu = nu / nu.sum()
    h = right[:, lead].real
    h = h / (h @ nu)
    assert abs(float(tr.lam) - vals[lead].real) <= 1e-12 * abs(vals[lead])
    assert np.max(np.abs(tr.h.values - h)) <= 1e-10
    assert np.sum(np.abs(tr.nu - nu)) <= 1e-10
    rtol = max(1e-12, 50.0 * op.grid.n_cells * np.finfo(float).eps)
    assert max(tr.residual_right, tr.residual_left) <= rtol


def test_handover_takes_fewer_applications_than_power(mp_physical_362, monkeypatch):
    fast = leading_triple(mp_physical_362)
    slow = _power_only(monkeypatch, mp_physical_362)
    assert fast.iterations < slow.iterations
    assert float(fast.lam) == pytest.approx(float(slow.lam), rel=1e-13)


def test_handover_passes_eigs_no_rng(mp_physical_362, monkeypatch):
    real_eigs = scipy.sparse.linalg.eigs
    calls = []

    def eigs_without_rng(a, k, v0):   # refuses every other keyword, rng included
        calls.append(k)
        return real_eigs(a, k=k, v0=v0)

    ref = leading_triple(mp_physical_362)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", eigs_without_rng)
    tr = leading_triple(mp_physical_362)
    assert calls == [1, 1]
    assert np.asarray(tr.lam).tobytes() == np.asarray(ref.lam).tobytes()


@pytest.mark.parametrize("fmap,pot,disc", [
    (doubling(), trig_polynomial(cos_coeffs=[0.01], sin_coeffs=[0.004]),
     Discretization(n=256, interpolation="fourier")),
    (doubling(), trig_polynomial(cos_coeffs=[0.01], sin_coeffs=[0.004]),
     Discretization(n=512, interpolation="fourier")),
    (perturbed_doubling(0.1), trig_polynomial(cos_coeffs=[0.005]),
     Discretization(n=1024)),
], ids=["doubling-fourier-256", "doubling-fourier-512", "perturbed-linear-1024"])
def test_fast_mixing_triples_never_reach_arnoldi(fmap, pot, disc, monkeypatch):
    op = discretize(fmap, pot, disc)
    ref = _power_only(monkeypatch, op)
    with monkeypatch.context() as m:
        m.setattr(scipy.sparse.linalg, "eigs", None)    # any handover would fail loudly
        tr = leading_triple(op)
    assert tr.iterations < spectral.ARNOLDI_HANDOVER
    assert tr.iterations == ref.iterations
    assert np.asarray(tr.lam).tobytes() == np.asarray(ref.lam).tobytes()
    assert tr.h.values.tobytes() == ref.h.values.tobytes()
    assert tr.nu.tobytes() == ref.nu.tobytes()


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is float64 on this platform")
def test_longdouble_keeps_power_iteration(monkeypatch):
    mp = manneville_pomeau(0.5)
    pot = log_derivative_weight(-1.0, mp)
    disc = Discretization(n=96)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", None)
    tr = leading_triple(discretize(mp, pot, disc, dtype=np.longdouble))
    assert tr.lam.dtype == np.longdouble
    assert tr.iterations > spectral.ARNOLDI_HANDOVER
    monkeypatch.undo()
    ref = leading_triple(discretize(mp, pot, disc))
    assert float(tr.lam) == pytest.approx(float(ref.lam), rel=1e-12)


def test_handover_budget_raises_with_residual(mp_physical_362):
    op = mp_physical_362

    def capped(max_iter):
        return replace(op, disc=replace(op.disc, max_iter=max_iter))

    need = leading_triple(op).iterations
    for max_iter in (spectral.ARNOLDI_HANDOVER + 1, need - 1):
        with pytest.raises(SolverError, match="residual"):
            leading_triple(capped(max_iter))
    assert leading_triple(capped(need)).iterations == need


def test_handover_residual_gate(mp_physical_362, monkeypatch):
    real_eigs = scipy.sparse.linalg.eigs

    def perturbed_eigs(*args, **kwargs):
        vals, vecs = real_eigs(*args, **kwargs)
        return vals, vecs * (1.0 + 1e-6 * np.cos(np.arange(len(vecs)))[:, None])

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", perturbed_eigs)
    with pytest.raises(SolverError, match="Arnoldi eigentriple residual"):
        leading_triple(mp_physical_362)


def test_complex_leading_ritz_value_raises():
    # eigenvalues +-2i lead, so the power iterates rotate and never settle
    n = 8
    mat = np.zeros((n, n))
    mat[0, 1], mat[1, 0] = -2.0, 2.0
    mat[2:, 2:] = 0.5 * np.eye(n - 2)
    mat[2:, :2] = 0.1
    op = DiscretizedOperator(mat, Discretization(n=n), doubling(), zero_potential())
    with pytest.raises(SolverError, match="not both real; last power residual"):
        leading_triple(op)


@pytest.mark.parametrize("scheme,interpolation", [("collocation", "fourier"),
                                                  ("collocation", "linear"),
                                                  ("ulam", "linear")])
def test_block_eigenvalues_match_single_triples(scheme, interpolation):
    bmap = perturbed_doubling(0.1)
    setup = OperatorSetup(bmap, Discretization(n=256, scheme=scheme,
                                               interpolation=interpolation))
    psi = trig_polynomial(cos_coeffs=[1.0], sin_coeffs=[0.3])
    pots = [zero_potential() + t * psi for t in np.linspace(-0.2, 0.2, 9)]
    lams = spectral.eigenvalues_at(setup, pots, [""] * len(pots))
    single = [leading_triple(setup.operator(pot)).lam for pot in pots]
    assert np.max(np.abs(lams / single - 1.0)) <= 1e-14


def test_overflowing_weights_raise_solver_error():
    # a setup refuses e^{1e300} = inf before any eigensolve
    with pytest.raises(ConfigError, match="reaches 1e\\+300"):
        discretize(doubling(), constant(1e300), Discretization(n=64))
    # an operator that holds non-finite weights all the same has NaN power
    # iterates when Arnoldi takes over
    op = discretize(doubling(), zero_potential(), Discretization(n=64))
    op.storage.data[:] = np.nan
    with pytest.raises(SolverError, match="residual nan"):
        leading_triple(op)
