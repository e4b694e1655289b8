"""Leading spectral data of a discretized transfer operator.

The triple (lambda, h, nu) is obtained by two-sided power iteration seeded
at the constant function and the uniform weight vector, mirroring the limit
h = lim lambda^{-n} L^n 1.  A float64 operator that has not converged after
ARNOLDI_HANDOVER steps (a slowly mixing map, where tau is near 1) is handed
to implicitly restarted Arnoldi (ARPACK), started from the current iterates
on M and on its transpose; extended precision stays with power iteration.
Normalization order: nu to total mass one first, then h so that its
nu-integral is one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, splu

from .errors import ConfigError, SchemeQualityError, SolverError
from .maps import Potential
from .operator import DiscretizedOperator, GridFunction, OperatorSetup

NEGATIVE_MASS_LIMIT = 1e-8
RESOLVENT_RESIDUAL_TOL = 1e-10
ARNOLDI_HANDOVER = 64   # float64 power steps before the Arnoldi handover


@dataclass
class SpectralTriple:
    """Leading eigenvalue, right eigenfunction, and conformal weights."""
    lam: float
    h: GridFunction
    nu: np.ndarray
    op: DiscretizedOperator
    iterations: int          # power steps plus Arnoldi matvecs
    residual_right: float
    residual_left: float
    tau: Optional[float] = None
    tau_is_upper_bound: bool = False
    clipped_nu_mass: float = 0.0
    resolvent_factor: Optional[Callable] = field(default=None, repr=False)

    def sample(self, fn):
        """fn where the operator samples: the nodes, or cell midpoints under Ulam."""
        x = np.asarray(self.op.grid.nodes, dtype=self.op.dtype)
        if self.op.scheme == "ulam":
            x = x + 0.5 * self.op.grid.cell_width
        return np.asarray(fn(x))

    def integrate_nu(self, values):
        """nu-integral of nodal values (node-weight quadrature)."""
        return np.asarray(values) @ self.nu

    @property
    def mu_weights(self):
        """Equilibrium weights h_i nu_i, renormalized to total mass one."""
        w = self.h.values * self.nu
        return w / w.sum()

    def integrate_mu(self, values):
        return np.asarray(values) @ self.mu_weights

    def project_zero_mean(self, values):
        """Spectral projection onto E_0: g - (integral of g d nu) h."""
        values = np.asarray(values)
        return values - self.integrate_nu(values) * self.h.values

    def normalized_apply(self, values):
        return self.op.apply(values) / self.lam


def leading_triple(op: DiscretizedOperator, tol: float = 1e-12,
                   max_iter: int = 100000) -> SpectralTriple:
    """Two-sided power iteration for the dominant eigentriple.

    Convergence is declared when successive Rayleigh quotients differ by
    less than tol; failure to converge raises with the last residual.  A
    float64 operator still unconverged after ARNOLDI_HANDOVER steps
    continues by Arnoldi from the current iterates, and its normalized
    triple must then meet the same residual tolerance.  Either way at most
    max_iter operator applications are made.
    """
    if tol < 1e-14 and op.dtype == np.float64:
        raise ConfigError(f"tol={tol} below float64 attainable accuracy")
    apply, apply_left = op.apply, op.apply_left
    n = op.grid.n_cells
    dtype = op.dtype
    v = np.ones(n, dtype=dtype)
    w = np.full(n, 1.0 / n, dtype=dtype)
    resid_floor = 50.0 * n * float(np.finfo(dtype).eps)
    rtol = max(tol, resid_floor)
    # ARPACK needs n >= 3 for one eigenpair
    power_steps = max_iter
    if dtype == np.float64 and n >= 3:
        power_steps = min(max_iter, ARNOLDI_HANDOVER)
    lam_prev = None
    lam = None
    iterations = 0
    arnoldi = False
    for iterations in range(1, power_steps + 1):
        mv = apply(v)
        wm = apply_left(w)
        lam = (w @ mv) / (w @ v)          # scalar in the working dtype
        # eigenvector residuals of the *previous* iterates come for free
        rr = float(np.max(np.abs(mv - lam * v)) / abs(lam))
        rl = float(np.sum(np.abs(wm - lam * w)) / (abs(lam) * np.sum(np.abs(w))))
        v = mv / lam
        wsum = wm.sum()
        if wsum == 0:
            raise SolverError("left power iteration collapsed to zero")
        w = wm / wsum
        if (lam_prev is not None
                and abs(float(lam) - lam_prev) < tol * max(1.0, abs(float(lam)))
                and rr < rtol and rl < rtol):
            break
        lam_prev = float(lam)
    else:
        resid = float(np.max(np.abs(apply(v) - lam * v)) / abs(lam))
        if power_steps == max_iter:
            raise SolverError(
                f"no eigenvalue convergence in {max_iter} iterations; "
                f"last residual {resid:.3e} (gapless or mis-assembled operator?)")
        lam, v, w, matvecs = _arnoldi_pair(op, v, w, max_iter - power_steps, resid)
        iterations += matvecs
        arnoldi = True

    nu = np.asarray(w, dtype=dtype).copy()
    if nu.sum() < 0:
        nu = -nu
    neg = nu < 0
    clipped = float(-nu[neg].sum()) if np.any(neg) else 0.0
    if clipped > NEGATIVE_MASS_LIMIT:
        raise SchemeQualityError(
            f"conformal weights carry negative mass {clipped:.3e} > "
            f"{NEGATIVE_MASS_LIMIT}; discretization untrustworthy")
    if clipped > 0.0:
        nu = np.where(neg, 0.0, nu)
    nu = nu / nu.sum()

    hv = np.asarray(v, dtype=dtype)
    if hv @ nu < 0:
        hv = -hv
    hv = hv / (hv @ nu)
    if np.any(hv <= 0):
        raise SchemeQualityError(
            "eigenfunction is not positive at all nodes; "
            "refine the grid or switch scheme")

    h = op.grid_function(hv)
    resid_right = float(np.max(np.abs(apply(hv) - lam * hv)) / abs(lam))
    resid_left = float(np.sum(np.abs(apply_left(nu) - lam * nu)) / abs(lam))
    if arnoldi and not max(resid_right, resid_left) <= rtol:
        raise SolverError(
            f"Arnoldi eigentriple residual {max(resid_right, resid_left):.3e} "
            f"exceeds {rtol:.3e}")
    return SpectralTriple(lam=lam, h=h, nu=nu, op=op, iterations=iterations,
                          residual_right=resid_right, residual_left=resid_left,
                          clipped_nu_mass=clipped)


def _arnoldi_pair(op: DiscretizedOperator, v, w, budget: int, resid: float):
    """Leading right and left eigenvectors of a float64 operator by ARPACK.

    Continues the power iteration: eigs(k=1) on M from v and on M^T (the
    cached transpose of `apply_left`) from w, with at most `budget` matvecs
    on both together.  Returns the two-sided Rayleigh quotient, the
    vectors (w scaled to sum one) and the matvecs spent.  An ARPACK error
    (non-convergence included), a spent budget or a complex leading Ritz
    value raises with `resid`, the residual of the last power iterate.
    """
    n = op.grid.n_cells
    spent = 0

    def counted(apply):
        def matvec(x):
            nonlocal spent
            spent += 1
            if spent > budget:
                raise SolverError(f"Arnoldi eigensolve spent its {budget} matvecs; "
                                  f"last power residual {resid:.3e}")
            return apply(x)
        return matvec

    right, left = counted(op.apply), counted(op.apply_left)
    try:
        (theta_r,), vr = eigs(LinearOperator((n, n), right, dtype=np.float64),
                              k=1, v0=v, rng=0)
        (theta_l,), vl = eigs(LinearOperator((n, n), left, dtype=np.float64),
                              k=1, v0=w, rng=0)
    except ArpackError as exc:    # non-convergence, or no factorization of non-finite data
        raise SolverError(f"Arnoldi eigensolve failed ({exc}); "
                          f"last power residual {resid:.3e}") from exc
    if theta_r.imag != 0.0 or theta_l.imag != 0.0:
        raise SolverError(f"leading Ritz values {theta_r:.6g}, {theta_l:.6g} are not "
                          f"both real; last power residual {resid:.3e}")
    v, w = vr[:, 0].real, vl[:, 0].real
    w = w / w.sum()
    lam = (w @ right(v)) / (w @ v)
    return lam, v, w, spent


def triple_at(setup: OperatorSetup, pot: Potential, tol: float = 1e-12,
              max_iter: int = 100000) -> SpectralTriple:
    """Leading triple of the operator that `setup` assembles for `pot`.

    The one way a triple is built from a potential: pass a fresh
    `OperatorSetup.of(branch_map, disc)` for a single potential, or hold
    one setup across a potential sweep so that each point only reweights.
    """
    return leading_triple(setup.operator(pot), tol=tol, max_iter=max_iter)


def gap_estimate(op: DiscretizedOperator, triple: SpectralTriple,
                 n_iter: int = 400, seed: int = 20250408) -> float:
    """Estimate tau = |lambda_2| / lambda_1 by deflated power iteration.

    The leading pair is removed by the rank-one deflation
    B v = M v - lambda h (nu . v) / (h . nu), applied without forming B;
    the modulus of the next eigenvalue is read off the geometric growth
    rate of ||B^k v|| (robust to complex pairs).  Runs in float64.
    Stores the estimate on the triple and returns it.
    """
    mat = op.storage if op.dtype == np.float64 else np.asarray(op.matrix, dtype=float)
    hv = np.asarray(triple.h.values, dtype=float)
    nu = np.asarray(triple.nu, dtype=float)
    lam = float(triple.lam)
    nu_h = nu / (hv @ nu)
    n = op.grid.n_cells
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = rng.standard_normal(n)
    v = v - (nu @ v) * hv
    norm = np.linalg.norm(v)
    if norm == 0:
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
    v /= norm
    logs = []
    floor = 1e-14 * abs(lam)
    collapsed = None
    for _ in range(n_iter):
        v = mat @ v - lam * (nu_h @ v) * hv
        v = v - (nu @ v) * hv        # keep roundoff out of the leading direction
        r = np.linalg.norm(v)
        if r < floor:
            collapsed = r
            break
        logs.append(np.log(r))
        v /= r
    if collapsed is not None and not logs:
        tau = collapsed / abs(lam)
    elif collapsed is not None:
        tau = min(np.exp(logs[-1]), collapsed) / abs(lam)
    else:
        half = len(logs) // 2
        tau = float(np.exp(np.mean(logs[half:]))) / abs(lam)
    if not np.isfinite(tau) or tau >= 1.0:
        triple.tau = 1.0
        triple.tau_is_upper_bound = True
        return 1.0
    tau = max(tau, 0.0)
    triple.tau = tau
    triple.tau_is_upper_bound = False
    return tau


def _resolvent_factor(triple: SpectralTriple) -> Callable:
    """Solver for the bordered resolvent system, factored on first use."""
    if triple.resolvent_factor is None:
        mat = triple.op.storage
        n = triple.op.grid.n_cells
        hv = triple.h.values[:, None]
        nu = triple.nu[None, :]
        try:
            with warnings.catch_warnings():
                # a zero pivot is an error here, not a warning
                warnings.simplefilter("error", LinAlgWarning)
                if sparse.issparse(mat):
                    border = sparse.bmat([[sparse.identity(n, format="csr") - mat / triple.lam,
                                           hv], [nu, None]], format="csc")
                    triple.resolvent_factor = splu(border).solve
                else:
                    border = np.block([[mat / -triple.lam, hv], [nu, np.zeros((1, 1))]])
                    diag = np.arange(n)
                    border[diag, diag] += 1.0
                    triple.resolvent_factor = partial(lu_solve,
                                                      lu_factor(border, overwrite_a=True))
        except (RuntimeError, LinAlgWarning) as exc:
            raise SolverError(f"bordered resolvent system is singular: {exc}") from exc
    return triple.resolvent_factor


def resolvent_solve(triple: SpectralTriple, v, method: str = "auto",
                    tol: float = 1e-12):
    """Solve (I - Ltilde) u = v on the zero-mean subspace, with zero-mean u.

    `direct` (float64) solves the bordered system
    [[I - M/lam, h], [nu^T, 0]] [u; c] = [v; 0], whose LU factors are
    computed once per triple and kept on it.  For zero-mean v this has
    c = 0 and the u of (I - M/lam + h nu^T) u = v; it needs only a
    nonsingular border, and a residual above RESOLVENT_RESIDUAL_TOL raises.
    `neumann`, the extended-precision route, sums Ltilde^k v until the sup
    norm of the term drops below tol * (1 - tau).  Both refuse a known tau
    within 1e-6 of 1, and both return nodal values in the dtype of v.
    """
    vin = v.values if isinstance(v, GridFunction) else np.asarray(v)
    mean = float(triple.integrate_nu(vin))
    if abs(mean) > 1e-10 * max(1.0, float(np.max(np.abs(vin)))):
        raise ConfigError(f"resolvent input has nonzero nu-mean {mean:.3e}")
    dtype = triple.op.dtype
    if method == "auto":
        method = "direct" if dtype == np.float64 else "neumann"
    tau = triple.tau
    if tau is None and method == "neumann":
        tau = gap_estimate(triple.op, triple)
    if tau is not None and tau >= 1.0 - 1e-6:
        raise SolverError(
            f"spectral gap estimate tau={tau:.6f} too close to 1; "
            "resolvent series not summable")

    rhs = triple.project_zero_mean(np.asarray(vin, dtype=dtype))
    if method == "direct":
        if dtype != np.float64:
            raise ConfigError(f"direct resolvent runs in float64, not {dtype}; "
                              "use method='neumann'")
        sol = _resolvent_factor(triple)(np.append(rhs, 0.0))
        u = sol[:-1]
        # one matvec confirms the solve; a NaN residual fails too
        resid = np.append(u - triple.op.apply(u) / triple.lam
                          + sol[-1] * triple.h.values - rhs, triple.nu @ u)
        err = float(np.max(np.abs(resid))) / max(1.0, float(np.max(np.abs(rhs))),
                                                 float(np.max(np.abs(u))))
        if not err <= RESOLVENT_RESIDUAL_TOL:
            raise SolverError(f"bordered resolvent residual {err:.3e} exceeds "
                              f"{RESOLVENT_RESIDUAL_TOL:g} (singular border?)")
    elif method == "neumann":
        lam_t = np.asarray(triple.lam, dtype=dtype)
        term = rhs.copy()
        u = np.zeros_like(rhs)
        limit = tol * (1.0 - tau) * max(1.0, float(np.max(np.abs(rhs))))
        n_terms = 200 + (int(8 * np.log(max(tol, 1e-30)) / np.log(tau)) if tau > 0 else 0)
        for _ in range(max(n_terms, 50)):
            u += term
            if float(np.max(np.abs(term))) < limit:
                break
            term = triple.project_zero_mean(triple.op.apply(term) / lam_t)
        else:
            raise SolverError("Neumann resolvent series did not reach tolerance")
    else:
        raise ConfigError(f"unknown resolvent method {method!r}")
    u = u - triple.integrate_nu(u) * triple.h.values
    if isinstance(v, GridFunction):
        return v.copy_with(u)
    return u
