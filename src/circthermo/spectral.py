"""Leading spectral data of a discretized transfer operator.

The triple (lambda, h, nu) is obtained by two-sided power iteration seeded
at the constant function and the uniform weight vector, mirroring the limit
h = lim lambda^{-n} L^n 1.  A float64 operator that has not converged after
ARNOLDI_HANDOVER steps (a slowly mixing map, where tau is near 1) is handed
to implicitly restarted Arnoldi (ARPACK), started from the current iterates
on M and on its transpose; extended precision stays with power iteration.
Normalization order: nu to total mass one first, then h so that its
nu-integral is one.

The resolvent (I - Ltilde)^{-1} on the zero-mean subspace is one float64
bordered solve for every dtype: numpy.linalg.solve of a dense border kept
on the triple, or one splu factorization of a CSR border; an extended
precision triple refines against residuals formed in its own dtype.

scipy's solvers (splu, ARPACK's eigs) are imported inside the functions
that call them, so importing this module loads no scipy: a run pays that
import at its first CSR resolvent or Arnoldi handover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, SchemeQualityError, SolverError
from .maps import Potential
from .operator import DiscretizedOperator, GridFunction, OperatorSetup

NEGATIVE_MASS_LIMIT = 1e-8
RESOLVENT_RESIDUAL_TOL = 1e-10
RESOLVENT_PASSES = 4    # float64 solves per resolvent, refinement included
ARNOLDI_HANDOVER = 64   # float64 power steps before the Arnoldi handover
GAP_ITERATIONS = 400    # power steps in gap_estimate
GAP_SEED = 20250408     # Philox key of gap_estimate's random start


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
        """fn at the sites of the operator's grid values (`GridFunction.sites`)."""
        return np.asarray(fn(self.h.sites))

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
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs
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
                              k=1, v0=v)
        (theta_l,), vl = eigs(LinearOperator((n, n), left, dtype=np.float64),
                              k=1, v0=w)
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


def gap_estimate(op: DiscretizedOperator, triple: SpectralTriple) -> float:
    """Estimate tau = |lambda_2| / lambda_1 by power iteration on zero-mean vectors.

    Each step applies M and projects onto E_0 = {v : nu . v = 0} along h,
    v -> v - (nu . v) h.  M keeps E_0, so the projection only keeps
    roundoff out of the leading direction, and the modulus of the next
    eigenvalue is read off the geometric growth rate of ||v|| (robust to
    complex pairs).  Runs in float64.  Stores the estimate on the triple
    and returns it.
    """
    mat = op.storage if op.dtype == np.float64 else np.asarray(op.matrix, dtype=float)
    hv = np.asarray(triple.h.values, dtype=float)
    nu = np.asarray(triple.nu, dtype=float)
    lam = float(triple.lam)
    rng = np.random.Generator(np.random.Philox(key=GAP_SEED))
    v = rng.standard_normal(op.grid.n_cells)
    v -= (nu @ v) * hv
    v /= np.linalg.norm(v)
    logs = []
    floor = 1e-14 * abs(lam)
    collapsed = None
    for _ in range(GAP_ITERATIONS):
        v = mat @ v
        v -= (nu @ v) * hv
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
    """Float64 solver for the bordered system, built on first use: gesv per call, or one splu."""
    if triple.resolvent_factor is None:
        mat = triple.op.storage
        n = triple.op.grid.n_cells
        hv = triple.h.values[:, None]
        nu = triple.nu[None, :]
        if isinstance(mat, np.ndarray):
            border = np.block([[mat / -triple.lam, hv], [nu, np.zeros((1, 1))]])
            border = border.astype(float, copy=False)   # longdouble solves in float64
            diag = np.arange(n)
            border[diag, diag] += 1.0
            triple.resolvent_factor = lambda rhs: np.linalg.solve(border, rhs)
        else:
            from scipy import sparse
            from scipy.sparse.linalg import splu
            border = sparse.bmat([[sparse.identity(n, format="csr") - mat / triple.lam,
                                   hv], [nu, None]], format="csc")
            triple.resolvent_factor = splu(border).solve
    return triple.resolvent_factor


def resolvent_solve(triple: SpectralTriple, v):
    """Solve (I - Ltilde) u = v on the zero-mean subspace, with zero-mean u.

    Solves the bordered system [[I - M/lam, h], [nu^T, 0]] [u; c] = [v; 0]
    in float64 with the solver `_resolvent_factor` keeps on the triple.  For
    zero-mean v this has c = 0 and the u of (I - M/lam + h nu^T) u = v; it
    needs a nonsingular border, not a gap estimate.  One matvec forms the
    residual in the triple's dtype; while it is above n eps(dtype) and
    halving, one more float64 solve corrects it (at most RESOLVENT_PASSES
    solves), so float64 stops after one solve and longdouble refines to its
    own precision.  An exactly singular border raises, as do a residual
    above RESOLVENT_RESIDUAL_TOL and a known tau within 1e-6 of 1.  Returns
    grid values in the triple's dtype.
    """
    v = np.asarray(v)
    mean = float(triple.integrate_nu(v))
    if abs(mean) > 1e-10 * max(1.0, float(np.max(np.abs(v)))):
        raise ConfigError(f"resolvent input has nonzero nu-mean {mean:.3e}")
    tau = triple.tau
    if tau is not None and tau >= 1.0 - 1e-6:
        raise SolverError(
            f"spectral gap estimate tau={tau:.6f} too close to 1; "
            "resolvent series not summable")

    dtype = triple.op.dtype
    floor = triple.op.grid.n_cells * float(np.finfo(dtype).eps)
    rhs = triple.project_zero_mean(np.asarray(v, dtype=dtype))
    try:    # splu and gesv refuse an exactly zero pivot
        solve = _resolvent_factor(triple)
        sol = np.asarray(solve(np.append(rhs, 0.0).astype(float, copy=False)), dtype=dtype)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise SolverError(f"bordered resolvent system is singular: {exc}") from exc
    prev = np.inf
    for passes in range(1, RESOLVENT_PASSES + 1):
        u = sol[:-1]
        # one matvec confirms the solve; a NaN residual fails too
        resid = np.append(u - triple.op.apply(u) / triple.lam
                          + sol[-1] * triple.h.values - rhs, triple.nu @ u)
        err = float(np.max(np.abs(resid))) / max(1.0, float(np.max(np.abs(rhs))),
                                                 float(np.max(np.abs(u))))
        if passes == RESOLVENT_PASSES or not floor < err <= 0.5 * prev:
            break
        sol, prev = sol - solve(resid.astype(float)), err
    if not err <= RESOLVENT_RESIDUAL_TOL:
        raise SolverError(f"bordered resolvent residual {err:.3e} exceeds "
                          f"{RESOLVENT_RESIDUAL_TOL:g} (singular border?)")
    return u - triple.integrate_nu(u) * triple.h.values
