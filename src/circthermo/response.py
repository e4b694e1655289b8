"""Linear response: derivatives of spectral and thermodynamic quantities
with respect to the potential and with respect to the map.

Every derivative here comes from first-order perturbation of the simple
leading eigentriple (L h = lam h, nu L = lam nu, nu(1) = 1, nu(h) = 1).
Writing Ltil = L/lam, P0 g = g - nu(g) h, and R = (I - Ltil)^(-1) on the
zero-mean subspace, the potential derivatives in direction H are

    d lam      = lam * int h H d nu
    d P        = int H d mu
    d h        = R P0 Ltil(h H)  +  h * int R(1 - h) H d nu
    d nu(g)    = int R(g - nu(g) h) H d nu  -  nu(g) * int R(1 - h) H d nu
    d mu(g)    = int R(g h - mu(g) h) H d nu  +  int g * R P0 Ltil(h H) d nu

(the rank-one pieces guarantee d nu(1) = d mu(1) = 0).  Map derivatives use
the inverse-branch rule T_j H (x) = -H(y_j) / F'(y_j) at preimages y_j; at
phi = 0 the maximal-entropy expectation moves by

    d mu(g)    = int T(R P0 g) d mu,   T(w) = -(1/lam) sum_j w'(y_j) H(y_j) / F'(y_j).

Every R is one solve with the bordered factor cached on the triple
(`spectral.resolvent_solve`), and H is sampled where the operator samples
the potential (`SpectralTriple.sample`).  All analytic values are paired
with central finite differences downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, SmoothnessError
from .maps import BranchMap, ParamFamily, Potential, zero_potential
from .operator import (Discretization, GridFunction, OperatorSetup,
                       TREE_LEAF_GUARD)
from .spectral import SpectralTriple, resolvent_solve, triple_at

FD_DEFAULT_STEP = 1e-4


@dataclass
class ResponseReport:
    """Analytic derivative next to its finite-difference validator."""
    analytic_value: float
    fd_value: float
    fd_step: float

    @property
    def rel_error(self):
        return abs(self.analytic_value - self.fd_value) / max(1.0, abs(self.fd_value))

    def as_dict(self):
        return {
            "analytic_value": self.analytic_value,
            "fd_value": self.fd_value,
            "fd_step": self.fd_step,
            "rel_error": self.rel_error,
        }


def central_difference(fn: Callable[[float], float], eps: float) -> float:
    return (fn(eps) - fn(-eps)) / (2.0 * eps)


def _nodes(triple):
    return np.asarray(triple.op.grid.nodes, dtype=triple.op.dtype)


# ---------------------------------------------------------------------------
# Derivatives in the potential
# ---------------------------------------------------------------------------

def d_lambda_d_potential(branch_map: BranchMap, pot0: Potential, direction,
                         disc: Discretization = Discretization(),
                         triple: Optional[SpectralTriple] = None) -> float:
    """Derivative of the leading eigenvalue: lam * int h H d nu."""
    if triple is None:
        triple = triple_at(OperatorSetup.of(branch_map, disc), pot0)
    hvec = triple.sample(direction)
    return float(triple.lam * triple.integrate_nu(triple.h.values * hvec))


def d_pressure_d_potential(branch_map: BranchMap, pot0: Potential, direction,
                           disc: Discretization = Discretization(),
                           triple: Optional[SpectralTriple] = None) -> float:
    """Derivative of the pressure: int H d mu (= d lambda / lambda)."""
    if triple is None:
        triple = triple_at(OperatorSetup.of(branch_map, disc), pot0)
    return float(triple.integrate_mu(triple.sample(direction)))


def _density_shape_term(triple, direction_values):
    """R P0 Ltil(h H): the zero-mean part of the density derivative."""
    lhh = triple.normalized_apply(triple.h.values * direction_values)
    return resolvent_solve(triple, triple.project_zero_mean(lhh))


def _normalization_scalar(triple, direction_values):
    """int R(1 - h) H d nu: the scalar reweighting every h_phi picks up."""
    u1 = resolvent_solve(triple, triple.project_zero_mean(1.0 - triple.h.values))
    return float(triple.integrate_nu(u1 * direction_values))


def d_density_d_potential(branch_map: BranchMap, pot0: Potential, direction,
                          disc: Discretization = Discretization(),
                          triple: Optional[SpectralTriple] = None) -> GridFunction:
    """Derivative of the normalized eigenfunction h in direction H."""
    if triple is None:
        triple = triple_at(OperatorSetup.of(branch_map, disc), pot0)
    hvec = triple.sample(direction)
    shape = _density_shape_term(triple, hvec)
    scale = _normalization_scalar(triple, hvec)
    return triple.op.grid_function(shape + triple.h.values * scale)


def d_conformal_expectation(branch_map: BranchMap, pot0: Potential, g, direction,
                            disc: Discretization = Discretization(),
                            triple: Optional[SpectralTriple] = None) -> float:
    """Derivative of phi -> int g d nu_phi in direction H."""
    if triple is None:
        triple = triple_at(OperatorSetup.of(branch_map, disc), pot0)
    gv = np.asarray(g(_nodes(triple)))
    hvec = triple.sample(direction)
    gmean = float(triple.integrate_nu(gv))
    u_g = resolvent_solve(triple, gv - gmean * triple.h.values)
    return float(triple.integrate_nu(u_g * hvec)
                 - gmean * _normalization_scalar(triple, hvec))


def d_equilibrium_expectation(branch_map: BranchMap, pot0: Potential, g, direction,
                              disc: Discretization = Discretization(),
                              triple: Optional[SpectralTriple] = None) -> float:
    """Derivative of phi -> int g d mu_phi in direction H."""
    if triple is None:
        triple = triple_at(OperatorSetup.of(branch_map, disc), pot0)
    gv = np.asarray(g(_nodes(triple)))
    hvec = triple.sample(direction)
    gmu = float(triple.integrate_mu(gv))
    u_gh = resolvent_solve(triple, (gv - gmu) * triple.h.values)
    shape = _density_shape_term(triple, hvec)
    return float(triple.integrate_nu(u_gh * hvec) + triple.integrate_nu(gv * shape))


# ---------------------------------------------------------------------------
# Derivatives in the dynamics
# ---------------------------------------------------------------------------

def _value_and_derivative(g):
    """Resolve an observable into (value, derivative) callables."""
    if isinstance(g, tuple) and len(g) == 2:
        return g
    if isinstance(g, GridFunction):
        return g, g.derivative()
    if isinstance(g, Potential):
        return g, g.derivative
    raise SmoothnessError(
        "observable must provide a derivative: pass (g, dg), a GridFunction, "
        "or a Potential")


def d_transfer_d_dynamics(branch_map: BranchMap, pot: Potential, g, h_field, x):
    """Pointwise derivative of f -> (L_{f,phi} g)(x) in map direction H.

    1-D inverse-branch rule: the preimage y_j moves with velocity
    -H(y_j)/F'(y_j), so the derivative is
    sum_j (g e^phi)'(y_j) * (-H(y_j) / F'(y_j)).
    """
    gval, gder = _value_and_derivative(g)
    if pot.smoothness_order < 1:
        raise SmoothnessError("potential must be C^1 for map derivatives")
    x = np.asarray(x, dtype=float)
    ys = branch_map.preimages(x)
    weight = np.exp(pot(ys))
    total = weight * (np.asarray(gder(ys)) + np.asarray(gval(ys)) * pot.derivative(ys))
    total = total * (-np.asarray(h_field(ys)) / np.asarray(branch_map.dlift(ys)))
    out = np.sum(total, axis=0)
    return float(out) if out.ndim == 0 else out


def _transfer_power_with_derivative(branch_map, pot, gval, gder, pts, k):
    """(L^k g)(pts) and its x-derivative, by upward sweep of the preimage tree."""
    pts = np.asarray(pts, dtype=float)
    levels = [pts]
    for _ in range(k):
        levels.append(branch_map.preimages(levels[-1].ravel()))
    vals = np.asarray(gval(levels[-1]))
    ders = np.asarray(gder(levels[-1]))
    for lev in range(k, 0, -1):
        ys = levels[lev]
        weight = np.exp(pot(ys))
        phi_p = pot.derivative(ys)
        fp = np.asarray(branch_map.dlift(ys))
        vals = vals.reshape(ys.shape)
        ders = ders.reshape(ys.shape)
        new_vals = np.sum(weight * vals, axis=0)
        new_ders = np.sum(weight * (phi_p * vals + ders) / fp, axis=0)
        vals, ders = new_vals, new_ders
    return vals.reshape(pts.shape), ders.reshape(pts.shape)


def d_transfer_n_d_dynamics(branch_map: BranchMap, pot: Potential, g, h_field,
                            x, n: int):
    """Chain rule for f -> (L^n g)(x): sum_i L^{i-1}(DL(L^{n-i} g) . H)(x)."""
    if branch_map.degree ** n > TREE_LEAF_GUARD:
        raise ConfigError(f"depth {n} exceeds the preimage-tree guard")
    gval, gder = _value_and_derivative(g)
    if pot.smoothness_order < 1:
        raise SmoothnessError("potential must be C^1 for map derivatives")
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for i in range(1, n + 1):
        inner_power = n - i

        def inner(z, _k=inner_power):
            zz = np.asarray(z, dtype=float)
            ys = branch_map.preimages(zz.ravel())
            vals, ders = _transfer_power_with_derivative(
                branch_map, pot, gval, gder, ys, _k)
            weight = np.exp(pot(ys))
            phi_p = pot.derivative(ys)
            fp = np.asarray(branch_map.dlift(ys))
            hy = np.asarray(h_field(ys))
            term = weight * (ders + vals * phi_p) * (-hy / fp)
            return np.sum(term, axis=0).reshape(zz.shape)

        if i == 1:
            total = total + inner(x)
        else:
            # apply L^{i-1} to the inner field by tree evaluation
            ys = np.atleast_1d(x)
            log_w = np.zeros_like(ys)
            for _ in range(i - 1):
                level = branch_map.preimages(ys)
                log_w = (log_w[None, :] + pot(level)).ravel()
                ys = level.ravel()
            contrib = np.exp(log_w) * inner(ys)
            total = total + np.sum(contrib.reshape(-1, np.atleast_1d(x).size), axis=0).reshape(x.shape)
    return float(total) if total.ndim == 0 else total


def _pressure_of(family, pot, s, disc, tol):
    return math.log(triple_at(OperatorSetup.of(family.at(s), disc), pot, tol=tol).lam)


def d_pressure_d_dynamics(family: ParamFamily, pot: Potential, s0: float,
                          disc: Discretization = Discretization(),
                          fd_step: float = FD_DEFAULT_STEP,
                          tol: float = 1e-12) -> ResponseReport:
    """Derivative of s -> P(f_s, phi) with H = d/ds f_s, plus its FD check.

    analytic = -(1/lam) sum_j int e^{phi(y_j)} [h'(y_j) + h(y_j) phi'(y_j)]
               H(y_j) / F'(y_j) d nu(x),  y_j the branch preimages of x.
    """
    if pot.smoothness_order < 1:
        raise SmoothnessError("pressure-in-f derivative needs a C^1 potential")
    branch_map = family.at(s0)
    h_field = family.direction(s0)
    triple = triple_at(OperatorSetup.of(branch_map, disc), pot, tol=tol)
    x = _nodes(triple)
    ys = triple.op.preimage_table
    if ys is None:
        ys = branch_map.preimages(x)
    hprime = triple.h.derivative()
    weight = np.exp(pot(ys))
    bracket = np.asarray(hprime(ys)) + np.asarray(triple.h(ys)) * pot.derivative(ys)
    field = -np.sum(weight * bracket * np.asarray(h_field(ys))
                    / np.asarray(branch_map.dlift(ys)), axis=0)
    analytic = float(triple.integrate_nu(field)) / triple.lam

    fd = central_difference(lambda e: _pressure_of(family, pot, s0 + e, disc, tol),
                            fd_step)
    return ResponseReport(analytic_value=analytic, fd_value=fd, fd_step=fd_step)


def d_maxentropy_expectation(family: ParamFamily, g, s0: float,
                             disc: Discretization = Discretization(),
                             fd_step: float = FD_DEFAULT_STEP) -> ResponseReport:
    """Derivative of s -> int g d mu_{f_s} for the maximal entropy measure.

    The series sum_k int DLtil(Ltil^k P0 g) . H d mu at phi = 0 is linear
    in its summands, so it is summed by one resolvent solve:
    analytic = int T(u) d mu with u = R P0 g and
    T(w) = -(1/lam) sum_j w'(y_j) H(y_j) / F'(y_j).  The FD of int g d mu
    rides along.
    """
    pot0 = zero_potential()
    branch_map = family.at(s0)
    triple = triple_at(OperatorSetup.of(branch_map, disc), pot0)
    ys = triple.op.preimage_table
    if ys is None:
        ys = branch_map.preimages(_nodes(triple))
    u = resolvent_solve(triple, triple.project_zero_mean(triple.sample(g)))
    field = -np.sum(np.asarray(triple.op.grid_function(u).derivative()(ys))
                    * np.asarray(family.direction(s0)(ys))
                    / np.asarray(branch_map.dlift(ys)), axis=0) / triple.lam
    analytic = float(triple.integrate_mu(field))

    def expectation(s):
        t = triple_at(OperatorSetup.of(family.at(s), disc), pot0)
        return float(t.integrate_mu(t.sample(g)))

    fd = central_difference(lambda e: expectation(s0 + e), fd_step)
    return ResponseReport(analytic_value=analytic, fd_value=fd, fd_step=fd_step)
