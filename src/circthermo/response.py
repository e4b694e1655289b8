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

(the rank-one pieces guarantee d nu(1) = d mu(1) = 0).  Map derivatives
rest on one rule: under f -> f + eps H the inverse branches move.  Along a
path y_1, ..., y_n of the preimage tree of x, the leaf moves with velocity
vel_n, where vel_k = (vel_{k-1} - H(y_k)) / F'(y_k) and vel_0 = 0, and the
Birkhoff sum S = sum_k phi(y_k) moves by dS = sum_k phi'(y_k) vel_k.  One
forward sweep of the tree (`operator.preimage_tree`) gives

    d (L^n g)(x) = sum over leaves of e^S [g'(y_n) vel_n + g(y_n) dS],

and with D = d(L .) (n = 1) the two spectral map derivatives are

    d P        = int D(h) d nu / lam,
    d mu(g)    = int D(R P0 g) d mu / lam      (maximal entropy, phi = 0).

Every R is one solve with the bordered factor cached on the triple
(`spectral.resolvent_solve`).  H and g are sampled, and D is evaluated, at
the sites of the grid values (`GridFunction.sites`: the cell midpoints
under Ulam).  All analytic values are paired with central finite
differences downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SmoothnessError
from .maps import BranchMap, ParamFamily, Potential, zero_potential
from .operator import Discretization, GridFunction, discretize, leaf_sum, preimage_tree
from .spectral import SpectralTriple, leading_triple, resolvent_solve

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


def central_difference(fn: Callable[[float], float], eps: float) -> float:
    return (fn(eps) - fn(-eps)) / (2.0 * eps)


# ---------------------------------------------------------------------------
# Derivatives in the potential
# ---------------------------------------------------------------------------

def d_lambda_d_potential(branch_map: BranchMap, pot0: Potential, direction,
                         disc: Discretization = Discretization(),
                         triple: Optional[SpectralTriple] = None) -> float:
    """Derivative of the leading eigenvalue: lam * int h H d nu."""
    if triple is None:
        triple = leading_triple(discretize(branch_map, pot0, disc))
    hvec = triple.sample(direction)
    return float(triple.lam * triple.integrate_nu(triple.h.values * hvec))


def d_pressure_d_potential(branch_map: BranchMap, pot0: Potential, direction,
                           disc: Discretization = Discretization(),
                           triple: Optional[SpectralTriple] = None) -> float:
    """Derivative of the pressure: int H d mu (= d lambda / lambda)."""
    if triple is None:
        triple = leading_triple(discretize(branch_map, pot0, disc))
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
        triple = leading_triple(discretize(branch_map, pot0, disc))
    hvec = triple.sample(direction)
    shape = _density_shape_term(triple, hvec)
    scale = _normalization_scalar(triple, hvec)
    return triple.op.grid_function(shape + triple.h.values * scale)


def d_conformal_expectation(branch_map: BranchMap, pot0: Potential, g, direction,
                            disc: Discretization = Discretization(),
                            triple: Optional[SpectralTriple] = None) -> float:
    """Derivative of phi -> int g d nu_phi in direction H."""
    if triple is None:
        triple = leading_triple(discretize(branch_map, pot0, disc))
    gv = triple.sample(g)
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
        triple = leading_triple(discretize(branch_map, pot0, disc))
    gv = triple.sample(g)
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
    return d_transfer_n_d_dynamics(branch_map, pot, g, h_field, x, 1)


def d_transfer_n_d_dynamics(branch_map: BranchMap, pot: Potential, g, h_field,
                            x, n: int):
    """Derivative of f -> (L^n g)(x) in map direction H, by one tree sweep.

    Each leaf y_n of the depth-n preimage tree carries its weight e^S, its
    velocity vel_n and dS (`operator.preimage_tree`), so the derivative is
    sum over leaves of e^S [g'(y_n) vel_n + g(y_n) dS].
    """
    gval, gder = _value_and_derivative(g)
    if pot.smoothness_order < 1:
        raise SmoothnessError("potential must be C^1 for map derivatives")

    def leaf(ys, log_w, vel, d_log_w):
        return np.exp(log_w) * (np.asarray(gder(ys)) * vel + np.asarray(gval(ys)) * d_log_w)

    return leaf_sum(preimage_tree(branch_map, pot, x, n, leaf, h_field))


def d_pressure_d_dynamics(family: ParamFamily, pot: Potential, s0: float,
                          disc: Discretization = Discretization(),
                          fd_step: float = FD_DEFAULT_STEP) -> ResponseReport:
    """Derivative of s -> P(f_s, phi) with H = d/ds f_s, plus its FD check.

    analytic = (1/lam) int D(h) d nu, where D(h) = d_transfer_d_dynamics
    of the eigenfunction h at its sites.
    """
    if pot.smoothness_order < 1:
        raise SmoothnessError("pressure-in-f derivative needs a C^1 potential")
    branch_map = family.at(s0)
    h_field = family.direction(s0)
    triple = leading_triple(discretize(branch_map, pot, disc))
    field = d_transfer_d_dynamics(branch_map, pot, triple.h, h_field, triple.h.sites)
    analytic = float(triple.integrate_nu(field)) / triple.lam

    def pressure_at(s):
        t = leading_triple(discretize(family.at(s), pot, disc))
        return math.log(t.lam)

    fd = central_difference(lambda e: pressure_at(s0 + e), fd_step)
    return ResponseReport(analytic_value=analytic, fd_value=fd, fd_step=fd_step)


def d_maxentropy_expectation(family: ParamFamily, g, s0: float,
                             disc: Discretization = Discretization(),
                             fd_step: float = FD_DEFAULT_STEP) -> ResponseReport:
    """Derivative of s -> int g d mu_{f_s} for the maximal entropy measure.

    The series sum_k int DLtil(Ltil^k P0 g) . H d mu at phi = 0 is linear
    in its summands, so it is summed by one resolvent solve:
    analytic = (1/lam) int D(u) d mu with u = R P0 g, where D(u) =
    d_transfer_d_dynamics of u at phi = 0.  The FD of int g d mu rides
    along.
    """
    pot0 = zero_potential()
    branch_map = family.at(s0)
    triple = leading_triple(discretize(branch_map, pot0, disc))
    u = resolvent_solve(triple, triple.project_zero_mean(triple.sample(g)))
    field = d_transfer_d_dynamics(branch_map, pot0, triple.op.grid_function(u),
                                  family.direction(s0), triple.h.sites) / triple.lam
    analytic = float(triple.integrate_mu(field))

    def expectation(s):
        t = leading_triple(discretize(family.at(s), pot0, disc))
        return float(t.integrate_mu(t.sample(g)))

    fd = central_difference(lambda e: expectation(s0 + e), fd_step)
    return ResponseReport(analytic_value=analytic, fd_value=fd, fd_step=fd_step)
