"""Pressure, equilibrium states, entropy, Lyapunov exponents, and the two
brute-force pressure oracles (preimage tree and periodic-orbit sums).

The spectral route reads the pressure off the leading eigenvalue of a
discretized operator; the oracles never discretize and serve as
independent cross-checks.  The periodic-orbit oracle sums over exactly the
d^n - 1 fixed points of f^n, found by the shared solver maps.monotone_root
as the roots of F^n(x) - x = k on the lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, ResourceLimitError
from .maps import BranchMap, Potential, monotone_root
from .operator import (Discretization, TREE_BLOCK, TREE_LEAF_GUARD, apply_transfer_tree,
                       discretize)
from .spectral import SpectralTriple, leading_triple


@dataclass
class ThermoReport:
    """Thermodynamic summary of one (map, potential, discretization) run."""
    pressure: float
    equilibrium: np.ndarray          # grid weights of mu = h nu, mass one
    entropy: float
    lyapunov: float
    dimension: Optional[float]
    provenance: dict = field(default_factory=dict)


def pressure(branch_map: BranchMap, pot: Potential,
             disc: Discretization = Discretization(),
             triple: Optional[SpectralTriple] = None) -> float:
    """Topological pressure as log of the leading eigenvalue.

    Hypothesis gating is the caller's concern (the CLI checks and gates;
    library use assumes the standing hypotheses or an explicit override).
    """
    if triple is None:
        triple = leading_triple(discretize(branch_map, pot, disc))
    return math.log(triple.lam)


def pressure_oracle_tree(branch_map: BranchMap, pot: Potential, x0: float,
                         n: int) -> float:
    """(1/n) log (L^n 1)(x0), computed over the full preimage tree."""
    value = apply_transfer_tree(branch_map, pot, lambda y: np.ones_like(y), x0, n)
    return math.log(value) / n


def pressure_oracle_periodic(branch_map: BranchMap, pot: Potential, n: int):
    """(1/n) log of the Birkhoff-weighted sum over the fixed points of f^n.

    Extend the lift by F(x + 1) = F(x) + d.  The fixed points of f^n in
    [0, 1) are then the roots of G(x) = F^n(x) - x = k for the d^n - 1
    integers k in [G(0), G(1)), where G(1) = G(0) + d^n - 1, and they are
    found by one monotone_root solve on [0, 1].  Every point is found
    exactly once: the seam 0 ~ 1 belongs to the lowest k only, and a root
    that does not converge raises SolverError.  The residual target scales
    with d^n, the size of G.  G is increasing where (f^n)' > 1; a map that
    contracts somewhere may have more fixed points, and one per k is kept.

    The targets k are solved in consecutive blocks of TREE_BLOCK, and only
    each root's Birkhoff sum is kept: memory is 8 B per root plus one block,
    and since each root depends only on its own k, the values do not depend
    on where the blocks fall.  TREE_LEAF_GUARD bounds d^n.

    Returns (value, skipped); skipped is always 0, kept for callers that
    read the pair.
    """
    if n < 1:
        raise ConfigError(f"period n must be >= 1, got {n}")
    d = branch_map.degree
    if d ** n > TREE_LEAF_GUARD:
        raise ResourceLimitError(
            f"d^n = {d ** n} exceeds the {TREE_LEAF_GUARD} periodic-point guard")

    def lifted_orbit(x):   # F^j(x) mod 1 for j < n, and F^n(x) on the extended lift
        points = []
        for _ in range(n):
            m = np.floor(x)
            points.append(x - m)
            x = np.asarray(branch_map.lift(points[-1])) + d * m
        return points, x

    def g(x):   # G(x), and G' at x[i] from the same orbit
        points, end = lifted_orbit(x)
        return end - x, lambda i: np.prod([branch_map.dlift(y[i]) for y in points],
                                          axis=0) - 1.0

    g0 = float(lifted_orbit(np.zeros(1))[1][0])
    count = d ** n - 1
    s = np.empty(count)   # the Birkhoff sum of phi over each orbit
    for start in range(0, count, TREE_BLOCK):
        ks = math.ceil(g0) + np.arange(start, min(start + TREE_BLOCK, count), dtype=float)
        roots = monotone_root(g, ks, 0.0, 1.0, g0, g0 + d ** n - 1,
                              tol=64.0 * np.finfo(float).eps * d ** n,
                              describe=lambda k: f"the period-{n} point with F^n(x) - x = {k:.0f}")
        s[start:start + ks.size] = np.sum([pot(y) for y in lifted_orbit(roots)[0]], axis=0)
    m = float(np.max(s))
    value = (m + math.log(float(np.sum(np.exp(s - m))))) / n
    return value, 0


def equilibrium_state(branch_map: BranchMap, pot: Potential,
                      disc: Discretization = Discretization(),
                      triple: Optional[SpectralTriple] = None) -> ThermoReport:
    """Equilibrium state mu = h nu with entropy and Lyapunov exponent.

    entropy = pressure - int phi d mu by construction; the dimension
    entropy/lyapunov is emitted only for potentials of the form constant
    or c log|f'|, where that ratio is meaningful.  A given triple brings
    its own map and potential (`triple.op`), which are the ones used.
    """
    if triple is None:
        triple = leading_triple(discretize(branch_map, pot, disc))
    branch_map, pot = triple.op.branch_map, triple.op.potential
    p = math.log(triple.lam)
    mu = np.asarray(triple.mu_weights, dtype=float)
    phi_mean = float(np.asarray(triple.sample(pot), dtype=float) @ mu)
    entropy = p - phi_mean
    lyap = float(np.log(np.asarray(triple.sample(branch_map.dlift), dtype=float)) @ mu)
    dimension = None
    if pot.is_constant() or pot.is_log_derivative():
        dimension = entropy / lyap
    provenance = {
        "map": branch_map.family_tag,
        "map_params": dict(branch_map.family_params),
        "potential": pot.describe(),
        "n": triple.op.grid.n_cells,
        "scheme": triple.op.disc.scheme,
        "interpolation": triple.op.disc.rule,
        "eigen_iterations": triple.iterations,
        "residual_right": triple.residual_right,
        "residual_left": triple.residual_left,
    }
    return ThermoReport(pressure=p, equilibrium=mu, entropy=entropy,
                        lyapunov=lyap, dimension=dimension,
                        provenance=provenance)
