"""Pressure, equilibrium states, entropy, Lyapunov exponents, and the two
brute-force pressure oracles (preimage tree and periodic-orbit sums).

The spectral route reads the pressure off the leading eigenvalue of a
discretized operator; the oracles never discretize and serve as
independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, ResourceLimitError
from .maps import BranchMap, Potential, circle_distance
from .operator import (Discretization, OperatorSetup, TREE_LEAF_GUARD,
                       apply_transfer_tree)
from .spectral import SpectralTriple, triple_at


@dataclass
class ThermoReport:
    """Thermodynamic summary of one (map, potential, discretization) run."""
    pressure: float
    equilibrium: np.ndarray          # grid weights of mu = h nu, mass one
    entropy: float
    lyapunov: float
    dimension: Optional[float]
    provenance: dict = field(default_factory=dict)

    def as_dict(self):
        out = {
            "pressure": self.pressure,
            "entropy": self.entropy,
            "lyapunov": self.lyapunov,
            "provenance": dict(self.provenance),
        }
        if self.dimension is not None:
            out["dimension"] = self.dimension
        return out


def pressure(branch_map: BranchMap, pot: Potential,
             disc: Discretization = Discretization(),
             triple: Optional[SpectralTriple] = None) -> float:
    """Topological pressure as log of the leading eigenvalue.

    Hypothesis gating is the caller's concern (the CLI checks and gates;
    library use assumes the standing hypotheses or an explicit override).
    """
    if triple is None:
        triple = triple_at(OperatorSetup.of(branch_map, disc), pot)
    return math.log(triple.lam)


def pressure_oracle_tree(branch_map: BranchMap, pot: Potential, x0: float,
                         n: int) -> float:
    """(1/n) log (L^n 1)(x0), computed over the full preimage tree."""
    value = apply_transfer_tree(branch_map, pot, lambda y: np.ones_like(y), x0, n)
    return math.log(value) / n


def pressure_oracle_periodic(branch_map: BranchMap, pot: Potential, n: int,
                             tol: float = 1e-12, max_sweeps: int = 60):
    """(1/n) log of the Birkhoff-weighted sum over fixed points of f^n.

    Periodic points are found as fixed points of each n-fold inverse-branch
    composition (d^n symbolic codes); the compositions contract where the
    map expands spacewise, so the iteration converges off the neutral
    region.  Codes that fail to converge are skipped and counted (the
    branch-endpoint orbit can oscillate across the seam by rounding; its
    point is supplied by the mirror code).  Coincident representatives
    are merged before summing.

    Returns (value, skipped_codes).
    """
    d = branch_map.degree
    n_codes = d ** n
    if n_codes > TREE_LEAF_GUARD:
        raise ResourceLimitError(
            f"{n_codes} periodic codes exceed the {TREE_LEAF_GUARD} guard")
    idx = np.arange(n_codes)
    digits = np.empty((n, n_codes), dtype=np.int64)
    rem = idx.copy()
    for k in range(n):
        digits[k] = rem % d
        rem //= d

    y = np.full(n_codes, 0.5)
    active = np.arange(n_codes)
    for _ in range(max_sweeps):
        if active.size == 0:
            break
        ya = y[active]
        for k in range(n):
            ya = branch_map.invert_branch(digits[k, active], ya)
        moved = circle_distance(ya, y[active])
        y[active] = ya
        active = active[moved >= tol]
    skipped = int(active.size)
    converged = np.ones(n_codes, dtype=bool)
    converged[active] = False
    y = y[converged]
    if y.size == 0:
        raise ConfigError("no periodic codes converged")

    # merge the duplicate arising from the wrap point 0 ~ 1 and any
    # coincident representatives
    y = np.mod(y, 1.0)
    order = np.argsort(y)
    ys = y[order]
    keep = np.ones(ys.size, dtype=bool)
    keep[1:] = np.diff(ys) > 1e-9
    if ys.size > 1 and circle_distance(ys[0], ys[-1]) <= 1e-9:
        keep[-1] = False
    ys = ys[keep]

    s = np.zeros_like(ys)
    z = ys.copy()
    for _ in range(n):
        s += pot(z)
        z = branch_map(z)
    m = float(np.max(s))
    value = (m + math.log(float(np.sum(np.exp(s - m))))) / n
    return value, skipped


def equilibrium_state(branch_map: BranchMap, pot: Potential,
                      disc: Discretization = Discretization(),
                      triple: Optional[SpectralTriple] = None) -> ThermoReport:
    """Equilibrium state mu = h nu with entropy and Lyapunov exponent.

    entropy = pressure - int phi d mu by construction; the dimension
    entropy/lyapunov is emitted only for potentials of the form constant
    or c log|f'|, where that ratio is meaningful.
    """
    if triple is None:
        triple = triple_at(OperatorSetup.of(branch_map, disc), pot)
    p = math.log(triple.lam)
    mu = np.asarray(triple.mu_weights, dtype=float)
    nodes = triple.op.grid.nodes
    phi_mean = float(np.asarray(pot(nodes), dtype=float) @ mu)
    entropy = p - phi_mean
    lyap = float(np.log(np.asarray(branch_map.dlift(nodes), dtype=float)) @ mu)
    dimension = None
    if pot.is_constant() or pot.is_log_derivative():
        dimension = entropy / lyap
    provenance = {
        "map": branch_map.family_tag,
        "map_params": dict(branch_map.family_params),
        "potential": pot.describe(),
        "n": triple.op.grid.n_cells,
        "scheme": triple.op.scheme,
        "interpolation": triple.op.interpolation,
        "eigen_iterations": triple.iterations,
        "residual_right": triple.residual_right,
        "residual_left": triple.residual_left,
    }
    return ThermoReport(pressure=p, equilibrium=mu, entropy=entropy,
                        lyapunov=lyap, dimension=dimension,
                        provenance=provenance)
