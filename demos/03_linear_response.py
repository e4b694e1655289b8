"""Linear response: every analytic derivative next to a finite difference.

Differentiates the leading eigenvalue, the pressure, the invariant
density, and measure expectations in a potential direction, then
differentiates the pressure and the maximal-entropy expectation in the
map itself along the pitchfork-perturbed doubling family.
"""

import numpy as np

from circthermo import (Discretization, d_conformal_expectation,
                        d_density_d_potential, d_equilibrium_expectation,
                        d_lambda_d_potential, d_maxentropy_expectation,
                        d_pressure_d_dynamics, d_pressure_d_potential,
                        discretize, doubling, leading_triple,
                        perturbed_doubling_family, trig_polynomial)
from circthermo.response import central_difference

m = doubling()
phi0 = trig_polynomial(cos_coeffs=[0.1])
H = trig_polynomial(sin_coeffs=[0.08], cos_coeffs=[0.0, 0.03])
g = trig_polynomial(cos_coeffs=[0.4], sin_coeffs=[0.0, 0.25])
disc = Discretization(n=64, interpolation="fourier")
eps = 1e-4


def triple_at(pot):
    return leading_triple(discretize(m, pot, disc))


tr = triple_at(phi0)
print("=== derivatives in the potential at phi0 = 0.1 cos(2 pi x) ===")
rows = [
    ("d lambda", d_lambda_d_potential(m, phi0, H, disc, triple=tr),
     central_difference(lambda e: float(triple_at(phi0 + e * H).lam), eps)),
    ("d pressure", d_pressure_d_potential(m, phi0, H, disc, triple=tr),
     central_difference(lambda e: float(np.log(triple_at(phi0 + e * H).lam)), eps)),
    ("d nu(g)", d_conformal_expectation(m, phi0, g, H, disc, triple=tr),
     central_difference(lambda e: float(
         np.asarray(g(np.arange(64) / 64)) @ triple_at(phi0 + e * H).nu), eps)),
    ("d mu(g)", d_equilibrium_expectation(m, phi0, g, H, disc, triple=tr),
     central_difference(lambda e: float(
         np.asarray(g(np.arange(64) / 64)) @ triple_at(phi0 + e * H).mu_weights), eps)),
]
for name, ana, fd in rows:
    print(f"{name:11s} analytic {ana:+.10f}   fd {fd:+.10f}   "
          f"diff {abs(ana - fd):.1e}")

dh = d_density_d_potential(m, phi0, H, disc, triple=tr)
hp = triple_at(phi0 + eps * H).h.values
hm = triple_at(phi0 + (-eps) * H).h.values
fd_vec = (np.asarray(hp, float) - np.asarray(hm, float)) / (2 * eps)
print(f"{'d h':11s} sup|analytic - fd| = "
      f"{float(np.max(np.abs(dh.values - fd_vec))):.1e} "
      f"(sup|d h| = {float(np.max(np.abs(dh.values))):.4f})")

print("\n=== derivatives in the map along the perturbed-doubling family ===")
fam = perturbed_doubling_family()
rep = d_pressure_d_dynamics(fam, trig_polynomial(cos_coeffs=[0.05]), 0.1,
                            Discretization(n=256, interpolation="fourier"))
print(f"pressure    analytic {rep.analytic_value:+.10f}   "
      f"fd {rep.fd_value:+.10f}   rel {rep.rel_error:.1e}")
rep = d_maxentropy_expectation(fam, trig_polynomial(cos_coeffs=[1.0]), 0.1,
                               Discretization(n=256, interpolation="fourier"))
print(f"mu_f(cos)   analytic {rep.analytic_value:+.10f}   "
      f"fd {rep.fd_value:+.10f}   rel {rep.rel_error:.1e} "
      f"(one resolvent solve)")

rep0 = d_pressure_d_dynamics(fam, trig_polynomial(cos_coeffs=[0.0]), 0.1,
                             Discretization(n=256, interpolation="fourier"))
print(f"\nphi = 0 => pressure is log(deg) for every map in the family:")
print(f"pressure    analytic {rep0.analytic_value:+.1e}   fd {rep0.fd_value:+.1e}")
