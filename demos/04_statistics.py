"""Correlation decay, central-limit parameters, and the coboundary wall.

Computes correlation series through the normalized operator, reads CLT
mean/variance off the Green-Kubo sum (one resolvent solve), and shows the
degenerate branch: an observable of the form u o f - u has zero asymptotic
variance.
"""

import numpy as np

from circthermo import (Discretization, clt_parameters, correlation,
                        discretize, doubling, gap_estimate, leading_triple,
                        log_derivative_weight, manneville_pomeau,
                        zero_potential)

cos1 = lambda x: np.cos(2 * np.pi * x)
disc_f = Discretization(n=128, interpolation="fourier")

print("=== doubling map, maximal entropy measure ===")
series = correlation(doubling(), zero_potential(), cos1, cos1, 10, disc_f)
print("C(n) for cos(2 pi x):", " ".join(f"{v:+.2e}" for v in series.values[:6]))
print("(C(0)=1/2 and every later term vanishes by Fourier orthogonality)")
clt = clt_parameters(doubling(), zero_potential(), cos1, disc_f)
print(f"CLT mean {clt.mean:+.2e}, variance {clt.variance:.10f}")

cob = lambda x: np.cos(4 * np.pi * x) - np.cos(2 * np.pi * x)
clt_cob = clt_parameters(doubling(), zero_potential(), cob, disc_f)
print(f"coboundary cos(4 pi x) - cos(2 pi x): variance {clt_cob.variance}, "
      f"flagged {clt_cob.coboundary}")

print("\n=== intermittent map: decay rate against the spectral gap ===")
mp = manneville_pomeau(0.5)
pot = log_derivative_weight(-0.1, mp)
tr = leading_triple(discretize(mp, pot, Discretization(n=512)))
tau = gap_estimate(tr.op, tr)
obs_b = lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
series = correlation(mp, pot, cos1, obs_b, 30, Discretization(n=512), triple=tr)
print("C(n):", " ".join(f"{v:+.1e}" for v in series.values[:8]))
print(f"fitted decay rate {series.tau_fit:.4f} vs gap estimate {tau:.4f}")
clt_mp = clt_parameters(mp, pot, cos1, Discretization(n=512), triple=tr)
print(f"CLT mean {clt_mp.mean:+.6f}, variance {clt_mp.variance:.6f} "
      f"(Green-Kubo sum from one resolvent solve)")
