"""The leading spectral triple and the gap behind every statistical law.

Builds the discretized transfer operator for an intermittent map with a
geometric potential, extracts (lambda, h, nu), estimates the spectral gap,
and cross-checks the eigenvalue against the positivity-preserving Ulam
scheme on the same grid.
"""

import numpy as np

from circthermo import (Discretization, discretize, gap_estimate,
                        leading_triple, log_derivative_weight,
                        manneville_pomeau)

mp = manneville_pomeau(0.5)
pot = log_derivative_weight(-0.1, mp)

print("=== collocation scheme, N=512 ===")
op = discretize(mp, pot, Discretization(n=512))
tr = leading_triple(op)
tau = gap_estimate(op, tr)
print(f"lambda        : {float(tr.lam):.10f}")
print(f"gap tau       : {tau:.4f}  (|lambda_2| / lambda)")
print(f"iterations    : {tr.iterations}")
print(f"residuals     : right {tr.residual_right:.1e}, left {tr.residual_left:.1e}")

h, x = tr.h.values, tr.h.sites
print(f"eigenfunction : min {h.min():.4f} at x={x[h.argmin()]:.3f}, "
      f"max {h.max():.4f} at x={x[h.argmax()]:.3f}")
print("(the density piles up near the neutral fixed point at 0)")

print("\n=== Ulam cross-check on the same grid ===")
op_u = discretize(mp, pot, Discretization(n=512, scheme="ulam"))
tr_u = leading_triple(op_u)
print(f"lambda (ulam) : {float(tr_u.lam):.10f}")
print(f"discrepancy   : {abs(float(tr.lam) - float(tr_u.lam)):.2e}")
print(f"ulam matrix entrywise >= 0: {bool(np.min(op_u.matrix) >= 0)}")

print("\n=== conformal weights against the equilibrium weights ===")
mu = tr.mu_weights
nu = tr.nu
k = np.argsort(mu)[-3:][::-1]
for i in k:
    print(f"x={x[i]:.4f}  nu={float(nu[i]):.3e}  mu={float(mu[i]):.3e}")
print("(mu = h nu: the invariant state reweights the conformal measure by h)")
