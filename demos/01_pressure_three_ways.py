"""Topological pressure computed three independent ways.

The spectral route reads log(lambda) off a discretized transfer operator;
the preimage-tree oracle evaluates (1/n) log (L^n 1)(x) with no grid at
all; the periodic-orbit oracle sums Birkhoff weights over all d^n - 1
fixed points of f^n, each found once as a root of F^n(x) - x = k.  On a
map where the answer is known exactly, all three land on it; on a tilted
potential they triangulate each other.
"""

import math

from circthermo import (Discretization, doubling, manneville_pomeau,
                        log_derivative_weight, pressure,
                        pressure_oracle_periodic, pressure_oracle_tree,
                        trig_polynomial, zero_potential)

print("=== doubling map, zero potential (answer: log 2) ===")
m = doubling()
pot0 = zero_potential()
p_spec = pressure(m, pot0, Discretization(n=256))
p_tree = pressure_oracle_tree(m, pot0, x0=0.3, n=20)
p_per, _ = pressure_oracle_periodic(m, pot0, n=12)
print(f"spectral  : {p_spec:.15f}")
print(f"tree      : {p_tree:.15f}")
print(f"periodic  : {p_per:.15f}   (log of the 2^12-1 fixed points / 12: "
      f"{math.log(2 ** 12 - 1) / 12:.15f})")
print(f"log 2     : {math.log(2):.15f}")

print("\n=== doubling map, potential 0.1 cos(2 pi x) ===")
pot = trig_polynomial(cos_coeffs=[0.1])
p_spec = pressure(m, pot, Discretization(n=1024))
p_tree = pressure_oracle_tree(m, pot, x0=0.3, n=18)
p_per, _ = pressure_oracle_periodic(m, pot, n=14)
print(f"spectral  : {p_spec:.10f}")
print(f"tree n=18 : {p_tree:.10f}   (diff {abs(p_tree - p_spec):.2e})")
print(f"periodic  : {p_per:.10f}   (diff {abs(p_per - p_spec):.2e})")

print("\n=== intermittent map (alpha=0.5), geometric potential ===")
mp = manneville_pomeau(0.5)
for t in (0.0, 0.05, 0.1):
    pot_t = log_derivative_weight(-t, mp)
    p = pressure(mp, pot_t, Discretization(n=512))
    print(f"t={t:4.2f}  P(f, -t log f') = {p:.8f}")
print("(t -> P is strictly decreasing: more weight on expansion costs pressure)")
