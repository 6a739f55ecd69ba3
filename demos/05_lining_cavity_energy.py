"""The lossy layer as a finite traction-free lining, and two supporting
estimates: the exterior-cavity trace scaling and the damping balance.

Three independent views of the same mechanism: (i) the lossy near-cloak
NtD approaches the traction-free-cavity NtD at the same h^2 rate at
which both approach free space; (ii) an h-cavity driven by a fixed
rescaled traction radiates a far trace of size O(h) in 2D; (iii) the
power absorbed in the lossy lining exactly balances the boundary flux
deficit. The first view is the lining sweep at its defaults (n_max = 16,
h = 0.2, 0.1, 0.05, 0.025) for one content.
"""

import numpy as np

from elastocloak import (
    IsotropicMedium,
    build_near_cloak,
    energy_identity_check,
    lining_sweep,
    solve_exterior_cavity,
)
from elastocloak.harness import loglog_fit

omega = 1.0
bg = IsotropicMedium(1.0, 1.0, 1.0)
content = IsotropicMedium(2.0, 1.0, 1.0)

print("lossy-layer NtD vs traction-free-cavity NtD:")
rep = lining_sweep({"omega": omega, "content": {"lambda": content.lam, "mu": content.mu}})
h_values = [row["h"] for row in rep["rows"]]
for row in rep["rows"]:
    print(f"  h={row['h']:<6} distance = {row['distance']:.3e}")
print(f"  fitted rate {rep['fit']['slope']:.3f} (r2 = {rep['fit']['r2']:.4f})\n")

print("far trace of the traction-driven exterior cavity:")
tractions = {0: (1.0, 0.3), 1: (0.5, 0.2), 2: (0.3, 0.1)}
norms = [solve_exterior_cavity(h, tractions, omega, bg).boundary_norm(2.0)
         for h in h_values]
for h, w in zip(h_values, norms):
    print(f"  h={h:<6} ||W|_S2|| = {w:.4e}")
print(f"  fitted rate {loglog_fit(h_values, norms).slope:.3f} (expected ~1 in 2D)\n")

print("damping balance (absorbed power = boundary flux deficit):")
nc = build_near_cloak(0.1, 1.0, 1.0, 1.0, 0.0, content=content, background=bg)
rng = np.random.default_rng(0)
tr = {n: tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for n in range(4)}
resid, lhs, rhs = energy_identity_check(nc.virtual, omega, tr)
print(f"  absorbed = {lhs:.10e}")
print(f"  flux     = {rhs:.10e}")
print(f"  relative residual = {resid:.2e}")
