"""Ideal elastic cloak materials and their degeneracy.

Pushing the homogeneous background through the blow-up map compresses
the disk of radius 2 into the annulus 1 < r < 2. The resulting material
has closed-form polar entries; walking the radius toward the inner
interface shows the radial stiffness and density collapsing while the
hoop stiffness diverges, which is exactly why the regularized
construction exists.
"""

import numpy as np

from elastocloak import (
    IsotropicMedium,
    blowup_map,
    check_legendre,
    ideal_cloak_polar,
    iso_stiffness,
    pushforward_stiffness,
    symmetry_report,
    voigt_matrix,
)

bg = IsotropicMedium(lam=1.0, mu=1.0)

print("Background Voigt matrix (unscaled stress convention):")
print(voigt_matrix(iso_stiffness(bg, 2)).real, "\n")

print("Cloak material along the radius (polar frame):")
print(f"{'r':>6} {'C_rrrr':>10} {'C_tttt':>10} {'C_rtrt':>10} {'rho':>8} {'min ell.':>10}")
for r in (1.999, 1.5, 1.2, 1.05, 1.01):
    C, rho = ideal_cloak_polar(bg, r)
    _, c0 = check_legendre(C)  # exact: the smallest eigenvalue of a 3 x 3 form
    E = C.entries.real
    print(f"{r:6.3f} {E[0,0,0,0]:10.4f} {E[1,1,1,1]:10.2f} "
          f"{E[0,1,0,1]:10.2f} {rho:8.4f} {c0:10.2e}")

rep = symmetry_report(ideal_cloak_polar(bg, 1.5)[0], tol=1e-10)
print(f"\nmajor symmetry: {rep.major}, minor symmetry: {rep.minor} "
      f"(violation {rep.max_violation:.2f}) -- the transformed tensor is "
      "of the stress-asymmetric kind")

# the closed table and the generic push-forward are two routes to the
# same material
r = 1.37
C_closed, _ = ideal_cloak_polar(bg, r)
C_numeric = pushforward_stiffness(iso_stiffness(bg, 2), blowup_map(2), r)
gap = np.abs(C_closed.entries - C_numeric.entries).max()
print(f"\nclosed form vs numeric push-forward at r = {r}: max deviation {gap:.2e}")
