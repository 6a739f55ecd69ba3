"""Navier fundamental solutions and spectrally accurate layer potentials.

Shows the dynamic/static Green tensors, the additive constant of their
small-separation gap, and the Nystrom boundary operators on a circle
verified through the interior Calderon identity (1/2) u + K u = S(T u).
"""

import numpy as np

from elastocloak import (
    IsotropicMedium,
    asymptotic_gap_2d,
    circle_quadrature,
    eta_constant,
    green_omega,
    green_traction,
    layer_operators,
)

medium = IsotropicMedium(1.0, 1.0, 1.0)
omega = 1.0

x = np.array([0.3, 0.4])
y = np.array([-0.5, 0.2])
print("Pi_omega(x, y):")
print(green_omega(x, y, omega, medium, 2), "\n")
print("reciprocity defect:",
      np.abs(green_omega(x, y, omega, medium) - green_omega(y, x, omega, medium).T).max())

eta = eta_constant(omega, medium)
print(f"\nsmall-separation constant eta = {eta:.12f}")
for d in (1e-2, 1e-3, 1e-4):
    yy = x - d * np.array([0.8, 0.6])
    gap = green_omega(x, yy, omega, medium) - green_omega(x, yy, 0.0, medium)
    rem = np.abs(asymptotic_gap_2d(x, yy, omega, medium)).max()
    direct = np.abs(gap - eta * np.eye(2)).max()
    print(f"  d={d:7.1e}: |Pi_w - Pi_0 - eta I| = {rem:.3e}"
          f"   (d^2 |ln d| = {d**2*abs(np.log(d)):.3e};"
          f" as a difference of tensors {direct:.3e})")

print("\ninterior Calderon identity under grid refinement:")
src, q = np.array([3.0, 1.0]), np.array([0.7, -0.4])
for N in (32, 64, 128):
    quad = circle_quadrature(2.0, N)
    ops = layer_operators(quad, omega, medium)
    u = np.array([green_omega(p, src, omega, medium) @ q for p in quad.nodes])
    T = np.array([green_traction(src, p, nrm, omega, medium).T @ q
                  for p, nrm in zip(quad.nodes, quad.normals)])
    resid = 0.5 * u.reshape(-1) + ops.K @ u.reshape(-1) - ops.S @ T.reshape(-1)
    print(f"  N={N:4d}: max residual {np.abs(resid).max():.3e}")
