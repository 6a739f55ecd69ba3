"""Per-Fourier-mode radial wave fields for isotropic annuli.

Displacements derive from two Helmholtz potentials: a compressional
potential ``phi = Z_n(kp r) cos(n th)`` and a shear potential
``psi = W_n(ks r) sin(n th)`` with ``u = grad phi + curl(psi e_z)`` and

    kp = omega * sqrt(rho / (lam + 2 mu)),   ks = omega * sqrt(rho / mu).

The cos/sin pairing closes under the Navier operator, so one 2x2 block
per mode captures the full physics (the sin/-cos family is its mirror
image). Radial factors Z, W are Bessel J (regular) or Hankel H1
(outgoing); cores use J only.

``basis_matrix`` returns the columns (u_r, u_th, s_rr, s_rt) of angular
coefficients of the basis functions, at one order and radius or stacked
over arrays of orders and radii, with the Bessel second derivatives
eliminated through the defining ODE, so all entries use only Z and Z'.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import specfun

__all__ = [
    "wavenumbers",
    "basis_column",
    "ModeField",
    "BASIS_FULL",
    "BASIS_REGULAR",
    "BASIS_OUTGOING",
]

BASIS_FULL = (("J", "P"), ("H", "P"), ("J", "S"), ("H", "S"))
BASIS_REGULAR = (("J", "P"), ("J", "S"))
BASIS_OUTGOING = (("H", "P"), ("H", "S"))


def wavenumbers(medium, omega):
    """Compressional and shear wavenumbers (kp, ks) of an isotropic medium."""
    lam, mu, rho = complex(medium.lam), complex(medium.mu), complex(medium.rho)
    kp = omega * np.sqrt(rho / (lam + 2.0 * mu))
    ks = omega * np.sqrt(rho / mu)
    return kp, ks


def _radial(kind, orders, z):
    """Z_n(z) and Z_n'(z) for the 1-D ``orders`` against ``z``, each of
    shape orders.shape + z.shape.

    One specfun call evaluates every order needed;
    Z_n' = (Z_{n-1} - Z_{n+1}) / 2, with Z_{-1} = -Z_1 for J and H1.
    """
    if kind == "J":
        fun = specfun.bessel_j
    elif kind == "H":
        fun = specfun.hankel1
    else:
        raise ValueError(f"unknown radial kind {kind!r}")
    # orders lo .. max+1 cover every Z_{n-1} and Z_{n+1}; a negative order
    # reaches specfun, which rejects it
    low = orders.min()
    lo = low - 1 if low > 0 else low
    table = fun(np.arange(lo, orders.max() + 2).reshape((-1,) + (1,) * z.ndim), z)
    i = orders - lo
    below = table[np.abs(orders - 1) - lo]
    if low == 0:
        below[orders == 0] *= -1.0
    return table[i], 0.5 * (below - table[i + 1])


def basis_matrix(medium, n, r, omega, kinds):
    """Basis columns (u_r, u_th, sigma_rr, sigma_rth), shape (4, len(kinds)).

    ``n`` may be a 1-D array of orders and ``r`` an array of radii; the
    result then has shape n.shape + r.shape + (4, len(kinds)), evaluated
    with one specfun call per radial kind (J, H). Angular dependence: u_r,
    sigma_rr carry cos(n th); u_th, sigma_rth carry sin(n th).
    """
    r = np.asarray(r, dtype=float)
    if (r <= 0).any():
        raise ValueError("radius must be positive")
    orders = np.asarray(n).astype(int)
    shape = orders.shape + r.shape + (4, len(kinds))
    orders = orders.reshape(-1)
    n_r = orders.reshape((-1,) + (1,) * r.ndim) / r
    mu, rho = complex(medium.mu), complex(medium.rho)
    kp, ks = wavenumbers(medium, omega)
    kr = np.array([kp, ks]).reshape((2,) + (1,) * r.ndim) * r  # P and S arguments
    radial = {}  # kind -> (Z, Z'), shape (M, 2) + r.shape
    out = np.empty((orders.size,) + r.shape + (4, len(kinds)), dtype=complex)
    # an unscaled Hankel value that overflows comes back as nan; the
    # arithmetic on it stays quiet, as Python complex arithmetic is, and
    # the mode solver reports non-finite systems with a typed error
    with np.errstate(over="ignore", invalid="ignore"):
        for c, (kind, pol) in enumerate(kinds):
            if kind not in radial:
                radial[kind] = _radial(kind, orders, kr)
            values, derivs = radial[kind]
            if pol == "P":
                k, Z, Zp = kp, values[:, 0], derivs[:, 0]
                out[..., 0, c] = k * Zp
                out[..., 1, c] = -n_r * Z
                out[..., 2, c] = ((2.0 * mu * n_r**2 - rho * omega**2) * Z
                                  - (2.0 * mu * k / r) * Zp)
                out[..., 3, c] = -2.0 * mu * n_r * (k * Zp - Z / r)
            elif pol == "S":
                k, W, Wp = ks, values[:, 1], derivs[:, 1]
                out[..., 0, c] = n_r * W
                out[..., 1, c] = -k * Wp
                out[..., 2, c] = 2.0 * mu * n_r * (k * Wp - W / r)
                out[..., 3, c] = mu * ((ks**2 - 2.0 * n_r**2) * W + (2.0 * ks / r) * Wp)
            else:
                raise ValueError(f"unknown polarization {pol!r}")
    return out.reshape(shape)


def basis_column(medium, n, r, omega, kind, pol):
    """Boundary column (u_r, u_th, sigma_rr, sigma_rth) at radius r."""
    return basis_matrix(medium, n, r, omega, ((kind, pol),))[..., 0]


@dataclass(frozen=True)
class ModeField:
    """A single-mode field in one isotropic region.

    ``terms`` pairs each (kind, pol) basis function with its coefficient.
    """

    medium: object
    omega: float
    n: int
    terms: tuple  # of (kind, pol, coeff)

    def boundary_values(self, r):
        """(u_r, u_th, sigma_rr, sigma_rth) angular coefficients at radius r
        (shape r.shape + (4,) for an array of radii)."""
        kinds = tuple((kind, pol) for kind, pol, _ in self.terms)
        coeffs = np.array([c for _, _, c in self.terms], dtype=complex)
        return basis_matrix(self.medium, self.n, r, self.omega, kinds) @ coeffs

    def displacement_polar(self, r):
        v = self.boundary_values(r)
        return v[..., 0], v[..., 1]

    def traction_polar(self, r):
        v = self.boundary_values(r)
        return v[..., 2], v[..., 3]

    def displacement_cartesian(self, points):
        """Physical displacement vectors at Cartesian points, shape (m, 2).

        Reconstructs u = (u_r cos(n th)) rhat + (u_th sin(n th)) that.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((pts.shape[0], 2), dtype=complex)
        for i, p in enumerate(pts):
            r = float(np.hypot(p[0], p[1]))
            th = float(np.arctan2(p[1], p[0]))
            ur, ut = self.displacement_polar(r)
            cr, sr = np.cos(self.n * th), np.sin(self.n * th)
            rhat = np.array([np.cos(th), np.sin(th)])
            that = np.array([-np.sin(th), np.cos(th)])
            out[i] = ur * cr * rhat + ut * sr * that
        return out if np.asarray(points).ndim > 1 else out[0]

    def restrict(self, pols):
        """Keep only terms with polarization in ``pols`` (e.g. {"P"})."""
        kept = tuple(t for t in self.terms if t[1] in pols)
        return replace(self, terms=kept)
