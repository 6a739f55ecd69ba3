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
over arrays of orders and radii, for one medium or a stack of media,
with the Bessel second derivatives eliminated through the defining ODE,
so all entries use only Z and Z'. The mode solver passes every
(medium, radius) point of one call as such a stack.

``basis_matrix`` checks the orders and ``wavenumbers`` the medium, once
per call, where they enter; the tables below them call the Amos routines
of ``scipy.special`` directly. This is the only module of the library
that imports ``scipy.special``, through ``_special`` on first use: the
import costs about 0.3 s, most of it scipy's array-API shim, and a run
that evaluates no cylinder function, such as the ``design`` command,
does not pay it.

Values are unscaled, so they overflow for large ``|Im z|`` or, for H1,
for orders far above ``|z|``; the mode solver reports such a mode as a
``ModeOverflowError``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = ["wavenumbers", "ModeField"]

BASIS_FULL = (("J", "P"), ("H", "P"), ("J", "S"), ("H", "S"))
BASIS_REGULAR = (("J", "P"), ("J", "S"))
BASIS_OUTGOING = (("H", "P"), ("H", "S"))


def _special():
    from scipy import special  # deferred: loaded on the first evaluation

    return special


def wavenumbers(medium, omega):
    """Compressional and shear wavenumbers (kp, ks) of an isotropic medium.

    A medium with a non-finite constant, or with mu, lam + 2 mu or rho
    zero, has no finite nonzero wavenumbers and is refused.
    """
    lam, mu, rho = complex(medium.lam), complex(medium.mu), complex(medium.rho)
    if not all(map(cmath.isfinite, (lam, mu, rho))) or 0 in (mu, lam + 2.0 * mu, rho):
        raise ValueError(
            "medium needs finite lam, mu, rho with mu, lam + 2 mu and rho nonzero, "
            f"got lam={medium.lam}, mu={medium.mu}, rho={medium.rho}")
    kp = omega * np.sqrt(rho / (lam + 2.0 * mu))
    ks = omega * np.sqrt(rho / mu)
    return kp, ks


def _radial(kind, orders, z):
    """Z_n(z) and Z_n'(z) for the 1-D ``orders`` against ``z`` of shape
    (C,) + zs, each of shape (C, len(orders)) + zs.

    One scipy call evaluates the table of orders lo .. max+1: every
    order for J, the two lowest for H1. H1 is the dominant solution of
    Z_{n+1} = (2n/z) Z_n - Z_{n-1} (Abramowitz & Stegun 9.1.27), so the
    rest of its table comes from that forward recurrence, which is stable
    (Gautschi, SIAM Rev. 9, 1967). An H1 value past ~1e308 comes back as
    inf or nan, and so does every higher order.
    Z_n' = (Z_{n-1} - Z_{n+1}) / 2, with Z_{-1} = -Z_1 for J and H1.
    """
    if kind not in ("J", "H"):
        raise ValueError(f"unknown radial kind {kind!r}")
    # orders lo .. max+1 cover every Z_{n-1} and Z_{n+1}
    low = orders.min()
    lo = low - 1 if low > 0 else low
    nu = np.arange(lo, orders.max() + 2)
    if kind == "J":
        table = _special().jv(nu.reshape((1, -1) + (1,) * (z.ndim - 1)), z[:, None])
    else:
        # the recurrence steps over the leading axis of ``rows``, one vector
        # operation per order over the whole stack
        rows = np.empty(nu.shape + z.shape, dtype=complex)
        rows[:2] = _special().hankel1(nu[:2].reshape((2,) + (1,) * z.ndim), z)
        h = list(rows)
        for k, ratio in enumerate(2.0 * nu[1:-1].reshape((-1,) + (1,) * z.ndim) / z, start=2):
            np.multiply(ratio, h[k - 1], out=h[k])
            h[k] -= h[k - 2]
        table = np.moveaxis(rows, 0, 1)
    i = orders - lo
    below = table[:, np.abs(orders - 1) - lo]
    if low == 0:
        below[:, orders == 0] *= -1.0
    return table[:, i], 0.5 * (below - table[:, i + 1])


def _medium_constants(media, omega):
    """Per-medium constants of the basis formulas, each of shape (C,).

    They are formed in scalar arithmetic, once per distinct medium of the
    stack: a complex power such as ks**2 rounds differently on an array.
    """
    index, rows = {}, []  # a stack of points repeats its media
    at = [index.setdefault(medium, len(index)) for medium in media]
    for medium in index:
        mu, rho = complex(medium.mu), complex(medium.rho)
        kp, ks = wavenumbers(medium, omega)
        rows.append((kp, ks, mu, 2.0 * mu, -2.0 * mu, rho * omega**2, 2.0 * mu * kp,
                     -ks, ks**2, 2.0 * ks))
    return np.array(rows, dtype=complex)[at].T


def _orders(n):
    """The orders ``n`` as an int array. An order that is not a
    non-negative integer (a fraction, NaN, inf or a bool) is refused
    before the cast, which would turn it into a valid one."""
    n = np.asarray(n)
    if n.dtype.kind in "iuf":
        bad = ~((n >= 0) & (n < np.inf) & (n == np.floor(n)))
    else:  # a bool, complex or non-numeric order
        bad = np.ones(n.shape, dtype=bool)
    if bad.any():
        raise ValueError(f"order must be >= 0 and an integer, got {n[bad].flat[0]}")
    return n.astype(int)


def basis_matrix(medium, n, r, omega, kinds):
    """Basis columns (u_r, u_th, sigma_rr, sigma_rth), shape (4, len(kinds)).

    ``n`` may be a 1-D array of orders and ``r`` an array of radii; the
    result then has shape n.shape + r.shape + (4, len(kinds)). ``medium``
    may also be a list or tuple of C media, with ``r`` of shape
    (C,) + rs holding each medium's radii; the result then has shape
    (C,) + n.shape + rs + (4, len(kinds)); a medium may recur in the
    stack, and its constants are formed once. Either way one scipy call
    per radial kind (J, H) evaluates or seeds the whole stack (see
    ``_radial``).
    Angular dependence: u_r, sigma_rr carry cos(n th); u_th, sigma_rth
    carry sin(n th).
    """
    if not 0 < omega < np.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    stacked = isinstance(medium, (list, tuple))
    media = medium if stacked else (medium,)
    r = np.asarray(r, dtype=float)
    if not stacked:
        r = r[None]  # a single medium is the C = 1 stack
    if not ((r > 0) & (r < np.inf)).all():
        raise ValueError("radius must be positive and finite")
    if r.shape[0] != len(media):
        raise ValueError("one row of radii per medium required")
    orders = _orders(n)
    shape = (len(media),) + orders.shape + r.shape[1:] + (4, len(kinds))
    orders = orders.reshape(-1)
    # every array below has shape (C, M) + rs, or broadcasts to it; for one
    # medium the stack axis is dropped (indexed by ``at``), so that numpy
    # works on 1-D arrays and scalars, its fastest case
    if len(media) > 1:
        at, radii, per_medium = slice(None), r[:, None], (len(media),) + (1,) * r.ndim
    else:
        at, radii, per_medium = 0, r[0], ()
    n_r = (orders.reshape((1, -1) + (1,) * (r.ndim - 1)) / radii)[at]
    const = _medium_constants(media, omega)
    # P and S arguments, (C, 2) + rs
    kr = const[:2].T.reshape((len(media), 2) + (1,) * (r.ndim - 1)) * radii
    kp, ks, mu, mu2, mu2_neg, rho_w2, mu2_kp, ks_neg, ks_sq, ks2 = const.reshape(
        (-1,) + per_medium)
    # the factors that the kinds of one polarization share: pK (sK) leads row
    # K of a P (S) column, and p2p, s3p multiply Z' in rows 2 and 3
    n_r2 = n_r**2
    p1, p2, p2p, p3 = -n_r, mu2 * n_r2 - rho_w2, mu2_kp / radii, mu2_neg * n_r
    s2, s3, s3p = mu2 * n_r, ks_sq - 2.0 * n_r2, ks2 / radii
    radial = {}  # kind -> (Z, Z'), shape (C, M, 2) + rs
    out = np.empty((len(media), orders.size) + r.shape[1:] + (4, len(kinds)), dtype=complex)
    # an unscaled Hankel value that overflows comes back as inf or nan; the
    # arithmetic on it stays quiet, as Python complex arithmetic is, and
    # the mode solver reports non-finite systems with a typed error
    with np.errstate(over="ignore", invalid="ignore"):
        for c, (kind, pol) in enumerate(kinds):
            if kind not in radial:
                radial[kind] = _radial(kind, orders, kr)
            values, derivs = radial[kind]
            if pol == "P":
                Z, Zp = values[at, :, 0], derivs[at, :, 0]
                kZp = kp * Zp
                out[at, ..., 0, c] = kZp
                out[at, ..., 1, c] = p1 * Z
                out[at, ..., 2, c] = p2 * Z - p2p * Zp
                out[at, ..., 3, c] = p3 * (kZp - Z / radii)
            elif pol == "S":
                W, Wp = values[at, :, 1], derivs[at, :, 1]
                out[at, ..., 0, c] = n_r * W
                out[at, ..., 1, c] = ks_neg * Wp
                out[at, ..., 2, c] = s2 * (ks * Wp - W / radii)
                out[at, ..., 3, c] = mu * (s3 * W + s3p * Wp)
            else:
                raise ValueError(f"unknown polarization {pol!r}")
    return out.reshape(shape if stacked else shape[1:])


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
