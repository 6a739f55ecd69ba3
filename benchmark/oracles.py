"""Reference values computed apart from the library.

Nothing here imports ``elastocloak``. Each reference is derived from the
governing equations with its own code path:

* the uniform-disk NtD map from mpmath Bessel functions and the Helmholtz
  potentials, differentiated by hand (not through the library's ODE
  elimination);
* the 2D Navier Green tensor of a point force and its traction, from
  ``scipy.special.h1vp`` derivatives and the product rule;
* the ideal-cloak polar table and density from the closed form;
* the outer traction condition of the resonant inclusion from mpmath;
* log-log slopes by ``numpy.polyfit``.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import special

MP_DIGITS = 30


# ---------------------------------------------------------------------------
# uniform-disk NtD map


def uniform_disk_ntd(lam, mu, rho, radius, omega, n_max, digits=MP_DIGITS):
    """Per-mode 2x2 traction-to-displacement blocks of a uniform disk.

    Potentials phi = J_n(kp r) cos(n th) and psi = J_n(ks r) sin(n th) give
    u = grad phi + curl(psi e_z). With u_r = a(r) cos(n th) and
    u_th = b(r) sin(n th) the stresses are

        s_rr = lam div u + 2 mu a',   s_rt = mu (b' - b/r - n a / r),

    and the block is U S^-1 for the two potentials. Evaluated in mpmath at
    ``digits`` significant digits.
    """
    with mpmath.workdps(digits):
        lam, mu, rho = mpmath.mpc(lam), mpmath.mpc(mu), mpmath.mpc(rho)
        w = mpmath.mpf(omega)
        r = mpmath.mpf(radius)
        kp = w * mpmath.sqrt(rho / (lam + 2 * mu))
        ks = w * mpmath.sqrt(rho / mu)
        out = np.empty((n_max + 1, 2, 2), dtype=complex)
        for n in range(n_max + 1):
            Jp = [mpmath.besselj(n, kp * r, derivative=m) for m in range(3)]
            Js = [mpmath.besselj(n, ks * r, derivative=m) for m in range(3)]
            # compressional potential
            aP, daP = kp * Jp[1], kp**2 * Jp[2]
            bP = -(n / r) * Jp[0]
            dbP = (n / r**2) * Jp[0] - (n * kp / r) * Jp[1]
            divP = -(kp**2) * Jp[0]
            # shear potential (divergence free)
            aS = (n / r) * Js[0]
            daS = -(n / r**2) * Js[0] + (n * ks / r) * Js[1]
            bS, dbS = -ks * Js[1], -(ks**2) * Js[2]
            U = mpmath.matrix([[aP, aS], [bP, bS]])
            S = mpmath.matrix([
                [lam * divP + 2 * mu * daP, 2 * mu * daS],
                [mu * (dbP - bP / r - n * aP / r), mu * (dbS - bS / r - n * aS / r)],
            ])
            B = U * mpmath.inverse(S)
            for i in range(2):
                for j in range(2):
                    out[n, i, j] = complex(B[i, j])
    return out


# ---------------------------------------------------------------------------
# 2D point-force field


def point_force_field(points, source, force, normals, omega, lam, mu, rho):
    """Displacement and traction of a time-harmonic point force in 2D.

    The field of a force ``force`` at ``source`` solving
    mu Lap u + (lam+mu) grad div u + rho omega^2 u = -delta force is
    u = alpha q + beta uhat (uhat . q) with
    alpha = G_s/mu + D'/(rho w^2 d), beta = (D'' - D'/d)/(rho w^2),
    G_k = (i/4) H0(k d) and D = G_ks - G_kp. The traction on a surface of
    normal ``normals`` is sigma(u) n with sigma = lam div u I + 2 mu eps(u).

    Returns (u, t), each of shape (m, 2).
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    nrm = np.atleast_2d(np.asarray(normals, dtype=float))
    q = np.asarray(force, dtype=complex)
    kp = omega * np.sqrt(rho / (lam + 2 * mu))
    ks = omega * np.sqrt(rho / mu)
    r = x - np.asarray(source, dtype=float)[None, :]
    d = np.hypot(r[:, 0], r[:, 1])
    uh = r / d[:, None]

    def g(k, m):
        # m-th derivative in d of (i/4) H0(k d)
        return 0.25j * k**m * special.h1vp(0, k * d, m) if m else 0.25j * special.hankel1(0, k * d)

    rw2 = rho * omega**2
    D1, D2, D3 = (g(ks, m) - g(kp, m) for m in (1, 2, 3))
    alpha = g(ks, 0) / mu + D1 / (rw2 * d)
    beta = (D2 - D1 / d) / rw2
    dalpha = g(ks, 1) / mu + (D2 * d - D1) / (rw2 * d**2)
    dbeta = (D3 - D2 / d + D1 / d**2) / rw2

    uq = uh @ q
    u = alpha[:, None] * q[None, :] + (beta * uq)[:, None] * uh
    eye = np.eye(2)
    # grad[m, k, i] = d u_i / d x_k
    grad = (
        dalpha[:, None, None] * uh[:, :, None] * q[None, None, :]
        + (dbeta * uq)[:, None, None] * uh[:, :, None] * uh[:, None, :]
        + (beta * uq / d)[:, None, None] * (eye[None] - uh[:, :, None] * uh[:, None, :])
        + (beta / d)[:, None, None] * uh[:, None, :]
        * (q[None, :] - uh * uq[:, None])[:, :, None]
    )
    div = grad[:, 0, 0] + grad[:, 1, 1]
    eps = 0.5 * (grad + grad.transpose(0, 2, 1))
    sigma = lam * div[:, None, None] * eye[None] + 2.0 * mu * eps
    t = np.einsum("mik,mk->mi", sigma, nrm)
    return u, t


# ---------------------------------------------------------------------------
# closed forms used by the CLI checks


def ideal_cloak_row(lam, mu, r):
    """Closed-form polar entries and density of the ideal cloak at r."""
    grow, shrink = r / (r - 1.0), (r - 1.0) / r
    return {
        "C_rrrr": (lam + 2 * mu) * shrink,
        "C_tttt": (lam + 2 * mu) * grow,
        "C_rrtt": lam,
        "C_ttrr": lam,
        "C_rttr": mu,
        "C_trrt": mu,
        "C_rtrt": mu * grow,
        "C_trtr": mu * shrink,
        "rho": 4.0 * (r - 1.0) / r,
    }


def outer_traction_residual(lam, mu, rho1, r1, omega):
    """|2 mu J0''(kp1 r1) - lam J0(kp1 r1)| in mpmath."""
    with mpmath.workdps(MP_DIGITS):
        kp1 = mpmath.mpf(omega) * mpmath.sqrt(mpmath.mpf(rho1) / (lam + 2 * mu))
        t = kp1 * r1
        return float(abs(2 * mu * mpmath.besselj(0, t, derivative=2) - lam * mpmath.besselj(0, t)))


def loglog_slope(h, values):
    """Least-squares slope and r^2 of log(values) against log(h)."""
    x, y = np.log(np.asarray(h, float)), np.log(np.asarray(values, float))
    slope, icpt = np.polyfit(x, y, 1)
    resid = y - (slope * x + icpt)
    ss = float(np.sum((y - y.mean()) ** 2))
    return float(slope), 1.0 - float(np.sum(resid**2)) / ss if ss > 0 else 0.0


def rel_err(a, b):
    """max |a - b| / max |b|; 0 when both vanish."""
    a, b = np.asarray(a), np.asarray(b)
    scale = float(np.abs(b).max()) if b.size else 0.0
    diff = float(np.abs(a - b).max()) if b.size else 0.0
    return diff / scale if scale > 0 else (0.0 if diff == 0 else math.inf)
