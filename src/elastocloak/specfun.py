"""Cylinder functions for complex arguments.

Thin, contract-checked wrappers around the Amos routines in
``scipy.special`` (and, for the real-argument Hankel pair below, its
real Bessel routines) providing Bessel functions of the first and second kind,
Hankel functions of the first kind for integer order ``n >= 0`` and
complex argument ``z``, with the first derivatives of J and Y and the
second derivative of J.

This is the only module of the library that imports ``scipy.special``,
and it loads it on first use. The import costs about 0.3 s, most of it
scipy's array-API shim (which loads ``numpy.f2py``, ``numpy.testing`` and
``numpy.ma``); a run that evaluates no cylinder function, such as the
``design`` command, does not pay it.

The 2D point kernels (``kernels._g2``, and through it ``green_omega``,
``green_traction``, ``asymptotic_gap_2d``, ``layer_operators``, both
layer potentials and ``harness.kernel_check``) take H0 and H1 together
from ``_hankel1_pair``. A lossless medium has a real wavenumber and passes
a positive real argument, which takes scipy's real J0, Y0, J1 and Y1
(Cephes): on 128 points the pair costs about 21 us against 0.14 ms
through the complex Amos routine (2-vCPU Intel Xeon). Against a
30-digit oracle each of H0 and H1 is then within 5e-15 relative for
z <= 50 and within 5e-14 for z <= 300 (Amos: 1e-15). A complex argument
(a lossy medium) keeps ``hankel1``, bit for bit.

``bessel_j``, ``bessel_y`` and ``hankel1`` also take an array of orders,
which broadcasts against ``z``; the order and argument checks then run
once for the whole array. The mode solver (through
``wavefields.basis_matrix``) calls the unscaled functions this way, once
per radial kind over every wavenumber and radius of a stack of media:
``bessel_j`` over every order, ``hankel1`` over the two lowest orders
only, which seed the forward order recurrence of the rest of the H1
table. It takes derivatives from the same tables.

The ``scaled`` variants multiply out the exponential growth:

* J/Y family scaled by ``exp(-|Im z|)``,
* H1 family scaled by ``exp(-1j*z)``.

Unscaled values overflow for large ``|Im z|`` or, for ``H1``, for orders
far above ``|z|``; nothing in the library calls the scaled forms yet.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bessel_j",
    "bessel_j_prime",
    "bessel_j_second",
    "bessel_y",
    "bessel_y_prime",
    "hankel1",
]


def _special():
    from scipy import special  # deferred: loaded on the first evaluation

    return special


def _check_args(n, z):
    if np.isscalar(n):
        n = low = int(n)
    else:  # an array of orders: one check for all of them
        n = np.asarray(n).astype(int)
        low = n.min(initial=0)
    if low < 0:
        raise ValueError(f"order must be >= 0, got {low}")
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError("argument must be finite")
    return n, z


def bessel_j(n, z, scaled=False):
    """J_n(z) for complex z; ``scaled`` multiplies by exp(-|Im z|)."""
    n, z = _check_args(n, z)
    sp = _special()
    out = sp.jve(n, z) if scaled else sp.jv(n, z)
    return complex(out) if np.isscalar(out) or out.ndim == 0 else out


def bessel_y(n, z, scaled=False):
    """Y_n(z) for complex z (z != 0); ``scaled`` multiplies by exp(-|Im z|)."""
    n, z = _check_args(n, z)
    if (z == 0).any():
        raise ValueError("Y_n is singular at z = 0")
    sp = _special()
    out = sp.yve(n, z) if scaled else sp.yv(n, z)
    return complex(out) if np.isscalar(out) or out.ndim == 0 else out


def hankel1(n, z, scaled=False):
    """H^(1)_n(z) = J_n + i Y_n; ``scaled`` multiplies by exp(-1j z)."""
    n, z = _check_args(n, z)
    if (z == 0).any():
        raise ValueError("H^(1)_n is singular at z = 0")
    sp = _special()
    out = sp.hankel1e(n, z) if scaled else sp.hankel1(n, z)
    return complex(out) if np.isscalar(out) or out.ndim == 0 else out


def _hankel1_pair(z):
    """(H^(1)_0(z), H^(1)_1(z)).

    A real ``z`` must be positive and takes H = J + iY from the real
    J0, Y0, J1, Y1; any other ``z`` takes ``hankel1`` for both orders in
    one call.
    """
    z = np.asarray(z)
    if np.iscomplexobj(z):
        h = hankel1(np.arange(2).reshape((2,) + (1,) * z.ndim), z)
        return h[0], h[1]
    if not np.isfinite(z).all():
        raise ValueError("argument must be finite")
    if (z <= 0).any():
        raise ValueError("real argument must be positive")
    sp = _special()
    return sp.j0(z) + 1j * sp.y0(z), sp.j1(z) + 1j * sp.y1(z)


def _prime(fun, n, z, scaled):
    # d/dz Z_n = (Z_{n-1} - Z_{n+1}) / 2, with Z_{-1} = -Z_1 for J/Y.
    # The scale factors are independent of the order, so the recurrence
    # holds verbatim for the scaled values.
    if n == 0:
        return -fun(1, z, scaled)
    return 0.5 * (fun(n - 1, z, scaled) - fun(n + 1, z, scaled))


def bessel_j_prime(n, z, scaled=False):
    """d/dz J_n(z)."""
    n, z = _check_args(n, z)
    return _prime(bessel_j, n, z, scaled)


def bessel_y_prime(n, z, scaled=False):
    """d/dz Y_n(z)."""
    n, z = _check_args(n, z)
    if (z == 0).any():
        raise ValueError("Y_n is singular at z = 0")
    return _prime(bessel_y, n, z, scaled)


def bessel_j_second(n, z, scaled=False):
    """d^2/dz^2 J_n(z) = (J_{n-2} - 2 J_n + J_{n+2}) / 4."""
    n, z = _check_args(n, z)
    return 0.25 * (_signed_j(n - 2, z, scaled) - 2.0 * bessel_j(n, z, scaled)
                   + bessel_j(n + 2, z, scaled))


def _signed_j(n, z, scaled):
    # J_{-n} = (-1)^n J_n for integer order
    m = abs(int(n))
    z = np.asarray(z, dtype=complex)
    val = _special().jve(m, z) if scaled else _special().jv(m, z)
    out = (-1.0) ** m * val
    return complex(out) if np.isscalar(out) or np.asarray(out).ndim == 0 else out
