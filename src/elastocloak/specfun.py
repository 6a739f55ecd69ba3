"""Cylinder functions for complex arguments.

Thin, contract-checked wrappers around the Amos routines in
``scipy.special`` providing Bessel functions of the first and second kind,
Hankel functions of the first kind, and their first/second derivatives for
integer order ``n >= 0`` and complex argument ``z``.

``bessel_j``, ``bessel_y`` and ``hankel1`` also take an array of orders,
which broadcasts against ``z``; the order and argument checks then run
once for the whole array. The mode solver (through
``wavefields.basis_matrix``) calls the unscaled ``bessel_j`` and
``hankel1`` this way, once per radial kind over every order, wavenumber
and radius it needs, and takes derivatives from the same array.

The ``scaled`` variants multiply out the exponential growth:

* J/Y family scaled by ``exp(-|Im z|)``,
* H1 family scaled by ``exp(-1j*z)``.

Unscaled values overflow for large ``|Im z|`` or, for ``H1``, for orders
far above ``|z|``; nothing in the library calls the scaled forms yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

__all__ = [
    "CylEval",
    "bessel_j",
    "bessel_j_prime",
    "bessel_j_second",
    "bessel_y",
    "bessel_y_prime",
    "hankel1",
    "hankel1_prime",
    "cyl_eval",
]


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
    out = _sp.jve(n, z) if scaled else _sp.jv(n, z)
    return complex(out) if np.isscalar(out) or out.ndim == 0 else out


def bessel_y(n, z, scaled=False):
    """Y_n(z) for complex z (z != 0); ``scaled`` multiplies by exp(-|Im z|)."""
    n, z = _check_args(n, z)
    if (z == 0).any():
        raise ValueError("Y_n is singular at z = 0")
    out = _sp.yve(n, z) if scaled else _sp.yv(n, z)
    return complex(out) if np.isscalar(out) or out.ndim == 0 else out


def hankel1(n, z, scaled=False):
    """H^(1)_n(z) = J_n + i Y_n; ``scaled`` multiplies by exp(-1j z)."""
    n, z = _check_args(n, z)
    if (z == 0).any():
        raise ValueError("H^(1)_n is singular at z = 0")
    out = _sp.hankel1e(n, z) if scaled else _sp.hankel1(n, z)
    return complex(out) if np.isscalar(out) or out.ndim == 0 else out


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


def hankel1_prime(n, z, scaled=False):
    """d/dz H^(1)_n(z)."""
    n, z = _check_args(n, z)
    if (z == 0).any():
        raise ValueError("H^(1)_n is singular at z = 0")
    return _prime(hankel1, n, z, scaled)


def bessel_j_second(n, z, scaled=False):
    """d^2/dz^2 J_n(z) = (J_{n-2} - 2 J_n + J_{n+2}) / 4."""
    n, z = _check_args(n, z)
    return 0.25 * (_signed_j(n - 2, z, scaled) - 2.0 * bessel_j(n, z, scaled)
                   + bessel_j(n + 2, z, scaled))


def _signed_j(n, z, scaled):
    # J_{-n} = (-1)^n J_n for integer order
    m = abs(int(n))
    val = _sp.jve(m, np.asarray(z, dtype=complex)) if scaled else _sp.jv(m, np.asarray(z, dtype=complex))
    out = (-1.0) ** m * val
    return complex(out) if np.isscalar(out) or np.asarray(out).ndim == 0 else out


@dataclass(frozen=True)
class CylEval:
    """Bundle of cylinder-function values at a single (order, argument)."""

    n: int
    z: complex
    scaled: bool
    J: complex
    Y: complex
    H1: complex
    J_prime: complex
    H1_prime: complex
    J_second: complex


def cyl_eval(n, z, scaled=False):
    """Evaluate the full J/Y/H1 bundle with derivatives at one point."""
    n, zz = _check_args(n, z)
    z = complex(zz)
    if z == 0:
        raise ValueError("cyl_eval requires z != 0 (Y and H1 are singular)")
    return CylEval(
        n=n,
        z=z,
        scaled=scaled,
        J=bessel_j(n, z, scaled),
        Y=bessel_y(n, z, scaled),
        H1=hankel1(n, z, scaled),
        J_prime=bessel_j_prime(n, z, scaled),
        H1_prime=hankel1_prime(n, z, scaled),
        J_second=bessel_j_second(n, z, scaled),
    )
