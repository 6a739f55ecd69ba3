"""Cylinder functions for complex arguments.

Thin, contract-checked wrappers around the Amos routines in
``scipy.special`` (and, for the real-argument Hankel pair below, its
real Bessel routines) providing the Bessel function J_n and the Hankel
function H^(1)_n of the first kind, for integer order ``n >= 0`` and
complex argument ``z``. No derivative is wrapped: the mode solver takes
Z_n' from its own J and H1 tables (``wavefields._radial``), and the
resonance construction takes J0' and J0'' from one J table of orders
0..2 (``modesolver._j0_derivatives``).

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

``bessel_j`` and ``hankel1`` also take an array of orders, which
broadcasts against ``z``; the order and argument checks then run once
for the whole array. The mode solver (through ``wavefields.basis_matrix``)
calls them this way, once per radial kind over every wavenumber and
radius of a stack of media: ``bessel_j`` over every order, ``hankel1``
over the two lowest orders only, which seed the forward order recurrence
of the rest of the H1 table.

Values are unscaled, so they overflow for large ``|Im z|`` or, for H1,
for orders far above ``|z|``; the mode solver reports such a mode as a
``ModeOverflowError``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bessel_j", "hankel1"]


def _special():
    from scipy import special  # deferred: loaded on the first evaluation

    return special


def _check_args(n, z):
    n = np.asarray(n)
    if n.dtype.kind not in "iu":  # a float order must hold an integer
        frac = ~np.isfinite(n) | (n != np.floor(n))
        if frac.any():
            raise ValueError(f"order must be an integer, got {n[frac].flat[0]}")
    low = n.min(initial=0)  # an array of orders: one check for all of them
    if low < 0:
        raise ValueError(f"order must be >= 0, got {low}")
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError("argument must be finite")
    return n, z


def bessel_j(n, z):
    """J_n(z) for complex z."""
    n, z = _check_args(n, z)
    out = _special().jv(n, z)
    return complex(out) if np.isscalar(out) or out.ndim == 0 else out


def hankel1(n, z):
    """H^(1)_n(z) = J_n + i Y_n for complex z != 0."""
    n, z = _check_args(n, z)
    if (z == 0).any():
        raise ValueError("H^(1)_n is singular at z = 0")
    out = _special().hankel1(n, z)
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
