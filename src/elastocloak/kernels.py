"""Fundamental solutions, traction kernels, and circle layer potentials.

The displacement Green tensor of the time-harmonic Navier operator is

    Pi(x, y) = G_ks(x, y)/mu * I + grad grad [G_ks - G_kp] / (rho omega^2)
             = alpha(d) I + beta(d) uhat (x) uhat,        d = |x - y|,

with G_k the scalar Helmholtz fundamental solution and kp, ks the
compressional/shear wavenumbers. All derivatives are taken analytically
through Hankel/exponential recurrences; the 1/(rho omega^2) amplification
makes nested numerical differentiation useless here.

Every kernel reads the radial factors through one entry of its radial
pack, ``factors(d, rows)``, with ``rows`` the table slice ``_AB`` (alpha,
beta), ``_CS`` (c2, c3, c4) or ``_ALL`` (all five and their ln d parts).

Near the diagonal the radial factors are evaluated through explicit
even power series of the *difference* combinations (G_ks - G_kp and its
derivatives divided by powers of d), which removes the catastrophic
cancellation of the direct form and gives full precision down to d -> 0.
The series serve only |ks d| < 1, so each table keeps just the terms
that reach the rounding of its sum there (10 to 12 of 33), and
``factors`` sums the rows it selects as one power sum: the powers
d^(2m) are formed once, and each row is summed over m on its own. The
same series produce the additive constant ``eta_constant`` of the 2D
small-separation expansion

    Pi_omega = Pi_0 + eta I + O(d^2 log d),

and, below |ks d| = 1, the exact log/cot/smooth split used by the
spectral Nystrom quadratures for the boundary operators S and K on
circles. Past it the ln d part of the split is taken in closed form:
the ln d part of (i/4) H0(k d) is -J0(k d)/(2 pi). ``layer_operators``
evaluates each distinct node distance once, and fills half of each
matrix, the other half being its copy by the half-turn symmetry of the
circle.

The 2D point kernels (``_g2_pass``, and through it ``green_omega``,
``green_traction``, ``asymptotic_gap_2d``, ``layer_operators``, both
layer potentials and ``harness.kernel_check``) take H0 and H1 together
from ``_hankel1_pair``, which calls ``scipy.special`` through
``wavefields._special``, for ks and kp stacked in one evaluation, and
run the derivative formulas once over both. A lossless medium has real
wavenumbers and passes positive real arguments, which take scipy's real
J0, Y0, J1 and Y1 (Cephes): for both wavenumbers on 128 distances the
pair takes about 60 us against 0.35 ms through the complex Amos routine
(2-vCPU Intel Xeon). Against a 30-digit oracle each of H0 and H1 is
then within 5e-15 relative for z <= 50 and within 5e-14 for z <= 300
(Amos: 1e-15). Where either wavenumber is complex (a lossy medium, or
one with complex lam alone), both arguments are, and one Amos
``hankel1`` call serves them. The layer potentials contract the radial
factors with the density term by term, without forming a 2 x 2 tensor
per node. Every evaluator refuses a non-finite point, naming it.
Per-mode solves, the exterior cavity among them, are in ``modesolver``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensors import IsotropicMedium
from .wavefields import _special, wavenumbers

__all__ = [
    "green_omega",
    "green_traction",
    "eta_constant",
    "asymptotic_gap_2d",
    "CircleQuadrature",
    "circle_quadrature",
    "LayerOperators",
    "layer_operators",
    "sl_potential",
    "dl_potential",
]

_EULER = np.euler_gamma
_SERIES_TERMS = 32
_SERIES_SWITCH = 1.0  # |ks d| below which the series path is used


# ---------------------------------------------------------------------------
# even power series: coefficient arrays c of length _SERIES_TERMS + 1 for
# f(d) = sum_m c[m] d^(2m), zero-padded at the top degree

_DEG = np.arange(1, _SERIES_TERMS + 1)  # m = 1 .. _SERIES_TERMS


def _dlog(c):
    """Series of f'(d)/d."""
    return np.append(2.0 * _DEG * c[1:], 0.0)


def _d2(c):
    """Series of f''(d)."""
    return np.append(2.0 * _DEG * (2.0 * _DEG - 1.0) * c[1:], 0.0)


def _div_d2(c):
    """Series of f(d)/d^2; requires a vanishing constant term."""
    if abs(c[0]) > 1e-13 * max(1.0, abs(c).max()):
        raise ValueError("division by d^2 requires zero constant term")
    return np.append(c[1:], 0.0)


def _shift_const(c, v):
    c = c.copy()
    c[0] += v
    return c


def _series(c, d):
    """Every row of c[i, m] as an even series sum_m c[i, m] d^(2m): out[i, ...].

    The powers d^(2m) are formed once, by repeated products; each row's
    terms are then summed over m in order, one running sum per row and
    distance, so a row's value does not depend on the rows stacked with it.
    """
    d = np.asarray(d, dtype=float)
    p = np.empty((c.shape[1], d.size))
    p[0] = 1.0
    p[1:] = (d * d).reshape(-1)
    np.multiply.accumulate(p[1:], axis=0, out=p[1:])
    terms = c.T[:, :, None] * p[:, None, :]
    return np.add.accumulate(terms, axis=0)[-1].reshape(c.shape[:1] + d.shape)


def _log_plus_smooth(c, d, s):
    """(full, log) for the row pairs (log, smooth) of c at d, from one power
    sum: full = log ln d + s/d^2 + smooth, with s one coefficient per pair."""
    d = np.asarray(d, dtype=float)
    v = _series(c, d)
    log = v[0::2]
    s = np.reshape(s, (-1,) + (1,) * d.ndim)
    return log * np.log(d) + s * (1.0 / d**2) + v[1::2], log


def _j0_series(k):
    m = np.arange(_SERIES_TERMS + 1)
    fact = np.array([math.factorial(int(i)) for i in m], dtype=float)
    return (-1.0) ** m * k ** (2 * m) / (4.0**m * fact**2)


def _w_series(k):
    # W(z) = sum_{m>=1} (-1)^(m+1) h_m (z/2)^(2m) / (m!)^2, h_m harmonic
    c = np.zeros(_SERIES_TERMS + 1, dtype=complex)
    h = 0.0
    for m in range(1, _SERIES_TERMS + 1):
        h += 1.0 / m
        c[m] = (-1.0) ** (m + 1) * h * k ** (2 * m) / (4.0**m * math.factorial(m) ** 2)
    return c


# ---------------------------------------------------------------------------
# radial factors: Pi = alpha I + beta uhat uhat, and the reduced traction
# factors c2 = alpha'/d, c3 = beta'/d, c4 = beta/d^2


def _lame_constants(lam, mu):
    """b1, b2 and kappa1 of the static kernels and of the 2D traction."""
    b1 = (lam + 3 * mu) / (mu * (lam + 2 * mu))
    b2 = (lam + mu) / (mu * (lam + 2 * mu))
    kappa1 = mu / (2.0 * np.pi * (lam + 2.0 * mu))
    return b1, b2, kappa1


def _hankel1_pair(z):
    """(H^(1)_0(z), H^(1)_1(z)).

    A real ``z`` must be positive and takes H = J + iY from the real
    J0, Y0, J1, Y1; any other ``z`` must be finite and nonzero, and takes
    the Amos ``hankel1`` for both orders in one call.
    """
    z = np.asarray(z)
    if not np.isfinite(z).all():
        raise ValueError("argument must be finite")
    sp = _special()
    if np.iscomplexobj(z):
        if (z == 0).any():
            raise ValueError("H^(1)_n is singular at z = 0")
        h = sp.hankel1(np.arange(2).reshape((2,) + (1,) * z.ndim), z)
        return h[0], h[1]
    if (z <= 0).any():
        raise ValueError("real argument must be positive")
    return sp.j0(z) + 1j * sp.y0(z), sp.j1(z) + 1j * sp.y1(z)


@functools.lru_cache(maxsize=32)
def _stacked_factors(pref, ks):
    """pref, -pref k, -pref k^2 and -pref k^3, the factors of C0(k d) and
    of its d-derivatives, for each wavenumber k of the tuple ks in scalar
    arithmetic, stacked: factor n of ks[i] is entry i of array n."""
    cols = [np.array(col) for col in
            zip(*((pref, -pref * k, -pref * k * k, -pref * k**3) for k in ks))]
    for col in cols:
        col.flags.writeable = False
    return cols


def _cylinder_derivs(pref, ks, z, c0, c1):
    """pref C0(k d) and its d-derivatives of orders 1..3, from the values
    c0 = C0(z), c1 = C1(z) at z = k d of a cylinder pair (J, Y or H),
    through C0' = -C1 and C1' = C0 - C1/z.

    The tuple ks holds one wavenumber k per leading row of z. Each row's
    factors are formed from its own wavenumber in scalar arithmetic, so a
    row equals its own evaluation bit for bit.
    """
    shape = (len(ks),) + (1,) * (np.ndim(z) - 1)
    f = [col.reshape(shape) for col in _stacked_factors(pref, ks)]
    return (
        f[0] * c0,
        f[1] * c1,
        f[2] * (c0 - c1 / z),
        f[3] * (-c1 - c0 / z + 2.0 * c1 / z**2),
    )


def _cylinder_kernels(ks, z, log=False):
    """The 2D kernel (i/4) H0(k d) and its d-derivatives of orders 1..3 at
    z = k d, one row of z per wavenumber k of the tuple ks, and, with
    ``log``, the same for its ln d part -J0(k d)/(2 pi), from one (H0, H1)
    evaluation. J is the real part of the pair for a real argument, and
    scipy's ``jv`` for a complex one."""
    h0, h1 = _hankel1_pair(z)
    out = [_cylinder_derivs(0.25j, ks, z, h0, h1)]
    if log:
        if np.iscomplexobj(z):
            j0, j1 = _special().jv(0, z), _special().jv(1, z)
        else:
            j0, j1 = h0.real, h1.real
        out.append(_cylinder_derivs(-0.5 / np.pi, ks, z, j0, j1))
    return out


def _g2_pass(ks, kp, d, log=False):
    """The ``_differences`` of each of ``_cylinder_kernels`` at ks and kp.

    Both wavenumbers share one (H0, H1) evaluation and one pass of the
    derivative formulas, stacked on a leading axis. The arguments k d are
    real where both wavenumbers are (a lossless medium), so that the pair
    takes the real Bessel routines, and else complex: both take Amos.
    """
    k = np.array([ks, kp])
    z = np.multiply.outer(k if k.imag.any() else k.real, d)
    return [_differences([v[0] for v in g], [v[1] for v in g])
            for g in _cylinder_kernels((ks, kp), z, log)]


def _g3(k, d):
    """The 3D kernel exp(i k d)/(4 pi d) and its d-derivatives of orders 1..3."""
    g = np.exp(1j * k * d) / (4.0 * np.pi * d)
    q = 1j * k - 1.0 / d
    g2 = (q**2 + 1.0 / d**2) * g
    # (G'')' with q' = 1/d^2 and G' = q G
    return g, q * g, g2, (2.0 * q / d**2 - 2.0 / d**3) * g + q * g2


def _g3_pass(ks, kp, d, log=False):
    """``_g2_pass`` for the 3D kernel, which has no ln d part to ``log``."""
    return [_differences(_g3(ks, d), _g3(kp, d))]


def _differences(gs, gp):
    """gs at ks (orders 0..3), and the differences gs - gp of orders 1..3."""
    return gs, gs[1] - gp[1], gs[2] - gp[2], gs[3] - gp[3]


# Rows of the 2D series table: 2 f holds the ln d series and 2 f + 1 the
# smooth series of factor f = alpha, beta, c2, c3, c4.
_AB, _CS, _ALL = slice(0, 4), slice(4, 10), slice(0, 10)


class _Direct:
    """Closed-form dynamic radial factors from a scalar kernel.

    ``g(ks, kp, d, log)`` is ``_g2_pass`` (Hankel form) or ``_g3_pass``:
    the ``_differences`` of the kernel and of its first three d-derivatives,
    and with ``log`` (2D) those of its ln d part. The grad grad term
    divides by rho omega^2, so the factors hold for any density.
    """

    def __init__(self, g, omega, medium):
        self.g = g
        self.mu = complex(medium.mu)
        self.kp, self.ks = wavenumbers(medium, omega)
        self.w2 = complex(medium.rho) * float(omega) ** 2

    def factors(self, d, rows):
        """The factors that the table slice ``rows`` names (see
        ``_Radial2D.factors``), from one pass of g; only those are formed."""
        mu, w2 = self.mu, self.w2
        out = []
        for gs, d1, d2, d3 in self.g(self.ks, self.kp, d, log=rows is _ALL):
            beta = (d2 - d1 / d) / w2
            if rows is not _CS:
                out += [gs[0] / mu + d1 / (w2 * d), beta]
            if rows is not _AB:
                alpha_p = gs[1] / mu + (d2 * d - d1) / (w2 * d * d)
                beta_p = (d3 - d2 / d + d1 / d**2) / w2
                out += [alpha_p / d, beta_p / d, beta / d**2]
        return out


def _cut(c, x):
    """c without its trailing columns whose terms |c[i, m]| x^m all lie
    below 2^-60 of the largest term of their row i: at d^2 <= x they are
    below the rounding of the row's sum."""
    with np.errstate(divide="ignore"):  # ln 0 = -inf: a zero term is dropped
        t = np.log(np.abs(c)) + np.arange(c.shape[1]) * np.log(x)
    keep = t > t.max(axis=1, keepdims=True) - 60.0 * np.log(2.0)
    return c[:, : np.flatnonzero(keep.any(axis=0))[-1] + 1].copy()


class _Radial2D:
    """2D radial factors, each (log series) ln d + (smooth series).

    c2 and c4 carry in addition the singular terms s2/d^2 and s4/d^2.
    For omega > 0 the Hankel form ``direct`` serves |ks d| >= _SERIES_SWITCH
    and the cancellation-free series ``table`` the smaller arguments;
    ``gap`` holds the alpha and beta rows of Pi_omega - Pi_0 - eta I. Only
    |ks d| < _SERIES_SWITCH reaches the series, so both are built with
    _SERIES_TERMS + 1 columns and then cut to the columns whose terms
    there reach 2^-60 of their row's largest (10 to 12 for the media
    tried). At omega = 0 the table holds only the constants s2 and s4 and
    serves every d.
    """

    def __init__(self, omega, medium):
        lam, mu = complex(medium.lam), complex(medium.mu)
        self.b1, self.b2, self.kappa1 = _lame_constants(lam, mu)
        if omega == 0:
            self.direct = None
            s2, s4 = -self.b1 / (4 * np.pi), self.b2 / (4 * np.pi)
            self.singular = np.array([0.0, 0.0, s2, 0.0, s4], dtype=complex)
            self.eta = 0.0 + 0.0j
            # constant series: one column, so each power sum has one term
            self.table = np.zeros((10, 1), dtype=complex)
            self.table[0, 0], self.table[3, 0] = s2, s4
            self.table.flags.writeable = False
            return
        self.direct = p = _Direct(_g2_pass, omega, medium)
        self.ks_abs = np.abs(p.ks)
        iw2 = 1.0 / p.w2

        def lam_log(k):
            return np.log(k / 2.0) + _EULER - 0.5j * np.pi

        # G = G_L ln d + G_A with entire even G_L, G_A
        f = -1.0 / (2 * np.pi)
        j0s, j0p = _j0_series(p.ks), _j0_series(p.kp)
        GLs, GLp = j0s * f, j0p * f
        GAs = (j0s * lam_log(p.ks) + _w_series(p.ks)) * f
        GAp = (j0p * lam_log(p.kp) + _w_series(p.kp)) * f
        dL = GLs - GLp
        dA = GAs - GAp
        aL = GLs * (1.0 / mu) + _dlog(dL) * iw2
        aS = GAs * (1.0 / mu) + (_dlog(dA) + _div_d2(dL)) * iw2
        bL = (_d2(dL) - _dlog(dL)) * iw2
        bS = (2.0 * _dlog(dL) - 2.0 * _div_d2(dL) + _d2(dA) - _dlog(dA)) * iw2

        # c2 = alpha'/d, c3 = beta'/d, c4 = beta/d^2 decompose as
        # s/d^2 + (log series) ln d + (smooth series)
        s2 = complex(aL[0])  # = -b1/(4 pi)
        s4 = complex(bS[0])  # = +b2/(4 pi)
        # the coefficients s of the singular terms s/d^2 of the five factors
        self.singular = np.array([0.0, 0.0, s2, 0.0, s4], dtype=complex)
        self.eta = complex(aS[0])
        x = (_SERIES_SWITCH / abs(p.ks)) ** 2  # the largest d^2 the series serves
        self.table = _cut(np.stack([
            aL, aS, bL, bS,
            _dlog(aL), _div_d2(_shift_const(aL, -s2)) + _dlog(aS),
            _dlog(bL), _div_d2(bL) + _dlog(bS),
            _div_d2(bL), _div_d2(_shift_const(bS, -s4)),
        ]), x)
        # Pi_omega - Pi_0 - eta I: the static tensor is s2 ln d I + s4 uhat uhat
        self.gap = _cut(np.stack([
            _shift_const(aL, -s2), _shift_const(aS, -self.eta),
            bL, _shift_const(bS, -s4),
        ]), x)
        self.table.flags.writeable = self.gap.flags.writeable = False

    def factors(self, d, rows):
        """The factors that the table slice ``rows`` names at the distances
        d, each with the shape of d: alpha and beta (_AB); c2 = alpha'/d,
        c3 = beta'/d and c4 = beta/d^2 (_CS); or all five, then their ln d
        coefficients (_ALL). Below the switch, and at omega = 0, one power
        sum over table[rows] gives them; above it one Hankel pass for both
        wavenumbers, whose ln d part -J0(k d)/(2 pi) takes the same formulas.
        """
        d = np.asarray(d, dtype=float)

        def series(d):
            full, log = _log_plus_smooth(
                self.table[rows], d, self.singular[rows.start // 2:rows.stop // 2])
            return np.concatenate((full, log)) if rows is _ALL else full

        if self.direct is None:
            return series(d)
        small = self.ks_abs * d < _SERIES_SWITCH
        # a table row pair (log, smooth) gives one factor, or with _ALL two
        n = (rows.stop - rows.start) // (1 if rows is _ALL else 2)
        out = np.empty((n,) + d.shape, dtype=complex)
        if small.any():
            out[:, small] = series(d[small])
        if not small.all():
            out[:, ~small] = self.direct.factors(d[~small], rows)
        return [out[i, ...] for i in range(n)]


class _Static3D:
    """Static (omega = 0) 3D factors: alpha = b1/(8 pi d), beta = b2/(8 pi d)."""

    def __init__(self, medium):
        b1, b2, _ = _lame_constants(complex(medium.lam), complex(medium.mu))
        self.a, self.b = b1 / (8 * np.pi), b2 / (8 * np.pi)

    def factors(self, d, rows):
        """alpha, beta (_AB) or c2, c3, c4 (_CS); 3D has no ln d part."""
        alpha, beta = self.a / d, self.b / d
        if rows is _AB:
            return alpha, beta
        # both factors are c/d, so their derivatives are -c/d^2
        return -alpha / d**2, -beta / d**2, beta / d**2


@functools.lru_cache(maxsize=8)
def _radial_pack(omega, medium, dim):
    """Radial factors for (omega, medium) in ``dim`` 2 or 3; omega = 0 is
    static. Every kernel goes through here, so this is the one check of
    omega."""
    if not 0 <= omega < np.inf:
        raise ValueError(f"omega must be finite and >= 0, got {omega}")
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if dim == 2:
        return _Radial2D(omega, medium)
    return _Static3D(medium) if omega == 0 else _Direct(_g3_pass, omega, medium)


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _pi(u, d, pack):
    """Green tensor Pi over separations u[..., dim] with lengths d[...]."""
    return _pi_from(u, d, *pack.factors(d, _AB))


def _pi_from(u, d, alpha, beta):
    """alpha I + beta uhat uhat over separations u with lengths d."""
    uh = u / d[..., None]
    eye = np.eye(u.shape[-1])
    return alpha[..., None, None] * eye + beta[..., None, None] * _outer(uh, uh)


def _xi(u, d, nu, pack, lam, mu):
    """Traction tensor Xi[..., l, i] over separations u with normals nu at y.

    Xi[l, i] is the i-th traction component (normal ``nu`` at the source
    point y) of the field z -> Pi(x, z) e_l; the double layer contracts
    the second index with the density.
    """
    return _xi_from(u, d, nu, *pack.factors(d, _CS), lam, mu)


def _xi_factors(c2, c3, c4, lam, mu, dim):
    """A, B, C of Xi = -(A u nu^T + B (nu u^T + (nu . u) I) + C (nu . u)/d^2 u u^T)."""
    A = lam * (c2 + c3 + (dim - 1) * c4) + 2.0 * mu * c4
    B = mu * (c2 + c4)
    C = mu * (2.0 * c3 - 4.0 * c4)
    return A, B, C


def _xi_from(u, d, nu, c2, c3, c4, lam, mu):
    """Xi from the reduced traction factors c2, c3, c4 at d."""
    dim = u.shape[-1]
    nuu = np.sum(nu * u, axis=-1)
    A, B, C = _xi_factors(c2, c3, c4, lam, mu, dim)
    return -(
        A[..., None, None] * _outer(u, nu)
        + B[..., None, None] * (_outer(nu, u) + nuu[..., None, None] * np.eye(dim))
        + (C * nuu / d**2)[..., None, None] * _outer(u, u)
    )


# ---------------------------------------------------------------------------
# point evaluators


def _sep(x, y, dim):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (dim,) or y.shape != (dim,):
        raise ValueError(f"points must have shape ({dim},)")
    if not all(map(math.isfinite, x.tolist() + y.tolist())):
        raise ValueError(f"points must be finite, got x = {x}, y = {y}")
    u = x - y
    with np.errstate(over="ignore"):  # refused below, with both points
        d = np.array(np.linalg.norm(u))
    if not math.isfinite(d):
        raise ValueError(f"the separation of x = {x} and y = {y} overflows")
    if d == 0.0:
        raise ValueError("kernel is singular at coincident points")
    return u, d


def green_omega(x, y, omega, medium, dim=2):
    """Green tensor Pi_omega(x, y) of the Navier operator in ``dim`` 2 or
    3; ``omega = 0`` gives the static tensor Pi_0."""
    u, d = _sep(x, y, dim)
    return _pi(u, d, _radial_pack(omega, medium, dim))


def green_traction(x, y, normal, omega, medium, dim=2):
    """Traction kernel Xi(x, y): columns pair with a density at y.

    ``normal`` is the unit normal at y. For ``omega = 0`` the static
    kernel is returned.
    """
    u, d = _sep(x, y, dim)
    lam, mu = complex(medium.lam), complex(medium.mu)
    return _xi(u, d, np.asarray(normal, float), _radial_pack(omega, medium, dim), lam, mu)


def eta_constant(omega, medium):
    """Additive constant of Pi_omega - Pi_0 as the separation vanishes (2D).

    Closed form:

        eta = -(1/(4 pi)) [ b1 (ln(omega sqrt(rho)/2) + E - i pi/2) + b2/2
                            - (ln(mu)/mu + ln(lam+2mu)/(lam+2mu)) / 2 ],

    with b1 = (lam+3mu)/(mu(lam+2mu)), b2 = (lam+mu)/(mu(lam+2mu)) and E
    Euler's constant; the implementation evaluates it from the series
    split, which agrees with this expression to machine precision.
    """
    if omega <= 0:
        raise ValueError("omega must be positive for the dynamic kernel")
    return complex(_radial_pack(omega, medium, 2).eta)


def asymptotic_gap_2d(x, y, omega, medium):
    """Remainder Pi_omega - Pi_0 - eta I at small separations (2D).

    Decays like d^2 log d. Below the series switch it is evaluated from
    the series split with its constant terms removed, so no O(ln d) terms
    cancel; above it, as the difference of the two tensors.
    """
    if omega <= 0:
        raise ValueError("omega must be positive for the dynamic kernel")
    u, d = _sep(x, y, 2)
    pack = _radial_pack(omega, medium, 2)
    if abs(pack.direct.ks) * d < _SERIES_SWITCH:
        return _pi_from(u, d, *_log_plus_smooth(pack.gap, d, np.zeros(2))[0])
    gap = _pi(u, d, pack) - _pi(u, d, _radial_pack(0.0, medium, 2))
    return gap - pack.eta * np.eye(2)


# ---------------------------------------------------------------------------
# circle quadratures and boundary operators


@dataclass(frozen=True)
class CircleQuadrature:
    """Equispaced trapezoid nodes on a circle with geometry attached."""

    radius: float
    n_points: int
    angles: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    normals: np.ndarray
    tangents: np.ndarray


def circle_quadrature(radius, n_points):
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if (isinstance(n_points, (bool, np.bool_)) or not isinstance(n_points, (int, np.integer))
            or n_points % 2 != 0 or n_points < 4):
        raise ValueError(f"n_points must be an even integer >= 4, got {n_points!r}")
    t = 2.0 * np.pi * np.arange(n_points) / n_points
    nodes = radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    normals = nodes / radius
    tangents = np.stack([-np.sin(t), np.cos(t)], axis=1)
    weights = np.full(n_points, 2.0 * np.pi * radius / n_points)
    return CircleQuadrature(
        radius=float(radius), n_points=int(n_points), angles=t, nodes=nodes,
        weights=weights, normals=normals, tangents=tangents,
    )


def _log_weights(N):
    """Exact quadrature weights of int log(4 sin^2((t-s)/2)) f(s) ds on the
    grid, by node offset (i - j) mod N."""
    m = np.fft.fftfreq(N, 1.0 / N)
    sym = np.where(m == 0, 0.0, -2.0 * np.pi / np.maximum(np.abs(m), 1.0))
    return np.real(np.fft.ifft(sym))


def _pv_cot_weights(N):
    """Exact principal-value quadrature weights of int cot((t-s)/2) f(s) ds,
    by node offset (i - j) mod N."""
    m = np.fft.fftfreq(N, 1.0 / N)
    sym = -2.0j * np.pi * np.sign(m)
    sym[np.abs(m) == N // 2] = 0.0
    return np.real(np.fft.ifft(sym))


def _circulant(v):
    """Read-only view C[..., i, j] = v[..., (i - j) mod N], N = v.shape[-1]."""
    N = v.shape[-1]
    twice = np.concatenate((v[..., ::-1], v[..., ::-1]), axis=-1)
    return sliding_window_view(twice, N, axis=-1)[..., N - 1::-1, :]


def _row_block(N):
    """Node rows that ``_rotated_gather`` fills at a time."""
    return max(16, 16384 // N)


def _rotated_gather(B, t):
    """Dense interleaved matrix whose block (i, j) is Q(t_j) B[(i-j) mod N] Q(t_j)^T.

    Q(t) rotates by the angle t. Each block splits as p I + q J + r F + s G
    with J = [[0, 1], [-1, 0]], F = diag(1, -1) and G = [[0, 1], [1, 0]];
    the rotation leaves p and q alone and turns (r, s) by the angle 2 t_j,
    so four circulant gathers by offset give every block. The node rows
    0 .. N/2 - 1 are filled a few at a time, so no temporary is N x N.

    N is even and t_{j + N/2} = t_j + pi, where Q(t + pi) = -Q(t): block
    (i + N/2, j + N/2) equals block (i, j), so the lower half of the
    matrix is two contiguous copies of its upper half.
    """
    N = B.shape[0]
    half = N // 2
    p, q, r, s = _circulant(0.5 * np.stack([
        B[:, 0, 0] + B[:, 1, 1], B[:, 0, 1] - B[:, 1, 0],
        B[:, 0, 0] - B[:, 1, 1], B[:, 0, 1] + B[:, 1, 0],
    ]))
    c2, s2 = np.cos(2.0 * t), np.sin(2.0 * t)
    M = np.empty((2 * N, 2 * N), dtype=complex)
    blocks = M.reshape(N, 2, N, 2)  # blocks[i, a, j, b] = M[2i + a, 2j + b]
    step = _row_block(N)
    for i in range(0, half, step):
        rows = slice(i, min(i + step, half))
        f = r[rows] * c2 - s[rows] * s2
        g = r[rows] * s2 + s[rows] * c2
        out = blocks[rows]
        np.add(p[rows], f, out=out[:, 0, :, 0])
        np.subtract(p[rows], f, out=out[:, 1, :, 1])
        np.add(q[rows], g, out=out[:, 0, :, 1])
        np.subtract(g, q[rows], out=out[:, 1, :, 0])
    M[N:, N:] = M[:N, :N]
    M[N:, :N] = M[:N, N:]
    return M


@dataclass(frozen=True)
class LayerOperators:
    """Dense Nystrom matrices of the boundary operators S and K.

    Layout: row/column index 2*j + comp interleaves the two Cartesian
    components at node j. ``S @ phi`` evaluates the single-layer trace,
    ``K @ phi`` the principal value of the double-layer trace.
    """

    S: np.ndarray
    K: np.ndarray
    quadrature: CircleQuadrature
    omega: float
    medium: IsotropicMedium


def layer_operators(quad, omega, medium):
    """Assemble spectrally accurate Nystrom matrices for S and K.

    The kernels split exactly on a circle into a log part (handled by the
    Kussmaul-Martensen weights), for K additionally a rotation-invariant
    cot part (handled by the exact principal-value weights), and a smooth
    remainder (plain trapezoid). ``omega = 0`` assembles the static
    operators.

    On the equispaced circle, block (i, j) is block (i - j mod N, 0)
    rotated by the angle of node j, so the kernels are evaluated on the
    first block column only (observation node k, source node 0) and the
    matrices are assembled from it by ``_rotated_gather``, which fills
    the upper half of the node rows and copies the lower half from it.
    Offsets k and N - k share one distance, so the radial factors and
    their ln d parts are evaluated for k = 1 .. N/2 only, in one
    ``factors(d, _ALL)`` call.
    """
    N = quad.n_points
    R = quad.radius
    pack = _radial_pack(omega, medium, 2)
    lam, mu = complex(medium.lam), complex(medium.mu)
    kappa1 = pack.kappa1
    b2 = pack.b2
    h = 2.0 * np.pi / N
    wlog = _log_weights(N)[:, None, None] * 0.5

    # offsets k = 1 .. N-1 take the kernels; k = 0 the analytic limits.
    # Offsets k and N - k share one distance, which keeps S symmetric
    k = np.arange(1, N)
    near = np.minimum(k, N - k)
    s_half = np.sin(0.5 * quad.angles[near])
    d = 2.0 * R * s_half
    v = np.asarray(pack.factors(d[: N // 2], _ALL))[:, near - 1]  # k = 1 .. N/2
    full, log = v[:5], v[5:]
    lnfac = np.log(4.0 * s_half**2)[:, None, None]
    u = quad.nodes[1:] - quad.nodes[0]
    nu = quad.normals[0]
    tt = np.outer(quad.tangents[0], quad.tangents[0])
    eye2 = np.eye(2)

    # ---- single layer ----------------------------------------------------
    # off-diagonal: smooth = full - PL * (lnfac/2 + ln R) and the ln R part
    # rejoins through PR + PL ln R; diagonal: PL = alpha_L(0) I (beta_L(0)
    # = 0) and PR(t,t) = eta I + b2/(4 pi) tau tau
    PL = np.empty((N, 2, 2), dtype=complex)
    PL[0] = -pack.b1 / (4 * np.pi) * eye2
    PL[1:] = _pi_from(u, d, log[0], log[1])
    PR = np.empty_like(PL)
    PR[0] = pack.eta * eye2 + (b2 / (4 * np.pi)) * tt
    PR[1:] = _pi_from(u, d, full[0], full[1]) - PL[1:] * (0.5 * lnfac + np.log(R))
    S0 = (wlog * PL + h * (PR + PL * np.log(R))) * R

    # ---- double layer (PV) ------------------------------------------------
    J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    XL = np.zeros((N, 2, 2), dtype=complex)
    XL[1:] = _xi_from(u, d, nu, *log[2:], lam, mu)
    Xcot = kappa1 / (2.0 * R) * (1.0 / np.tan(0.5 * quad.angles[1:]))[:, None, None] * J2
    Ksm = np.empty_like(XL)
    Ksm[0] = -kappa1 / (2.0 * R) * eye2 - (mu * b2 / (2.0 * np.pi * R)) * tt
    Ksm[1:] = _xi_from(u, d, nu, *full[2:], lam, mu) - XL[1:] * (0.5 * lnfac) - Xcot
    K0 = (
        wlog * XL
        + _pv_cot_weights(N)[:, None, None] * (kappa1 / (2.0 * R)) * J2
        + h * Ksm
    ) * R

    return LayerOperators(
        S=_rotated_gather(S0, quad.angles), K=_rotated_gather(K0, quad.angles),
        quadrature=quad, omega=float(omega), medium=medium,
    )


def _separations(quad, density, points):
    """The density as rows phi[j], the separations u[a, j] = x_a - y_j of
    the targets x_a from the nodes y_j, and their lengths d[a, j]."""
    phi = np.asarray(density, dtype=complex).reshape(quad.n_points, 2)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (2,) or (n, 2)")
    if not all(map(math.isfinite, pts.ravel().tolist())):
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
        raise ValueError(f"points must be finite, got point {bad} = {pts[bad]}")
    with np.errstate(over="ignore"):  # refused below, naming the target
        u = pts[:, None, :] - quad.nodes[None, :, :]
        d = np.sqrt((u * u).sum(axis=-1))
    if not np.isfinite(d).all():
        bad = np.flatnonzero(~np.isfinite(d).all(axis=1))[0]
        raise ValueError(f"the separation of target {bad} = {pts[bad]} from the nodes overflows")
    if (d == 0.0).any():
        raise ValueError("kernel is singular at coincident points")
    return phi, u, d


def sl_potential(quad, density, points, omega, medium):
    """Single-layer potential off the boundary by plain quadrature.

    At each target x the trapezoid sum over the nodes y_j of
    w_j Pi(x - y_j) phi_j = w_j (alpha phi_j + beta (uhat . phi_j) uhat),
    uhat the unit separation, contracted with the density term by term.
    """
    pack = _radial_pack(omega, medium, 2)
    phi, u, d = _separations(quad, density, points)
    alpha, beta = pack.factors(d, _AB)
    w = quad.weights
    uh = u / d[..., None]
    along = beta * w * np.einsum("ajk,jk->aj", uh, phi)
    out = (alpha * w) @ phi + np.einsum("aj,ajk->ak", along, uh)
    return out if np.ndim(points) > 1 else out[0]


def dl_potential(quad, density, points, omega, medium):
    """Double-layer potential off the boundary by plain quadrature.

    At each target x the trapezoid sum over the nodes y_j of w_j Xi phi_j,
    Xi = Xi(x, y_j) with the normal nu_j, in its three terms:
    Xi phi = -((A (nu . phi) + C (nu . u)(u . phi)/d^2) u
               + B (u . phi) nu + B (nu . u) phi), u = x - y_j.
    """
    pack = _radial_pack(omega, medium, 2)
    lam, mu = complex(medium.lam), complex(medium.mu)
    phi, u, d = _separations(quad, density, points)
    A, B, C = _xi_factors(*pack.factors(d, _CS), lam, mu, 2)
    nu, w = quad.normals, quad.weights
    nuu = np.einsum("ajk,jk->aj", u, nu)
    uphi = np.einsum("ajk,jk->aj", u, phi)
    Bw = B * w
    along_u = w * (A * np.einsum("jk,jk->j", nu, phi) + C * nuu * uphi / d**2)
    out = -(np.einsum("aj,ajk->ak", along_u, u) + (Bw * uphi) @ nu + (Bw * nuu) @ phi)
    return out if np.ndim(points) > 1 else out[0]
