"""Fundamental solutions and circle layer potentials.

Oracles: an independent Taylor-series evaluation of the 3D tensor, the
Navier PDE residual by high-order finite differences, finite-difference
tractions for the Xi kernel, adaptive quadrature for single-layer rows,
and the interior Calderon identity for the assembled operators.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import h1vp, hankel1

from elastocloak import (
    IsotropicMedium,
    ModeOverflowError,
    asymptotic_gap_2d,
    circle_quadrature,
    dl_potential,
    eta_constant,
    free_disk_ntd,
    green_omega,
    green_traction,
    layer_operators,
    sl_potential,
    solve_exterior_cavity,
)

BG = IsotropicMedium(1.0, 1.0, 1.0)
HEAVY = IsotropicMedium(1.0, 1.0, 2.0)  # rho != 1 separates rho omega^2 from omega^2
LOSSY = IsotropicMedium(1.3, 0.9 + 0.05j, 1.2 + 0.3j)
MIXED = IsotropicMedium(1.3 + 0.1j, 0.9, 1.2)  # real ks, complex kp
OMEGA = 1.0


def series_pi_3d(x, y, omega, medium, n_terms=40):
    """Oracle: entire Taylor series of the 3D dynamic tensor.

    Coefficients follow from expanding exp(ikd)/(4 pi d) and applying
    grad grad termwise; the medium enters through the (n+2)-th powers of
    the wavenumbers.
    """
    lam, mu, rho = medium.lam, medium.mu, medium.rho
    kp = omega * np.sqrt(rho / (lam + 2 * mu))
    ks = omega * np.sqrt(rho / mu)
    u = np.asarray(x, float) - np.asarray(y, float)
    d = np.linalg.norm(u)
    A = np.zeros((3, 3), dtype=complex)
    for n in range(n_terms):
        base = 1j**n / ((n + 2) * math.factorial(n) * rho * omega**2)
        cI = base * ((n + 1) * ks ** (n + 2) + kp ** (n + 2)) * d ** (n - 1)
        cU = base * (n - 1) * (ks ** (n + 2) - kp ** (n + 2)) * d ** (n - 3)
        A += (cI * np.eye(3) - cU * np.outer(u, u)) / (4 * np.pi)
    return A


def hankel_pi_2d(x, y, omega, medium):
    """Oracle: the 2D dynamic tensor from scipy's Hankel derivatives.

    Pi = (i/(4 mu)) H0(ks d) I + grad grad (i/4) [H0(ks d) - H0(kp d)] / (rho omega^2),
    with grad grad f(d) = f'' uhat uhat + (f'/d) (I - uhat uhat).
    """
    lam, mu, rho = medium.lam, medium.mu, medium.rho
    kp = omega * np.sqrt(rho / (lam + 2 * mu))
    ks = omega * np.sqrt(rho / mu)
    u = np.asarray(x, float) - np.asarray(y, float)
    d = np.linalg.norm(u)
    P = np.outer(u, u) / d**2

    def f(n):
        return 0.25j * (ks**n * h1vp(0, ks * d, n) - kp**n * h1vp(0, kp * d, n))

    gg = f(2) * P + f(1) / d * (np.eye(2) - P)
    return 0.25j * hankel1(0, ks * d) / mu * np.eye(2) + gg / (rho * omega**2)


def reference_pi(x, y, omega, medium, dim):
    """Oracle tensor for the traction check: Hankel (2D) or series (3D)."""
    if omega == 0:
        return green_omega(x, y, 0.0, medium, dim)
    if dim == 2:
        return hankel_pi_2d(x, y, omega, medium)
    return series_pi_3d(x, y, omega, medium)


# ---------------------------------------------------------------------------
# point kernels


@pytest.mark.parametrize("dim", [2, 3])
def test_reciprocity(dim):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-1.5, 1.5, dim)
        y = rng.uniform(-1.5, 1.5, dim)
        if np.linalg.norm(x - y) < 1e-2:
            continue
        G = green_omega(x, y, OMEGA, BG, dim)
        Gt = green_omega(y, x, OMEGA, BG, dim)
        worst = max(worst, float(np.abs(G - Gt.T).max()))
    assert worst < 1e-12


def test_series_3d_vs_closed_form():
    x = np.array([0.1, 0.2, 0.3])
    u = 0.5 * np.array([0.6, 0.48, 0.64]) / np.linalg.norm([0.6, 0.48, 0.64])
    y = x - u
    closed = green_omega(x, y, OMEGA, BG, 3)
    assert np.abs(series_pi_3d(x, y, OMEGA, BG) - closed).max() < 1e-10


def test_3d_small_separation_structure():
    # leading 1/d terms follow the static tensor; the remainder tends to
    # the O(omega) constant i omega (2 ks^3 + kp^3) / (12 pi omega^2)
    lam, mu = BG.lam, BG.mu
    kp = OMEGA / np.sqrt(lam + 2 * mu)
    ks = OMEGA / np.sqrt(mu)
    const = 1j * (2 * ks**3 + kp**3) / (12 * np.pi * OMEGA**2) * OMEGA**2 / OMEGA**2
    const = 1j * (2 * ks**3 + kp**3) / (12 * np.pi)
    x = np.array([0.1, -0.2, 0.3])
    gaps = []
    for d in (2e-3, 1e-3):
        y = x - d * np.array([1.0, 0, 0])
        gap = green_omega(x, y, OMEGA, BG, 3) - green_omega(x, y, 0.0, BG, 3)
        gaps.append(gap)
        assert np.abs(gap).max() < 0.2  # remainder stays O(1)
    # Richardson in d (next correction is O(d)) onto the constant
    extr = 2 * gaps[1] - gaps[0]
    assert abs(extr[1, 1] - const) < 1e-4
    assert abs(extr[0, 0] - const) < 1e-4


def test_static_2d_unit_separation_drops_log():
    med = IsotropicMedium(1.0, 1.0)
    u = np.array([0.6, 0.8])
    x = np.array([0.3, 0.1])
    G = green_omega(x, x - u, 0.0, med, 2)
    expected = (1.0 / (4 * np.pi)) * (2.0 / 3.0) * np.outer(u, u)
    np.testing.assert_allclose(G, expected, atol=1e-15)


def test_static_3d_homogeneity():
    x = np.array([0.2, 0.5, -0.3])
    y = np.array([-0.4, 0.1, 0.6])
    for t in (2.0, 5.0):
        np.testing.assert_allclose(
            green_omega(t * x, t * y, 0.0, BG, 3), green_omega(x, y, 0.0, BG, 3) / t,
            rtol=1e-13
        )


@pytest.mark.parametrize("dim", [2, 3])
def test_green_omega_at_zero_is_the_static_tensor(dim):
    # omega = 0 gives Pi_0 byte for byte as the static radial pack does, and
    # the closed forms -(b1 ln d I - b2 uhat uhat)/(4 pi) in 2D and
    # (b1 I + b2 uhat uhat)/(8 pi d) in 3D
    from elastocloak.kernels import _pi, _Radial2D, _Static3D

    medium = IsotropicMedium(2.5, 0.7, 1.8)
    lam, mu = medium.lam, medium.mu
    b1 = (lam + 3 * mu) / (mu * (lam + 2 * mu))
    b2 = (lam + mu) / (mu * (lam + 2 * mu))
    static = _Radial2D(0.0, medium) if dim == 2 else _Static3D(medium)
    rng = np.random.default_rng(dim)
    for _ in range(50):
        x, y = rng.uniform(-2.0, 2.0, dim), rng.uniform(-2.0, 2.0, dim)
        u = x - y
        d = np.linalg.norm(u)
        G = green_omega(x, y, 0.0, medium, dim)
        assert G.tobytes() == _pi(u, np.array(d), static).tobytes()
        P = np.outer(u, u) / d**2
        if dim == 2:
            want = (-b1 * np.log(d) * np.eye(2) + b2 * P) / (4 * np.pi)
        else:
            want = (b1 * np.eye(3) + b2 * P) / (8 * np.pi * d)
        assert np.abs(G - want).max() <= 1e-14 * np.abs(want).max()
    for omega in (-1.0, np.nan):
        with pytest.raises(ValueError, match="omega"):
            green_omega(x, y, omega, medium, dim)


def test_coincident_points_error():
    x = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        green_omega(x, x, OMEGA, BG, 2)
    with pytest.raises(ValueError):
        green_omega(x, x, 0.0, BG, 2)


def _non_finite_cases(bad):
    """(name, call(omega)) for every public evaluator with one non-finite
    coordinate: the point kernels in 2D and 3D, at x and at y, and the 2D
    layer potentials at one target and at the last of three."""
    q = circle_quadrature(2.0, 16)
    density = np.ones(32)
    cases = []
    for dim in (2, 3):
        good, worse = np.full(dim, 0.3), np.full(dim, 0.5)
        worse[-1] = bad
        nrm = np.eye(dim)[0]
        for x, y in ((worse, good), (good, worse)):
            cases += [
                (f"green_omega {dim}D", lambda w, x=x, y=y, dim=dim: green_omega(x, y, w, BG, dim)),
                (f"green_traction {dim}D",
                 lambda w, x=x, y=y, n=nrm, dim=dim: green_traction(x, y, n, w, BG, dim)),
            ]
    for pts in (np.array([0.3, bad]), np.array([[0.3, 0.1], [0.5, 0.2], [bad, 0.1]])):
        for f in (sl_potential, dl_potential):
            cases.append((f.__name__, lambda w, f=f, pts=pts: f(q, density, pts, w, BG)))
    return cases


@pytest.mark.parametrize("omega", [0.0, 1.0])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_refused_by_name(omega, bad):
    # a NaN point gave NaN at omega = 0 and in 3D, and at omega = 1 in 2D
    # the Hankel pair's "argument must be finite", which names no point
    cases = _non_finite_cases(bad)
    assert len(cases) == 12
    if omega > 0:
        cases.append(("asymptotic_gap_2d",
                      lambda w: asymptotic_gap_2d([0.3, bad], [0.5, 0.5], w, BG)))
    for name, call in cases:
        try:
            call(omega)
        except ValueError as err:
            assert re.match(rf"points must be finite, got .*{bad}", str(err)), name
        else:
            pytest.fail(f"{name} accepted a {bad} coordinate")


@pytest.mark.parametrize("omega", [0.0, 1.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_overflowing_separation_is_refused_by_name(omega, dim):
    # finite points whose separation passes DBL_MAX gave NaN blocks (the
    # layer potentials NaN values) at omega = 0 and, at omega = 1, the
    # Hankel pair's unnamed "argument must be finite"
    far, origin = np.zeros(dim), np.zeros(dim)
    far[0] = 1e200
    nrm = np.eye(dim)[0]
    pair = r"separation of x = .* and y = .* overflows"
    cases = [(pair, lambda: green_omega(far, origin, omega, BG, dim)),
             (pair, lambda: green_traction(origin, far, nrm, omega, BG, dim))]
    if dim == 2 and omega > 0:
        cases.append((pair, lambda: asymptotic_gap_2d(far, origin, omega, BG)))
    if dim == 2:
        circle = circle_quadrature(2.0, 16)
        density = np.ones(32)
        for potential in (sl_potential, dl_potential):
            # one far target, and a stack whose last target is the far one
            for targets, index in ((far, 0), (np.array([[3.0, 0.0], [0.0, 4.0], far]), 2)):
                cases.append((rf"separation of target {index} = .* from the nodes overflows",
                              lambda p=potential, t=targets: p(circle, density, t, omega, BG)))
    for match, call in cases:
        with pytest.raises(ValueError, match=match):
            call()


def navier_residual_fd(dim, x, y, omega, medium, step):
    """Second-order FD residual of mu Lap + (lam+mu) grad div + omega^2 rho."""
    lam, mu, rho = medium.lam, medium.mu, medium.rho
    E = np.eye(dim)

    def P(z):
        return green_omega(z, y, omega, medium, dim)

    P0 = P(x)
    lap = sum((P(x + step * E[j]) - 2 * P0 + P(x - step * E[j])) / step**2
              for j in range(dim))
    gd = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for m in range(dim):
            if i == m:
                d2 = (P(x + step * E[i]) - 2 * P0 + P(x - step * E[i])) / step**2
            else:
                d2 = (
                    P(x + step * (E[i] + E[m]))
                    - P(x + step * (E[i] - E[m]))
                    - P(x - step * (E[i] - E[m]))
                    + P(x - step * (E[i] + E[m]))
                ) / (4 * step**2)
            gd[i, :] += d2[m, :]
    return mu * lap + (lam + mu) * gd + omega**2 * rho * P0, P0


@pytest.mark.parametrize(
    "dim,medium", [(2, BG), (3, BG), (2, HEAVY), (3, HEAVY)],
    ids=["2", "3", "2-rho2", "3-rho2"],
)
def test_navier_residual_of_columns(dim, medium):
    # Richardson extrapolation of the 2nd-order residual gives a 4th-order
    # probe, resolving the contract below FD truncation noise
    rng = np.random.default_rng(1)
    y = np.zeros(dim)
    for _ in range(3):
        x = rng.uniform(0.6, 1.2) * _unit(rng, dim)
        r_h, P0 = navier_residual_fd(dim, x, y, OMEGA, medium, 4e-3)
        r_h2, _ = navier_residual_fd(dim, x, y, OMEGA, medium, 2e-3)
        resid = (4.0 * r_h2 - r_h) / 3.0
        rel = float(np.abs(resid).max() / np.abs(OMEGA**2 * P0).max())
        assert rel < 1e-6


def _unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize(
    "dim,omega,medium",
    [(2, OMEGA, BG), (3, OMEGA, BG), (2, 0.0, BG), (3, 0.0, BG),
     (2, OMEGA, HEAVY), (3, OMEGA, HEAVY)],
    ids=["2-1.0", "3-1.0", "2-0.0", "3-0.0", "2-1.0-rho2", "3-1.0-rho2"],
)
def test_traction_kernel_matches_fd(dim, omega, medium):
    rng = np.random.default_rng(2)
    lam, mu = medium.lam, medium.mu
    x = rng.uniform(-1, 1, dim)
    y = x + 0.8 * _unit(rng, dim)
    nu = _unit(rng, dim)
    Xi = green_traction(x, y, nu, omega, medium, dim)
    h = 1e-6
    fd = np.zeros((dim, dim), dtype=complex)
    for l in range(dim):
        def v(z):
            return reference_pi(x, z, omega, medium, dim)[:, l]

        grad = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            grad[:, j] = (v(y + e) - v(y - e)) / (2 * h)
        div = np.trace(grad)
        for i in range(dim):
            fd[l, i] = lam * nu[i] * div + mu * sum(
                nu[j] * (grad[i, j] + grad[j, i]) for j in range(dim)
            )
    assert np.abs(Xi - fd).max() < 1e-8


# ---------------------------------------------------------------------------
# small-separation expansion


def test_eta_closed_formula():
    for omega, med in ((1.0, BG), (0.7, IsotropicMedium(2.0, 0.5)), (3.0, BG),
                       (1.0, HEAVY), (0.7, IsotropicMedium(2.0, 0.5, 2.0))):
        lam, mu = med.lam, med.mu
        b1 = (lam + 3 * mu) / (mu * (lam + 2 * mu))
        b2 = (lam + mu) / (mu * (lam + 2 * mu))
        closed = -(1.0 / (4 * np.pi)) * (
            b1 * (np.log(omega * np.sqrt(med.rho) / 2) + np.euler_gamma - 0.5j * np.pi)
            + 0.5 * b2
            - 0.5 * (np.log(mu) / mu + np.log(lam + 2 * mu) / (lam + 2 * mu))
        )
        assert abs(eta_constant(omega, med) - closed) < 1e-14


def test_eta_is_the_gap_limit():
    # Pi_omega - Pi_0 evaluated directly (no series) tends to eta * I
    x = np.array([0.3, 0.4])
    d = 1e-3
    y = x - d * np.array([np.cos(0.5), np.sin(0.5)])
    gap = green_omega(x, y, OMEGA, BG, 2) - green_omega(x, y, 0.0, BG, 2)
    eta = eta_constant(OMEGA, BG)
    assert abs(gap[0, 0] - eta) < 1e-6
    assert abs(gap[1, 1] - eta) < 1e-6


def test_gap_remainder_rate_dyadic():
    x = np.array([0.3, 0.4])
    direction = np.array([np.cos(0.5), np.sin(0.5)])
    Ks = []
    for d in (1e-3, 1e-4):
        gap = asymptotic_gap_2d(x, x - d * direction, OMEGA, BG)
        Ks.append(float(np.abs(gap).max() / (d**2 * abs(np.log(d)))))
    assert max(Ks) / min(Ks) < 2.0


def test_gap_small_omega_log_slope():
    lam, mu = BG.lam, BG.mu
    b1 = (lam + 3 * mu) / (mu * (lam + 2 * mu))
    e1 = eta_constant(1e-3, BG).real
    e2 = eta_constant(1e-6, BG).real
    slope = (e2 - e1) / (np.log(1e-6 / 2) - np.log(1e-3 / 2))
    assert slope == pytest.approx(-b1 / (4 * np.pi), rel=1e-10)
    assert e2 > e1 > 0  # -log(omega/2) dominates and is positive


def test_gap_diagonal_entries_equal_at_tiny_separation():
    # the isotropic eta I part dominates: residual anisotropy is O(d^2 ln d)
    x = np.array([0.3, 0.4])
    d = 1e-5
    y = x - d * np.array([np.cos(0.6), np.sin(0.6)])
    gap_full = asymptotic_gap_2d(x, y, OMEGA, BG) + eta_constant(OMEGA, BG) * np.eye(2)
    assert abs(gap_full[0, 0] - gap_full[1, 1]) < 1e-10


def mpmath_gap_2d(x, y, omega, medium, digits=50):
    """Oracle: Pi_omega - Pi_0 - eta I from mpmath Hankel functions.

    The dynamic tensor is the Hankel form of ``hankel_pi_2d``, the static
    one -(b1/(4 pi)) ln d I + (b2/(4 pi)) uhat uhat, and eta the closed form
    of ``eta_constant``'s docstring; the O(ln d) cancellation costs far
    fewer than the 50 digits carried. Returns (gap, eta).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(digits):
        lam, mu, rho = (mp.mpf(v) for v in (medium.lam, medium.mu, medium.rho))
        w = mp.mpf(omega)
        kp, ks = w * mp.sqrt(rho / (lam + 2 * mu)), w * mp.sqrt(rho / mu)
        u = [mp.mpf(float(a)) - mp.mpf(float(b)) for a, b in zip(x, y)]
        d = mp.sqrt(u[0] ** 2 + u[1] ** 2)

        def f1(k):
            return -0.25j * k * mp.hankel1(1, k * d)

        def f2(k):
            return -0.25j * k * k * (mp.hankel1(0, k * d) - mp.hankel1(1, k * d) / (k * d))

        g1, g2 = f1(ks) - f1(kp), f2(ks) - f2(kp)
        b1 = (lam + 3 * mu) / (mu * (lam + 2 * mu))
        b2 = (lam + mu) / (mu * (lam + 2 * mu))
        eta = -(b1 * (mp.log(w * mp.sqrt(rho) / 2) + mp.euler - 0.5j * mp.pi) + b2 / 2
                - (mp.log(mu) / mu + mp.log(lam + 2 * mu) / (lam + 2 * mu)) / 2) / (4 * mp.pi)
        gap = np.empty((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                P, eye = u[i] * u[j] / d**2, float(i == j)
                dyn = (0.25j * mp.hankel1(0, ks * d) / mu * eye
                       + (g2 * P + g1 / d * (eye - P)) / (rho * w * w))
                static = -b1 / (4 * mp.pi) * mp.log(d) * eye + b2 / (4 * mp.pi) * P
                gap[i, j] = complex(dyn - static - eta * eye)
        return gap, complex(eta)


@pytest.mark.parametrize("omega,medium", [(0.7, BG), (1.3, IsotropicMedium(2.5, 0.7, 1.8))],
                         ids=["unit", "rho1.8"])
@pytest.mark.parametrize("d", [1e-3, 1e-4, "1.5/ks"])
def test_gap_remainder_matches_mpmath(omega, medium, d):
    # below the series switch |ks d| = 1 the remainder is O(d^2 ln d), so
    # an O(ln d) difference of two tensors would leave rounding noise of
    # order eps |eta| in it; past the switch it is that difference, and
    # the relative bound alone holds
    from elastocloak.wavefields import wavenumbers

    series = not isinstance(d, str)
    if not series:
        d = 1.5 / abs(wavenumbers(medium, omega)[1])
    x = np.array([0.3, 0.4])
    y = x - d * np.array([np.cos(0.5), np.sin(0.5)])
    want, eta = mpmath_gap_2d(x, y, omega, medium)
    err = float(np.abs(asymptotic_gap_2d(x, y, omega, medium) - want).max())
    if series:
        assert err <= np.finfo(float).eps * abs(eta)
    assert err <= 1e-12 * np.abs(want).max()


def _horner_per_series(c, d):
    """The per-series Horner loop that the power sum replaced."""
    x = np.asarray(d) ** 2
    out = np.zeros_like(x, dtype=complex)
    for cm in c[::-1]:
        out = out * x + cm
    return out


# rows of the 2D series table, and the rows each evaluator slice selects
_ROWS = {name: i for i, name in enumerate((
    "alpha_log", "alpha_smooth", "beta_log", "beta_smooth", "c2_log",
    "c2_smooth", "c3_log", "c3_smooth", "c4_log", "c4_smooth",
))}
_SERIES_GROUPS = {
    "_AB": ("alpha_log", "alpha_smooth", "beta_log", "beta_smooth"),
    "_CS": ("c2_log", "c2_smooth", "c3_log", "c3_smooth", "c4_log", "c4_smooth"),
}


@pytest.mark.parametrize("omega,medium", [
    (1.0, BG), (3.0, IsotropicMedium(2.5, 0.7, 1.8)),
    (0.7, IsotropicMedium(1.3, 0.9 + 0.05j, 1.2 + 0.3j)), (0.0, HEAVY),
], ids=["unit", "rho1.8", "lossy", "static"])
def test_stacked_horner_matches_per_series_loop(omega, medium):
    # a stacked row is the power sum of that row alone, byte for byte, and
    # lies within 2^-50 of sum_m |c_m x^m| of the per-series Horner loop
    from elastocloak import kernels
    from elastocloak.kernels import _SERIES_SWITCH, _radial_pack, _series

    pack = _radial_pack(omega, medium, 2)
    assert pack.table.shape[0] == 10 and pack.table.shape[1] <= (14 if omega > 0 else 1)
    scale = _SERIES_SWITCH / abs(pack.direct.ks) if omega > 0 else 1.0
    ds = [np.array(0.5 * scale),
          scale * np.array([1e-4, 0.1, 0.5, 0.999, 1.001, 2.0, 4.0])]
    groups = [(group, pack.table[getattr(kernels, group)],
               [pack.table[_ROWS[name]] for name in names])
              for group, names in _SERIES_GROUPS.items()]
    groups.append(("table", pack.table, list(pack.table)))  # the layer operators' pass
    if omega > 0:
        groups.append(("gap", pack.gap, list(pack.gap)))
    for group, stack, rows in groups:
        for d in ds:
            stacked = _series(stack, d)
            assert stacked.shape == (len(rows),) + d.shape
            x = np.asarray(d)[..., None] ** 2
            for i, (row, coeffs) in enumerate(zip(stacked, rows)):
                assert row.tobytes() == _series(coeffs[None], d)[0].tobytes(), (group, i)
                scale_sum = (np.abs(coeffs) * x ** np.arange(len(coeffs))).sum(axis=-1)
                err = np.abs(row - _horner_per_series(coeffs, d))
                assert (err <= 2.0**-50 * scale_sum).all(), (group, i)


def test_series_and_direct_paths_agree_in_overlap():
    # the series path (used near the diagonal) must join the Hankel path,
    # with the table cut to its regime, up to the switch at |ks d| = 1
    from elastocloak.kernels import _AB, _CS, _Radial2D

    pack = _Radial2D(OMEGA, BG)
    for d in (0.05, 0.2, 0.5, 0.9, 0.999):
        d = np.array(d)
        assert abs(pack.direct.ks) * d < 1.0  # factors takes the series path
        for rows, tol in ((_AB, 1e-12), (_CS, 1e-10)):
            series, direct = pack.factors(d, rows), pack.direct.factors(d, rows)
            assert len(series) == len(direct) == (2 if rows is _AB else 3)
            for s, h in zip(series, direct):
                assert abs(s - h) < tol


# media whose series tables are cut: unit, soft, stiff, lossy and lam < 0
CUT_MEDIA = [BG, IsotropicMedium(0.2, 0.2, 1.0), IsotropicMedium(2.5, 0.7, 1.8),
             LOSSY, IsotropicMedium(-1.5, 1.0, 1.0)]


@pytest.mark.parametrize("omega", [0.01, 1.0, 10.0])
def test_series_tables_cut_to_their_regime(omega):
    from elastocloak.kernels import _ALL, _Radial2D

    for medium in CUT_MEDIA:
        pack = _Radial2D(omega, medium)
        assert pack.table.shape[1] <= 14 and pack.gap.shape[1] <= 14
        # the cut table still joins the Hankel form just below the switch
        d = np.array([0.999 / abs(pack.direct.ks)])
        series = np.array(pack.factors(d, _ALL))[:5, 0]
        direct = np.array(pack.direct.factors(d, _ALL))[:5, 0]
        assert np.abs(series - direct).max() <= 1e-12 * np.abs(direct).max()


def mpmath_radial_factors(d, omega, medium, log=False, digits=40):
    """Oracle: alpha, beta, c2, c3, c4 at d from mpmath's J0 and Y0 or,
    with ``log``, their ln d coefficients in closed form.

    The kernel is (i/4) H0(k d), whose ln d part is G_L = -J0(k d)/(2 pi);
    alpha and beta follow from the grad grad formula with the kernel (or
    G_L), c2 = alpha'/d, c3 = beta'/d (by mpmath's numerical derivative)
    and c4 = beta/d^2.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(digits):
        lam, mu, rho = (mp.mpmathify(v) for v in (medium.lam, medium.mu, medium.rho))
        w2 = rho * mp.mpf(omega) ** 2
        kp = mp.mpf(omega) * mp.sqrt(rho / (lam + 2 * mu))
        ks = mp.mpf(omega) * mp.sqrt(rho / mu)

        def g(k, r, n):  # n-th r-derivative of the kernel or of G_L
            j = mp.besselj(0, k * r, derivative=n)
            if log:
                return -(k**n) * j / (2 * mp.pi)
            return 0.25j * k**n * (j + 1j * mp.bessely(0, k * r, derivative=n))

        def alpha(r):
            return g(ks, r, 0) / mu + (g(ks, r, 1) - g(kp, r, 1)) / (w2 * r)

        def beta(r):
            diff = [g(ks, r, n) - g(kp, r, n) for n in (1, 2)]
            return (diff[1] - diff[0] / r) / w2

        r = mp.mpf(d)
        vals = (alpha(r), beta(r), mp.diff(alpha, r) / r, mp.diff(beta, r) / r,
                beta(r) / r**2)
        return np.array([complex(v) for v in vals])


@pytest.mark.parametrize("medium", [BG, IsotropicMedium(2.5, 0.7, 1.8),
                                    IsotropicMedium(0.2, 0.2, 1.0), LOSSY],
                         ids=["unit", "stiff", "soft", "lossy"])
@pytest.mark.parametrize("ksd", [12.0, 19.2, 26.8])
def test_log_factors_match_closed_form(medium, ksd):
    # the ln d coefficients that the layer operators split off, far past
    # the series switch, where a 33-term series loses them
    from elastocloak.kernels import _ALL, _Radial2D

    omega = 10.0
    pack = _Radial2D(omega, medium)
    d = ksd / abs(pack.direct.ks)
    log = np.array(pack.factors(np.array([d]), _ALL))[5:, 0]
    want = mpmath_radial_factors(d, omega, medium, log=True)
    assert np.abs(log - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("ksd", [0.7, 0.999, 1.001, 1.7, 9.5, 30.0])
def test_mixed_medium_hankel_factors_match_mpmath(ksd):
    # a real ks and a complex kp share one Amos evaluation: each factor and
    # its ln d coefficient on the Hankel path, on both sides of the switch
    from elastocloak.kernels import _ALL, _Radial2D

    omega = 1.3
    p = _Radial2D(omega, MIXED).direct
    assert p.ks.imag == 0 and p.kp.imag != 0
    d = ksd / abs(p.ks)
    got = np.array(p.factors(np.array([d]), _ALL))[:, 0]
    want = np.concatenate([mpmath_radial_factors(d, omega, MIXED, digits=30),
                           mpmath_radial_factors(d, omega, MIXED, log=True, digits=30)])
    assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()


# ---------------------------------------------------------------------------
# circle quadrature and layer operators


def test_circle_quadrature_invariants():
    q = circle_quadrature(2.0, 64)
    assert abs(q.weights.sum() - 2 * np.pi * 2.0) < 1e-13
    np.testing.assert_allclose(np.linalg.norm(q.normals, axis=1), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        circle_quadrature(2.0, 33)


@pytest.mark.parametrize("radius", [-2.0, 0.0, np.inf, np.nan])
def test_circle_quadrature_rejects_bad_radius(radius):
    with pytest.raises(ValueError, match="radius"):
        circle_quadrature(radius, 8)


@pytest.mark.parametrize("n_points", [8.0, True])
def test_circle_quadrature_rejects_non_integer_n_points(n_points):
    with pytest.raises(ValueError, match=f"n_points .* got {n_points}"):
        circle_quadrature(2.0, n_points)


@pytest.mark.parametrize("n_pairs", [2.7, True, -3])
def test_kernel_check_rejects_bad_n_pairs(n_pairs):
    from elastocloak import kernel_check

    with pytest.raises(ValueError, match="kernelcheck.n_pairs"):
        kernel_check({"kernelcheck": {"n_pairs": n_pairs}})


def test_kernel_check_rejects_non_integral_seed():
    from elastocloak import kernel_check

    with pytest.raises(ValueError, match="seed"):
        kernel_check({"seed": 2.7, "kernelcheck": {"n_pairs": 4}})


def test_single_layer_row_against_adaptive_quadrature():
    N = 64
    q = circle_quadrature(2.0, N)
    ops = layer_operators(q, OMEGA, BG)

    def phi(s):
        return np.array([np.cos(s) + 0.3 * np.sin(2 * s), 0.5 + np.sin(s)])

    ph = np.array([phi(s) for s in q.angles]).reshape(-1)
    i0 = 5
    t0 = q.angles[i0]
    x0 = q.nodes[i0]

    def integrand(s, comp, part):
        if abs(np.sin((t0 - s) / 2)) < 1e-14:
            return 0.0
        y = 2.0 * np.array([np.cos(s), np.sin(s)])
        v = (green_omega(x0, y, OMEGA, BG, 2) @ phi(s))[comp] * 2.0
        return v.real if part == "re" else v.imag

    row = (ops.S @ ph).reshape(N, 2)[i0]
    for comp in range(2):
        val = 0.0
        for part in ("re", "im"):
            out, _ = quad(integrand, t0 - np.pi, t0 + np.pi, args=(comp, part),
                          points=[t0], limit=400)
            val += out if part == "re" else 1j * out
        assert abs(val - row[comp]) < 1e-9


def test_static_single_layer_symmetric():
    q = circle_quadrature(2.0, 64)
    ops = layer_operators(q, 0.0, BG)
    assert np.abs(ops.S - ops.S.T).max() < 1e-12


def test_spectral_convergence_of_matvec():
    # error reduction per doubling must beat algebraic order 4
    def density(t):
        return np.stack([np.cos(3 * t), np.sin(2 * t) + 0.2], axis=-1)

    ref_N = 256
    qr = circle_quadrature(2.0, ref_N)
    opr = layer_operators(qr, OMEGA, BG)
    ref_S = (opr.S @ density(qr.angles).reshape(-1)).reshape(ref_N, 2)
    ref_K = (opr.K @ density(qr.angles).reshape(-1)).reshape(ref_N, 2)
    errs_S, errs_K = [], []
    for N in (16, 32):
        q = circle_quadrature(2.0, N)
        ops = layer_operators(q, OMEGA, BG)
        S_v = (ops.S @ density(q.angles).reshape(-1)).reshape(N, 2)
        K_v = (ops.K @ density(q.angles).reshape(-1)).reshape(N, 2)
        stride = ref_N // N
        errs_S.append(float(np.abs(S_v - ref_S[::stride]).max()))
        errs_K.append(float(np.abs(K_v - ref_K[::stride]).max()))
    assert errs_S[0] / max(errs_S[1], 1e-15) > 16.0
    assert errs_K[0] / max(errs_K[1], 1e-15) > 16.0


def test_double_layer_jump_relation():
    N = 1024
    q = circle_quadrature(2.0, N)
    t = q.angles
    density = np.stack([np.cos(t) + 0.3 * np.sin(2 * t), 0.5 + np.sin(t)], axis=1)
    i0 = 11
    x0 = q.nodes[i0]
    errs = []
    for eps in (0.04, 0.02):
        out = dl_potential(q, density, (1 + eps) * x0, OMEGA, BG)
        inn = dl_potential(q, density, (1 - eps) * x0, OMEGA, BG)
        jump = out - inn
        errs.append(float(np.abs(jump - density[i0]).max()))
    assert errs[1] < errs[0]  # first-order approach to the jump
    assert errs[1] < 0.05


def _gather_whole_matrix(B, t):
    """The whole-matrix form of ``_rotated_gather``: N x N temporaries."""
    from elastocloak.kernels import _circulant

    N = B.shape[0]
    p, q, r, s = _circulant(0.5 * np.stack([
        B[:, 0, 0] + B[:, 1, 1], B[:, 0, 1] - B[:, 1, 0],
        B[:, 0, 0] - B[:, 1, 1], B[:, 0, 1] + B[:, 1, 0],
    ]))
    c2, s2 = np.cos(2.0 * t), np.sin(2.0 * t)
    f = r * c2 - s * s2
    g = r * s2 + s * c2
    M = np.empty((2 * N, 2 * N), dtype=complex)
    M[0::2, 0::2] = p + f
    M[1::2, 1::2] = p - f
    M[0::2, 1::2] = q + g
    M[1::2, 0::2] = g - q
    return M


@pytest.mark.parametrize("N", [4, 6, 130, 260])
def test_rotated_gather_blocks(N):
    from elastocloak.kernels import _rotated_gather, _row_block

    if N == 260:  # several row blocks over the upper half, the last one partial
        assert _row_block(N) < N // 2 and (N // 2) % _row_block(N) != 0
    rng = np.random.default_rng(N)
    B = rng.normal(size=(N, 2, 2)) + 1j * rng.normal(size=(N, 2, 2))
    t = 2.0 * np.pi * np.arange(N) / N
    M = _rotated_gather(B, t)
    # node rows 0 .. N/2 - 1 are the whole-matrix formula byte for byte, and
    # the lower half is their half-turn copy
    assert M[:N].tobytes() == _gather_whole_matrix(B, t)[:N].tobytes()
    assert M[N:, N:].tobytes() == M[:N, :N].tobytes()
    assert M[N:, :N].tobytes() == M[:N, N:].tobytes()
    blocks = M.reshape(N, 2, N, 2).transpose(0, 2, 1, 3)
    for j in range(N):
        Q = np.array([[np.cos(t[j]), -np.sin(t[j])], [np.sin(t[j]), np.cos(t[j])]])
        for i in range(N):
            want = Q @ B[(i - j) % N] @ Q.T
            assert np.abs(blocks[i, j] - want).max() <= 1e-14


@pytest.mark.parametrize("N", [4, 6, 130, 512])
def test_layer_operators_half_turn_blocks(N):
    # Q(t + pi) = -Q(t): block (i + N/2, j + N/2) is block (i, j), byte for byte
    ops = layer_operators(circle_quadrature(2.0, N), OMEGA, BG)
    h = N // 2
    for M in (ops.S, ops.K):
        b = M.reshape(N, 2, N, 2)
        assert b[h:, :, h:].tobytes() == b[:h, :, :h].tobytes()
        assert b[h:, :, :h].tobytes() == b[:h, :, h:].tobytes()


@pytest.mark.parametrize("omega,medium,pairs", [
    (OMEGA, BG, 1), (OMEGA, LOSSY, 1), (OMEGA, MIXED, 1), (0.0, BG, 0),
], ids=["unit", "lossy", "mixed", "static"])
def test_layer_operators_one_pass_per_distance(monkeypatch, omega, medium, pairs):
    # at N = 256 the distances lie on both sides of the switch |ks d| = 1:
    # one (H0, H1) evaluation for both wavenumbers serves S and K above it
    # (for a real ks and a complex kp too), and one power sum over the
    # table below it
    from elastocloak import kernels

    calls = {"pair": 0, "series": 0}

    def counting(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(kernels, "_hankel1_pair", counting("pair", kernels._hankel1_pair))
    monkeypatch.setattr(kernels, "_series", counting("series", kernels._series))
    layer_operators(circle_quadrature(2.0, 256), omega, medium)
    assert calls == {"pair": pairs, "series": 1}


def test_layer_operators_memory_floor():
    # S and K are the only N x N arrays: the gather fills them by row blocks
    layer_operators(circle_quadrature(2.0, 16), OMEGA, BG)  # imports, radial pack
    q = circle_quadrature(2.0, 512)
    tracemalloc.start()
    try:
        ops = layer_operators(q, OMEGA, BG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / (ops.S.nbytes + ops.K.nbytes)
    assert ratio <= 1.10


@pytest.mark.parametrize("omega", [1.0, 2.5, 5.0])
def test_kernel_check_jump_passes_at_higher_frequency(omega):
    # the O(eps) error of a one-offset jump grows with omega (0.095 at
    # omega = 2.5); the Richardson value stays well inside the tolerance
    from elastocloak import kernel_check

    report = kernel_check({"omega": omega, "kernelcheck": {"n_pairs": 20}})
    jump = next(c for c in report["checks"] if c["name"] == "dl_jump")
    assert jump["tol"] == 5e-2
    assert jump["value"] < 0.5 * jump["tol"]
    assert report["passed"]


def _calderon_residual(N, omega, medium):
    """Max residual of (1/2) u + K u - S T on the circle of radius 2, for the
    field u and traction T of a point force outside it."""
    src = np.array([3.0, 1.0])
    qv = np.array([0.7, -0.4])
    q = circle_quadrature(2.0, N)
    ops = layer_operators(q, omega, medium)
    u = np.zeros((N, 2), dtype=complex)
    T = np.zeros((N, 2), dtype=complex)
    for i in range(N):
        u[i] = green_omega(q.nodes[i], src, omega, medium, 2) @ qv
        Xi = green_traction(src, q.nodes[i], q.normals[i], omega, medium, 2)
        T[i] = Xi.T @ qv
    resid = 0.5 * u.reshape(-1) + ops.K @ u.reshape(-1) - ops.S @ T.reshape(-1)
    return float(np.abs(resid).max())


@pytest.mark.parametrize("omega", [OMEGA, 0.0])
def test_calderon_identity_spectral(omega):
    errs = [_calderon_residual(N, omega, BG) for N in (32, 64)]
    assert errs[1] < 1e-7
    assert errs[1] < errs[0]


@pytest.mark.parametrize("medium", [BG, IsotropicMedium(0.2, 0.2, 1.0)], ids=["unit", "soft"])
def test_calderon_identity_at_high_frequency(medium):
    # |ks| 2R = 40 (unit) and 89 (soft): the ln d part of the kernels on
    # the far side of the circle must hold there as well as near the node
    assert _calderon_residual(256, 10.0, medium) < 1e-12


def test_kernel_check_calderon_passes_at_omega_10():
    # the Calderon line, and with dl_jump's offset and node count scaled by
    # the shear wavenumber every line, must pass at omega = 10
    from elastocloak import kernel_check

    report = kernel_check({"omega": 10})
    line = next(c for c in report["checks"] if c["name"] == "calderon")
    assert line["passed"], line
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("medium", [BG, IsotropicMedium(1.3, 0.9 + 0.05j, 1.2 + 0.3j)],
                         ids=["unit", "lossy"])
@pytest.mark.parametrize("N", [64, 128])
def test_boundary_integral_ntd_matches_mode_solver(N, medium):
    # interior Neumann problem through the Calderon identity: with the
    # mode-n traction t = a cos(n th) e_r + b sin(n th) e_th on the circle,
    # (1/2 I + K) u = S t gives the displacement trace u, whose cos/sin
    # coefficients must be the uniform-disk NtD block applied to (a, b).
    # Neither medium is near a traction-free resonance at omega = 1, R = 2.
    R = 2.0
    q = circle_quadrature(R, N)
    ops = layer_operators(q, OMEGA, medium)
    A = 0.5 * np.eye(2 * N) + ops.K
    blocks = free_disk_ntd(medium, R, OMEGA, 8).blocks
    er, et = q.normals, q.tangents
    for n in range(9):
        a, b = 0.8, (0.0 if n == 0 else -0.35)
        cos, sin = np.cos(n * q.angles), np.sin(n * q.angles)
        t = a * cos[:, None] * er + b * sin[:, None] * et
        u = np.linalg.solve(A, ops.S @ t.reshape(-1)).reshape(N, 2)
        ur, ut = np.sum(u * er, axis=1), np.sum(u * et, axis=1)
        want = blocks[n] @ np.array([a, b])
        assert abs(ur @ cos / (cos @ cos) - want[0]) < 1e-10
        if n == 0:
            assert np.abs(ut).max() < 1e-10
        else:
            assert abs(ut @ sin / (sin @ sin) - want[1]) < 1e-10


def test_sl_potential_point_source_consistency():
    # SL with the traction of a point-source field reproduces the Betti
    # representation together with DL (interior identity)
    N = 256
    q = circle_quadrature(2.0, N)
    src = np.array([3.0, 1.0])
    qv = np.array([0.7, -0.4])
    u = np.array([green_omega(p, src, OMEGA, BG, 2) @ qv for p in q.nodes])
    T = np.array(
        [green_traction(src, p, nrm, OMEGA, BG, 2).T @ qv
         for p, nrm in zip(q.nodes, q.normals)]
    )
    x_int = np.array([0.4, -0.3])
    rep = sl_potential(q, T, x_int, OMEGA, BG) - dl_potential(q, u, x_int, OMEGA, BG)
    expected = green_omega(x_int, src, OMEGA, BG, 2) @ qv
    assert np.abs(rep - expected).max() < 1e-12


def test_radial_pack_built_once_per_omega_and_medium(monkeypatch):
    from elastocloak import kernel_check, kernels

    built = []
    init = kernels._Radial2D.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    kernels._radial_pack.cache_clear()
    monkeypatch.setattr(kernels._Radial2D, "__init__", counting_init)
    report = kernel_check({"kernelcheck": {"n_pairs": 1000}})
    kernels._radial_pack.cache_clear()
    assert report["passed"]
    assert 1 <= len(built) <= 3



def _every_2d_kernel(medium, omega=OMEGA, N=32):
    """Call each 2D dynamic kernel once: the layer operators, both layer
    potentials, the Green tensor, the traction kernel and the kernel check."""
    from elastocloak import kernel_check

    q = circle_quadrature(2.0, N)
    density = np.ones(2 * N)
    x, y = np.array([0.3, -0.2]), np.array([1.1, 0.4])
    return [
        lambda: layer_operators(q, omega, medium),
        lambda: sl_potential(q, density, x, omega, medium),
        lambda: dl_potential(q, density, x, omega, medium),
        lambda: green_omega(x, y, omega, medium),
        lambda: green_traction(x, y, np.array([0.6, 0.8]), omega, medium),
        lambda: kernel_check({"omega": omega, "kernelcheck": {"n_pairs": 50}}),
    ]


def test_lossless_kernels_skip_amos_and_lossy_ones_reach_it(monkeypatch):
    import scipy.special

    from elastocloak import harness
    from elastocloak.wavefields import wavenumbers

    class AmosCalled(Exception):
        pass

    def amos(*args, **kwargs):
        raise AmosCalled

    monkeypatch.setattr(scipy.special, "hankel1", amos)
    for call in _every_2d_kernel(BG):
        call()
    # a config cannot name a complex background: hand kernel_check the medium
    monkeypatch.setattr(harness, "_background", lambda config: LOSSY)
    for call in _every_2d_kernel(LOSSY):
        with pytest.raises(AmosCalled):
            call()

    # real ks, complex kp: ks d and kp d reach Amos together, in one call
    kp, ks = wavenumbers(MIXED, OMEGA)
    assert ks.imag == 0 and kp.imag != 0
    amos_args = []

    def recording(n, z):
        amos_args.append(np.asarray(z))
        return hankel1(n, z)

    monkeypatch.setattr(scipy.special, "hankel1", recording)
    monkeypatch.setattr(harness, "_background", lambda config: MIXED)
    for call in _every_2d_kernel(MIXED):
        n_before = len(amos_args)
        call()
        assert len(amos_args) > n_before
        for z in amos_args[n_before:]:
            # row 0 is ks d, on the positive real axis; row 1 is kp d
            assert np.iscomplexobj(z) and z.shape[0] == 2
            assert (z[0].imag == 0).all() and (z[0].real > 0).all()
            assert np.abs(np.angle(z[1]) - np.angle(kp)).max() <= 1e-15


@pytest.mark.parametrize("medium", [
    IsotropicMedium(2.5, 0.7, 1.8), LOSSY, MIXED,
], ids=["lossless", "lossy", "mixed"])
def test_stacked_hankel_pass_is_the_per_wavenumber_one(medium):
    # one (H0, H1) evaluation for ks and kp stacked gives every Hankel-path
    # factor byte for byte as one evaluation per wavenumber; where either
    # argument is complex, both take Amos, so a real one is cast to complex
    from elastocloak.kernels import (
        _AB,
        _ALL,
        _CS,
        _cylinder_kernels,
        _Direct,
        _differences,
        _Radial2D,
    )

    pack = _Radial2D(1.3, medium)
    p = pack.direct
    d = np.array([0.02, 0.3, 0.7, 0.999, 1.0, 1.001, 1.7, 3.0, 9.5]) / abs(p.ks)
    lossy = p.ks.imag != 0 or p.kp.imag != 0

    def one(k):  # (kernel, ln d part) of one wavenumber, from a 1-tuple call
        z = (k if lossy else k.real) * d
        return [[v[0] for v in g] for g in _cylinder_kernels((k,), z[None], log=True)]

    (ks_kern, ks_log), (kp_kern, kp_log) = one(p.ks), one(p.kp)
    kerns = [_differences(ks_kern, kp_kern), _differences(ks_log, kp_log)]
    # the factors of the per-wavenumber kernels, through the same formulas
    per_wavenumber = _Direct(lambda ks, kp, d, log: kerns[: 1 + log], 1.3, medium)
    want = per_wavenumber.factors(d, _ALL)
    assert len(want) == 10
    for rows, w in ((_AB, want[:2]), (_CS, want[2:5]), (_ALL, want)):
        got = p.factors(d, rows)
        assert len(got) == len(w)
        for g, v in zip(got, w):
            assert g.tobytes() == v.tobytes()
    # above the switch the pack's rows are the Hankel pass
    big = abs(p.ks) * d >= 1.0
    v = np.array(pack.factors(d, _ALL))
    assert v[:, big].tobytes() == np.array(want)[:, big].tobytes()


def _tensor_potentials(q, density, pts, omega, medium):
    """Oracle: sum_j w_j Pi(x - y_j) phi_j and sum_j w_j Xi(x, y_j) phi_j as
    2 x 2 tensors contracted by einsum, per target."""
    from elastocloak.kernels import _pi, _radial_pack, _xi

    pack = _radial_pack(omega, medium, 2)
    phi = np.asarray(density, dtype=complex).reshape(q.n_points, 2)
    u = pts[:, None, :] - q.nodes[None, :, :]
    d = np.linalg.norm(u, axis=-1)
    lam, mu = complex(medium.lam), complex(medium.mu)
    sl = np.einsum("ajkl,j,jl->ak", _pi(u, d, pack), q.weights, phi)
    dl = np.einsum("ajkl,j,jl->ak", _xi(u, d, q.normals, pack, lam, mu), q.weights, phi)
    return sl, dl


@pytest.mark.parametrize("omega,medium", [(1.0, BG), (10.0, BG), (1.0, LOSSY), (0.0, BG)],
                         ids=["unit", "omega10", "lossy", "static"])
def test_potentials_contract_the_density_directly(omega, medium):
    N = 128
    q = circle_quadrature(2.0, N)
    rng = np.random.default_rng(23)
    density = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
    # targets inside and outside, some within |ks d| < 1 of the nodes
    r = np.concatenate([rng.uniform(0.3, 1.9, 4), rng.uniform(2.1, 3.0, 2)])
    t = rng.uniform(0.0, 2.0 * np.pi, r.size)
    pts = r[:, None] * np.stack([np.cos(t), np.sin(t)], axis=1)
    want = _tensor_potentials(q, density, pts, omega, medium)
    for f, w in zip((sl_potential, dl_potential), want):
        many = f(q, density, pts, omega, medium)
        assert many.shape == (len(pts), 2)
        single = np.array([f(q, density, x, omega, medium) for x in pts])
        assert single.shape == (len(pts), 2)
        scale = np.abs(w).max(axis=1, keepdims=True)
        assert (np.abs(many - w) <= 1e-14 * scale).all()
        assert (np.abs(single - w) <= 1e-14 * scale).all()
        # a target on a node is refused, alone or among others
        for bad in (q.nodes[5], np.vstack([pts[:2], q.nodes[5]])):
            with pytest.raises(ValueError, match="coincident"):
                f(q, density, bad, omega, medium)
        with pytest.raises(ValueError, match="points"):
            f(q, density, np.zeros(3), omega, medium)


@pytest.mark.parametrize("medium", [BG, IsotropicMedium(2.5, 0.7, 1.8)], ids=["unit", "stiff"])
@pytest.mark.parametrize("omega", [0.7, 3.0])
@pytest.mark.parametrize("N", [16, 128])
def test_real_hankel_pair_matches_amos_in_operators(monkeypatch, medium, omega, N):
    from elastocloak import kernels

    q = circle_quadrature(2.0, N)
    rng = np.random.default_rng(N)
    density = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
    pts = 2.0 * rng.uniform(-0.6, 0.6, (5, 2))

    def values():
        ops = layer_operators(q, omega, medium)
        return (ops.S, ops.K, sl_potential(q, density, pts, omega, medium),
                dl_potential(q, density, pts, omega, medium))

    fast = values()
    # the same pair on its Amos branch: a complex argument
    pair = kernels._hankel1_pair
    monkeypatch.setattr(kernels, "_hankel1_pair",
                        lambda z: pair(np.asarray(z, dtype=complex)))
    for got, want in zip(fast, values()):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("omega", [-1.0, np.nan, np.inf, -np.inf])
def test_negative_or_nonfinite_omega_is_refused(omega):
    for call in _every_2d_kernel(BG, omega):
        with pytest.raises(ValueError, match="omega"):
            call()


# ---------------------------------------------------------------------------
# exterior cavity


def test_cavity_zero_traction_zero_field():
    for tractions in ({0: (0.0, 0.0), 2: (0.0, 0.0)}, {}):
        sol = solve_exterior_cavity(0.1, tractions, OMEGA, BG)
        assert (sol.coeffs == 0).all()
        assert sol.boundary_norm(2.0) == 0.0


@pytest.mark.parametrize("h, mode", [(0.1, 98), (0.01, 76), (0.001, 62)])
def test_cavity_names_the_first_unrepresentable_mode(h, mode):
    # the P column of ``mode`` overflows at r = h: that mode used to come
    # back with a P coefficient of exactly 0 and the next ones with NaN. The
    # modes below it give finite, nonzero coefficients and a finite far trace
    traction = (1.0, 0.5)
    below = solve_exterior_cavity(h, dict.fromkeys(range(mode), traction), OMEGA, BG)
    assert np.isfinite(below.coeffs).all() and (below.coeffs != 0).all()
    assert np.isfinite(below.boundary_norm(2.0))
    with pytest.raises(ModeOverflowError, match=f"mode {mode} ") as exc:
        solve_exterior_cavity(h, dict.fromkeys(range(mode + 6), traction), OMEGA, BG)
    assert exc.value.mode == mode


@pytest.mark.parametrize("h, omega, named", [
    (np.nan, np.nan, "radius"), (0.0, OMEGA, "radius"), (np.inf, OMEGA, "radius"),
    (0.1, 0.0, "omega"), (0.1, np.nan, "omega"), (0.1, np.inf, "omega"),
])
def test_cavity_refuses_a_bad_radius_or_omega(h, omega, named):
    with pytest.raises(ValueError, match=named):
        solve_exterior_cavity(h, {}, omega, BG)


@pytest.mark.parametrize("radius", [0.05, 0.0999, -1.0, np.nan, np.inf])
def test_cavity_far_trace_refuses_radii_outside_the_solution(radius):
    # the outgoing solution lives on r >= h; at r = 0.05 < h = 0.1 the norm
    # read 0.0484, and with no tractions any radius read 0.0
    for tractions in ({1: (1.0, 0.5)}, {}):
        sol = solve_exterior_cavity(0.1, tractions, OMEGA, BG)
        with pytest.raises(ValueError, match=f"radius .*got {re.escape(repr(radius))}$"):
            sol.boundary_norm(radius)
    assert np.isfinite(solve_exterior_cavity(0.1, {1: (1.0, 0.5)}, OMEGA, BG).boundary_norm(0.1))


def test_cavity_far_trace_scaling_slope():
    tractions = {0: (1.0, 0.3), 1: (0.5, 0.2), 2: (0.3, 0.1), 3: (0.2, 0.4)}
    hs = [0.2, 0.1, 0.05, 0.025]
    norms = [solve_exterior_cavity(h, tractions, OMEGA, BG).boundary_norm(2.0) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(norms), 1)[0]
    assert 0.7 <= slope <= 1.3


def test_cavity_mode0_pressure_is_curl_free():
    sol = solve_exterior_cavity(0.1, {0: (1.0, 0.0)}, OMEGA, BG)
    (p, s), = sol.coeffs  # the outgoing P and S coefficients of mode 0
    assert s == 0.0
    assert p != 0.0


def test_cavity_radiation_decay():
    # (d/dr - i k) applied to each outgoing part decays like r^(-3/2)
    sol = solve_exterior_cavity(0.1, {1: (0.4, 0.7)}, OMEGA, BG)
    from elastocloak.wavefields import BASIS_OUTGOING, ModeField, wavenumbers

    kp, ks = wavenumbers(BG, OMEGA)
    for (kind, pol), c, k in zip(BASIS_OUTGOING, sol.coeffs[0], (kp, ks)):
        part = ModeField(BG, OMEGA, 1, ((kind, pol, c),))
        rs = np.array([30.0, 60.0, 120.0])
        vals = []
        for r in rs:
            h = 1e-5
            up = np.array(part.displacement_polar(r + h))
            um = np.array(part.displacement_polar(r - h))
            u0 = np.array(part.displacement_polar(r))
            resid = (up - um) / (2 * h) - 1j * k * u0
            vals.append(np.linalg.norm(resid))
        slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
        assert abs(slope + 1.5) < 0.2
