"""Cylinder-function contracts: values, identities, derivatives.

The functions under test are the ones the library evaluates: the J and
H1 tables of the mode solver (``wavefields._radial``), the J0 derivatives
of the resonance construction (``modesolver._j0_derivatives``) and the
(H0, H1) pair of the point kernels (``kernels._hankel1_pair``).

Oracles are independent of the library: truncated power series (with
Euler's constant for Y_0), bisection on the series for the first J_0
zero, the large-argument asymptotic expansion for H_n, ``scipy.special``
(Amos, and ``yv`` for Y_n), and mpmath at 30 digits for the
real-argument pair and for the Hankel tables.
"""

import math

import numpy as np
import pytest
from scipy.special import hankel1, jv, yv

from elastocloak.kernels import _hankel1_pair
from elastocloak.modesolver import _j0_derivatives
from elastocloak.wavefields import _radial

EULER = 0.5772156649015328606


def series_j0(z, terms=40):
    """Power-series J_0, independent of the implementation under test."""
    z = complex(z)
    total = 0.0 + 0.0j
    for m in range(terms):
        total += (-1.0) ** m * (z / 2.0) ** (2 * m) / math.factorial(m) ** 2
    return total


def series_y0(z, terms=40):
    """Y_0 via the log + harmonic-sum series with Euler's constant."""
    z = complex(z)
    total = (2.0 / np.pi) * (np.log(z / 2.0) + EULER) * series_j0(z, terms)
    h = 0.0
    for m in range(1, terms):
        h += 1.0 / m
        total += (2.0 / np.pi) * (-1.0) ** (m + 1) * h * (z / 2.0) ** (2 * m) / math.factorial(m) ** 2
    return total


def hankel_asymptotic(n, z, terms=8):
    """Large-|z| expansion sqrt(2/(pi z)) e^{i(z - n pi/2 - pi/4)} sum a_k/z^k."""
    z = complex(z)
    mu = 4 * n * n
    total = 0.0 + 0.0j
    coeff = 1.0
    for k in range(terms):
        if k > 0:
            coeff *= (mu - (2 * k - 1) ** 2) / (8.0 * k)
        total += coeff * (1j / z) ** k
    return np.sqrt(2.0 / (np.pi * z)) * np.exp(1j * (z - n * np.pi / 2 - np.pi / 4)) * total


def complex_grid(num=1000, seed=3):
    rng = np.random.default_rng(seed)
    mag = rng.uniform(1e-3, 50.0, num)
    ang = rng.uniform(-np.pi, np.pi, num)
    return mag * np.exp(1j * ang)


def test_series_leading_terms():
    j = _radial("J", np.array([0, 1]), np.array([0j]))[0][0]
    assert j[0] == 1.0
    assert j[1] == 0.0


def test_first_j0_zero_matches_bisection_oracle():
    lo, hi = 2.0, 3.0
    assert series_j0(lo).real > 0 > series_j0(hi).real
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if series_j0(mid).real > 0:
            lo = mid
        else:
            hi = mid
    zero_oracle = 0.5 * (lo + hi)
    assert abs(zero_oracle - 2.404825557695773) < 1e-12
    assert abs(_j0_derivatives(np.array([zero_oracle]))[0][0]) < 1e-12


def test_j0_second_derivative_recurrence():
    # Bessel's equation J0'' + J0'/t + J0 = 0 at the real parts of the
    # same 20 draws (``_j0_derivatives`` takes real points)
    rng = np.random.default_rng(0)
    t = np.array([complex(rng.uniform(0.1, 10), rng.uniform(-5, 5)) for _ in range(20)]).real
    J0, J0p, J0pp = _j0_derivatives(t)
    assert np.all(np.abs(J0pp + J0p / t + J0) <= 1e-12 * np.maximum(1.0, np.abs(J0)))


def test_hankel1_at_one_against_series_oracle():
    val = _radial("H", np.array([0]), np.array([1.0 + 0j]))[0][0, 0]
    oracle = series_j0(1.0) + 1j * series_y0(1.0)
    assert abs(val - oracle) < 1e-13
    assert abs(val - (0.765197686557967 + 0.088256964215677j)) < 1e-12


def test_hankel1_log_blowup_near_origin():
    # |H_0| diverges like |(2i/pi) ln z|; the ratio approaches 1 at a
    # 1/|ln z| rate
    z = np.array([1e-4, 1e-6, 1e-8])
    ratio = _radial("H", np.array([0]), z.astype(complex))[0][:, 0] / ((2j / np.pi) * np.log(z))
    errs = np.abs(ratio - 1.0)
    assert np.all(errs < 3.0 / np.abs(np.log(z)))
    assert errs[0] > errs[1] > errs[2]


def test_wronskian_on_complex_grid():
    # W[J_n, H_n] = J_n H_n' - J_n' H_n = 2i / (pi z) (H = J + iY) on the
    # tables the mode solver takes. Target-relative accuracy is only
    # representable while the J growth e^{|Im z|} leaves headroom over the
    # O(1/z) Wronskian; on the wider grid the identity is checked relative
    # to the term magnitudes
    z = complex_grid()
    n = np.array([0, 1, 3])
    j, dj = _radial("J", n, z)
    h, dh = _radial("H", n, z)
    t1, t2 = j * dh, dj * h
    target = (2j / (np.pi * z))[:, None]
    err = np.abs(t1 - t2 - target)
    assert np.all(err <= 1e-12 * np.maximum(np.maximum(abs(t1), abs(t2)), abs(target)))
    near = np.abs(z.imag) <= 5.0
    assert np.all(err[near] <= 1e-10 * np.abs(target[near]))


def test_three_term_recurrence_on_grid():
    # on one J table of orders 0..7 of the mode solver
    z = complex_grid(300, seed=5)
    j = _radial("J", np.arange(8), z)[0]
    for zz, jz in zip(z, j):
        for n in (1, 2, 6):
            lhs = jz[n - 1] + jz[n + 1]
            rhs = (2.0 * n / zz) * jz[n]
            scale = max(abs(lhs), abs(rhs), abs(jz[n]))
            if scale < 1e-280:
                continue
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_h1_equals_j_plus_iy_unscaled():
    # J + iY cancels over e^{2 Im z} for Im z > 0, so the identity is
    # checked relative to the summand size
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = complex(rng.uniform(0.1, 20), rng.uniform(-10, 10))
        h = _radial("H", np.array([2]), np.array([z]))[0][0, 0]
        j = _radial("J", np.array([2]), np.array([z]))[0][0, 0]
        y = yv(2, z)
        assert abs(h - (j + 1j * y)) <= 1e-13 * max(abs(j), abs(y), abs(h))


def test_derivative_matches_central_differences():
    # the Z_n' columns of the mode solver's J and H1 tables, against central
    # differences of scipy's Amos values
    rng = np.random.default_rng(9)
    orders = np.array([0, 1, 4])
    for _ in range(25):
        z = complex(rng.uniform(0.5, 10), rng.uniform(-3, 3))
        h = 1e-6 * max(1.0, abs(z))
        for kind, fun in (("J", jv), ("H", hankel1)):
            deriv = _radial(kind, orders, np.array([z]))[1][0]
            for n, an in zip(orders, deriv):
                fd = (fun(n, z + h) - fun(n, z - h)) / (2 * h)
                assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def test_hankel_asymptotic_matching_beyond_30():
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = complex(rng.uniform(31, 80), rng.uniform(0, 10))
        exact = _radial("H", np.arange(3), np.array([z]))[0][0]
        for n in (0, 1, 2):
            approx = hankel_asymptotic(n, z)
            assert abs(approx - exact[n]) <= 1e-8 * abs(exact[n])


# real arguments of the (H0, H1) pair: log-spaced over the whole range the
# kernels reach, plus the k d of typical layer operators and potentials
PAIR_GRID = np.concatenate([np.geomspace(1e-3, 300.0, 600), np.linspace(0.3, 12.0, 600)])


def test_hankel_pair_real_argument_accuracy():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = np.array([[complex(mp.besselj(n, mp.mpf(x)) + 1j * mp.bessely(n, mp.mpf(x)))
                          for x in PAIR_GRID] for n in (0, 1)])
    got = np.array(_hankel1_pair(PAIR_GRID))
    err = np.abs(got - want) / np.abs(want)
    assert err[:, PAIR_GRID <= 50.0].max() <= 5e-15
    assert err.max() <= 5e-14


@pytest.mark.parametrize("z", [complex_grid(300), 0.9 + 0.05j, complex_grid(12).reshape(3, 4)],
                         ids=["grid", "scalar", "2d"])
def test_hankel_pair_complex_argument_is_amos_bit_for_bit(z):
    h0, h1 = _hankel1_pair(z)
    assert np.array_equal(h0, hankel1(0, z)) and np.array_equal(h1, hankel1(1, z))


@pytest.mark.parametrize("z", [0.0, -1.0, np.nan, np.inf, np.array([1.0, -2.0]),
                               np.array([1.0, np.nan]), 0j, complex(np.inf, 1.0)])
def test_hankel_pair_domain_errors(z):
    with pytest.raises(ValueError):
        _hankel1_pair(z)


def mp_hankel1(mp, n, z):
    """H^(1)_n(z) = (2/pi) i^-(n+1) K_n(-i z) (Abramowitz & Stegun 9.6.4).

    Unlike mpmath's J + iY, which cancels by a factor e^(2 Im z), K_n
    decays with Im z as H^(1)_n does, so 30 digits suffice.
    """
    return 2 / mp.pi * mp.mpc(0, -1) ** (n + 1) * mp.besselk(n, mp.mpc(0, -1) * z)


def test_mp_hankel1_oracle_matches_j_plus_iy():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for z in (mp.mpc(0.3, 0.1), mp.mpf(4), mp.mpc(2, 5)):
            for n in (0, 1, 7):
                want = mp.hankel1(n, z)
                assert abs(mp_hankel1(mp, n, z) - want) <= 1e-25 * abs(want)


# arguments of the mode solver's Hankel tables: real ones from below the
# smallest the sweeps reach (0.0037) to far above the largest (4); complex
# ones of the lossy layers, from the smallest the sweeps reach
# (0.3172+0.1314j) to Im z = 150; and 0.05 / sqrt(3), the background's P
# argument at the h = 0.05 inner radius. Three tables overflow below order 101.
TABLE_ARGS = [0.003, 0.05 / np.sqrt(3), 1.0, 400.0, 0.05 + 0.02j, 0.3172 + 0.1314j,
              5.836 + 5.483j, 2.0 + 150.0j, 150.0 + 20.0j]


@pytest.mark.parametrize("z", TABLE_ARGS)
def test_radial_hankel_table_matches_mpmath(z):
    # the table of orders 0..101 from two Amos seeds and the forward
    # recurrence: every order mpmath finds representable within 5e-14, and
    # the first order past DBL_MAX is its first non-finite entry
    mp = pytest.importorskip("mpmath")
    with np.errstate(over="ignore", invalid="ignore"):
        got = _radial("H", np.arange(102), np.array([z], dtype=complex))[0][0]
    want = []
    with mp.workdps(30):
        for n in range(102):
            h = mp_hankel1(mp, n, mp.mpc(z.real, z.imag))
            if abs(h) > float(np.finfo(float).max):
                break
            want.append(complex(h))
    n_ok = len(want)
    assert np.isfinite(got[:n_ok]).all() and not np.isfinite(got[n_ok:]).any()
    assert (np.abs(got[:n_ok] - want) / np.abs(want)).max() <= 5e-14
