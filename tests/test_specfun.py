"""Cylinder-function contracts: values, identities, scaling, derivatives.

Oracles are independent of scipy: truncated power series (with Euler's
constant for Y_0), bisection on the series for the first J_0 zero, and
the large-argument asymptotic expansion for H_n, and mpmath at 30 digits
for the real-argument (H0, H1) pair of the point kernels and for the
Hankel tables of the mode solver.
"""

import math

import numpy as np
import pytest

from elastocloak import (
    bessel_j,
    bessel_j_prime,
    bessel_j_second,
    bessel_y,
    hankel1,
)
from elastocloak.specfun import _hankel1_pair
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
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0


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
    assert abs(bessel_j(0, zero_oracle)) < 1e-12


def test_j0_second_derivative_recurrence():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = complex(rng.uniform(0.1, 10), rng.uniform(-5, 5))
        lhs = bessel_j_second(0, z)
        rhs = 0.5 * (bessel_j(2, z) - bessel_j(0, z))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_hankel1_at_one_against_series_oracle():
    val = hankel1(0, 1.0)
    oracle = series_j0(1.0) + 1j * series_y0(1.0)
    assert abs(val - oracle) < 1e-13
    assert abs(val - (0.765197686557967 + 0.088256964215677j)) < 1e-12


def test_hankel1_log_blowup_near_origin():
    # |H_0| diverges like |(2i/pi) ln z|; the ratio approaches 1 at a
    # 1/|ln z| rate
    errs = []
    for z in (1e-4, 1e-6, 1e-8):
        ratio = hankel1(0, z) / ((2j / np.pi) * np.log(z))
        err = abs(ratio - 1.0)
        assert err < 3.0 / abs(np.log(z))
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def test_wronskian_on_complex_grid():
    # target-relative accuracy is only representable while the J/Y growth
    # e^{|Im z|} leaves headroom over the O(1/z) Wronskian; on the wider
    # grid the identity is checked relative to the term magnitudes
    for z in complex_grid():
        for n in (0, 1, 3):
            t1 = bessel_j(n, z) * _yp(n, z)
            t2 = bessel_j_prime(n, z) * bessel_y(n, z)
            target = 2.0 / (np.pi * z)
            err = abs(t1 - t2 - target)
            assert err <= 1e-12 * max(abs(t1), abs(t2), abs(target))
            if abs(z.imag) <= 5.0:
                assert err <= 1e-10 * abs(target)


def _yp(n, z):
    from elastocloak import bessel_y_prime

    return bessel_y_prime(n, z)


def test_three_term_recurrence_on_grid():
    for z in complex_grid(300, seed=5):
        for n in (1, 2, 6):
            lhs = bessel_j(n - 1, z) + bessel_j(n + 1, z)
            rhs = (2.0 * n / z) * bessel_j(n, z)
            scale = max(abs(lhs), abs(rhs), abs(bessel_j(n, z)))
            if scale < 1e-280:
                continue
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_h1_equals_j_plus_iy_unscaled():
    # J + iY cancels over e^{2 Im z} for Im z > 0, so the identity is
    # checked relative to the summand size
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = complex(rng.uniform(0.1, 20), rng.uniform(-10, 10))
        h = hankel1(2, z)
        j, y = bessel_j(2, z), bessel_y(2, z)
        assert abs(h - (j + 1j * y)) <= 1e-13 * max(abs(j), abs(y), abs(h))


def test_scaled_and_unscaled_agree_after_unscaling():
    rng = np.random.default_rng(4)
    for _ in range(40):
        z = complex(rng.uniform(0.5, 15), rng.uniform(-8, 8))
        js = bessel_j(3, z, scaled=True) * np.exp(abs(z.imag))
        assert abs(js - bessel_j(3, z)) <= 1e-12 * max(1.0, abs(js))
        hs = hankel1(3, z, scaled=True) * np.exp(1j * z)
        assert abs(hs - hankel1(3, z)) <= 1e-12 * max(1.0, abs(hs))


def test_scaled_variants_survive_large_imaginary_argument():
    z = 10.0 + 700.0j
    assert np.isfinite(bessel_j(0, z, scaled=True))
    assert np.isfinite(hankel1(0, z, scaled=True))
    # growth e^{|Im z|} exceeds double range just past 700
    assert not np.isfinite(abs(bessel_j(0, 10.0 + 750.0j)))


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(9)
    for _ in range(25):
        z = complex(rng.uniform(0.5, 10), rng.uniform(-3, 3))
        h = 1e-6 * max(1.0, abs(z))
        for n in (0, 1, 4):
            fd = (bessel_j(n, z + h) - bessel_j(n, z - h)) / (2 * h)
            an = bessel_j_prime(n, z)
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def test_hankel_asymptotic_matching_beyond_30():
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = complex(rng.uniform(31, 80), rng.uniform(0, 10))
        for n in (0, 1, 2):
            approx = hankel_asymptotic(n, z)
            exact = hankel1(n, z)
            assert abs(approx - exact) <= 1e-8 * abs(exact)


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(0, complex(np.inf, 0.0))
    with pytest.raises(ValueError):
        hankel1(0, 0.0)
    with pytest.raises(ValueError):
        bessel_y(1, 0.0)
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)


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
