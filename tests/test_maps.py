"""Radial maps, Jacobians, and push-forwards.

Finite-difference Jacobians and chain-rule compositions serve as the
independent oracles for the analytic formulas.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from elastocloak import (
    IsotropicMedium,
    JointError,
    RadialMap,
    blowup_map,
    check_legendre,
    identity_map,
    iso_stiffness,
    jacobian,
    pushforward_density,
    pushforward_stiffness,
    regularized_blowup_map,
    symmetry_report,
)


def fd_jacobian_cartesian(rmap, x, h=1e-6):
    """Central-difference Jacobian of the full vector map x -> g(|x|) x/|x|."""
    x = np.asarray(x, dtype=float)
    dim = x.size

    def F(p):
        r = np.linalg.norm(p)
        return rmap.g(r) * p / r

    M = np.zeros((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        M[:, j] = (F(x + e) - F(x - e)) / (2 * h)
    return M


def smooth_test_map(dim, a=0.15, seed=None):
    """Strictly increasing smooth profile with a numeric inverse."""
    if seed is not None:
        a = 0.05 + 0.2 * np.random.default_rng(seed).random()

    def g(r):
        return r + a * np.sin(np.pi * r / 2.0) ** 2

    def gp(r):
        return 1.0 + a * np.pi / 2.0 * np.sin(np.pi * r)

    def gi(rr):
        return brentq(lambda r: g(r) - rr, 0.0, 2.5, xtol=1e-15)

    return RadialMap(kind="test-smooth", dim=dim,
                     domain=(0.0, 2.0), g=g, g_prime=gp, g_inverse=gi)


def inverse_map(rmap):
    """The inverse of a radial map, built from its profile functions."""
    lo, hi = rmap.domain
    return RadialMap(kind="test-inverse", dim=rmap.dim,
                     domain=(rmap.g(lo), rmap.g(hi)), g=rmap.g_inverse,
                     g_prime=lambda r: 1.0 / rmap.g_prime(rmap.g_inverse(r)),
                     g_inverse=rmap.g, joints=tuple(rmap.g(j) for j in rmap.joints))


def chain_rule_gap(C, map_a, map_b, r):
    """Max entrywise deviation between (B o A)_* C and B_* (A_* C) at the
    image radius r of the composite map, built by the chain rule."""
    composite = RadialMap(kind="test-composite", dim=map_a.dim,
                          domain=map_a.domain, g=lambda s: map_b.g(map_a.g(s)),
                          g_prime=lambda s: map_b.g_prime(map_a.g(s)) * map_a.g_prime(s),
                          g_inverse=lambda rr: map_a.g_inverse(map_b.g_inverse(rr)))
    direct = pushforward_stiffness(C, composite, r)
    staged = pushforward_stiffness(
        pushforward_stiffness(C, map_a, map_b.inverse_radius(r)), map_b, r)
    return float(np.abs(direct.entries - staged.entries).max())


# ---------------------------------------------------------------------------
# map profiles


def test_blowup_profile():
    F = blowup_map(2)
    assert F(2.0) == 2.0
    assert F(1.0) == 1.5
    assert F(1e-12) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        F(0.0)


def test_regularized_profile_and_continuity():
    h = 0.1
    Fh = regularized_blowup_map(h, 2)
    assert Fh(2.0) == pytest.approx(2.0, rel=1e-15)
    outer_at_h = (2 - 2 * h) / (2 - h) + h / (2 - h)
    assert outer_at_h == pytest.approx(1.0, rel=1e-15)
    assert Fh(h - 1e-14) == pytest.approx(1.0, abs=1e-12)
    assert Fh(h) == pytest.approx(1.0, rel=1e-15)


def test_regularized_degenerates_to_blowup():
    F = blowup_map(2)
    for h in (1e-2, 1e-4, 1e-6):
        Fh = regularized_blowup_map(h, 2)
        for r in (0.5, 1.0, 1.7):
            assert abs(Fh(r) - F(r)) < 2 * h


def test_regularized_domain_errors():
    for bad in (0.0, -0.2, 1.0, 1.5):
        with pytest.raises(ValueError):
            regularized_blowup_map(bad, 2)


# ---------------------------------------------------------------------------
# jacobians


def test_paper_frame_jacobian_determinants():
    jd2 = jacobian(blowup_map(2), 2.0, inverse=True)
    assert jd2.det == pytest.approx(0.5, rel=1e-14)  # r/(4(r-1)) at r=2
    jd3 = jacobian(blowup_map(3), 2.0, inverse=True)
    assert jd3.det == pytest.approx(0.5, rel=1e-14)  # r^2/(8(r-1)^2) at r=2
    r = 1.3
    assert jacobian(blowup_map(2), r, inverse=True).det == pytest.approx(
        r / (4 * (r - 1)), rel=1e-13
    )


def test_identity_jacobian():
    jd = jacobian(identity_map(3), np.array([0.3, -0.2, 0.5]))
    np.testing.assert_allclose(jd.M, np.eye(3), atol=1e-15)
    assert jd.det == 1.0


def test_joint_error_carries_one_sided_jacobians():
    h = 0.2
    Fh = regularized_blowup_map(h, 2)
    with pytest.raises(JointError) as exc:
        jacobian(Fh, h)
    err = exc.value
    assert err.left.det == pytest.approx((1 / h) ** 2, rel=1e-6)
    assert err.right.det == pytest.approx((1 / (2 - h)) * (1.0 / h), rel=1e-6)


def test_analytic_jacobian_matches_finite_differences():
    rng = np.random.default_rng(0)
    for rmap in (blowup_map(2), regularized_blowup_map(0.15, 2), smooth_test_map(2)):
        for _ in range(10):
            r = rng.uniform(0.4, 1.9)
            if rmap.joints and min(abs(r - j) for j in rmap.joints) < 0.05:
                continue
            th = rng.uniform(0, 2 * np.pi)
            x = r * np.array([np.cos(th), np.sin(th)])
            jd = jacobian(rmap, x)
            fd = fd_jacobian_cartesian(rmap, x)
            assert np.abs(jd.M - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


def test_forward_times_inverse_jacobian_is_identity():
    rng = np.random.default_rng(1)
    Fh = regularized_blowup_map(0.12, 2)
    Fi = inverse_map(Fh)
    for _ in range(10):
        r = rng.uniform(0.2, 1.9)
        if abs(r - 0.12) < 0.02:
            continue
        th = rng.uniform(0, 2 * np.pi)
        x = r * np.array([np.cos(th), np.sin(th)])
        Mf = jacobian(Fh, x).M
        Mi = jacobian(Fi, Fh(r) * x / r).M
        np.testing.assert_allclose(Mi @ Mf, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# push-forwards


def test_pushforward_identity_map_is_identity():
    C = iso_stiffness(IsotropicMedium(1.3, 0.8), 2)
    out = pushforward_stiffness(C, identity_map(2), 1.1)
    np.testing.assert_array_equal(out.entries, C.entries)


def test_pushforward_polar_closed_forms():
    lam, mu = 1.0, 1.0
    C = iso_stiffness(IsotropicMedium(lam, mu), 2)
    F = blowup_map(2)
    for r in (1.2, 1.5, 1.9):
        Ct = pushforward_stiffness(C, F, r).entries.real
        assert Ct[0, 0, 0, 0] == pytest.approx((lam + 2 * mu) * (r - 1) / r, rel=1e-13)
        assert Ct[1, 1, 1, 1] == pytest.approx((lam + 2 * mu) * r / (r - 1), rel=1e-13)


def test_pushforward_density_values():
    assert pushforward_density(1.0, identity_map(2), 0.7) == 1.0
    F = blowup_map(2)
    # oracle: reciprocal of the finite-difference Jacobian determinant
    r = 2.0
    x = np.array([r, 0.0])
    src = F.inverse_radius(r) * x / r
    det_fd = np.linalg.det(fd_jacobian_cartesian(F, src))
    val = pushforward_density(1.0, F, r)
    assert val == pytest.approx(1.0 / det_fd, rel=1e-6)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_pushforward_density_vanishes_at_inner_boundary():
    F = blowup_map(2)
    vals = [np.real(pushforward_density(1.0, F, r)) for r in (1.5, 1.1, 1.01, 1.001)]
    for r, v in zip((1.5, 1.1, 1.01, 1.001), vals):
        assert v == pytest.approx(4 * (r - 1) / r, rel=1e-12)
    assert vals[0] > vals[1] > vals[2] > vals[3] > 0


@pytest.mark.parametrize("rmap, r", [
    (blowup_map(2), 1.0),  # the image of the blown-up origin
    (blowup_map(3), 1.0),
    (blowup_map(2), np.nan),
    (regularized_blowup_map(0.1, 2), -0.5),
])
def test_pushforward_refuses_radii_without_a_jacobian(rmap, r):
    C = iso_stiffness(IsotropicMedium(1.0, 1.0), rmap.dim)
    with pytest.raises(ValueError, match=f"image radius {r}"):
        pushforward_stiffness(C, rmap, r)
    with pytest.raises(ValueError, match=f"image radius {r}"):
        pushforward_density(1.0, rmap, r)
    with pytest.raises(ValueError, match=f"image radius {r}"):
        jacobian(rmap, r, inverse=True)


@pytest.mark.parametrize("dim", [2, 3])
def test_pushforward_at_a_fixed_origin_is_its_limit(dim):
    # the inner branch is the scaling x -> x/h, so g(s)/s -> 1/h as s -> 0
    # and the push-forward at r = 0 is C h^(dim - 2), density rho h^dim
    h = 0.1
    F = regularized_blowup_map(h, dim)
    C = iso_stiffness(IsotropicMedium(2.0, 0.5), dim)
    np.testing.assert_allclose(pushforward_stiffness(C, F, 0.0).entries,
                               C.entries * h ** (dim - 2), rtol=1e-14)
    assert pushforward_density(3.0, F, 0.0) == pytest.approx(3.0 * h**dim, rel=1e-14)
    np.testing.assert_allclose(jacobian(F, 0.0).M, np.eye(dim) / h, rtol=1e-15)


def test_compose_pushforward_trivial_and_inverse_pairs():
    C = iso_stiffness(IsotropicMedium(1.0, 2.0), 2)
    ident = identity_map(2)
    assert chain_rule_gap(C, ident, ident, 1.2) == 0.0
    Fh = regularized_blowup_map(0.2, 2)
    dev = chain_rule_gap(C, Fh, inverse_map(Fh), 1.2)
    assert dev < 1e-10


def test_compose_pushforward_random_smooth_maps():
    C = iso_stiffness(IsotropicMedium(0.7, 1.4), 2)
    for seed in (3, 4, 5):
        A = smooth_test_map(2, seed=seed)
        B = smooth_test_map(2, seed=seed + 100)
        point = B.g(A.g(1.1))
        assert chain_rule_gap(C, A, B, point) < 1e-10


def test_pushforward_preserves_major_breaks_minor():
    rng = np.random.default_rng(6)
    raw = rng.normal(size=(2, 2, 2, 2))
    E = 0.5 * (raw + np.einsum("ijkl->klij", raw))
    from elastocloak.tensors import StiffnessTensor

    C = StiffnessTensor(dim=2, entries=E)
    Ct = pushforward_stiffness(C, blowup_map(2), 1.5)
    rep = symmetry_report(Ct, tol=1e-12)
    assert rep.major
    Ciso = pushforward_stiffness(iso_stiffness(IsotropicMedium(1.0, 1.0), 2),
                                 blowup_map(2), 1.5)
    rep_iso = symmetry_report(Ciso, tol=1e-12)
    assert not rep_iso.minor and rep_iso.max_violation > 1e-3


def test_pushforward_ellipticity_transport():
    C = iso_stiffness(IsotropicMedium(1.0, 1.0), 2)
    rng = np.random.default_rng(7)
    for rmap in (regularized_blowup_map(0.3, 2), smooth_test_map(2)):
        for _ in range(8):
            r = rng.uniform(1.05, 1.95) if rmap.kind == "regularized" else rng.uniform(0.3, 1.9)
            Ct = pushforward_stiffness(C, rmap, float(r))
            elliptic, c0 = check_legendre(Ct)
            assert elliptic and c0 > 1e-4


def test_polar_and_cartesian_frames_agree_by_rotation():
    C = iso_stiffness(IsotropicMedium(1.0, 2.0), 2)
    F = blowup_map(2)
    r, th = 1.4, 0.8
    x = r * np.array([np.cos(th), np.sin(th)])
    Ct_cart = pushforward_stiffness(C, F, x).entries
    Ct_pol = pushforward_stiffness(C, F, r).entries
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rotated = np.einsum("ia,jb,kc,ld,abcd->ijkl", R, R, R, R, Ct_pol)
    np.testing.assert_allclose(Ct_cart, rotated, atol=1e-12)


def test_orientation_error():
    bad = RadialMap(kind="test-bad", dim=2, domain=(0.0, 2.0),
                    g=lambda r: 2.0 - 0.5 * r, g_prime=lambda r: -0.5,
                    g_inverse=lambda rr: 2 * (2.0 - rr))
    C = iso_stiffness(IsotropicMedium(1.0, 1.0), 2)
    with pytest.raises(ValueError):
        pushforward_stiffness(C, bad, 1.2)
