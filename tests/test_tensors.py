"""Stiffness tensor algebra: construction, contraction, symmetry, Voigt.

The ellipticity oracles are the quadratic form diagonalized entry by
entry on an orthonormal basis of symmetric matrices, the closed forms of
the isotropic and ideal-cloak constants, and sampled quotients, each an
upper bound; contractions are cross-checked against exhaustive index
loops.
"""

import numpy as np
import pytest

from elastocloak import (
    IsotropicMedium,
    apply_stiffness,
    blowup_map,
    check_legendre,
    ideal_cloak_polar,
    identity_map,
    iso_stiffness,
    pushforward_stiffness,
    symmetry_report,
    voigt_matrix,
)
from elastocloak.cli import main
from elastocloak.tensors import StiffnessTensor, _sym_basis


def quadratic_form_min(C):
    """Oracle: exact min of (C:A):A / ||A||^2 over symmetric A."""
    basis = _sym_basis(C.dim)
    m = len(basis)
    Q = np.empty((m, m))
    for a, Ea in enumerate(basis):
        for b, Eb in enumerate(basis):
            Q[a, b] = np.real(np.einsum("ijkl,ij,kl->", C.entries, Ea, Eb))
    Q = 0.5 * (Q + Q.T)
    return float(np.linalg.eigvalsh(Q).min())


def test_iso_entries_2d():
    C = iso_stiffness(IsotropicMedium(1.0, 1.0), 2)
    assert C.entries[0, 0, 0, 0] == 3.0
    assert C.entries[0, 0, 1, 1] == 1.0
    assert C.entries[0, 1, 0, 1] == 1.0


def test_iso_zero_medium_3d():
    C = iso_stiffness(IsotropicMedium(0.0, 0.0), 3)
    assert np.all(C.entries == 0.0)


def test_iso_direct_substitution_3d():
    C = iso_stiffness(IsotropicMedium(2.0, 3.0), 3)
    assert C.entries[1, 2, 1, 2] == 3.0
    assert C.entries[0, 0, 1, 2] == 0.0


def test_iso_dim_error():
    with pytest.raises(ValueError):
        iso_stiffness(IsotropicMedium(1.0, 1.0), 4)


def test_apply_identity_contraction():
    C = iso_stiffness(IsotropicMedium(1.0, 1.0), 2)
    out = apply_stiffness(C, np.eye(2))
    np.testing.assert_allclose(out, 4.0 * np.eye(2))


def test_apply_zero_tensor():
    C = StiffnessTensor(dim=2, entries=np.zeros((2, 2, 2, 2)))
    assert np.all(apply_stiffness(C, np.random.default_rng(0).normal(size=(2, 2))) == 0)


def test_apply_isotropic_closed_form():
    med = IsotropicMedium(1.7, 0.6)
    C = iso_stiffness(med, 3)
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    A = 0.5 * (A + A.T)
    expected = med.lam * np.trace(A) * np.eye(3) + 2 * med.mu * A
    np.testing.assert_allclose(apply_stiffness(C, A), expected, atol=1e-14)


def test_apply_shape_error():
    C = iso_stiffness(IsotropicMedium(1.0, 1.0), 2)
    with pytest.raises(ValueError):
        apply_stiffness(C, np.eye(3))


def test_major_symmetric_pairing_against_loop_oracle():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(2, 2, 2, 2))
    E = 0.5 * (raw + np.einsum("ijkl->klij", raw))  # major-symmetrize
    C = StiffnessTensor(dim=2, entries=E)
    A = rng.normal(size=(2, 2))
    A = 0.5 * (A + A.T)
    B = rng.normal(size=(2, 2))
    B = 0.5 * (B + B.T)
    lhs = np.einsum("ij,ij->", apply_stiffness(C, A).real, B)
    rhs = np.einsum("ij,ij->", apply_stiffness(C, B).real, A)
    # exhaustive loop oracle for the same pairing
    loop = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    loop += E[i, j, k, l] * A[k, l] * B[i, j]
    assert abs(lhs - loop) < 1e-13
    assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))


def test_apply_bilinearity():
    C1 = iso_stiffness(IsotropicMedium(1.0, 2.0), 3)
    C2 = iso_stiffness(IsotropicMedium(0.3, 0.7), 3)
    rng = np.random.default_rng(3)
    A1, A2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    a, b = 1.3, -0.4
    mix = StiffnessTensor(dim=3, entries=a * C1.entries + b * C2.entries)
    lhs = apply_stiffness(mix, A1)
    rhs = a * apply_stiffness(C1, A1) + b * apply_stiffness(C2, A1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13)
    lhs2 = apply_stiffness(C1, a * A1 + b * A2)
    rhs2 = a * apply_stiffness(C1, A1) + b * apply_stiffness(C1, A2)
    np.testing.assert_allclose(lhs2, rhs2, rtol=1e-13)


def test_check_legendre_iso_exact_minimum():
    C = iso_stiffness(IsotropicMedium(1.0, 1.0), 2)
    elliptic, c0 = check_legendre(C)
    oracle = quadratic_form_min(C)
    assert elliptic
    assert oracle == pytest.approx(2.0)  # min(2 mu, 2 mu + N lam) at lam = mu = 1
    assert c0 == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (2.5, 0.7), (0.1, 1.3), (-0.6, 1.0)])
def test_check_legendre_matches_eigen_oracle_within_5pct(lam, mu):
    # the constant is exact: within 1e-12 of the entry-wise eigen oracle
    # and of the closed form min(2 mu, 2 mu + dim lam) (the second term is
    # the smaller one at lam < 0)
    for dim in (2, 3):
        C = iso_stiffness(IsotropicMedium(lam, mu), dim)
        _, c0 = check_legendre(C)
        assert c0 == pytest.approx(quadratic_form_min(C), rel=1e-12)
        assert c0 == pytest.approx(min(2 * mu, 2 * mu + dim * lam), rel=1e-12)


def ideal_cloak_floor(lam, mu, r):
    """Closed-form Legendre constant of the 2D ideal cloak at radius r.

    On the basis (E_rr, E_tt, (E_rt + E_tr)/sqrt 2) the quadratic form is
    block diagonal: [[(lam+2mu) s, lam], [lam, (lam+2mu)/s]] and
    mu (1/s + 2 + s)/2, with s = (r-1)/r. The smaller eigenvalue of the
    2 x 2 block is det/lam_max, det = 4 mu (lam + mu), which does not
    cancel as r -> 1.
    """
    s = (r - 1.0) / r
    p, q = (lam + 2 * mu) * s, (lam + 2 * mu) / s
    lam_max = 0.5 * (p + q) + np.hypot(0.5 * (p - q), lam)
    return min(4 * mu * (lam + mu) / lam_max, 0.5 * mu * (1 / s + 2 + s))


@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (2.5, 0.7), (0.1, 1.3)])
def test_check_legendre_ideal_cloak_closed_form(lam, mu):
    med = IsotropicMedium(lam, mu)
    for r in (1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.02, 1.3, 1.7, 2.0):
        _, c0 = check_legendre(ideal_cloak_polar(med, r)[0])
        assert c0 == pytest.approx(ideal_cloak_floor(lam, mu, r), rel=1e-12), r
    # toward r = 1 the floor vanishes like 4 mu (lam + mu)/(lam + 2 mu) (r - 1)
    slope = 4 * mu * (lam + mu) / (lam + 2 * mu)
    for r in (1.0 + 1e-6, 1.0 + 1e-9):
        _, c0 = check_legendre(ideal_cloak_polar(med, r)[0])
        assert c0 / (r - 1.0) == pytest.approx(slope, rel=10 * (r - 1.0))


def test_default_design_csv_floor_matches_the_closed_form(tmp_path):
    assert main(["design", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "design.csv").read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), map(float, line.split(",")))) for line in lines[2:]]
    assert len(rows) == 25
    for row in rows:
        expected = ideal_cloak_floor(1.0, 1.0, row["r"])
        assert row["min_ellipticity"] == pytest.approx(expected, rel=1e-12), row["r"]


def test_check_legendre_cloak_degenerates_near_inner_boundary():
    med = IsotropicMedium(1.0, 1.0)
    C_near, _ = ideal_cloak_polar(med, 1.0 + 1e-3)
    _, c0_near = check_legendre(C_near)
    C_far, _ = ideal_cloak_polar(med, 1.5)
    _, c0_far = check_legendre(C_far)
    assert 0 < c0_near < 0.01
    assert c0_near < c0_far


def test_check_legendre_identity_pushforward_same_c0():
    C = iso_stiffness(IsotropicMedium(1.0, 1.0), 2)
    Cp = pushforward_stiffness(C, identity_map(2), 1.3)
    _, c0 = check_legendre(C)
    _, c0p = check_legendre(Cp)
    assert c0p == pytest.approx(c0, rel=1e-12)


def _legendre_reference(C, samples, seed=0):
    """Per-sample loop over the basis, then the seeded random combinations:
    each quotient is an upper bound of the Legendre constant."""
    basis = _sym_basis(C.dim)

    def quotient(A):
        return float(np.einsum("ijkl,ij,kl->", C.entries, A, A).real) / float(np.sum(A * A))

    c0 = min(quotient(E) for E in basis)
    for row in np.random.default_rng(seed).standard_normal((samples, len(basis))):
        c0 = min(c0, quotient(sum(c * E for c, E in zip(row, basis))))
    return c0


@pytest.mark.parametrize("which", ["isotropic", "ideal cloak", "push-forward"])
def test_check_legendre_matches_per_sample_loop(which):
    # no sampled quotient lies below the exact constant (at the ideal
    # cloak the sampled minimum stays 12.5 % above it: random directions
    # miss the one that mixes E_rr with a little E_tt)
    med = IsotropicMedium(2.5, 0.7)
    if which == "isotropic":
        C = iso_stiffness(med, 3)
    elif which == "ideal cloak":
        C, _ = ideal_cloak_polar(IsotropicMedium(1.0, 1.0), 1.02)
    else:
        C = pushforward_stiffness(iso_stiffness(med, 2), blowup_map(2), np.array([1.2, 0.5]))
    elliptic, c0 = check_legendre(C)
    assert elliptic == (c0 > 1e-12)
    assert c0 == pytest.approx(quadratic_form_min(C), rel=1e-12)
    for samples, seed in ((1, 0), (300, 5)):
        assert c0 <= _legendre_reference(C, samples, seed) * (1 + 1e-14)


def test_check_legendre_rejects_complex():
    C = iso_stiffness(IsotropicMedium(1.0 + 0.1j, 1.0), 2)
    with pytest.raises(ValueError):
        check_legendre(C)


def test_check_legendre_refuses_non_finite_entries():
    # eigvalsh returns finite numbers for a matrix holding NaN
    E = iso_stiffness(IsotropicMedium(1.0, 1.0), 2).entries.copy()
    E[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        check_legendre(StiffnessTensor(dim=2, entries=E))


def test_symmetry_report_iso_exact():
    rep = symmetry_report(iso_stiffness(IsotropicMedium(1.0, 1.0), 2))
    assert rep.major and rep.minor and rep.max_violation == 0.0


def test_symmetry_report_pushforward_breaks_minor():
    C = iso_stiffness(IsotropicMedium(1.0, 1.0), 2)
    Ct = pushforward_stiffness(C, blowup_map(2), 1.5)
    rep = symmetry_report(Ct, tol=1e-10)
    assert rep.major and not rep.minor
    assert rep.max_violation > 1e-3


def test_symmetry_report_constructed_violation():
    C = iso_stiffness(IsotropicMedium(1.0, 1.0), 2)
    E = C.entries.copy()
    E[0, 1, 0, 0] += 1e-3
    rep = symmetry_report(StiffnessTensor(dim=2, entries=E))
    assert rep.max_violation == pytest.approx(1e-3, rel=1e-9)


def test_voigt_3d_table():
    lam, mu = 1.2, 0.8
    V = voigt_matrix(iso_stiffness(IsotropicMedium(lam, mu), 3)).real
    upper = np.full((3, 3), lam) + 2 * mu * np.eye(3)
    np.testing.assert_allclose(V[:3, :3], upper, atol=1e-14)
    np.testing.assert_allclose(V[3:, 3:], mu * np.eye(3), atol=1e-14)
    assert np.all(V[:3, 3:] == 0) and np.all(V[3:, :3] == 0)


def test_voigt_2d_table():
    lam, mu = 0.4, 1.1
    V = voigt_matrix(iso_stiffness(IsotropicMedium(lam, mu), 2)).real
    expected = np.array([[lam + 2 * mu, lam, 0], [lam, lam + 2 * mu, 0], [0, 0, mu]])
    np.testing.assert_allclose(V, expected, atol=1e-14)


def test_voigt_zero():
    V = voigt_matrix(iso_stiffness(IsotropicMedium(0.0, 0.0), 2))
    assert np.all(V == 0)


def test_voigt_rejects_minor_violation():
    C = iso_stiffness(IsotropicMedium(1.0, 1.0), 2)
    Ct = pushforward_stiffness(C, blowup_map(2), 1.5)
    with pytest.raises(ValueError):
        voigt_matrix(Ct)


@pytest.mark.parametrize("dim", [2, 3])
def test_voigt_eigenvalues_in_tensor_metric(dim):
    # in the tensor (Frobenius) metric the isotropic spectrum is
    # {N lam + 2 mu} + {2 mu} with multiplicity dim(sym) - 1; realized by
    # scaling the shear block of the stress-convention Voigt matrix
    lam, mu = 0.9, 1.4
    V = voigt_matrix(iso_stiffness(IsotropicMedium(lam, mu), dim)).real
    m = V.shape[0]
    scale = np.ones(m)
    scale[dim:] = np.sqrt(2.0)
    Vm = V * np.outer(scale, scale)
    eig = np.sort(np.linalg.eigvalsh(Vm))
    expected = np.sort([dim * lam + 2 * mu] + [2 * mu] * (m - 1))
    np.testing.assert_allclose(eig, expected, atol=1e-12)
