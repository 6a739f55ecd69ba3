"""Stiffness tensor algebra: construction, contraction, symmetry, Voigt.

The ellipticity oracle diagonalizes the quadratic form on an orthonormal
basis of symmetric matrices (independent of the sweep + Monte Carlo
estimator under test); contractions are cross-checked against exhaustive
index loops.
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
    elliptic, c0 = check_legendre(C, samples=2000)
    oracle = quadratic_form_min(C)
    assert elliptic
    assert oracle == pytest.approx(2.0)  # min(2 mu, 2 mu + N lam) at lam = mu = 1
    assert c0 == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (2.5, 0.7), (0.1, 1.3)])
def test_check_legendre_matches_eigen_oracle_within_5pct(lam, mu):
    for dim in (2, 3):
        C = iso_stiffness(IsotropicMedium(lam, mu), dim)
        _, c0 = check_legendre(C, samples=10_000)
        oracle = quadratic_form_min(C)
        assert abs(c0 - oracle) <= 0.05 * abs(oracle)


def test_check_legendre_cloak_degenerates_near_inner_boundary():
    med = IsotropicMedium(1.0, 1.0)
    C_near, _ = ideal_cloak_polar(med, 1.0 + 1e-3)
    _, c0_near = check_legendre(C_near, samples=500)
    C_far, _ = ideal_cloak_polar(med, 1.5)
    _, c0_far = check_legendre(C_far, samples=500)
    assert 0 < c0_near < 0.01
    assert c0_near < c0_far


def test_check_legendre_identity_pushforward_same_c0():
    C = iso_stiffness(IsotropicMedium(1.0, 1.0), 2)
    Cp = pushforward_stiffness(C, identity_map(2), 1.3)
    _, c0 = check_legendre(C, samples=800)
    _, c0p = check_legendre(Cp, samples=800)
    assert c0p == pytest.approx(c0, rel=1e-12)


def _legendre_reference(C, samples, seed=0):
    """Per-sample loop over the basis, then the seeded random combinations."""
    basis = _sym_basis(C.dim)

    def quotient(A):
        return float(np.einsum("ijkl,ij,kl->", C.entries, A, A).real) / float(np.sum(A * A))

    c0 = min(quotient(E) for E in basis)
    for row in np.random.default_rng(seed).standard_normal((samples, len(basis))):
        c0 = min(c0, quotient(sum(c * E for c, E in zip(row, basis))))
    return c0


@pytest.mark.parametrize("which", ["isotropic", "ideal cloak", "push-forward"])
def test_check_legendre_matches_per_sample_loop(which):
    med = IsotropicMedium(2.5, 0.7)
    if which == "isotropic":
        C = iso_stiffness(med, 3)
    elif which == "ideal cloak":
        C, _ = ideal_cloak_polar(IsotropicMedium(1.0, 1.0), 1.02)
    else:
        C = pushforward_stiffness(iso_stiffness(med, 2), blowup_map(2), np.array([1.2, 0.5]))
    for samples, seed in ((1, 0), (300, 5)):
        elliptic, c0 = check_legendre(C, samples=samples, seed=seed)
        ref = _legendre_reference(C, samples, seed)
        assert c0 == pytest.approx(ref, rel=1e-14, abs=1e-300)
        assert elliptic == (ref > 1e-12)


def test_check_legendre_rejects_complex():
    C = iso_stiffness(IsotropicMedium(1.0 + 0.1j, 1.0), 2)
    with pytest.raises(ValueError):
        check_legendre(C)


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
