"""Rank-4 stiffness tensor algebra.

Construction of isotropic stiffness tensors, double contractions,
symmetry diagnostics, the exact Legendre-ellipticity constant, and the
Voigt collapse.
Entries are complex throughout; ellipticity checks are restricted to
finite real-valued tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "IsotropicMedium",
    "StiffnessTensor",
    "SymmetryReport",
    "iso_stiffness",
    "apply_stiffness",
    "check_legendre",
    "symmetry_report",
    "voigt_matrix",
]

# Voigt index pairs, (i, j) per slot, 0-based; order 11,22,(33),23,13,12.
_VOIGT_PAIRS = {
    2: [(0, 0), (1, 1), (0, 1)],
    3: [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)],
}


@dataclass(frozen=True)
class IsotropicMedium:
    """Isotropic elastic medium given by Lame constants and density.

    All three parameters may be complex; lossy layers carry
    ``Im(rho) > 0`` (and, through the scaled stiffness, complex moduli
    downstream of push-forwards).
    """

    lam: complex
    mu: complex
    rho: complex = 1.0


@dataclass
class StiffnessTensor:
    """Rank-4 stiffness tensor; ``symmetry_report`` measures its symmetries.

    Attributes
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    entries : ndarray, shape (dim, dim, dim, dim), complex
        Tensor components C[i, j, k, l].
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (self.dim,) * 4:
            raise ValueError(
                f"entries must have shape {(self.dim,)*4}, got {self.entries.shape}"
            )

    @property
    def is_real(self):
        return not np.any(self.entries.imag != 0.0)


@dataclass(frozen=True)
class SymmetryReport:
    major: bool
    minor: bool
    max_violation: float


def iso_stiffness(medium, dim):
    """Isotropic stiffness tensor lam*d_ij*d_kl + mu*(d_ik*d_jl + d_il*d_jk).

    Parameters
    ----------
    medium : IsotropicMedium
    dim : int
        2 or 3.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    lam, mu = complex(medium.lam), complex(medium.mu)
    eye = np.eye(dim)
    C = (
        lam * np.einsum("ij,kl->ijkl", eye, eye)
        + mu * np.einsum("ik,jl->ijkl", eye, eye)
        + mu * np.einsum("il,jk->ijkl", eye, eye)
    )
    return StiffnessTensor(dim=dim, entries=C)


def apply_stiffness(C, A):
    """Double contraction (C:A)_ij = sum_kl C_ijkl A_kl."""
    A = np.asarray(A)
    if A.shape != (C.dim, C.dim):
        raise ValueError(f"A must have shape {(C.dim, C.dim)}, got {A.shape}")
    return np.einsum("ijkl,kl->ij", C.entries, A.astype(complex))


def _sym_basis(dim):
    """Orthonormal (Frobenius) basis of symmetric dim x dim matrices,
    stacked as an array of shape (dim (dim + 1) / 2, dim, dim)."""
    out = []
    for i in range(dim):
        E = np.zeros((dim, dim))
        E[i, i] = 1.0
        out.append(E)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            E = np.zeros((dim, dim))
            E[i, j] = E[j, i] = inv_sqrt2
            out.append(E)
    return np.array(out)


def check_legendre(C):
    """Legendre ellipticity constant c0 = min (C:A):A / ||A||^2 over
    nonzero symmetric A, exactly.

    On the orthonormal basis E of symmetric matrices the quotient is the
    Rayleigh quotient of M = E Q E^T, Q being C flattened to a
    dim^2 x dim^2 matrix, so c0 is the smallest eigenvalue of the
    symmetric part of M (3 x 3 in 2D, 6 x 6 in 3D).

    Returns
    -------
    (elliptic, c0) : (bool, float)
        ``elliptic`` is ``c0 > 1e-12``.
    """
    if not C.is_real or not np.isfinite(C.entries.real).all():
        raise ValueError("Legendre ellipticity is defined for finite real-valued tensors")
    basis = _sym_basis(C.dim)
    E = basis.reshape(len(basis), C.dim * C.dim)
    M = E @ C.entries.real.reshape(C.dim * C.dim, -1) @ E.T
    c0 = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    return c0 > 1e-12, c0


def symmetry_report(C, tol=1e-12):
    """Exhaustively test major and minor symmetries.

    Returns a ``SymmetryReport`` with the worst absolute violation over
    both families.
    """
    E = C.entries
    major_v = float(np.abs(E - np.einsum("ijkl->klij", E)).max())
    minor_v = max(
        float(np.abs(E - np.einsum("ijkl->jikl", E)).max()),
        float(np.abs(E - np.einsum("ijkl->ijlk", E)).max()),
    )
    return SymmetryReport(
        major=major_v <= tol,
        minor=minor_v <= tol,
        max_violation=max(major_v, minor_v),
    )


def voigt_matrix(C):
    """Collapse a minor-symmetric tensor to its Voigt matrix.

    Uses the unscaled (stress) convention, so an isotropic tensor
    reproduces the familiar lam/mu table literally. Raises if the minor
    symmetries are violated beyond 1e-9 (the collapse is undefined then;
    push-forward outputs generally fail this).
    """
    rep = symmetry_report(C, tol=1e-9)
    if not rep.minor:
        raise ValueError(
            f"Voigt collapse undefined: minor symmetry violated by {rep.max_violation:.3e}"
        )
    pairs = _VOIGT_PAIRS[C.dim]
    m = len(pairs)
    V = np.empty((m, m), dtype=complex)
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            V[a, b] = C.entries[i, j, k, l]
    return V
