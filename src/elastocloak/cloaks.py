"""Cloak configurations: the ideal singular cloak and the lossy near-cloak.

Geometry is fixed to concentric disks: outer boundary radius 2, cloaked
region the unit disk, protected content inside radius 1/2. The ideal
cloak pushes the homogeneous background forward under the blow-up map;
its 2D polar-frame entries have the closed forms tabulated in
``ideal_cloak_polar`` (degenerate at the inner interface, which is why
the regularized construction exists).

The near-cloak regularizes with parameter ``h`` and inserts a lossy
layer: in virtual space the configuration is simply

    background (h < r < 2) | lossy gamma h^(2+delta) moduli, density
    alpha + i beta (h/2 < r < h) | rescaled content (r < h/2),

and the physical device is its push-forward under the regularized
blow-up. Both sides are returned; the virtual one is what the mode
solver consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import (
    blowup_map,
    pushforward_density,
    pushforward_stiffness,
    regularized_blowup_map,
)
from .modesolver import LayeredDiskConfig
from .tensors import IsotropicMedium, StiffnessTensor, check_legendre, iso_stiffness

__all__ = [
    "ideal_cloak_polar",
    "NearCloak",
    "PhysicalCloakConfig",
    "build_near_cloak",
    "lining_config",
    "SingularityProfile",
    "singularity_scan",
]


def ideal_cloak_polar(medium, r, dim=2):
    """Ideal-cloak material at image radius r, polar frame.

    For ``dim == 2`` returns the closed-form tensor with the eight
    nontrivial entries

        C_rrrr = (lam+2mu)(r-1)/r      C_tttt = (lam+2mu) r/(r-1)
        C_rrtt = C_ttrr = lam          C_rttr = C_trrt = mu
        C_rtrt = mu r/(r-1)            C_trtr = mu (r-1)/r

    and density ``4(r-1)/r`` (the entries follow from the push-forward
    contraction with the diagonal polar Jacobian, and are verified
    against it to machine precision in the test suite). For ``dim == 3``
    the generic numeric push-forward is used instead of a closed table.

    Returns
    -------
    (C, rho) : (StiffnessTensor, float)
    """
    if r <= 1.0:
        raise ValueError(f"cloak-frame radius must exceed 1, got {r}")
    if r > 2.0 + 1e-12:
        raise ValueError(f"cloak layer lives in (1, 2], got r = {r}")
    if dim == 3:
        C0 = iso_stiffness(medium, 3)
        fmap = blowup_map(3)
        C = pushforward_stiffness(C0, fmap, float(r))
        rho = pushforward_density(medium.rho, fmap, float(r))
        return C, rho
    if dim != 2:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    lam, mu = complex(medium.lam), complex(medium.mu)
    lp2m = lam + 2.0 * mu
    grow = r / (r - 1.0)
    shrink = (r - 1.0) / r
    E = np.zeros((2, 2, 2, 2), dtype=complex)
    E[0, 0, 0, 0] = lp2m * shrink
    E[1, 1, 1, 1] = lp2m * grow
    E[0, 0, 1, 1] = E[1, 1, 0, 0] = lam
    E[0, 1, 1, 0] = E[1, 0, 0, 1] = mu
    E[0, 1, 0, 1] = mu * grow
    E[1, 0, 1, 0] = mu * shrink
    C = StiffnessTensor(dim=2, entries=E)
    rho = complex(medium.rho) * 4.0 * (r - 1.0) / r
    return C, rho if abs(rho.imag) > 0 else rho.real


@dataclass(frozen=True)
class PhysicalCloakConfig:
    """Physical-space near-cloak device on the disk of radius 2.

    Regions, outside in: cloaking layer (1 < r < 2, push-forward of the
    background), lossy lining (1/2 < r < 1, push-forward of the scaled
    lossy medium), content (r < 1/2). ``stiffness_at`` evaluates the
    polar-frame material at a physical radius.
    """

    h: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    background: IsotropicMedium
    content: IsotropicMedium

    @property
    def outer_radius(self):
        return 2.0

    def region_of(self, r):
        if r > 2.0 or r <= 0:
            raise ValueError(f"radius {r} outside the device")
        if r > 1.0:
            return "cloak"
        if r > 0.5:
            return "lossy"
        return "content"

    def stiffness_at(self, r):
        """(StiffnessTensor polar frame, density) at physical radius r."""
        region = self.region_of(r)
        fmap = regularized_blowup_map(self.h, 2)
        if region == "cloak":
            C0 = iso_stiffness(self.background, 2)
            return (
                pushforward_stiffness(C0, fmap, float(r)),
                pushforward_density(self.background.rho, fmap, float(r)),
            )
        if region == "lossy":
            lossy = _lossy_medium(self)
            C0 = iso_stiffness(lossy, 2)
            return (
                pushforward_stiffness(C0, fmap, float(r)),
                pushforward_density(lossy.rho, fmap, float(r)),
            )
        Ca = iso_stiffness(self.content, 2)
        return Ca, complex(self.content.rho)


def _lossy_medium(params):
    scale = params.gamma * params.h ** (2.0 + params.delta)
    return IsotropicMedium(
        lam=scale * params.background.lam,
        mu=scale * params.background.mu,
        rho=params.alpha + 1j * params.beta,
    )


@dataclass(frozen=True)
class NearCloak:
    """Paired physical device and virtual (solvable) configuration."""

    physical: PhysicalCloakConfig
    virtual: LayeredDiskConfig
    map: object


def build_near_cloak(h, alpha, beta, gamma, delta, content, background=None):
    """Assemble the lossy near-cloak for regularization parameter h.

    Parameters
    ----------
    h : float
        Regularization radius, 0 < h < 1/2.
    alpha, beta, gamma : float
        Positive lossy-layer constants (density alpha + i beta, moduli
        scaled by gamma h^(2+delta)).
    delta : float
        Nonnegative extra scaling exponent (0 is the standard choice).
    content : IsotropicMedium
        Medium occupying the protected region (physical space).
    background : IsotropicMedium, optional
        Ambient medium; defaults to lam = mu = rho = 1.

    Returns
    -------
    NearCloak
        ``virtual`` is the three-layer disk whose NtD map coincides with
        the device's; its core carries the rescaled content density
        ``rho / h^2`` (2D push-forward under x -> h x leaves the moduli
        unchanged).
    """
    if not (0.0 < h < 0.5):
        raise ValueError(f"h must lie in (0, 1/2), got {h}")
    if min(alpha, beta, gamma) <= 0.0:
        raise ValueError("alpha, beta, gamma must be positive")
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    if background is None:
        background = IsotropicMedium(1.0, 1.0, 1.0)
    physical = PhysicalCloakConfig(
        h=float(h), alpha=float(alpha), beta=float(beta), gamma=float(gamma),
        delta=float(delta), background=background, content=content,
    )
    lossy = _lossy_medium(physical)
    virtual_content = IsotropicMedium(
        lam=content.lam, mu=content.mu, rho=complex(content.rho) / h**2
    )
    virtual = LayeredDiskConfig(
        radii=(2.0, h, 0.5 * h),
        media=(background, lossy, virtual_content),
        inner="core",
    )
    return NearCloak(physical=physical, virtual=virtual,
                     map=regularized_blowup_map(h, 2))


def lining_config(h, background=None):
    """Virtual twin of the traction-free lining: annulus with a cavity."""
    if background is None:
        background = IsotropicMedium(1.0, 1.0, 1.0)
    return LayeredDiskConfig(radii=(2.0, h), media=(background,), inner="cavity")


@dataclass(frozen=True)
class SingularityProfile:
    radii: np.ndarray
    min_ellipticity: np.ndarray
    density: np.ndarray
    max_entry: np.ndarray


def singularity_scan(medium, radii, fmap=None, samples=512):
    """Tabulate cloak-material degeneracy along a radius grid.

    For each radius: the smallest Legendre quotient, the transformed
    density, and the largest tensor magnitude. Under the default blow-up
    map the quotient collapses and the magnitude diverges toward the
    inner interface.
    """
    radii = np.asarray(radii, dtype=float)
    if fmap is None:
        fmap = blowup_map(2)
    C0 = iso_stiffness(medium, fmap.dim)
    ell = np.empty(radii.size)
    den = np.empty(radii.size)
    mx = np.empty(radii.size)
    for i, r in enumerate(radii):
        C = pushforward_stiffness(C0, fmap, float(r))
        _, c0 = check_legendre(C, samples=samples)
        ell[i] = c0
        den[i] = np.real(pushforward_density(medium.rho, fmap, float(r)))
        mx[i] = float(np.abs(C.entries).max())
    return SingularityProfile(radii=radii, min_ellipticity=ell, density=den, max_entry=mx)
