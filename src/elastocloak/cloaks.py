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
blow-up. Only the virtual side is stored: it is what the mode solver
consumes, and ``NearCloak.stiffness_at`` derives the physical material
from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import pushforward_density, pushforward_stiffness, regularized_blowup_map
from .modesolver import LayeredDiskConfig
from .tensors import IsotropicMedium, StiffnessTensor, iso_stiffness

__all__ = [
    "ideal_cloak_polar",
    "NearCloak",
    "build_near_cloak",
    "lining_config",
]


def ideal_cloak_polar(medium, r):
    """2D ideal-cloak material at image radius r, polar frame.

    Returns the closed-form tensor with the eight nontrivial entries

        C_rrrr = (lam+2mu)(r-1)/r      C_tttt = (lam+2mu) r/(r-1)
        C_rrtt = C_ttrr = lam          C_rttr = C_trrt = mu
        C_rtrt = mu r/(r-1)            C_trtr = mu (r-1)/r

    and density ``4(r-1)/r`` (the entries follow from the push-forward
    contraction with the diagonal polar Jacobian, and are verified
    against it to machine precision in the test suite). The 3D cloak is
    ``pushforward_stiffness(iso_stiffness(medium, 3), blowup_map(3), r)``.

    Returns
    -------
    (C, rho) : (StiffnessTensor, float)
    """
    if not 1.0 < r <= 2.0 + 1e-12:
        raise ValueError(f"cloak layer lives in (1, 2], got r = {r}")
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
class NearCloak:
    """Near-cloak device: its virtual (solvable) configuration and the map
    whose push-forward of it is the physical device."""

    virtual: LayeredDiskConfig
    map: object

    def stiffness_at(self, r):
        """(StiffnessTensor polar frame, density) of the physical device at
        radius r in (0, 2]: the push-forward under ``map`` of the virtual
        layer that holds the preimage of r.

        An interface belongs to the layer inside it: r = 1 to the lining,
        r = 1/2 to the content. The map's inner branch owns its joint, so
        h and h/2 map to 1 and 1/2 exactly, and r = 1 takes the lining's
        inner-branch value, its limit from inside.
        """
        if not 0.0 < r <= self.virtual.outer_radius:
            raise ValueError(f"radius {r} outside the device (0, {self.virtual.outer_radius}]")
        layer = sum(r <= self.map(x) for x in self.virtual.radii[1:])
        medium = self.virtual.media[layer]
        return (
            pushforward_stiffness(iso_stiffness(medium, 2), self.map, float(r)),
            pushforward_density(medium.rho, self.map, float(r)),
        )


def build_near_cloak(h, alpha, beta, gamma, delta, content, background=None):
    """Assemble the lossy near-cloak for regularization parameter h.

    Parameters
    ----------
    h : float
        Regularization radius, 0 < h < 1/2.
    alpha, beta, gamma : float
        Positive, finite lossy-layer constants (density alpha + i beta,
        moduli scaled by gamma h^(2+delta)).
    delta : float
        Nonnegative, finite extra scaling exponent (0 is the standard
        choice).
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
    for name, value in zip(("alpha", "beta", "gamma", "delta"), (alpha, beta, gamma, delta)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if min(alpha, beta, gamma) <= 0.0:
        raise ValueError("alpha, beta, gamma must be positive")
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    if background is None:
        background = IsotropicMedium(1.0, 1.0, 1.0)
    h = float(h)
    scale = float(gamma) * h ** (2.0 + float(delta))
    lossy = IsotropicMedium(
        lam=scale * background.lam, mu=scale * background.mu,
        rho=float(alpha) + 1j * float(beta),
    )
    virtual_content = IsotropicMedium(
        lam=content.lam, mu=content.mu, rho=complex(content.rho) / h**2
    )
    virtual = LayeredDiskConfig(
        radii=(2.0, h, 0.5 * h),
        media=(background, lossy, virtual_content),
        inner="core",
    )
    return NearCloak(virtual=virtual, map=regularized_blowup_map(h, 2))


def lining_config(h, background=None):
    """Virtual twin of the traction-free lining: annulus with a cavity."""
    if background is None:
        background = IsotropicMedium(1.0, 1.0, 1.0)
    return LayeredDiskConfig(radii=(2.0, h), media=(background,), inner="cavity")
