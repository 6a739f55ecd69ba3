"""Radial bi-Lipschitz transformations and push-forward of elastic media.

A :class:`RadialMap` acts on radii, ``|x| -> g(|x|)``, keeping directions
fixed. The maps used for cloaking are

* ``blowup_map``: the singular construction expanding the origin of the
  ball of radius 2 to the unit disk (profile ``r -> 1 + r/2``),
* ``regularized_blowup_map(h)``: its regularization expanding the small
  ball of radius ``h`` instead (piecewise-linear profile, identity on the
  outer boundary, ``r/h`` on the inner branch).

Push-forward of a stiffness tensor under a map with Jacobian M is

    Ct_iqkp = (1/det M) * sum_{j,l} C_ijkl M_pl M_qj,   rho_t = rho/det M,

evaluated at the preimage of the requested point. For radial maps and
points expressed in the polar frame (index order r, theta[, phi]) the
Jacobian is diagonal, ``diag(g'(r), g(r)/r, ...)``, which is how the
closed-form cloak tables arise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import StiffnessTensor

__all__ = [
    "RadialMap",
    "JacobianData",
    "JointError",
    "blowup_map",
    "regularized_blowup_map",
    "identity_map",
    "jacobian",
    "pushforward_stiffness",
    "pushforward_density",
]


class JointError(ValueError):
    """Raised at non-differentiable joints; carries one-sided Jacobians."""

    def __init__(self, message, left, right):
        super().__init__(message)
        self.left = left
        self.right = right


@dataclass(frozen=True)
class RadialMap:
    """Strictly increasing radial profile with analytic derivative/inverse.

    ``g``/``g_prime``/``g_inverse`` act on radii; ``joints`` lists interior
    radii where ``g_prime`` jumps. Profiles must be orientation preserving
    (``g' > 0`` and ``g(r)/r > 0``) on ``domain``.
    """

    kind: str
    dim: int
    domain: tuple
    g: callable
    g_prime: callable
    g_inverse: callable
    joints: tuple = ()

    def __call__(self, r):
        r = float(r)
        lo, hi = self.domain
        if r < lo - 1e-14 or r > hi + 1e-14:
            raise ValueError(f"radius {r} outside map domain {self.domain}")
        if r == 0.0 and lo == 0.0 and self.kind == "blowup":
            raise ValueError("blow-up map is singular at the origin")
        return float(self.g(r))

    def inverse_radius(self, rr):
        return float(self.g_inverse(rr))


@dataclass(frozen=True)
class JacobianData:
    """Jacobian matrix and its determinant."""

    M: np.ndarray
    det: float


def blowup_map(dim):
    """Singular blow-up of the origin of B_2 onto the unit disk boundary.

    Profile ``g(r) = 1 + r/2`` on (0, 2]; fixes the outer boundary r = 2
    and sends r -> 0+ to image radius 1.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    return RadialMap(
        kind="blowup",
        dim=dim,
        domain=(0.0, 2.0),
        g=lambda r: 1.0 + 0.5 * r,
        g_prime=lambda r: 0.5,
        g_inverse=lambda rr: 2.0 * (rr - 1.0),
    )


def regularized_blowup_map(h, dim):
    """Regularized blow-up expanding B_h onto the unit disk.

    Outer branch ``r -> (2-2h)/(2-h) + r/(2-h)`` for h < r <= 2, inner
    branch ``r -> r/h`` for r <= h; continuous at r = h, identity at r = 2.
    The joint belongs to the inner branch, so r = h maps to 1 exactly and
    the preimage of 1 is h exactly. Converges to ``blowup_map`` on the
    outer branch as h -> 0+.
    """
    if not (0.0 < h < 1.0):
        raise ValueError(f"h must lie in (0, 1), got {h}")
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    a = (2.0 - 2.0 * h) / (2.0 - h)
    b = 1.0 / (2.0 - h)

    def g(r):
        return r / h if r <= h else a + b * r

    def gp(r):
        return 1.0 / h if r <= h else b

    def gi(rr):
        return rr * h if rr <= 1.0 else (rr - a) / b

    return RadialMap(
        kind="regularized",
        dim=dim,
        domain=(0.0, 2.0),
        g=g,
        g_prime=gp,
        g_inverse=gi,
        joints=(float(h),),
    )


def identity_map(dim):
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    return RadialMap(
        kind="identity",
        dim=dim,
        domain=(0.0, 2.0),
        g=lambda r: r,
        g_prime=lambda r: 1.0,
        g_inverse=lambda rr: rr,
    )


def _split_point(point, dim):
    """Return (radius, direction or None, frame) for a scalar/vector point."""
    arr = np.asarray(point, dtype=float)
    if arr.ndim == 0:
        return float(arr), None, "polar"
    if arr.shape != (dim,):
        raise ValueError(f"point must be scalar or shape ({dim},)")
    r = float(np.linalg.norm(arr))
    if r == 0.0:
        raise ValueError("vector point must be nonzero")
    return r, arr / r, "cartesian"


def _source_radius(rmap, r, inverse):
    """The source radius of ``r`` (its preimage when ``inverse``), refused
    where the map has no Jacobian: at a radius <= 0 or NaN, except at an
    origin the map fixes, where the hoop stretch g(s)/s tends to g'(0),
    and outside the map's domain, with the slack of ``RadialMap.__call__``."""
    r_src = rmap.inverse_radius(r) if inverse else r
    space = "image radius" if inverse else "radius"
    if not (r_src > 0.0 or (r_src == 0.0 and rmap.g(0.0) == 0.0)):
        raise ValueError(f"map {rmap.kind} has no Jacobian at {space} {r}")
    lo, hi = rmap.domain
    if not lo - 1e-14 <= r_src <= hi + 1e-14:
        raise ValueError(f"map {rmap.kind}: {space} {r} has source radius {r_src} "
                         f"outside the map domain {rmap.domain}")
    return r_src


def jacobian(rmap, point, inverse=False):
    """Jacobian of a radial map.

    With ``inverse=False``, ``point`` lives in the source space and the
    forward Jacobian at that point is returned. With ``inverse=True``,
    ``point`` lives in the image space and the forward Jacobian evaluated
    at its preimage is returned (the form in which the ideal-cloak tables
    are written: for the blow-up map at image radius r the determinant is
    ``r/(4(r-1))`` in 2D and ``r^2/(8(r-1)^2)`` in 3D).

    Raises :class:`JointError` (carrying one-sided data) within 1e-12 of
    kinks of piecewise profiles, and ``ValueError`` where the map has no
    Jacobian (the blow-up map's origin).
    """
    r, direction, frame = _split_point(point, rmap.dim)
    r_src = _source_radius(rmap, r, inverse)
    for j in rmap.joints:
        if abs(r_src - j) <= 1e-12:
            left = _jac_at(rmap, j - 1e-9, direction, frame)
            right = _jac_at(rmap, j + 1e-9, direction, frame)
            raise JointError(
                f"map {rmap.kind} is non-differentiable at r = {j}", left, right
            )
    return _jac_at(rmap, r_src, direction, frame)


def _jac_at(rmap, r_src, direction, frame):
    gp = rmap.g_prime(r_src)
    gt = rmap.g(r_src) / r_src if r_src else gp  # g(s)/s -> g'(0) at a fixed origin
    dim = rmap.dim
    if frame == "polar":
        M = np.diag([gp] + [gt] * (dim - 1))
    else:
        P = np.outer(direction, direction)
        M = gp * P + gt * (np.eye(dim) - P)
    det = gp * gt ** (dim - 1)
    return JacobianData(M=M, det=float(det))


def _image_jacobian(rmap, point):
    """Forward Jacobian at the preimage of an image-space point, refused
    where the map is singular or not orientation preserving."""
    r, direction, frame = _split_point(point, rmap.dim)
    jd = _jac_at(rmap, _source_radius(rmap, r, True), direction, frame)
    if jd.det <= 0:
        raise ValueError(f"push-forward requires det M > 0, got {jd.det}")
    return jd


def pushforward_stiffness(C, rmap, point):
    """Push a stiffness tensor forward, evaluated at an image-space point.

    ``point`` may be a scalar image radius (result in the polar frame,
    index order r, theta[, phi]) or an image-space vector (result in the
    Cartesian frame). ``C`` is taken as the tensor at the preimage in the
    matching frame.
    """
    if C.dim != rmap.dim:
        raise ValueError("tensor and map dims differ")
    jd = _image_jacobian(rmap, point)
    Ct = np.einsum("ijkl,pl,qj->iqkp", C.entries, jd.M, jd.M) / jd.det
    return StiffnessTensor(dim=C.dim, entries=Ct)


def pushforward_density(rho, rmap, point):
    """Density transform rho / det(M), evaluated at an image-space point."""
    return complex(rho) / _image_jacobian(rmap, point).det
