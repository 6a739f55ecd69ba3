"""Spectral per-mode solver for concentric isotropic layered disks.

Every quantity on a circle is expanded in the parity-matched angular
family (cos(n th) for radial components, sin(n th) for tangential ones),
which block-diagonalizes the Navier problem into independent 2x2 systems
per mode: traction coefficients (s_rr, s_rt) map to displacement
coefficients (u_r, u_th).

The assembled operator blocks are real symmetric for lossless media and
complex symmetric with damping. Equilibrated global solves (all layer
interfaces at once) keep the strongly lossy layers well conditioned where
sequential transfer matrices would overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import specfun
from .tensors import IsotropicMedium
from .wavefields import BASIS_FULL, BASIS_REGULAR, ModeField, basis_matrix

__all__ = [
    "LayeredDiskConfig",
    "NtDOperator",
    "NearResonanceError",
    "ModeOverflowError",
    "SearchWindowError",
    "ResonanceResult",
    "free_disk_block",
    "free_disk_ntd",
    "assemble_ntd",
    "solve_mode",
    "mode_system_condition",
    "ntd_distance",
    "traction_coeffs",
    "ps_decompose",
    "energy_identity_check",
    "find_resonant_densities",
    "ntd_to_json",
    "ntd_from_json",
]


class NearResonanceError(RuntimeError):
    """Mode system nearly singular; the NtD map is unreliable there."""

    def __init__(self, message, mode, condition):
        super().__init__(message)
        self.mode = mode
        self.condition = condition


class ModeOverflowError(np.linalg.LinAlgError):
    """Mode system not representable in double precision: an entry
    overflowed (a Bessel or Hankel value past ~1e308) or a whole basis
    column underflowed to zero. ``mode`` is the lowest such mode."""

    def __init__(self, message, mode):
        super().__init__(message)
        self.mode = mode


class SearchWindowError(RuntimeError):
    """Root bracketing failed; enlarge the search window and retry."""


@dataclass(frozen=True)
class LayeredDiskConfig:
    """Concentric isotropic layers, outside-in.

    ``radii[0]`` is the outer boundary where traction data is applied;
    ``radii[1:]`` are interior interfaces. With ``inner='core'`` the last
    medium fills the central disk (regular at the origin, so
    ``len(media) == len(radii)``); with ``inner='cavity'`` the innermost
    interface is traction free and ``len(media) == len(radii) - 1``.
    """

    radii: tuple
    media: tuple
    inner: str = "core"

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "media", tuple(self.media))
        if self.inner not in ("core", "cavity"):
            raise ValueError("inner must be 'core' or 'cavity'")
        if any(r <= 0 for r in radii):
            raise ValueError("radii must be positive")
        if any(b <= a for a, b in zip(radii[1:], radii[:-1])):
            raise ValueError("radii must be strictly decreasing")
        expected = len(radii) if self.inner == "core" else len(radii) - 1
        if len(self.media) != expected:
            raise ValueError(
                f"expected {expected} media for {len(radii)} radii with inner={self.inner!r}"
            )
        if self.inner == "cavity" and len(radii) < 2:
            raise ValueError("cavity config needs an annulus")

    @property
    def outer_radius(self):
        return self.radii[0]

    @property
    def n_annuli(self):
        return len(self.radii) - 1

    def annulus(self, i):
        """(medium, r_outer, r_inner) for annular region i (outside-in)."""
        return self.media[i], self.radii[i], self.radii[i + 1]

    @property
    def core_medium(self):
        if self.inner != "core":
            raise ValueError("config has a cavity, not a core")
        return self.media[-1]


def uniform_disk(medium, radius=2.0):
    """Single-medium disk (the reference configuration)."""
    return LayeredDiskConfig(radii=(radius,), media=(medium,), inner="core")


@dataclass(frozen=True)
class NtDOperator:
    """Per-mode 2x2 traction-to-displacement blocks on the outer circle."""

    omega: float
    n_max: int
    radius: float
    blocks: np.ndarray  # (n_max + 1, 2, 2) complex
    conditions: np.ndarray = None  # per-mode system condition numbers

    def block(self, n):
        return self.blocks[n]


def free_disk_block(medium, n, radius, omega):
    """Closed-form NtD block of a uniform disk: U S^{-1} in the J basis
    (stacked over orders for an array ``n``).

    This is the solver's ground-truth anchor; multi-layer assemblies with
    identical media must reduce to it exactly.
    """
    B = basis_matrix(medium, n, radius, omega, BASIS_REGULAR)
    return B[..., 0:2, :] @ np.linalg.inv(B[..., 2:4, :])


def free_disk_ntd(medium, radius, omega, n_max):
    B = basis_matrix(medium, np.arange(n_max + 1), radius, omega, BASIS_REGULAR)
    U, S = B[:, 0:2], B[:, 2:4]
    return NtDOperator(omega=omega, n_max=n_max, radius=radius, blocks=U @ np.linalg.inv(S),
                       conditions=np.linalg.cond(S))


def free_disk_condition_scan(medium, radius, omega, n_max):
    """Max closed-form system condition over modes; large values flag that
    -omega^2 sits near a traction-free eigenvalue of the disk."""
    return float(free_disk_ntd(medium, radius, omega, n_max).conditions.max())


@dataclass
class ModeSolution:
    """Solved coefficients of one mode of a layered-disk problem."""

    config: LayeredDiskConfig
    omega: float
    n: int
    fields: list  # ModeField per region, outside-in
    condition: float

    def boundary_displacement(self):
        ur, ut = self.fields[0].displacement_polar(self.config.outer_radius)
        return np.array([ur, ut])


class _Region(NamedTuple):
    """One region of a layered disk and its unknowns in the mode system."""

    medium: IsotropicMedium
    kinds: tuple  # basis functions: BASIS_FULL for an annulus, BASIS_REGULAR for a core
    cols: slice  # its coefficients among the unknowns
    r_in: float  # 0 for a core
    r_out: float


def _regions(config):
    """The regions of ``config``, outside-in.

    Unknown layout: 4 per annulus (J/H x P/S), then 2 for a core (J x P/S).
    """
    out = []
    for i in range(config.n_annuli):
        med, r_out, r_in = config.annulus(i)
        out.append(_Region(med, BASIS_FULL, slice(4 * i, 4 * i + 4), r_in, r_out))
    if config.inner == "core":
        na = config.n_annuli
        out.append(_Region(config.core_medium, BASIS_REGULAR, slice(4 * na, 4 * na + 2),
                           0.0, config.radii[-1]))
    return out


def _interface_systems(config, omega, orders):
    """Interface systems of all ``orders``, stacked: A (M, m, m) and the
    outer basis B0 (M, 4, w) whose w columns are the outer region's.

    Rows: 2 outer-traction rows, then 4 continuity rows per interior
    interface (2 traction-free rows at a cavity boundary).
    """
    regions = _regions(config)
    nun = regions[-1].cols.stop
    A = np.zeros((len(orders), nun, nun), dtype=complex)
    # each region's basis at its outer and (unless a core) inner radius,
    # shape (M, 2 or 1, 4, w), in one call
    B = [basis_matrix(g.medium, orders, [g.r_out, g.r_in] if g.r_in > 0 else [g.r_out],
                      omega, g.kinds)
         for g in regions]
    A[:, 0:2, regions[0].cols] = B[0][:, 0, 2:4]
    row = 2
    for i in range(len(regions) - 1):
        A[:, row:row + 4, regions[i].cols] = B[i][:, 1]
        A[:, row:row + 4, regions[i + 1].cols] = -B[i + 1][:, 0]
        row += 4
    if config.inner == "cavity":  # traction-free inner boundary
        A[:, row:row + 2, regions[-1].cols] = B[-1][:, 1, 2:4]
        row += 2
    assert row == nun
    return A, B[0][:, 0]


def _mode_systems(config, omega, orders, cond_limit=np.inf):
    """Equilibrated interface systems of ``orders`` and their conditions.

    Returns ``(As, rhs, col, B0, conds)``: the two-sided equilibrated
    systems ``As = diag(1/rw) A diag(1/col)`` (M, m, m), the scaled
    right-hand sides (M, m, 2) for unit s_rr and s_rt, the column scales,
    the outer basis and the condition number of each ``As``.

    Raises :class:`NearResonanceError` for the lowest order whose
    condition exceeds ``cond_limit``, and :class:`ModeOverflowError` for
    the lowest order whose system is not representable, whichever is
    lower.
    """
    orders = np.asarray(orders)
    A, B0 = _interface_systems(config, omega, orders)
    # two-sided equilibration: columns span J ~ 1e-40 .. H ~ 1e+40 at high
    # modes and small radii; raw solves would be hopeless. A mode whose
    # system holds an overflowed entry, or a basis column that underflowed
    # to zero, has no double-precision solution: only the modes below the
    # first such one are equilibrated and solved.
    col = np.abs(A).max(axis=1)
    usable = (np.isfinite(B0).all(axis=(1, 2)) & np.isfinite(col).all(axis=1)
              & (col > 0).all(axis=1))
    n_ok = len(orders) if usable.all() else int(np.argmin(usable))
    col = col[:n_ok]
    As = A[:n_ok] / col[:, None, :]
    rw = np.abs(As).max(axis=2)
    rw[rw == 0] = 1.0
    As = As / rw[:, :, None]
    rhs = np.zeros(As.shape[:2] + (2,), dtype=complex)
    rhs[:, 0, 0] = 1.0 / rw[:, 0]
    rhs[:, 1, 1] = 1.0 / rw[:, 1]

    s = np.linalg.svd(As, compute_uv=False)
    conds = np.full(n_ok, np.inf)
    np.divide(s[:, 0], s[:, -1], out=conds, where=s[:, -1] > 0)
    over = np.flatnonzero(conds > cond_limit)
    if over.size:
        n, cond = int(orders[over[0]]), float(conds[over[0]])
        raise NearResonanceError(
            f"mode {n} system condition {cond:.3e} exceeds {cond_limit:.1e}",
            mode=n,
            condition=cond,
        )
    if n_ok < len(orders):
        n = int(orders[n_ok])
        raise ModeOverflowError(
            f"mode {n} system is not representable: a Bessel or Hankel value "
            "overflowed, or a basis column underflowed to zero",
            mode=n,
        )
    return As, rhs, col, B0, conds


def _solve_modes(config, omega, orders, cond_limit=np.inf):
    """Solution coefficients (M, m, 2) for unit s_rr and s_rt tractions of
    every order in one batched solve, with the outer basis and conditions."""
    As, rhs, col, B0, conds = _mode_systems(config, omega, orders, cond_limit)
    return np.linalg.solve(As, rhs) / col[:, :, None], B0, conds


def mode_system_condition(config, omega, n):
    """Condition number of the equilibrated mode-n interface system."""
    *_, conds = _mode_systems(config, omega, [n])
    return float(conds[0])


def solve_mode(config, omega, n, traction):
    """Solve one mode for given traction coefficients (s_rr, s_rt).

    Returns a :class:`ModeSolution` carrying per-region fields.
    """
    sol, _, conds = _solve_modes(config, omega, [n])
    coeffs = sol[0] @ np.asarray(traction, dtype=complex)
    fields = [ModeField(g.medium, omega, n, tuple(
        (kind, pol, c) for (kind, pol), c in zip(g.kinds, coeffs[g.cols])))
        for g in _regions(config)]
    return ModeSolution(config, omega, n, fields, float(conds[0]))


def assemble_ntd(config, omega, n_max, cond_limit=1e14, raise_on_resonance=True):
    """NtD operator of a layered disk for modes 0..n_max.

    All modes are assembled, equilibrated and solved in one batch. Raises
    :class:`NearResonanceError` when a mode system's condition number
    exceeds ``cond_limit`` (set ``raise_on_resonance=False`` to keep the
    blocks and inspect ``conditions`` instead), and
    :class:`ModeOverflowError` when a mode system is not representable.
    """
    sol, B0, conds = _solve_modes(config, omega, np.arange(n_max + 1),
                                  cond_limit if raise_on_resonance else np.inf)
    w = B0.shape[-1]
    blocks = B0[:, 0:2, :] @ sol[:, :w, :]
    return NtDOperator(omega=omega, n_max=n_max, radius=config.outer_radius,
                       blocks=blocks, conditions=conds)


def per_mode_distance(A, B):
    """Array of weighted per-mode deviations sqrt(1+n^2) * smax(A_n - B_n)
    (the max of which is ``ntd_distance``); used for truncation-tail
    checks."""
    if A.n_max != B.n_max:
        raise ValueError("operators must share n_max")
    if A.omega != B.omega:
        raise ValueError("operators must share omega")
    n = np.arange(A.n_max + 1)
    smax = np.linalg.svd(A.blocks - B.blocks, compute_uv=False)[:, 0]
    return np.sqrt(1.0 + n * n) * smax


def ntd_distance(A, B):
    """Sobolev-weighted distance max_n sqrt(1+n^2) * smax(A_n - B_n).

    Surrogate for the H^{-1/2} -> H^{1/2} operator norm of the
    difference.
    """
    return float(per_mode_distance(A, B).max())


def traction_coeffs(medium, n, r, omega, coefficients, kinds=BASIS_FULL):
    """Traction and displacement coefficients of a potential combination.

    Parameters
    ----------
    coefficients : sequence of complex
        One coefficient per basis function in ``kinds``.

    Returns
    -------
    (sigma, u) : pair of ndarrays
        ``sigma = (s_rr, s_rt)`` and ``u = (u_r, u_th)`` angular
        coefficients at radius ``r``.
    """
    if len(coefficients) != len(kinds):
        raise ValueError("one coefficient per basis function required")
    if r == 0 and any(kind == "H" for kind, _ in kinds):
        raise ValueError("outgoing basis is singular at r = 0")
    B = basis_matrix(medium, n, r, omega, kinds)
    v = B @ np.asarray(coefficients, dtype=complex)
    return v[2:4], v[0:2]


def ps_decompose(fld):
    """Split a mode field into compressional and shear parts.

    The split is exact in the potential representation: the P part is
    curl free, the S part divergence free, and they sum to the field.
    """
    return fld.restrict({"P"}), fld.restrict({"S"})


def energy_identity_check(config, omega, tractions, n_quad=64, u0_medium=None):
    """Damping-balance residual for a layered disk.

    Checks that the absorbed power equals the boundary flux deficit:

        omega^2 * sum_regions Im(rho) Int |u|^2
            = -Im Int_boundary psi . conj(u - u0),

    with ``u0`` the response of the uniform disk made of ``u0_medium``
    (default: the outermost medium). ``tractions`` maps mode index to
    (s_rr, s_rt) coefficients; all modes are solved in one batch.

    Returns
    -------
    (residual, lhs, rhs)
        ``residual`` is relative to the larger magnitude side.
    """
    if not tractions:
        return 0.0, 0.0, 0.0
    R = config.outer_radius
    med0 = u0_medium if u0_medium is not None else config.media[0]
    orders = np.array(list(tractions), dtype=int)
    tr = np.array(list(tractions.values()), dtype=complex)
    fac = np.where(orders == 0, 2.0 * np.pi, np.pi)  # Int cos^2(n th) or sin^2(n th)
    sol, B0, _ = _solve_modes(config, omega, orders)
    coeffs = sol @ tr[:, :, None]  # (M, m, 1)
    x, w = leggauss(n_quad)
    lhs = 0.0
    for g in _regions(config):
        im_rho = complex(g.medium.rho).imag
        if im_rho == 0.0:
            continue
        rr = 0.5 * (g.r_out + g.r_in) + 0.5 * (g.r_out - g.r_in) * x
        ww = 0.5 * (g.r_out - g.r_in) * w
        # (M, n_quad, 2): u_r and u_th of every mode at every node
        u = (basis_matrix(g.medium, orders, rr, omega, g.kinds)[..., 0:2, :]
             @ coeffs[:, None, g.cols])[..., 0]
        tot = (np.abs(u) ** 2).sum(axis=-1) @ (ww * rr)
        lhs += omega**2 * im_rho * float(fac @ tot)
    w0 = B0.shape[-1]
    u = (B0[:, 0:2, :] @ coeffs[:, :w0])[..., 0]
    u0 = (free_disk_block(med0, orders, R, omega) @ tr[:, :, None])[..., 0]
    rhs = float(-R * fac @ np.imag(tr * np.conj(u - u0)).sum(axis=1))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale, lhs, rhs


# ---------------------------------------------------------------------------
# resonant (cloak-busting) inclusions


@dataclass(frozen=True)
class ResonanceResult:
    """Densities and mode data of a constructed interior resonance."""

    rho1: float  # annulus density
    rho2: float  # core density
    t_star: float  # root of the outer traction-free condition
    t1: float
    t2: float
    c: np.ndarray  # nontrivial coefficient pair, unit norm
    det_residual: float


def _bracket_roots(fun, lo, hi, steps):
    from scipy.optimize import brentq  # deferred: only the resonance search needs it

    ts = np.linspace(lo, hi, steps)
    vals = np.array([fun(t) for t in ts])
    roots = []
    for a, b, fa, fb in zip(ts[:-1], ts[1:], vals[:-1], vals[1:]):
        if np.isfinite(fa) and np.isfinite(fb) and np.sign(fa) != np.sign(fb):
            roots.append(brentq(fun, a, b, xtol=1e-14, rtol=8.9e-16))
    return roots


def find_resonant_densities(lam, mu, r0, r1, omega, t_max=40.0):
    """Densities (rho1, rho2) making the two-layer disk resonate.

    Construction: radially symmetric compressional fields
    ``u_j = c_j grad J_0(k_j r)``. The outer density makes the traction
    vanish on r = r1 (root of ``2 mu J0'' - lam J0``); the core density
    is chosen so the displacement/normal-derivative transmission system
    at r = r0 becomes singular, yielding a nontrivial (c1, c2).
    """
    if not (0 < r0 < r1):
        raise ValueError("need 0 < r0 < r1")
    if omega <= 0:
        raise ValueError("omega must be positive")

    def J0(t):
        return specfun.bessel_j(0, t).real

    def J0p(t):
        return specfun.bessel_j_prime(0, t).real

    def J0pp(t):
        return specfun.bessel_j_second(0, t).real

    def f(t):
        return 2.0 * mu * J0pp(t) - lam * J0(t)

    steps = max(400, int(t_max * 40))
    f_roots = _bracket_roots(f, 0.05, t_max, steps)
    if not f_roots:
        raise SearchWindowError(
            f"no root of the outer traction condition in (0, {t_max}]; enlarge t_max"
        )
    t_star = f_roots[0]
    t1 = t_star * r0 / r1

    def det(t2):
        return (t1 * J0p(t1) * t2**2 * J0pp(t2)
                - t2 * J0p(t2) * t1**2 * J0pp(t1))

    if abs(J0pp(t1)) < 1e-12:
        # degenerate branch: match a zero of J0'' instead
        cands = _bracket_roots(J0pp, 0.05, t_max, steps)
    else:
        cands = _bracket_roots(det, 0.05, t_max, steps)
    cands = [t for t in cands if abs(t - t1) > 1e-6 and t > 0.2]
    if not cands:
        raise SearchWindowError(
            f"no transmission-matching root distinct from t1={t1:.6g} in (0, {t_max}]; "
            "enlarge t_max"
        )
    t2 = cands[0]

    kp1 = t_star / r1
    kp2 = t2 / r0
    rho1 = (lam + 2 * mu) * (kp1 / omega) ** 2
    rho2 = (lam + 2 * mu) * (kp2 / omega) ** 2

    M = np.array(
        [
            [t1 * J0p(t1), -t2 * J0p(t2)],
            [t1**2 * J0pp(t1), -(t2**2) * J0pp(t2)],
        ]
    )
    _, s, Vh = np.linalg.svd(M)
    c = Vh[-1].conj()
    det_residual = float(s[-1] / s[0])
    return ResonanceResult(
        rho1=float(rho1),
        rho2=float(rho2),
        t_star=float(t_star),
        t1=float(t1),
        t2=float(t2),
        c=c,
        det_residual=det_residual,
    )


def resonant_config(lam, mu, r0, r1, result):
    """Two-layer disk realizing the constructed resonance."""
    return LayeredDiskConfig(
        radii=(r1, r0),
        media=(
            IsotropicMedium(lam, mu, result.rho1),
            IsotropicMedium(lam, mu, result.rho2),
        ),
        inner="core",
    )


# ---------------------------------------------------------------------------
# serialization


def ntd_to_json(op):
    blocks = []
    for n in range(op.n_max + 1):
        b = op.blocks[n].reshape(-1)
        blocks.append([[v.real, v.imag] for v in b])
    return json.dumps({"omega": op.omega, "n_max": op.n_max, "radius": op.radius,
                       "blocks": blocks})


def ntd_from_json(text):
    d = json.loads(text)
    blocks = np.array(
        [[complex(re, im) for re, im in blk] for blk in d["blocks"]]
    ).reshape(-1, 2, 2)
    return NtDOperator(
        omega=float(d["omega"]),
        n_max=int(d["n_max"]),
        radius=float(d.get("radius", 2.0)),
        blocks=blocks,
    )
