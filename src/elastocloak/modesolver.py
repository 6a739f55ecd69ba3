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

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import specfun
from .tensors import IsotropicMedium
from .wavefields import BASIS_FULL, BASIS_REGULAR, ModeField, basis_matrix

__all__ = [
    "LayeredDiskConfig",
    "NtDOperator",
    "NearResonanceError",
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
    """Closed-form NtD block of a uniform disk: U S^{-1} in the J basis.

    This is the solver's ground-truth anchor; multi-layer assemblies with
    identical media must reduce to it exactly.
    """
    B = basis_matrix(medium, n, radius, omega, BASIS_REGULAR)
    U, S = B[0:2, :], B[2:4, :]
    return U @ np.linalg.inv(S)


def free_disk_ntd(medium, radius, omega, n_max):
    blocks = np.stack([free_disk_block(medium, n, radius, omega) for n in range(n_max + 1)])
    conds = np.array(
        [np.linalg.cond(basis_matrix(medium, n, radius, omega, BASIS_REGULAR)[2:4, :])
         for n in range(n_max + 1)]
    )
    return NtDOperator(omega=omega, n_max=n_max, radius=radius, blocks=blocks,
                       conditions=conds)


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


def _assemble_system(config, omega, n):
    """Equilibrated global interface system and unscale info.

    Unknown layout: 4 per annulus (J/H x P/S), 2 for a core (J x P/S).
    Rows: 2 outer-traction rows, then 4 continuity rows per interior
    interface (2 traction-free rows at a cavity boundary).
    """
    na = config.n_annuli
    has_core = config.inner == "core"
    nun = 4 * na + (2 if has_core else 0)
    A = np.zeros((nun, nun), dtype=complex)
    rhs = np.zeros((nun, 2), dtype=complex)

    def ann_cols(i):
        return slice(4 * i, 4 * i + 4)

    def ann_basis(i, r):
        med, _, _ = config.annulus(i)
        return basis_matrix(med, n, r, omega, BASIS_FULL)

    row = 0
    if na == 0:
        B = basis_matrix(config.core_medium, n, config.outer_radius, omega, BASIS_REGULAR)
        A[0:2, 0:2] = B[2:4, :]
    else:
        B0 = ann_basis(0, config.outer_radius)
        A[0:2, ann_cols(0)] = B0[2:4, :]
    rhs[0, 0] = 1.0
    rhs[1, 1] = 1.0
    row = 2
    for i in range(na):
        r_in = config.radii[i + 1]
        Bi = ann_basis(i, r_in)
        if i + 1 < na:
            A[row:row + 4, ann_cols(i)] = Bi
            A[row:row + 4, ann_cols(i + 1)] = -ann_basis(i + 1, r_in)
            row += 4
        elif has_core:
            Bc = basis_matrix(config.core_medium, n, r_in, omega, BASIS_REGULAR)
            A[row:row + 4, ann_cols(i)] = Bi
            A[row:row + 4, 4 * na:4 * na + 2] = -Bc
            row += 4
        else:  # traction-free cavity
            A[row:row + 2, ann_cols(i)] = Bi[2:4, :]
            row += 2
    assert row == nun

    # two-sided equilibration: columns span J ~ 1e-40 .. H ~ 1e+40 at high
    # modes and small radii; raw solves would be hopeless
    col = np.abs(A).max(axis=0)
    col[col == 0] = 1.0
    As = A / col[None, :]
    rw = np.abs(As).max(axis=1)
    rw[rw == 0] = 1.0
    As = As / rw[:, None]
    return As, rhs / rw[:, None], col


def mode_system_condition(config, omega, n):
    """Condition number of the equilibrated mode-n interface system."""
    As, _, _ = _assemble_system(config, omega, n)
    s = np.linalg.svd(As, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] > 0 else np.inf


def _solve_system(config, omega, n):
    As, rhs, col = _assemble_system(config, omega, n)
    s = np.linalg.svd(As, compute_uv=False)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    sol = np.linalg.solve(As, rhs) / col[:, None]
    return sol, cond


def _fields_from_solution(config, omega, n, sol_col):
    fields = []
    na = config.n_annuli
    for i in range(na):
        med, _, _ = config.annulus(i)
        coeffs = sol_col[4 * i:4 * i + 4]
        fields.append(ModeField(med, omega, n, tuple(
            (kind, pol, c) for (kind, pol), c in zip(BASIS_FULL, coeffs))))
    if config.inner == "core":
        coeffs = sol_col[4 * na:4 * na + 2] if na > 0 else sol_col[0:2]
        fields.append(ModeField(config.core_medium, omega, n, tuple(
            (kind, pol, c) for (kind, pol), c in zip(BASIS_REGULAR, coeffs))))
    return fields


def solve_mode(config, omega, n, traction):
    """Solve one mode for given traction coefficients (s_rr, s_rt).

    Returns a :class:`ModeSolution` carrying per-region fields.
    """
    sol, cond = _solve_system(config, omega, n)
    coeffs = sol @ np.asarray(traction, dtype=complex)
    return ModeSolution(config, omega, n, _fields_from_solution(config, omega, n, coeffs), cond)


def assemble_ntd(config, omega, n_max, cond_limit=1e14, raise_on_resonance=True):
    """NtD operator of a layered disk for modes 0..n_max.

    Raises :class:`NearResonanceError` when a mode system's condition
    number exceeds ``cond_limit`` (set ``raise_on_resonance=False`` to
    keep the blocks and inspect ``conditions`` instead).
    """
    R = config.outer_radius
    blocks = np.empty((n_max + 1, 2, 2), dtype=complex)
    conds = np.empty(n_max + 1)
    for n in range(n_max + 1):
        sol, cond = _solve_system(config, omega, n)
        conds[n] = cond
        if cond > cond_limit and raise_on_resonance:
            raise NearResonanceError(
                f"mode {n} system condition {cond:.3e} exceeds {cond_limit:.1e}",
                mode=n,
                condition=cond,
            )
        blk = np.empty((2, 2), dtype=complex)
        for c in range(2):
            fields = _fields_from_solution(config, omega, n, sol[:, c])
            ur, ut = fields[0].displacement_polar(R) if fields else (0.0, 0.0)
            blk[:, c] = (ur, ut)
        blocks[n] = blk
    return NtDOperator(omega=omega, n_max=n_max, radius=R, blocks=blocks, conditions=conds)


def ntd_distance(A, B):
    """Sobolev-weighted distance max_n sqrt(1+n^2) * smax(A_n - B_n).

    Surrogate for the H^{-1/2} -> H^{1/2} operator norm of the
    difference.
    """
    if A.n_max != B.n_max:
        raise ValueError("operators must share n_max")
    if A.omega != B.omega:
        raise ValueError("operators must share omega")
    out = 0.0
    for n in range(A.n_max + 1):
        smax = np.linalg.svd(A.blocks[n] - B.blocks[n], compute_uv=False)[0]
        out = max(out, float(np.sqrt(1.0 + n * n) * smax))
    return out


def per_mode_distance(A, B):
    """Array of weighted per-mode deviations (the max of which is
    ``ntd_distance``); used for truncation-tail checks."""
    out = np.empty(A.n_max + 1)
    for n in range(A.n_max + 1):
        smax = np.linalg.svd(A.blocks[n] - B.blocks[n], compute_uv=False)[0]
        out[n] = np.sqrt(1.0 + n * n) * smax
    return out


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


def _angular_factor(n):
    # integrals of cos^2(n th) / sin^2(n th) over the circle
    return 2.0 * np.pi if n == 0 else np.pi


def energy_identity_check(config, omega, tractions, n_quad=64, u0_medium=None):
    """Damping-balance residual for a layered disk.

    Checks that the absorbed power equals the boundary flux deficit:

        omega^2 * sum_regions Im(rho) Int |u|^2
            = -Im Int_boundary psi . conj(u - u0),

    with ``u0`` the response of the uniform disk made of ``u0_medium``
    (default: the outermost medium). ``tractions`` maps mode index to
    (s_rr, s_rt) coefficients.

    Returns
    -------
    (residual, lhs, rhs)
        ``residual`` is relative to the larger magnitude side.
    """
    R = config.outer_radius
    med0 = u0_medium if u0_medium is not None else config.media[0]
    x, w = leggauss(n_quad)
    lhs = 0.0 + 0.0j
    rhs = 0.0 + 0.0j
    for n, tr in tractions.items():
        tr = np.asarray(tr, dtype=complex)
        sol = solve_mode(config, omega, n, tr)
        fac = _angular_factor(n)
        spans = [(config.radii[i + 1], config.radii[i]) for i in range(config.n_annuli)]
        if config.inner == "core":
            spans.append((0.0, config.radii[-1]))
        for fldr, (r_in, r_out) in zip(sol.fields, spans):
            im_rho = complex(fldr.medium.rho).imag
            if im_rho == 0.0:
                continue
            rr = 0.5 * (r_out + r_in) + 0.5 * (r_out - r_in) * x
            ww = 0.5 * (r_out - r_in) * w
            tot = 0.0
            for r_, w_ in zip(rr, ww):
                ur, ut = fldr.displacement_polar(r_)
                tot += w_ * r_ * (abs(ur) ** 2 + abs(ut) ** 2)
            lhs += omega**2 * im_rho * fac * tot
        u = sol.boundary_displacement()
        u0 = free_disk_block(med0, n, R, omega) @ tr
        rhs += -fac * R * np.imag(tr[0] * np.conj(u[0] - u0[0]) + tr[1] * np.conj(u[1] - u0[1]))
    lhs, rhs = complex(lhs).real, complex(rhs).real
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
