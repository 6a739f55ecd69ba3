"""Spectral per-mode solver for concentric isotropic layered disks.

Every quantity on a circle is expanded in the parity-matched angular
family (cos(n th) for radial components, sin(n th) for tangential ones),
which block-diagonalizes the Navier problem into independent 2x2 systems
per mode: traction coefficients (s_rr, s_rt) map to displacement
coefficients (u_r, u_th).

The assembled operator blocks are real symmetric for lossless media and
complex symmetric with damping. Equilibrated global solves (all layer
interfaces at once) keep the strongly lossy layers well conditioned where
sequential transfer matrices would overflow. Each solver call evaluates
the basis at every distinct (medium, radius) point it needs in one
``basis_matrix`` table: FULL kinds, of which a core reads the J columns.
``energy_identity_check`` adds the first 24 Gauss-Legendre nodes of each
lossy region to it; a region whose integrand those do not resolve takes
one more call per doubling of its rule.
The systems of every mode of one config are gathered from that table
into one array and inverted in one batched LU pass, which gives both the
solutions and the conditions. ``assemble_ntd``, ``solve_mode``,
``mode_system_condition`` and ``energy_identity_check`` take this global
solve.

The convergence and lining sweeps need only Lambda - Lambda_free, a
device's NtD map less the free disk's (the outer region the devices
share), which agree to O(h^2): taking it as the difference of two maps
loses it to rounding below h ~ 1e-5.
``_free_disk_differences`` walks each config inward-out through its
interfaces with 2x2 T-matrices per mode instead, every config of one
layout at once from one table (the lining cavities reuse the
near-cloaks' background points), and never subtracts two maps. Its 2x2
algebra runs on the four entries as arrays, each inverse on columns
scaled by powers of two.

The uniform disk's NtD map (the damping balance's free-disk response
too) and the traction-driven exterior cavity are one-region problems on
one circle: both go through ``_traction_solve``.

A mode system's condition is its 1-norm condition number
kappa_1(A) = ||A||_1 ||A^-1||_1, with ||A||_1 the largest column sum of
|A| (LAPACK's xGECON convention; Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., 2002, ch. 15). For an m x m system it lies
within a factor m of the 2-norm condition s_max / s_min. An exactly
singular system has condition inf and is always an error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .tensors import IsotropicMedium
from .wavefields import (BASIS_FULL, BASIS_OUTGOING, BASIS_REGULAR, ModeField, _special,
                         basis_matrix)

__all__ = [
    "LayeredDiskConfig",
    "NtDOperator",
    "NearResonanceError",
    "ModeOverflowError",
    "SearchWindowError",
    "ResonanceResult",
    "free_disk_ntd",
    "assemble_ntd",
    "solve_mode",
    "mode_system_condition",
    "ntd_distance",
    "energy_identity_check",
    "ExteriorCavitySolution",
    "solve_exterior_cavity",
    "find_resonant_densities",
    "resonant_config",
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
    """Root bracketing found no root in the fixed search window."""


# a mode system of larger 1-norm condition is refused as near a resonance
_COND_LIMIT = 1e14


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
        if not all(0 < r < np.inf for r in radii):
            raise ValueError(f"radii must be positive and finite, got {radii}")
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


@dataclass(frozen=True)
class NtDOperator:
    """Per-mode 2x2 traction-to-displacement blocks on the outer circle.

    ``conditions`` holds, per mode, the 1-norm condition
    ||A||_1 ||A^-1||_1 (||A||_1 the largest column sum of |A|) of the
    equilibrated interface system A, or of the traction system S for
    :func:`free_disk_ntd`.
    """

    omega: float
    n_max: int
    radius: float
    blocks: np.ndarray  # (n_max + 1, 2, 2) complex
    conditions: np.ndarray = None  # (n_max + 1,) 1-norm conditions


def free_disk_ntd(medium, radius, omega, n_max):
    """NtD map of a uniform disk, modes 0..n_max: the closed-form blocks
    U S^{-1} in the J basis, with the 1-norm condition of each traction
    system S; a :class:`ModeOverflowError` for the first mode whose system
    is not representable, else a :class:`NearResonanceError` for the first
    exactly singular one.

    This is the solver's ground-truth anchor; multi-layer assemblies with
    identical media must reduce to it exactly.
    """
    _check_count(n_max, "n_max")
    orders = np.arange(n_max + 1)
    return _disk_ntd(basis_matrix(medium, orders, radius, omega, BASIS_REGULAR), radius, omega)


def _disk_ntd(B, radius, omega):
    """:func:`free_disk_ntd` of the regular basis ``B`` (n_max + 1, 4, 2)
    of the disk's medium at ``radius``, modes 0..n_max."""
    # the rhs is a stack of one matrix, as numpy 1 reads it too
    Sinv = _traction_solve(B, np.arange(len(B)), np.eye(2)[None])
    return NtDOperator(omega=omega, n_max=len(B) - 1, radius=radius, blocks=B[:, 0:2] @ Sinv,
                       conditions=_norm1(B[:, 2:4]) * _norm1(Sinv))


def _traction_solve(B, orders, rhs):
    """S^-1 ``rhs`` for the traction systems S = B[:, 2:4] of the basis
    ``B`` (M, 4, 2) of one region at one radius over the 1-D ``orders``,
    in one batched LU pass; a :class:`ModeOverflowError` for the lowest
    order not representable, else a :class:`NearResonanceError` for the
    lowest exactly singular one."""
    S = B[:, 2:4]
    usable = _representable(B, np.abs(S).max(axis=-2))
    if not usable.all():
        raise _overflow_error(int(orders[~usable].min()))
    try:
        return np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError:
        _, singular = _inverses(S)
        raise _singular_error(int(orders[singular].min())) from None


def _traction(n, t):
    """The traction ``t`` of mode ``n`` as a complex pair (s_rr, s_rt); a
    traction of another shape, or a NaN or infinite one, is refused with
    its mode."""
    tr = np.asarray(t, dtype=complex)
    if tr.shape != (2,):
        raise ValueError(f"traction of mode {n} must be a pair (s_rr, s_rt), got {t!r}")
    if not np.isfinite(tr).all():
        raise ValueError(f"traction of mode {n} must be finite, got {t!r}")
    return tr


def _mode_tractions(tractions):
    """Orders (M,), uncast, and (s_rr, s_rt) rows (M, 2) of a dict mode ->
    traction, each checked by :func:`_traction`. A bool key is refused
    here: beside integer keys numpy casts it to 0 or 1 before
    ``basis_matrix`` checks the orders."""
    for n in tractions:
        if isinstance(n, (bool, np.bool_)):
            raise ValueError(f"order must be >= 0 and an integer, got {n}")
    tr = np.array([_traction(n, t) for n, t in tractions.items()], dtype=complex)
    return np.array(list(tractions)), tr


def _check_count(value, name):
    """Refuse a ``value`` of the key ``name`` that is not a non-negative
    integer (a bool, a float, a negative number) rather than truncate it."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def _norm1(A):
    """1-norm of each matrix of the stack ``A``: its largest column sum of
    |A|."""
    with np.errstate(over="ignore"):  # an inverse past ~1e308 gives inf
        return np.abs(A).sum(axis=-2).max(axis=-1)


def _inverses(A):
    """Inverses of the stack ``A`` and the mask of its exactly singular
    matrices, whose inverses are left as the identity.

    numpy's batched inverse refuses the whole stack for one singular
    matrix; only then are the matrices inverted one at a time.
    """
    singular = np.zeros(A.shape[:-2], dtype=bool)
    try:
        return np.linalg.inv(A), singular
    except np.linalg.LinAlgError:
        pass
    inv = np.empty_like(A)
    for i in np.ndindex(singular.shape):
        try:
            inv[i] = np.linalg.inv(A[i])
        except np.linalg.LinAlgError:
            inv[i] = np.eye(A.shape[-1])
            singular[i] = True
    return inv, singular


@dataclass
class ModeSolution:
    """Solved coefficients of one mode of a layered-disk problem."""

    config: LayeredDiskConfig
    omega: float
    n: int
    fields: list  # ModeField per region, outside-in
    condition: float  # 1-norm condition of the equilibrated mode system

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
    radii, media, na = config.radii, config.media, config.n_annuli
    out = [_Region(media[i], BASIS_FULL, slice(4 * i, 4 * i + 4), radii[i + 1], radii[i])
           for i in range(na)]
    if config.inner == "core":
        out.append(_Region(media[-1], BASIS_REGULAR, slice(4 * na, 4 * na + 2), 0.0, radii[-1]))
    return out


class _BasisTable(NamedTuple):
    """The basis, FULL kinds, of distinct (medium, radius) points at the
    ``orders`` of one solve: ``values`` (P, M, 4, 4) holds point ``p`` in
    row ``rows[p]``."""

    rows: dict
    orders: np.ndarray
    values: np.ndarray

    def gather(self, points):
        """The rows of the list ``points``, (len(points), M, 4, 4), in a
        new array."""
        return self.values[[self.rows[p] for p in points]]


def _basis_table(points, omega, orders):
    """:class:`_BasisTable` of every distinct point of ``points`` at
    ``orders``, from one ``basis_matrix`` call. It holds the H columns of
    every point; a core reads only the J columns of its point."""
    rows = {}
    for p in points:
        rows.setdefault(p, len(rows))
    media, radii = zip(*rows)
    return _BasisTable(rows, np.asarray(orders),
                       basis_matrix(list(media), orders, np.array(radii), omega, BASIS_FULL))


def _interface_points(config):
    """The (medium, radius) points of the interface systems of ``config``:
    each region's outer radius, then, unless it is a core, its inner one."""
    return [(g.medium, r) for g in _regions(config) for r in (g.r_out, g.r_in) if r > 0]


# the columns of BASIS_REGULAR among those of BASIS_FULL
_REGULAR = [BASIS_FULL.index(kind) for kind in BASIS_REGULAR]


def _interface_system(config, table):
    """Interface systems of ``config`` at the orders of ``table``: A
    (M, m, m) and the outer basis B0 (M, 4, w) whose w columns are the
    outer region's, gathered from ``table``.

    Rows: 2 outer-traction rows, then 4 continuity rows per interior
    interface (2 traction-free rows at a cavity boundary).
    """
    layout = _regions(config)
    nun = layout[-1].cols.stop
    A = np.zeros((len(table.orders), nun, nun), dtype=complex)
    # the basis at every interface point, (M, 4, 4) each: annulus i at its
    # outer radius is point 2i and at its inner one 2i + 1, so the last
    # point is a core's outer or a cavity's inner radius
    B = list(table.gather(_interface_points(config)))
    if layout[-1].kinds == BASIS_REGULAR:
        B[-1] = B[-1][..., _REGULAR]
    A[:, 0:2, layout[0].cols] = B[0][:, 2:4, :]
    row = 2
    for i in range(len(layout) - 1):
        A[:, row:row + 4, layout[i].cols] = B[2 * i + 1]
        A[:, row:row + 4, layout[i + 1].cols] = -B[2 * i + 2]
        row += 4
    if config.inner == "cavity":  # traction-free inner boundary
        A[:, row:row + 2, layout[-1].cols] = B[-1][:, 2:4, :]
        row += 2
    assert row == nun
    return A, B[0]


def _mode_error(orders, conds, n_ok, cond_limit):
    """The error of one config's mode systems, or None: a
    :class:`NearResonanceError` for the lowest order whose condition
    ``conds`` exceeds ``cond_limit`` or is inf (an exactly singular system)
    among the first ``n_ok`` (representable) ones, else a
    :class:`ModeOverflowError` for the first order that is not
    representable."""
    c = conds[:n_ok]
    over = np.flatnonzero((c > cond_limit) | (c == np.inf))
    if over.size:
        n = int(orders[over[0]])
        if c[over[0]] == np.inf:
            return _singular_error(n)
        cond = float(c[over[0]])
        return NearResonanceError(
            f"mode {n} system condition {cond:.3e} exceeds {cond_limit:.1e}",
            mode=n,
            condition=cond,
        )
    if n_ok < len(orders):
        return _overflow_error(int(orders[n_ok]))
    return None


def _singular_error(n):
    return NearResonanceError(f"mode {n} system is singular", mode=n, condition=np.inf)


def _overflow_error(n):
    return ModeOverflowError(
        f"mode {n} system is not representable: a Bessel or Hankel value "
        "overflowed, or a basis column underflowed to zero",
        mode=n,
    )


def _representable(B0, col):
    """Per mode system: True unless its outer basis ``B0`` or its column
    scales ``col`` (the largest magnitude of each column) hold a
    non-finite value, or a column is all zero."""
    return (np.isfinite(B0).all(axis=(-2, -1)) & np.isfinite(col).all(axis=-1)
            & (col > 0).all(axis=-1))


def _solve_modes(config, table, cond_limit=np.inf):
    """Solutions of the interface systems of ``config`` at the orders of
    ``table`` for unit s_rr and s_rt tractions, and the systems'
    conditions, from one batched inverse.

    Returns ``(sol, B0, conds)``: the solution coefficients (M, m, 2), the
    outer basis and the 1-norm condition ``||As||_1 ||As^-1||_1`` of each
    two-sided equilibrated system ``As = diag(1/rw) A diag(1/col)``. Raises
    the error ``_mode_error`` names.
    """
    orders = table.orders
    A, B0 = _interface_system(config, table)
    # two-sided equilibration: columns span J ~ 1e-40 .. H ~ 1e+40 at high
    # modes and small radii; raw solves would be hopeless. A mode whose
    # system holds an overflowed entry, or a basis column that underflowed
    # to zero, has no double-precision solution: the stack is cut before
    # the first such mode, which never reaches LAPACK.
    col = np.abs(A).max(axis=-2)
    usable = _representable(B0, col)
    n_ok = len(orders) if usable.all() else int(usable.argmin())
    As, col = A[:n_ok], col[:n_ok]  # equilibrated in place
    As /= col[..., None, :]
    rw = np.abs(As).max(axis=-1)
    rw[rw == 0] = 1.0
    As /= rw[..., None]
    norm = _norm1(As)
    inv, singular = _inverses(As)
    del A, As  # not kept alive beside its inverse
    conds = norm * _norm1(inv)
    conds[singular] = np.inf
    error = _mode_error(orders, conds, n_ok, cond_limit)
    if error is not None:
        try:
            raise error
        finally:
            # the error's traceback holds this frame: a local naming the
            # error would keep the frame's arrays alive until a GC pass
            del error
    # A x = e_j is As (col x) = e_j / rw: x = inv[:, j] / (rw_j col)
    sol = inv[..., :, 0:2] / rw[..., None, 0:2]
    sol /= col[..., None]
    return sol, B0, conds


def mode_system_condition(config, omega, n):
    """1-norm condition ||A||_1 ||A^-1||_1 of the equilibrated mode-n
    interface system A, where ||A||_1 is the largest column sum of |A|."""
    _, _, conds = _solve_modes(config, _basis_table(_interface_points(config), omega, [n]))
    return float(conds[0])


def solve_mode(config, omega, n, traction):
    """Solve one mode for given traction coefficients (s_rr, s_rt).

    Returns a :class:`ModeSolution` carrying per-region fields. A traction
    that is not a finite pair is refused with ``ValueError`` naming ``n``.
    """
    tr = _traction(n, traction)
    sol, _, conds = _solve_modes(config, _basis_table(_interface_points(config), omega, [n]))
    coeffs = sol[0] @ tr
    fields = [ModeField(g.medium, omega, n, tuple(
        (kind, pol, c) for (kind, pol), c in zip(g.kinds, coeffs[g.cols])))
        for g in _regions(config)]
    return ModeSolution(config, omega, n, fields, float(conds[0]))


def _layouts(configs):
    """The indices of ``configs`` grouped by layout: a layout (the inner
    boundary and the number of radii) fixes the regions and unknowns."""
    groups = {}
    for i, config in enumerate(configs):
        groups.setdefault((config.inner, len(config.radii)), []).append(i)
    return groups.values()


# the columns of BASIS_FULL in the order J P, J S, H P, H S
_JH = [BASIS_FULL.index(kind) for kind in (("J", "P"), ("J", "S"), ("H", "P"), ("H", "S"))]


def _pow2_neg(e):
    """2**-e for frexp exponents e, capped at 2**1023: a subnormal
    magnitude is scaled short of 1/2, not to inf."""
    return np.ldexp(1.0, np.minimum(-e, 1023))


def _mul(a, b):
    """Products a b of stacks of 2x2 matrices held entries first, as
    arrays of shape (2, 2, ...)."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _inv(a, col):
    """Inverses of the 2x2 stack ``a`` (entries first) and their 1-norm
    conditions after equilibration by ``col`` (2, ...): each column of
    ``a`` is scaled exactly by the power of two that takes its entry of
    ``col``, the largest |entry| of the whole field column (displacement
    and traction rows) it belongs to, into [1/2, 1). So no determinant
    overflows, and a column whose traction rows nearly vanish against its
    displacement rows (a traction resonance) reads as ill conditioned. A
    singular matrix has condition inf, a non-finite one NaN."""
    c = _pow2_neg(np.frexp(col)[1])
    s = a * c
    m = np.abs(s)
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    # ||s^-1||_1 = ||adj s||_1 / |det| is the largest row sum of |s| over |det|
    cs, rs = m[0] + m[1], m[:, 0] + m[:, 1]
    cond = np.maximum(cs[0], cs[1]) * np.maximum(rs[0], rs[1]) / np.abs(det)
    # a^-1 = C s^-1 = C (adj s) / det, C the column scaling
    inv = np.empty_like(s)
    inv[0, 0], inv[1, 1] = s[1, 1], s[0, 0]
    np.negative(s[0, 1], out=inv[0, 1])
    np.negative(s[1, 0], out=inv[1, 0])
    inv *= c[:, None] * (1.0 / det)
    return inv, cond


def _col_max(*blocks):
    """The largest |entry| of each column over the 2x2 stacks ``blocks``
    (entries first), (2, ...)."""
    m = [np.abs(b) for b in blocks]
    return functools.reduce(np.maximum, [x for b in m for x in (b[0], b[1])])


def _free_disk_differences(configs, omega, n_max):
    """:func:`free_disk_ntd` of the free disk, the outer region that the
    configs ``configs`` share (``media[0]`` filling ``radii[0]``), or its
    :class:`ModeOverflowError`, and for each config its blocks
    Lambda - Lambda_free, (n_max + 1, 2, 2), or its typed error; one basis
    table holds every point. Configs whose outer regions differ, and a
    config with no outer annulus, are refused with a ``ValueError``.

    Each config is walked inward-out through its interfaces with 2x2
    T-matrices per mode (Chew, *Waves and Fields in Inhomogeneous Media*,
    1990, ch. 3), the configs of one layout and all modes at once. U and S
    are the displacement and traction rows of a region's basis at a
    radius, J and H its regular and outgoing columns. A core starts the
    inner stack's NtD M = U_J S_J^-1; a cavity starts T = -S_H^-1 S_J. An
    annulus over M has T = -(U_H - M S_H)^-1 (U_J - M S_J) at its inner
    radius (the annulus's field, J a + H T a, meets the stack there), and
    M = (U_J + U_H T)(S_J + S_H T)^-1 at its outer one. The outer
    annulus's T gives, at the outer radius,

        Lambda - Lambda_free = (U_H - Lambda_free S_H) T (S_J + S_H T)^-1,

    since U_J - Lambda_free S_J = 0: no two maps that agree to O(h^2) are
    subtracted.

    A config's error is a :class:`ModeOverflowError` for the first mode
    at which one of its basis columns holds a non-finite value or is zero
    over its region's points (the free disk's J columns are the outer
    annulus's at the outer radius), else a :class:`NearResonanceError` for
    the lowest mode at which a 2x2 system the walk inverts (the free
    disk's S_J at the outer radius among them) is singular or has a
    1-norm condition above 1e14, its columns equilibrated by the field
    columns they belong to (see :func:`_inv`).
    """
    _check_count(n_max, "n_max")
    for i, config in enumerate(configs):
        if not config.n_annuli:
            raise ValueError(f"config {i} has no outer annulus to walk from the free disk")
    point = (configs[0].media[0], configs[0].outer_radius)
    if any((config.media[0], config.outer_radius) != point for config in configs):
        raise ValueError("the configs must share their outer region, the free disk")
    points = [_interface_points(config) for config in configs]
    table = _basis_table([p for ps in points for p in ps], omega, np.arange(n_max + 1))
    try:
        ref = _disk_ntd(table.gather([point])[0][..., _REGULAR], point[1], omega)
    except ModeOverflowError as exc:
        ref = exc
    # V[U/S, J/H, i, j, row, m]: the (U or S, J or H) block of every point,
    # so that a gather over points leaves each block contiguous
    V = table.values[..., _JH]
    V = np.ascontiguousarray(V.reshape(V.shape[:2] + (2, 2, 2, 2)).transpose(2, 4, 3, 5, 0, 1))
    # mag[J/H, j, row, m]: the largest |entry| of each column at each point,
    # NaN where an entry is
    m = np.abs(V)
    mag = np.maximum(np.maximum(m[0, :, 0], m[0, :, 1]), np.maximum(m[1, :, 0], m[1, :, 1]))
    out = [None] * len(configs)
    for idx in _layouts(configs):
        # point p of config c is row rows[p, c]: annulus k at its outer
        # radius is point 2k, at its inner one 2k + 1, and a core's point
        # is the last
        rows = np.array([[table.rows[p] for p in points[i]] for i in idx]).T
        diffs = _walk(configs[idx[0]], [V[..., r, :] for r in rows],
                      [mag[..., r, :] for r in rows], table.orders)
        for i, diff in zip(idx, diffs):
            out[i] = diff
    return ref, out


def _walk(config, X, mag, orders):
    """The blocks Lambda - Lambda_free, or the errors, as
    :func:`_free_disk_differences` gives them, of the configs of the
    layout of ``config``. Per interface point, ``X`` holds their basis
    (U/S, J/H, 2, 2, C, M) and ``mag`` the largest |entry| of each column
    (J/H, 2, C, M)."""
    na = config.n_annuli
    usable = True
    for k, g in enumerate(_regions(config)):
        col = np.maximum(mag[2 * k], mag[2 * k + 1]) if g.kinds == BASIS_FULL else mag[-1][0]
        usable = usable & (np.isfinite(col) & (col > 0)).all(axis=tuple(range(col.ndim - 2)))
    n_ok = np.where(usable.all(axis=1), len(orders), usable.argmin(axis=1))

    def blocks(p):
        """U_J, U_H, S_J, S_H at point p, (2, 2, C, M) each."""
        return X[p][0, 0], X[p][0, 1], X[p][1, 0], X[p][1, 1]

    conds = []

    def inv(a, col):
        a_inv, cond = _inv(a, col)
        conds.append(cond)
        return a_inv

    # an unusable mode stays in the stack; its NaN or inf touches only itself
    with np.errstate(all="ignore"):
        M = None
        if config.inner == "core":
            UJ, _, SJ, _ = blocks(2 * na)
            M = _mul(UJ, inv(SJ, mag[-1][0]))
        for k in reversed(range(na)):
            UJ, UH, SJ, SH = blocks(2 * k + 1)
            col = mag[2 * k + 1][1]  # the H columns at the annulus's inner radius
            T = (-_mul(inv(SH, col), SJ) if M is None
                 else -_mul(inv(UH - _mul(M, SH), col), UJ - _mul(M, SJ)))
            UJ, UH, SJ, SH = blocks(2 * k)
            U, S = UJ + _mul(UH, T), SJ + _mul(SH, T)  # the annulus's field at its outer radius
            Q = inv(S, _col_max(U, S))
            if k:
                M = _mul(U, Q)
        free = _mul(UJ, inv(SJ, mag[0][0]))  # the free disk's NtD, from the outer point
        diff = _mul(_mul(UH - _mul(free, SH), T), Q)
    cond = np.maximum.reduce(conds)
    cond[np.isnan(cond) | ~np.isfinite(diff).all(axis=(0, 1))] = np.inf
    diff = np.moveaxis(diff, (0, 1), (-2, -1))
    errors = [_mode_error(orders, c, n, _COND_LIMIT) for c, n in zip(cond, n_ok)]
    return [d if e is None else e for d, e in zip(diff, errors)]


def assemble_ntd(config, omega, n_max, cond_limit=_COND_LIMIT):
    """NtD operator of a layered disk for modes 0..n_max.

    The basis at every distinct (medium, radius) point of the config's
    interfaces comes from one ``basis_matrix`` call; the mode systems are
    assembled from it, equilibrated and inverted in one batched pass.

    Raises :class:`NearResonanceError` for the lowest mode whose system's
    1-norm condition exceeds ``cond_limit`` (``cond_limit=np.inf`` keeps
    the blocks for inspecting ``conditions`` instead) or that is exactly
    singular, else :class:`ModeOverflowError` for the first mode whose
    system is not representable; the modes from that one on are not
    solved.
    """
    _check_count(n_max, "n_max")
    table = _basis_table(_interface_points(config), omega, np.arange(n_max + 1))
    sol, B0, conds = _solve_modes(config, table, cond_limit)
    w = B0.shape[-1]
    return NtDOperator(omega=omega, n_max=int(n_max), radius=config.outer_radius,
                       blocks=B0[:, 0:2, :] @ sol[:, :w, :], conditions=conds)


def _weighted_smax(diff):
    """sqrt(1+n^2) * smax(D_n) of block differences ``diff`` of shape
    (..., n_max + 1, 2, 2), stacked over any leading axes.

    smax(D)^2 is the largest eigenvalue of D^H D = [[p, r], [conj(r), q]],
    (p + q)/2 + hypot((p - q)/2, |r|), a sum of two non-negative terms.
    Each block is first scaled exactly, by a power of two, to a largest
    |entry| in [1/2, 1), so nothing overflows or underflows; a zero block
    gives 0.
    """
    n = np.arange(diff.shape[-3])
    _, e = np.frexp(np.abs(diff).max(axis=(-2, -1)))
    k = -e[..., None, None]
    d = np.ldexp(diff.real, k) + 1j * np.ldexp(diff.imag, k)
    a = d.real**2 + d.imag**2
    p = a[..., 0, 0] + a[..., 1, 0]
    q = a[..., 0, 1] + a[..., 1, 1]
    r = np.abs(d[..., 0, 0].conj() * d[..., 0, 1] + d[..., 1, 0].conj() * d[..., 1, 1])
    smax = np.ldexp(np.sqrt(0.5 * (p + q) + np.hypot(0.5 * (p - q), r)), e)
    return np.sqrt(1.0 + n * n) * smax


def ntd_distance(A, B):
    """Sobolev-weighted distance max_n sqrt(1+n^2) * smax(A_n - B_n).

    Surrogate for the H^{-1/2} -> H^{1/2} operator norm of the
    difference.
    """
    for name in ("n_max", "omega", "radius"):
        if getattr(A, name) != getattr(B, name):
            raise ValueError(f"operators must share {name}")
    return float(_weighted_smax(A.blocks - B.blocks).max())


# Each lossy region of a damping balance starts on _GAUSS_START Gauss-Legendre
# nodes, which resolve a near-cloak's lossy annulus [h/2, h] (scaled by h,
# its integrand does not depend on h), and doubles them up to _GAUSS_CAP
# while a Legendre coefficient of its integrand in the top quarter of the
# degrees exceeds _GAUSS_TAIL a_0.
_GAUSS_START, _GAUSS_CAP, _GAUSS_TAIL = 24, 768, 2.0**-26


@functools.cache
def _gauss_rule(n):
    """Read-only ``n``-point Gauss-Legendre nodes ``x`` and weights ``w``
    on [-1, 1], and the ``tail`` rows (k + 1/2) w_j P_k(x_j) of the
    weighted Legendre-Vandermonde matrix for the top quarter of the
    degrees, k = n - n // 4 .. n - 1: ``tail @ f`` are those Legendre
    coefficients a_k of the degree n - 1 interpolant of f at the nodes.

    The nodes are ``leggauss``'s. The weights 2 / ((1 - x^2) P_n'(x)^2)
    take P_{n-1} and P_n from the three-term recurrence; ``leggauss``'s
    own weights are off by up to ~1e-14 relative near the ends at n = 48
    (~1e-13 at n = 768), which an integrand weighted to one end reads.
    """
    x, _ = leggauss(n)
    P = legvander(x, n)  # P_0 .. P_n at the nodes
    w = 2.0 * (1.0 - x * x) / (n * (P[:, n - 1] - x * P[:, n])) ** 2
    k = np.arange(n - n // 4, n)
    tail = (k[:, None] + 0.5) * P[:, k].T * w
    for a in (x, w, tail):
        a.flags.writeable = False
    return x, w, tail


def _gauss_nodes(g, x):
    """The Gauss-Legendre nodes ``x`` on [-1, 1] mapped to the radii of
    region ``g``."""
    return 0.5 * (g.r_out + g.r_in) + 0.5 * (g.r_out - g.r_in) * x


def energy_identity_check(config, omega, tractions):
    """Damping-balance residual for a layered disk.

    Checks that the absorbed power equals the boundary flux deficit:

        omega^2 * sum_regions Im(rho) Int |u|^2
            = -Im Int_boundary psi . conj(u - u0),

    with ``u0`` the response of the uniform disk made of the outermost
    medium. ``tractions`` maps mode index to (s_rr, s_rt) coefficients;
    all modes are solved in one batch.

    Each lossy region's integral Int r sum_n fac_n |u_n(r)|^2 dr is taken
    by Gauss-Legendre quadrature on 24 nodes, doubled until every Legendre
    coefficient a_k of the integrand in the top quarter of the degrees is
    at most 2^-26 a_0 (under the geometric decay these integrands show,
    the quadrature error is then below 2^-52 of the integral). A region
    whose integrand is not finite, or is not resolved at 768 nodes, is
    refused with ``RuntimeError`` naming it.

    Returns
    -------
    (residual, lhs, rhs)
        ``residual`` is relative to the larger magnitude side or, when lhs
        is exactly 0 (no lossy region; rhs is then rounding noise), to the
        boundary flux R sum_n Int |psi| (|u| + |u0|).

    Only Im(rho) enters the absorbed power, so a region with complex lam
    or mu is refused with ``ValueError``, as is an omega that is not
    positive and finite, with or without tractions.
    """
    if not 0 < omega < np.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    regions = _regions(config)
    for i, g in enumerate(regions):
        if complex(g.medium.lam).imag or complex(g.medium.mu).imag:
            raise ValueError(
                f"region {i} (r in [{g.r_in}, {g.r_out}]) has complex lam or mu; "
                "energy_identity_check counts only Im(rho) as dissipation"
            )
    if not tractions:
        return 0.0, 0.0, 0.0
    R = config.outer_radius
    orders, tr = _mode_tractions(tractions)  # orders checked, uncast, by basis_matrix
    fac = np.where(orders == 0, 2.0 * np.pi, np.pi)  # Int cos^2(n th) or sin^2(n th)
    lossy = [(i, g, _gauss_nodes(g, _gauss_rule(_GAUSS_START)[0]))
             for i, g in enumerate(regions) if complex(g.medium.rho).imag != 0.0]
    # the first rule of every lossy region shares the table of the solve
    table = _basis_table(_interface_points(config) + [(g.medium, r) for _, g, rr in lossy
                                                      for r in rr], omega, orders)
    sol, B0, _ = _solve_modes(config, table)
    coeffs = sol @ tr[:, :, None]  # (M, m, 1)
    lhs = 0.0
    for i, g, rr in lossy:
        # the region's basis at its nodes, (M, N, 4, w), made contiguous:
        # numpy's matmul takes another path on a strided stack, and rounds
        # differently there
        B = np.moveaxis(table.gather([(g.medium, r) for r in rr]), 0, 1)
        B = np.ascontiguousarray(B if g.kinds == BASIS_FULL else B[..., _REGULAR])
        n = _GAUSS_START
        while True:
            _, w, tail = _gauss_rule(n)
            # (M, N, 2): u_r and u_th of every mode at every node
            u = (B[..., 0:2, :] @ coeffs[:, None, g.cols])[..., 0]
            f = rr * (fac @ (np.abs(u) ** 2).sum(axis=-1))
            if not np.isfinite(f).all():
                raise RuntimeError(f"region {i} (r in [{g.r_in}, {g.r_out}]): "
                                   "damping-balance integrand is not finite")
            a0, a_tail = 0.5 * float(w @ f), float(np.abs(tail @ f).max())
            if a_tail <= _GAUSS_TAIL * a0:
                break
            if n >= _GAUSS_CAP:
                raise RuntimeError(
                    f"region {i} (r in [{g.r_in}, {g.r_out}]): damping-balance integrand "
                    f"not resolved by {n} Gauss-Legendre nodes (Legendre tail {a_tail:.2e} "
                    f"against a_0 {a0:.2e})")
            n *= 2
            rr = _gauss_nodes(g, _gauss_rule(n)[0])
            B = basis_matrix(g.medium, orders, rr, omega, g.kinds)
        # Int f over the region: half its width times sum_j w_j f_j = 2 a_0
        lhs += omega**2 * complex(g.medium.rho).imag * (g.r_out - g.r_in) * a0
    w0 = B0.shape[-1]
    u = (B0[:, 0:2, :] @ coeffs[:, :w0])[..., 0]
    # the uniform disk of the outermost medium has the J columns of B0
    Bj = B0[..., [k for k, (kind, _) in enumerate(regions[0].kinds) if kind == "J"]]
    u0 = (Bj[:, 0:2] @ _traction_solve(Bj, orders, np.eye(2)[None]) @ tr[:, :, None])[..., 0]
    rhs = float(-R * fac @ np.imag(tr * np.conj(u - u0)).sum(axis=1))
    scale = (float(R * fac @ (np.abs(tr) * (np.abs(u) + np.abs(u0))).sum(axis=1))
             if lhs == 0.0 else max(abs(lhs), abs(rhs)))
    return abs(lhs - rhs) / max(scale, 1e-300), lhs, rhs


# ---------------------------------------------------------------------------
# exterior cavity radiation problem


@dataclass
class ExteriorCavitySolution:
    """Outgoing solution of the traction-driven exterior cavity problem.

    Built per mode from Hankel radial functions only, so the radiation
    condition holds by construction; well posed for every frequency.
    """

    cavity_radius: float
    omega: float
    medium: IsotropicMedium
    orders: np.ndarray  # (M,) int
    coeffs: np.ndarray  # (M, 2) complex: the outgoing P and S coefficients per order

    def boundary_norm(self, radius):
        """L2 norm of the trace on the circle of given radius, which must be
        finite and at least ``cavity_radius``: the solution lives outside
        the cavity."""
        if not self.cavity_radius <= radius < np.inf:
            raise ValueError(f"radius must be finite and >= the cavity radius "
                             f"{self.cavity_radius}, got {radius!r}")
        if not self.orders.size:
            return 0.0
        B = basis_matrix(self.medium, self.orders, radius, self.omega, BASIS_OUTGOING)
        u = np.einsum("mic,mc->mi", B[:, 0:2], self.coeffs)
        fac = np.where(self.orders == 0, 2.0 * np.pi, np.pi)
        return float(np.sqrt(np.sum(fac * radius * np.sum(np.abs(u) ** 2, axis=-1))))


def solve_exterior_cavity(cavity_radius, tractions, omega, medium):
    """Solve the exterior problem with prescribed traction on r = h.

    Parameters
    ----------
    tractions : dict
        Mode index -> (s_rr, s_rt) coefficients on the cavity boundary;
        fixed coefficients model the rescaled traction family whose
        far-boundary trace shrinks like h^(N-1) = h in 2D.

    Raises :class:`ModeOverflowError` for the lowest mode whose system is
    not representable in double precision.
    """
    if not 0 < cavity_radius < np.inf:
        raise ValueError(f"cavity radius must be positive and finite, got {cavity_radius!r}")
    if not 0 < omega < np.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    orders, tr = _mode_tractions(tractions)
    coeffs = np.zeros((0, 2), dtype=complex)
    if tractions:  # basis_matrix needs an order
        x = _traction_solve(basis_matrix(medium, orders, cavity_radius, omega, BASIS_OUTGOING),
                            orders, tr[..., None])
        coeffs = x[..., 0]
    return ExteriorCavitySolution(float(cavity_radius), float(omega), medium,
                                  orders.astype(int), coeffs)


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
    c: np.ndarray  # nontrivial coefficient pair, unit norm, Re c1 >= 0
    det_residual: float


def _bracket_roots(fun, lo, hi, steps):
    """Roots of ``fun`` at the sign changes of its values on ``steps``
    equispaced points of [lo, hi], in increasing order.

    ``fun`` maps an array of points to an array of values. All brackets
    are bisected together until each midpoint equals an endpoint, i.e. to
    adjacent doubles; the endpoint of smaller |fun| is returned.
    """
    ts = np.linspace(lo, hi, steps)
    vals = fun(ts)
    fa, fb = vals[:-1], vals[1:]
    keep = np.isfinite(fa) & np.isfinite(fb) & (np.sign(fa) != np.sign(fb))
    a, b, fa, fb = ts[:-1][keep], ts[1:][keep], fa[keep], fb[keep]
    while True:
        m = 0.5 * (a + b)
        if not ((m != a) & (m != b)).any():
            break
        fm = fun(m)
        right = np.sign(fm) == np.sign(fa)  # the sign change is in [m, b]
        a, fa = np.where(right, m, a), np.where(right, fm, fa)
        b, fb = np.where(right, b, m), np.where(right, fb, fm)
    return np.where(np.abs(fa) <= np.abs(fb), a, b)


# the resonance roots t = k r are bracketed on 1600 points of (0.05, _T_MAX]
_T_MAX = 40.0


def _j0_derivatives(t):
    """J0, J0' and J0'' at real points t (an array), from one ``jv`` call
    on the complex Amos routine.

    J0' = -J1 and J0'' = (J2 - 2 J0 + J2) / 4, the order -2 term of the
    second-derivative recurrence being J2.
    """
    t = np.asarray(t, dtype=float)
    J0, J1, J2 = _special().jv(np.arange(3).reshape((3,) + (1,) * t.ndim),
                               t.astype(complex)).real
    return J0, -J1, 0.25 * (J2 - 2.0 * J0 + J2)


def find_resonant_densities(lam, mu, r0, r1, omega):
    """Densities (rho1, rho2) making the two-layer disk resonate.

    Construction: radially symmetric compressional fields
    ``u_j = c_j grad J_0(k_j r)``. The outer density makes the traction
    vanish on r = r1 (root of ``2 mu J0'' - lam J0``); the core density
    is chosen so the displacement/normal-derivative transmission system
    at r = r0 becomes singular, yielding a nontrivial (c1, c2). Both roots
    are sought in the fixed window (0.05, 40]; a :class:`SearchWindowError`
    says when one is not there.
    """
    if not 0 < omega < np.inf:
        raise ValueError(f"omega must be positive and finite, got omega={omega}")
    if not 0 < r0 < r1 < np.inf:
        raise ValueError(f"need 0 < r0 < r1 < inf, got r0={r0}, r1={r1}")
    if not (np.isfinite(lam) and np.isfinite(mu)):
        raise ValueError(f"lam and mu must be finite, got lam={lam}, mu={mu}")

    def f(t):
        J0, _, J0pp = _j0_derivatives(t)
        return 2.0 * mu * J0pp - lam * J0

    f_roots = _bracket_roots(f, 0.05, _T_MAX, 1600)
    if not f_roots.size:
        raise SearchWindowError(f"no root of the outer traction condition in (0.05, {_T_MAX:g}]")
    t_star = float(f_roots[0])
    t1 = t_star * r0 / r1
    _, J0p1, J0pp1 = _j0_derivatives(t1)

    def det(t2):
        _, J0p2, J0pp2 = _j0_derivatives(t2)
        return t1 * J0p1 * t2**2 * J0pp2 - t2 * J0p2 * t1**2 * J0pp1

    # where J0''(t1) = 0, det(t2) reduces to t1 J0'(t1) t2^2 J0''(t2):
    # J0'(t1) cannot vanish too, since Bessel's equation would then give
    # J0(t1) = 0, and J0, J0' have no common zero
    cands = _bracket_roots(det, 0.05, _T_MAX, 1600)
    cands = cands[(np.abs(cands - t1) > 1e-6) & (cands > 0.2)]
    if not cands.size:
        raise SearchWindowError(
            f"no transmission-matching root distinct from t1={t1:.6g} in (0.05, {_T_MAX:g}]")
    t2 = float(cands[0])
    _, J0p2, J0pp2 = _j0_derivatives(t2)

    kp1 = t_star / r1
    kp2 = t2 / r0
    rho1 = (lam + 2 * mu) * (kp1 / omega) ** 2
    rho2 = (lam + 2 * mu) * (kp2 / omega) ** 2

    M = np.array(
        [
            [t1 * J0p1, -t2 * J0p2],
            [t1**2 * J0pp1, -(t2**2) * J0pp2],
        ]
    )
    _, s, Vh = np.linalg.svd(M)
    c = Vh[-1].conj()
    # M is singular to rounding, so the sign of its null vector follows
    # the side of the root t2 lies on; fix it
    if c[0].real < 0:
        c = -c
    det_residual = float(s[-1] / s[0])
    return ResonanceResult(
        rho1=float(rho1),
        rho2=float(rho2),
        t_star=t_star,
        t1=float(t1),
        t2=t2,
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
