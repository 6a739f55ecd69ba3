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
``assemble_ntds`` shares it across every config and layout of the call
(the lining cavities reuse the near-cloaks' background points), the
convergence sweep's free-disk reference reads its row of the devices'
table, and ``energy_identity_check`` adds the first 24 Gauss-Legendre
nodes of each lossy region; a region whose integrand those do not resolve
takes one more call per doubling of its rule.
The systems of every mode, and of every config of one layout, are
gathered from that table into one array and inverted in one batched LU
pass, which gives both the solutions and the conditions.

The uniform disk's NtD map and the traction-driven exterior cavity are
one-region problems on one circle: both go through ``_traction_solve``.

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
    "free_disk_block",
    "free_disk_ntd",
    "assemble_ntd",
    "assemble_ntds",
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

    def annulus(self, i):
        """(medium, r_outer, r_inner) for annular region i (outside-in)."""
        return self.media[i], self.radii[i], self.radii[i + 1]

    @property
    def core_medium(self):
        if self.inner != "core":
            raise ValueError("config has a cavity, not a core")
        return self.media[-1]


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


def free_disk_block(medium, n, radius, omega):
    """Closed-form NtD block of a uniform disk: U S^{-1} in the J basis
    (stacked over orders for an array ``n``).

    This is the solver's ground-truth anchor; multi-layer assemblies with
    identical media must reduce to it exactly.
    """
    return _disk_blocks(basis_matrix(medium, n, radius, omega, BASIS_REGULAR))


def _disk_blocks(B):
    """U S^{-1} of regular basis columns ``B`` of shape (..., 4, 2)."""
    return B[..., 0:2, :] @ np.linalg.inv(B[..., 2:4, :])


def free_disk_ntd(medium, radius, omega, n_max):
    """NtD map of a uniform disk, modes 0..n_max, with the 1-norm
    condition of each traction system S; a :class:`ModeOverflowError` for
    the first mode whose system is not representable, else a
    :class:`NearResonanceError` for the first exactly singular one."""
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


def _mode_tractions(tractions):
    """Orders (M,), uncast, and (s_rr, s_rt) rows (M, 2) of a dict mode ->
    traction. A bool key is refused here: beside integer keys numpy casts
    it to 0 or 1 before ``basis_matrix`` checks the orders. A NaN or
    infinite traction is refused with its mode."""
    for n in tractions:
        if isinstance(n, (bool, np.bool_)):
            raise ValueError(f"order must be >= 0 and an integer, got {n}")
    tr = np.array(list(tractions.values()), dtype=complex)
    if not np.isfinite(tr).all():
        n = next(n for n, t in tractions.items() if not np.isfinite(t).all())
        raise ValueError(f"traction of mode {n} must be finite, got {tractions[n]!r}")
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
    out = []
    for i in range(config.n_annuli):
        med, r_out, r_in = config.annulus(i)
        out.append(_Region(med, BASIS_FULL, slice(4 * i, 4 * i + 4), r_in, r_out))
    if config.inner == "core":
        na = config.n_annuli
        out.append(_Region(config.core_medium, BASIS_REGULAR, slice(4 * na, 4 * na + 2),
                           0.0, config.radii[-1]))
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


def _all_interface_points(configs):
    """The :func:`_interface_points` of every config of ``configs``, in
    order."""
    return [p for config in configs for p in _interface_points(config)]


# the columns of BASIS_REGULAR among those of BASIS_FULL
_REGULAR = [BASIS_FULL.index(kind) for kind in BASIS_REGULAR]


def _interface_systems(configs, table):
    """Interface systems of ``configs`` (one layout) at the orders of
    ``table``, stacked: A (C, M, m, m) and the outer basis B0 (C, M, 4, w)
    whose w columns are the outer region's, gathered from ``table``.

    Rows: 2 outer-traction rows, then 4 continuity rows per interior
    interface (2 traction-free rows at a cavity boundary).
    """
    layout = _regions(configs[0])
    nun = layout[-1].cols.stop
    A = np.zeros((len(configs), len(table.orders), nun, nun), dtype=complex)
    # the basis at every interface point, (C, M, 4, 4) each: annulus i at
    # its outer radius is point 2i and at its inner one 2i + 1, so the
    # last point is a core's outer or a cavity's inner radius
    B = table.gather(_all_interface_points(configs))
    B = list(B.reshape((len(configs), -1) + B.shape[1:]).swapaxes(0, 1))
    if layout[-1].kinds == BASIS_REGULAR:
        B[-1] = B[-1][..., _REGULAR]
    A[..., 0:2, layout[0].cols] = B[0][..., 2:4, :]
    row = 2
    for i in range(len(layout) - 1):
        A[..., row:row + 4, layout[i].cols] = B[2 * i + 1]
        A[..., row:row + 4, layout[i + 1].cols] = -B[2 * i + 2]
        row += 4
    if configs[0].inner == "cavity":  # traction-free inner boundary
        A[..., row:row + 2, layout[-1].cols] = B[-1][..., 2:4, :]
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


def _solve_modes(configs, table, cond_limit=np.inf):
    """Solutions of the interface systems of ``configs`` (one layout) at
    the orders of ``table`` for unit s_rr and s_rt tractions, and the
    systems' conditions, stacked over configs and orders, from one batched
    inverse.

    Returns ``(sol, B0, conds, errors)``: the solution coefficients
    (C, M, m, 2), the outer basis, the 1-norm condition
    ``||As||_1 ||As^-1||_1`` of each two-sided equilibrated system
    ``As = diag(1/rw) A diag(1/col)`` and, per config, None or the error
    ``_mode_error`` names for it. The solutions of a config with an error
    are zero.
    """
    orders = table.orders
    A, B0 = _interface_systems(configs, table)
    # two-sided equilibration: columns span J ~ 1e-40 .. H ~ 1e+40 at high
    # modes and small radii; raw solves would be hopeless. A mode whose
    # system holds an overflowed entry, or a basis column that underflowed
    # to zero, has no double-precision solution: from a config's first such
    # mode on, its systems are replaced by the identity (and its outer basis
    # by zero) before they reach LAPACK, so they cannot touch the rest of
    # the stack.
    col = np.abs(A).max(axis=-2)
    usable = _representable(B0, col)
    n_ok = np.where(usable.all(axis=1), len(orders), usable.argmin(axis=1))
    unusable = np.arange(len(orders)) >= n_ok[:, None]
    if unusable.any():
        A[unusable] = np.eye(A.shape[-1])
        B0[unusable] = 0.0
        col[unusable] = 1.0
    As = A  # equilibrated in place: the stack is the largest array of a sweep
    As /= col[..., None, :]
    rw = np.abs(As).max(axis=-1)
    rw[rw == 0] = 1.0
    As /= rw[..., None]
    norm = _norm1(As)
    inv, singular = _inverses(As)
    del A, As  # not kept alive beside its inverse
    conds = norm * _norm1(inv)
    conds[singular] = np.inf
    errors = [_mode_error(orders, c, n, cond_limit) for c, n in zip(conds, n_ok)]
    # A x = e_j is As (col x) = e_j / rw: x = inv[:, j] / (rw_j col)
    inv[[e is not None for e in errors]] = 0.0
    sol = inv[..., :, 0:2] / rw[..., None, 0:2]
    sol /= col[..., None]
    return sol, B0, conds, errors


def _solve_config(config, table):
    """``_solve_modes`` of one config: its (sol, B0, conds); raises its
    error."""
    sol, B0, conds, (error,) = _solve_modes([config], table)
    if error is not None:
        raise error
    return sol[0], B0[0], conds[0]


def mode_system_condition(config, omega, n):
    """1-norm condition ||A||_1 ||A^-1||_1 of the equilibrated mode-n
    interface system A, where ||A||_1 is the largest column sum of |A|."""
    _, _, conds = _solve_config(config, _basis_table(_interface_points(config), omega, [n]))
    return float(conds[0])


def solve_mode(config, omega, n, traction):
    """Solve one mode for given traction coefficients (s_rr, s_rt).

    Returns a :class:`ModeSolution` carrying per-region fields.
    """
    sol, _, conds = _solve_config(config, _basis_table(_interface_points(config), omega, [n]))
    coeffs = sol[0] @ np.asarray(traction, dtype=complex)
    fields = [ModeField(g.medium, omega, n, tuple(
        (kind, pol, c) for (kind, pol), c in zip(g.kinds, coeffs[g.cols])))
        for g in _regions(config)]
    return ModeSolution(config, omega, n, fields, float(conds[0]))


def assemble_ntds(configs, omega, n_max, cond_limit=1e14):
    """NtD operators of many layered disks for modes 0..n_max.

    The basis at every distinct (medium, radius) point of the configs
    comes from one ``basis_matrix`` call. The configs of each layout (the
    same region kinds and inner boundary) are assembled from it,
    equilibrated and solved together, in one stacked pass over every
    config and mode. Returns, for each config in order, its
    :class:`NtDOperator`, or the :class:`NearResonanceError` or
    :class:`ModeOverflowError` that :func:`assemble_ntd` would raise for
    it; one config's error leaves the others untouched.
    """
    _check_count(n_max, "n_max")
    if not configs:
        return []
    return _ntds(configs, _basis_table(_all_interface_points(configs), omega,
                                       np.arange(n_max + 1)), omega, cond_limit)


def _ntds(configs, table, omega, cond_limit=1e14):
    """:func:`assemble_ntds` of ``configs`` at the orders 0..n_max of
    ``table``."""
    groups = {}  # layout -> config indices; a layout fixes the regions and unknowns
    for i, config in enumerate(configs):
        groups.setdefault((config.inner, len(config.radii)), []).append(i)
    out = [None] * len(configs)
    for idx in groups.values():
        sol, B0, conds, errors = _solve_modes([configs[i] for i in idx], table, cond_limit)
        w = B0.shape[-1]
        blocks = B0[..., 0:2, :] @ sol[..., :w, :]
        for k, i in enumerate(idx):
            out[i] = errors[k] if errors[k] is not None else NtDOperator(
                omega=omega, n_max=len(table.orders) - 1, radius=configs[i].outer_radius,
                blocks=blocks[k], conditions=conds[k])
    return out


def _ntds_and_free_disk(configs, medium, radius, omega, n_max):
    """:func:`free_disk_ntd` of ``medium`` at ``radius``, or its
    :class:`ModeOverflowError`, and :func:`assemble_ntds` of ``configs``,
    from one basis table: the disk's point is often an interface point of
    the configs already."""
    _check_count(n_max, "n_max")
    point = (medium, float(radius))
    table = _basis_table(_all_interface_points(configs) + [point], omega, np.arange(n_max + 1))
    try:
        ref = _disk_ntd(table.gather([point])[0][..., _REGULAR], radius, omega)
    except ModeOverflowError as exc:
        ref = exc
    return ref, _ntds(configs, table, omega)


def assemble_ntd(config, omega, n_max, cond_limit=1e14):
    """NtD operator of a layered disk for modes 0..n_max: the one-config
    case of :func:`assemble_ntds`.

    Raises :class:`NearResonanceError` when a mode system's 1-norm
    condition exceeds ``cond_limit`` (``cond_limit=np.inf`` keeps the
    blocks for inspecting ``conditions`` instead) or the system is exactly
    singular, and :class:`ModeOverflowError` when a mode system is not
    representable.
    """
    (op,) = assemble_ntds([config], omega, n_max, cond_limit)
    if isinstance(op, Exception):
        raise op
    return op


def per_mode_distance(A, B):
    """Array of weighted per-mode deviations sqrt(1+n^2) * smax(A_n - B_n)
    (the max of which is ``ntd_distance``); used for truncation-tail
    checks."""
    for name in ("n_max", "omega", "radius"):
        if getattr(A, name) != getattr(B, name):
            raise ValueError(f"operators must share {name}")
    return _weighted_smax(A.blocks - B.blocks)


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
    return float(per_mode_distance(A, B).max())


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
    or mu is refused with ``ValueError``.
    """
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
    sol, B0, _ = _solve_config(config, table)
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
    regular = [k for k, (kind, _) in enumerate(regions[0].kinds) if kind == "J"]
    u0 = (_disk_blocks(B0[..., regular]) @ tr[:, :, None])[..., 0]
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
        """L2 norm of the trace on the circle of given radius."""
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


def find_resonant_densities(lam, mu, r0, r1, omega, t_max=40.0):
    """Densities (rho1, rho2) making the two-layer disk resonate.

    Construction: radially symmetric compressional fields
    ``u_j = c_j grad J_0(k_j r)``. The outer density makes the traction
    vanish on r = r1 (root of ``2 mu J0'' - lam J0``); the core density
    is chosen so the displacement/normal-derivative transmission system
    at r = r0 becomes singular, yielding a nontrivial (c1, c2).
    """
    if not 0 < omega < np.inf:
        raise ValueError(f"omega must be positive and finite, got omega={omega}")
    if not 0 < r0 < r1 < np.inf:
        raise ValueError(f"need 0 < r0 < r1 < inf, got r0={r0}, r1={r1}")
    if not (np.isfinite(lam) and np.isfinite(mu)):
        raise ValueError(f"lam and mu must be finite, got lam={lam}, mu={mu}")
    if not 0 < t_max < np.inf:
        raise ValueError(f"need 0 < t_max < inf, got t_max={t_max}")

    def f(t):
        J0, _, J0pp = _j0_derivatives(t)
        return 2.0 * mu * J0pp - lam * J0

    steps = max(400, int(t_max * 40))
    f_roots = _bracket_roots(f, 0.05, t_max, steps)
    if not f_roots.size:
        raise SearchWindowError(
            f"no root of the outer traction condition in (0, {t_max}]; enlarge t_max"
        )
    t_star = float(f_roots[0])
    t1 = t_star * r0 / r1
    _, J0p1, J0pp1 = _j0_derivatives(t1)

    def det(t2):
        _, J0p2, J0pp2 = _j0_derivatives(t2)
        return t1 * J0p1 * t2**2 * J0pp2 - t2 * J0p2 * t1**2 * J0pp1

    # where J0''(t1) = 0, det(t2) reduces to t1 J0'(t1) t2^2 J0''(t2):
    # J0'(t1) cannot vanish too, since Bessel's equation would then give
    # J0(t1) = 0, and J0, J0' have no common zero
    cands = _bracket_roots(det, 0.05, t_max, steps)
    cands = cands[(np.abs(cands - t1) > 1e-6) & (cands > 0.2)]
    if not cands.size:
        raise SearchWindowError(
            f"no transmission-matching root distinct from t1={t1:.6g} in (0, {t_max}]; "
            "enlarge t_max"
        )
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
