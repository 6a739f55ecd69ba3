"""Layered-disk mode solver: reduction anchors, interface physics,
resonances, and the damping balance.

Oracles: the closed-form uniform-disk blocks (exact algebraic anchor),
Cartesian finite-difference stress evaluation of reconstructed fields,
and the normal/tangential stress decomposition identity.
"""

import gc
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import jv, jvp

from elastocloak import harness, modesolver
from elastocloak import (
    DEFAULT_CONTENTS,
    IsotropicMedium,
    LayeredDiskConfig,
    ModeOverflowError,
    NearResonanceError,
    assemble_ntd,
    build_near_cloak,
    energy_identity_check,
    lining_config,
    convergence_sweep,
    find_resonant_densities,
    free_disk_ntd,
    mode_system_condition,
    ntd_distance,
    lining_sweep,
    resonant_config,
    solve_exterior_cavity,
    solve_mode,
)
from elastocloak.modesolver import _weighted_smax
from elastocloak.wavefields import BASIS_FULL, BASIS_REGULAR, ModeField, basis_matrix, wavenumbers

BG = IsotropicMedium(1.0, 1.0, 1.0)
OMEGA = 1.0
H_SWEEP = (0.2, 0.1, 0.05, 0.025)


def fd_traction_cartesian(field, point, normal, h=1e-5, law_medium=None):
    """Stress of the reconstructed Cartesian field by central differences.

    ``law_medium`` selects the moduli of the stress law (defaults to the
    field's own medium); the field itself is left untouched.
    """
    law = law_medium if law_medium is not None else field.medium
    lam, mu = law.lam, law.mu
    point = np.asarray(point, dtype=float)
    grad = np.zeros((2, 2), dtype=complex)  # grad[i, j] = d u_i / d x_j
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        up = field.displacement_cartesian(point + e)
        um = field.displacement_cartesian(point - e)
        grad[:, j] = (up - um) / (2 * h)
    sigma = lam * np.trace(grad) * np.eye(2) + mu * (grad + grad.T)
    return sigma @ np.asarray(normal, dtype=float)


# ---------------------------------------------------------------------------
# traction and displacement coefficients of mode fields


def test_mode0_pressure_matches_radial_gradient_field():
    # u = c grad J_0(kp r) = c kp J_0'(kp r) rhat
    c = 0.8
    kp, _ = wavenumbers(BG, OMEGA)
    r = 0.9
    field = ModeField(BG, OMEGA, 0, (("J", "P", c), ("J", "S", 0.0)))
    ur, ut, srr, srt = field.boundary_values(r)
    # oracle: scipy's jv/jvp, outside the library
    assert ur == pytest.approx(c * kp * jvp(0, kp * r), rel=1e-13)
    assert ut == 0.0
    # sigma_rr equals kp^2 (2 mu J0'' - lam J0) c for the pure mode-0 field
    expected = c * kp**2 * (2 * BG.mu * jvp(0, kp * r, 2)
                            - BG.lam * jv(0, kp * r))
    assert srr == pytest.approx(expected, rel=1e-12)
    assert srt == 0.0


def test_zero_coefficients_give_zero():
    field = ModeField(BG, OMEGA, 3, tuple((kind, pol, 0.0) for kind, pol in BASIS_FULL))
    assert np.all(field.boundary_values(1.1) == 0)


def test_polar_traction_matches_cartesian_fd_oracle():
    rng = np.random.default_rng(0)
    for n in (0, 1, 3):
        coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
        field = ModeField(BG, OMEGA, n, (("J", "P", coeffs[0]), ("J", "S", coeffs[1])))
        r = 1.2
        srr, srt = field.traction_polar(r)
        # evaluate the Cartesian oracle on the positive x-axis, where
        # rhat = e_x and cos(n th) = 1, sin(n th) = 0 ... the traction
        # vector there is srr*rhat + srt*cos-part... use a generic angle
        th = 0.7
        x = r * np.array([np.cos(th), np.sin(th)])
        nrm = x / r
        T = fd_traction_cartesian(field, x, nrm)
        rhat = nrm
        that = np.array([-np.sin(th), np.cos(th)])
        expected = srr * np.cos(n * th) * rhat + srt * np.sin(n * th) * that
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(T - expected).max() <= 1e-6 * scale


def test_h_basis_at_origin_rejected():
    with pytest.raises(ValueError):
        ModeField(BG, OMEGA, 1, (("H", "P", 1.0),)).boundary_values(0.0)


@pytest.mark.parametrize("n", [-1, -3, 2.5, True, np.nan])
def test_negative_order_rejected(n):
    # a fraction, a bool or NaN is refused like a negative order, before a
    # cast to int could turn it into a valid one; in a dict beside a valid
    # integer order, a bool would be cast with it
    config = LayeredDiskConfig(radii=(2.0, 1.0), media=(BG, BG))
    for call in (lambda: ModeField(BG, OMEGA, n, (("H", "P", 1.0),)).boundary_values(1.0),
                 lambda: basis_matrix(BG, n, 2.0, OMEGA, BASIS_REGULAR),
                 lambda: solve_mode(config, OMEGA, n, (1.0, 0.0)),
                 lambda: mode_system_condition(config, OMEGA, n),
                 lambda: energy_identity_check(config, OMEGA, {n: (1.0, 0.0), 2: (1.0, 0.0)}),
                 lambda: solve_exterior_cavity(0.1, {n: (1.0, 0.0), 2: (1.0, 0.0)}, OMEGA, BG)):
        with pytest.raises(ValueError, match=f"order must be >= 0 .*got {n}$"):
            call()


@pytest.mark.parametrize("traction", [(np.nan, 0.0), (1.0, np.inf), (1.0, complex(0.0, np.nan))])
def test_non_finite_traction_rejected(traction):
    # a NaN or infinite traction gave a NaN balance, NaN coefficients and
    # NaN fields (or solve_mode's RuntimeWarning)
    config = LayeredDiskConfig(radii=(2.0, 1.0), media=(BG, BG))
    tractions = {0: (1.0, 0.0), 1: traction}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: energy_identity_check(config, OMEGA, tractions),
                     lambda: solve_exterior_cavity(0.1, tractions, OMEGA, BG),
                     lambda: solve_mode(config, OMEGA, 1, traction)):
            with pytest.raises(ValueError, match="traction of mode 1 must be finite"):
                call()


@pytest.mark.parametrize("traction", [(1.0,), (1.0, 0.0, 0.0)], ids=["one-entry", "three-entries"])
def test_traction_that_is_not_a_pair_is_refused(traction):
    # a wrong length gave numpy's gufunc error "mismatch in its core
    # dimension", or beside pairs its "inhomogeneous shape"
    config = LayeredDiskConfig(radii=(2.0, 1.0), media=(BG, BG))
    tractions = {0: (1.0, 0.0), 3: traction}
    for call in (lambda: solve_mode(config, OMEGA, 3, traction),
                 lambda: energy_identity_check(config, OMEGA, tractions),
                 lambda: solve_exterior_cavity(0.1, tractions, OMEGA, BG)):
        with pytest.raises(ValueError, match=r"traction of mode 3 must be a pair \(s_rr, s_rt\)"):
            call()


@pytest.mark.parametrize("lam, mu, rho, named", [
    (1.0, 0.0, 1.0, "mu=0.0"),
    (-2.0, 1.0, 1.0, "lam=-2.0, mu=1.0"),
    (1.0, 1.0, 0.0, "rho=0.0"),
    (np.inf, 1.0, 1.0, "lam=inf"),
    (np.nan, 1.0, 1.0, "lam=nan"),
    (1.0, np.inf, 1.0, "mu=inf"),
    (1.0, np.nan, 1.0, "mu=nan"),
    (1.0, 1.0, np.inf, "rho=inf"),
    (1.0, 1.0, np.nan, "rho=nan"),
], ids=["mu-zero", "p-modulus-zero", "rho-zero", "lam-inf", "lam-nan", "mu-inf", "mu-nan",
        "rho-inf", "rho-nan"])
def test_degenerate_or_non_finite_medium_is_refused(lam, mu, rho, named):
    # these media have no finite, nonzero wavenumbers; they used to raise a
    # bare ZeroDivisionError or a false ModeOverflowError
    medium = IsotropicMedium(lam, mu, rho)
    config = LayeredDiskConfig(radii=(2.0, 1.0), media=(BG, medium))
    for call in (lambda: free_disk_ntd(medium, 2.0, OMEGA, 4),
                 lambda: assemble_ntd(config, OMEGA, 4)):
        with pytest.raises(ValueError, match=named):
            call()


@pytest.mark.parametrize("radii", [(np.nan, 1.0), (2.0, np.nan), (np.inf, 1.0)])
def test_config_rejects_non_finite_radii(radii):
    with pytest.raises(ValueError, match="radii"):
        LayeredDiskConfig(radii=radii, media=(BG, BG))


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
def test_free_disk_ntd_rejects_bad_radius(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        free_disk_ntd(BG, radius, OMEGA, 4)


def test_free_disk_ntd_names_the_first_unrepresentable_mode():
    # the J column of mode 148 underflows to zero at omega R = 2
    medium = IsotropicMedium(1.0, 1.0, 1.0)
    assert np.isfinite(free_disk_ntd(medium, 2.0, 1.0, 147).blocks).all()
    for n_max in (148, 150, 200, 400):
        with pytest.raises(ModeOverflowError) as exc:
            free_disk_ntd(medium, 2.0, 1.0, n_max)
        assert exc.value.mode == 148
        assert "mode 148" in str(exc.value)


# ---------------------------------------------------------------------------
# assembly anchors


def test_homogeneous_reduction_matches_closed_form():
    config = LayeredDiskConfig(radii=(2.0, 0.7, 0.3), media=(BG, BG, BG), inner="core")
    for n_max in (16, 48):
        op = assemble_ntd(config, OMEGA, n_max=n_max)
        ref = free_disk_ntd(BG, 2.0, OMEGA, n_max).blocks
        for n in sorted({0, 1, 2, 7, 16, n_max}):
            assert np.abs(op.blocks[n] - ref[n]).max() < 1e-10


def _near_cloak_or_cavity(kind):
    if kind == "cavity":
        return lining_config(0.05, BG)
    return build_near_cloak(0.05, 1.0, 1.0, 1.0, 0.0, content=DEFAULT_CONTENTS[kind],
                            background=BG).virtual


@pytest.mark.parametrize("kind", ["stiff", "heavy", "cavity"])
def test_batched_ntd_matches_one_mode_solves(kind):
    # the stacked all-mode solve against the one-mode entry points
    config = _near_cloak_or_cavity(kind)
    op = assemble_ntd(config, OMEGA, 24)
    tr = np.array([0.4 - 0.2j, -0.9 + 0.5j])
    for n in (0, 1, 5, 13, 24):
        u = solve_mode(config, OMEGA, n, tr).boundary_displacement()
        assert np.abs(op.blocks[n] @ tr - u).max() <= 1e-12 * np.abs(u).max()
        assert op.conditions[n] == pytest.approx(mode_system_condition(config, OMEGA, n),
                                                 rel=1e-10)


@pytest.mark.parametrize("n_max, cond_limit, errors", [
    # the h = 0.005 device (condition 1.75e8 at mode 16) is pushed over the
    # limit; the H_SWEEP devices (at most 1.04e7) and cavities stay healthy
    (16, 3e7, {(0.005, "NearResonanceError")}),
    # every h below 0.2 overflows, each at its own mode
    (100, 1e14, {(0.1, "ModeOverflowError"), (0.05, "ModeOverflowError"),
                 (0.025, "ModeOverflowError"), (0.005, "ModeOverflowError")}),
])
def test_assemble_ntd_errors_per_config(n_max, cond_limit, errors):
    # two layouts (near-cloaks and lining cavities): a config's operator is
    # finite within the limit, or its error names its mode
    configs = [build_near_cloak(h, 1.0, 1.0, 1.0, 0.0, content=c, background=BG).virtual
               for c in DEFAULT_CONTENTS.values() for h in H_SWEEP]
    configs += [lining_config(h, BG) for h in H_SWEEP]
    configs.append(build_near_cloak(0.005, 1.0, 1.0, 1.0, 0.0,
                                    content=DEFAULT_CONTENTS["stiff"], background=BG).virtual)
    seen, failed = set(), {}
    for config in configs:
        try:
            op = assemble_ntd(config, OMEGA, n_max, cond_limit=cond_limit)
        except (NearResonanceError, ModeOverflowError) as exc:
            assert str(exc).startswith(f"mode {exc.mode} ")
            if isinstance(exc, NearResonanceError):
                assert exc.condition > cond_limit
            seen.add((config.radii[1], type(exc).__name__))
            failed[config] = exc
            continue
        assert op.radius == config.outer_radius and op.n_max == n_max
        assert op.blocks.shape == (n_max + 1, 2, 2) and np.isfinite(op.blocks).all()
        assert (op.conditions <= cond_limit).all()
    assert seen == errors
    if n_max == 100:
        assert failed[configs[-1]].mode == 71


@pytest.mark.parametrize("h, mode", [(0.05, 91), (0.005, 71)])
def test_overflowed_mode_raises_typed_error(h, mode):
    # the unscaled Hankel functions of the small inner radii overflow
    # first at these modes; the error names the mode and stays a LinAlgError
    config = build_near_cloak(h, 1.0, 1.0, 1.0, 0.0, content=DEFAULT_CONTENTS["stiff"],
                              background=BG).virtual
    if h == 0.05:
        # mode n needs H_{n+1} of the background's P argument at the inner
        # radius, h / sqrt(3): H_91 is representable and H_92 is not
        mp = pytest.importorskip("mpmath")
        z = mp.mpf(h) / mp.sqrt(3)
        assert abs(mp.hankel1(91, z)) < np.finfo(float).max < abs(mp.hankel1(92, z))
    with pytest.raises(ModeOverflowError) as exc:
        assemble_ntd(config, OMEGA, 100)
    assert exc.value.mode == mode
    assert isinstance(exc.value, np.linalg.LinAlgError)
    # a mode over the condition limit below the overflow still comes first
    with pytest.raises(NearResonanceError) as exc:
        assemble_ntd(config, OMEGA, 100, cond_limit=1e3)
    assert exc.value.mode < mode
    assert exc.value.condition == pytest.approx(
        mode_system_condition(config, OMEGA, exc.value.mode), rel=1e-10)


@pytest.mark.parametrize("n_max", [-1, 2.5, np.float64(3.0), True])
def test_n_max_that_is_not_a_non_negative_integer_is_refused(n_max):
    config = _near_cloak_or_cavity("stiff")
    for call in (lambda: assemble_ntd(config, OMEGA, n_max),
                 lambda: free_disk_ntd(BG, 2.0, OMEGA, n_max)):
        with pytest.raises(ValueError, match="n_max"):
            call()


@pytest.mark.parametrize("omega", [-1.0, 0.0, np.nan, np.inf])
def test_omega_that_is_not_positive_and_finite_is_refused(omega):
    config = _near_cloak_or_cavity("stiff")
    for call in (lambda: assemble_ntd(config, omega, 4),
                 lambda: free_disk_ntd(BG, 2.0, omega, 4),
                 lambda: solve_mode(config, omega, 1, (1.0, 0.0)),
                 lambda: mode_system_condition(config, omega, 1),
                 lambda: energy_identity_check(config, omega, {1: (1.0, 0.0)})):
        with pytest.raises(ValueError, match="omega"):
            call()


def test_exactly_singular_system_fails_only_its_config(monkeypatch):
    # numpy's batched inverse refuses a whole stack for one exactly
    # singular matrix; the solver then inverts the stack matrix by matrix,
    # so the lowest singular mode is named, with condition inf, without a
    # warning, whatever the condition limit
    config = _near_cloak_or_cavity("stiff")
    interface_system = modesolver._interface_system

    def singular_modes(cfg, table):
        A, B0 = interface_system(cfg, table)
        # modes 5 and 9: the identity with column 3 repeating column 2,
        # singular in exact arithmetic and to LAPACK
        for k in np.flatnonzero(np.isin(table.orders, (5, 9))):
            A[k] = np.eye(A.shape[-1])
            A[k, :, 3] = A[k, :, 2]
        return A, B0

    monkeypatch.setattr(modesolver, "_interface_system", singular_modes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: assemble_ntd(config, OMEGA, 16),
                     lambda: assemble_ntd(config, OMEGA, 16, cond_limit=np.inf),
                     lambda: mode_system_condition(config, OMEGA, 5)):
            with pytest.raises(NearResonanceError) as exc:
                call()
            assert exc.value.mode == 5 and exc.value.condition == np.inf
        assert mode_system_condition(config, OMEGA, 4) < 1e14


def test_solve_stops_before_the_first_unrepresentable_mode(monkeypatch):
    # the h = 0.05 device's mode-91 system overflows: modes 0-90 reach the
    # batched inverse, and no system from mode 91 on does
    sizes = []
    inverses = modesolver._inverses
    monkeypatch.setattr(modesolver, "_inverses",
                        lambda A: sizes.append(A.shape[:-2]) or inverses(A))
    config = build_near_cloak(0.05, 1.0, 1.0, 1.0, 0.0, content=DEFAULT_CONTENTS["stiff"],
                              background=BG).virtual
    with pytest.raises(ModeOverflowError) as exc:
        assemble_ntd(config, OMEGA, 100)
    assert exc.value.mode == 91
    assert sizes == [(91,)]


def test_a_refused_solve_frees_its_arrays_with_its_error():
    # the error's traceback holds the solver's frames; with no reference
    # cycle through them, their arrays (~400 kB here) go with the error,
    # not at the next GC pass
    config = build_near_cloak(0.05, 1.0, 1.0, 1.0, 0.0, content=DEFAULT_CONTENTS["stiff"],
                              background=BG).virtual
    gc.disable()
    tracemalloc.start()
    try:
        try:
            assemble_ntd(config, OMEGA, 100)
        except ModeOverflowError:
            pass
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak > 200_000 and current < 20_000


def test_free_disk_ntd_names_an_exactly_singular_mode(monkeypatch):
    basis_matrix = modesolver.basis_matrix

    def singular_mode_3(*args):
        B = basis_matrix(*args)
        B[3, 3] = 0.0  # the s_rt row of mode 3: S singular, its columns nonzero
        return B

    monkeypatch.setattr(modesolver, "basis_matrix", singular_mode_3)
    with pytest.raises(NearResonanceError) as exc:
        free_disk_ntd(BG, 2.0, OMEGA, 8)
    assert exc.value.mode == 3 and exc.value.condition == np.inf


def test_conditions_are_exact_one_norm_conditions():
    # oracle: ||As||_1 ||As^-1||_1 with the inverse of the equilibrated
    # system taken by mpmath at 30 digits
    mp = pytest.importorskip("mpmath")
    config = _near_cloak_or_cavity("stiff")
    orders = np.array([0, 5, 16, 24])
    op = assemble_ntd(config, OMEGA, 24)
    table = modesolver._basis_table(modesolver._interface_points(config), OMEGA, orders)
    A, _ = modesolver._interface_system(config, table)
    As = A / np.abs(A).max(axis=-2)[:, None, :]
    As /= np.abs(As).max(axis=-1)[..., None]
    with mp.workdps(30):
        for n, a in zip(orders, As):
            inv = mp.inverse(mp.matrix(a.tolist()))
            inv_norm = max(mp.fsum(abs(inv[i, j]) for i in range(inv.rows))
                           for j in range(inv.cols))
            want = float(np.abs(a).sum(axis=0).max() * inv_norm)
            assert op.conditions[n] == pytest.approx(want, rel=1e-8), n


def _per_region_basis_table(config):
    """A stand-in for ``modesolver._basis_table`` that evaluates each region
    of ``config`` in its own ``basis_matrix`` call with its own kinds: the
    region's medium at every point of the table inside the region. A
    point two regions share is written by both, and a core leaves its H
    columns NaN."""
    def table(points, omega, orders):
        rows = {}
        for p in points:
            rows.setdefault(p, len(rows))
        values = np.full((len(rows), len(orders), 4, 4), np.nan, dtype=complex)
        for g in modesolver._regions(config):
            cols = [BASIS_FULL.index(kind) for kind in g.kinds]
            radii = [r for m, r in rows if m == g.medium and g.r_in <= r <= g.r_out]
            B = basis_matrix(g.medium, orders, radii, omega, g.kinds)
            for k, r in enumerate(radii):
                row = values[rows[g.medium, r]]
                assert np.isnan(row[..., cols]).all() or (
                    row[..., cols].tobytes() == B[:, k].tobytes())
                row[..., cols] = B[:, k]
        return modesolver._BasisTable(rows, np.asarray(orders), values)

    return table


def _per_region_absorbed_power(config, omega, tractions, x, w):
    """The lhs of ``energy_identity_check`` on the quadrature rule (x, w)
    of [-1, 1] in every lossy region, with each region's basis at its
    nodes from its own ``basis_matrix`` call."""
    orders = np.array(list(tractions))
    tr = np.array(list(tractions.values()), dtype=complex)
    fac = np.where(orders == 0, 2.0 * np.pi, np.pi)
    table = modesolver._basis_table(modesolver._interface_points(config), omega, orders)
    sol, _, _ = modesolver._solve_modes(config, table)
    coeffs = sol @ tr[:, :, None]
    lhs = 0.0
    for g in modesolver._regions(config):
        if complex(g.medium.rho).imag:
            rr = 0.5 * (g.r_out + g.r_in) + 0.5 * (g.r_out - g.r_in) * x
            u = (basis_matrix(g.medium, orders, rr, omega, g.kinds)[..., 0:2, :]
                 @ coeffs[:, None, g.cols])[..., 0]
            f = rr * (fac @ (np.abs(u) ** 2).sum(axis=-1))
            lhs += (omega**2 * complex(g.medium.rho).imag * (g.r_out - g.r_in)
                    * (0.5 * float(w @ f)))
    return lhs


def _panel_rule(panels, n):
    """Composite rule on [-1, 1]: ``panels`` equal panels of ``n``
    ``leggauss`` nodes each."""
    x, w = np.polynomial.legendre.leggauss(n)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _lossy_core():
    return LayeredDiskConfig(radii=(2.0, 0.7), media=(BG, IsotropicMedium(1.0, 1.0, 1.0 + 0.5j)))


@pytest.mark.parametrize("case", ["near-cloaks", "cavity", "identical-media", "lossy-core"])
def test_one_table_matches_per_region_basis_calls(monkeypatch, case):
    # every point of a call in one basis_matrix table gives the blocks,
    # conditions and damping balance of per-region calls bit for bit
    configs = {
        "near-cloaks": [build_near_cloak(h, 1.0, 1.0, 1.0, 0.0, content=c, background=BG).virtual
                        for c in DEFAULT_CONTENTS.values() for h in H_SWEEP],
        "cavity": [lining_config(0.05, BG), _near_cloak_or_cavity("stiff")],
        "identical-media": [LayeredDiskConfig(radii=(2.0, 1.0, 0.5),
                                              media=(IsotropicMedium(1.3, 0.7, 1.1),) * 3)],
        "lossy-core": [_lossy_core()],
    }[case]
    tractions = {0: (1.0, 0.5j), 3: (-0.2, 1.0), 5: (0.3 - 0.1j, 0.7)}
    x, weights, _ = modesolver._gauss_rule(24)  # every case is resolved on the first rule
    for omega in (1.0, 2.0):
        for config in configs:
            got = assemble_ntd(config, omega, 24)
            balance = energy_identity_check(config, omega, tractions)
            with monkeypatch.context() as m:
                m.setattr(modesolver, "_basis_table", _per_region_basis_table(config))
                want = assemble_ntd(config, omega, 24)
                assert balance == energy_identity_check(config, omega, tractions)
            assert got.blocks.tobytes() == want.blocks.tobytes()
            assert got.conditions.tobytes() == want.conditions.tobytes()
            assert balance[1] == _per_region_absorbed_power(config, omega, tractions, x, weights)


def test_core_reads_the_regular_columns_of_the_full_basis():
    orders = np.arange(20)
    content = DEFAULT_CONTENTS["soft"]
    full = basis_matrix(content, orders, [0.05, 0.025], OMEGA, BASIS_FULL)
    regular = basis_matrix(content, orders, [0.05, 0.025], OMEGA, BASIS_REGULAR)
    assert full[..., modesolver._REGULAR].tobytes() == regular.tobytes()


def test_one_basis_matrix_call_per_solve(monkeypatch):
    # the lining sweep's one walk takes 14 configs of two layouts,
    # near-cloaks and cavities, and one Bessel table
    calls, solved = [], []
    bm, walk = modesolver.basis_matrix, harness._free_disk_differences
    monkeypatch.setattr(modesolver, "basis_matrix", lambda *a: calls.append(a) or bm(*a))
    monkeypatch.setattr(harness, "_free_disk_differences",
                        lambda configs, *a: solved.append(configs) or walk(configs, *a))
    lining_sweep({"n_max": 8})
    (configs,) = solved
    assert len(configs) == 14
    assert len({(c.inner, len(c.radii)) for c in configs}) == 2
    assert len(calls) == 1
    # the interface points and the 24 Gauss nodes of each lossy region: 5 +
    # 24 points for a near-cloak, 3 + 24 for a lossy core
    for config, points in ((_near_cloak_or_cavity("stiff"), 29), (_lossy_core(), 27)):
        calls.clear()
        energy_identity_check(config, OMEGA, {0: (1.0, 0.0), 3: (0.2, 0.5j)})
        ((media, _, radii, _, _),) = calls
        assert len(media) == len(radii) == points
    # a convergence sweep's free-disk reference reads the devices' table:
    # one call per n_max it solves at
    calls.clear()
    rep = convergence_sweep({"n_max": 8})
    assert len(calls) == 1 + (rep["n_max"] - 8) // 8


def test_closed_form_smax_matches_svd():
    rng = np.random.default_rng(13)
    blocks = rng.standard_normal((100_000, 2, 2)) + 1j * rng.standard_normal((100_000, 2, 2))
    u = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
    v = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
    for D in (blocks, u[:, :, None] * v[:, None, :], 1e150 * blocks[:10_000],
              1e-150 * blocks[:10_000]):
        want = np.linalg.svd(D, compute_uv=False)[:, 0]
        got = _weighted_smax(D[:, None])[:, 0]  # mode 0 carries weight 1
        assert (np.abs(got - want) <= 8 * np.spacing(want)).all()
    assert _weighted_smax(np.zeros((2, 3, 2, 2), dtype=complex)).tobytes() == bytes(48)


def test_sweep_paths_take_no_svd(monkeypatch):
    # conditions and distances come from inverses and closed forms, and the
    # rate fits from centered sums; the only SVD left in the solver is
    # find_resonant_densities' null vector
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD or least-squares solve on a sweep path")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg._linalg, "svd", no_svd)  # what np.linalg.cond calls
    monkeypatch.setattr(np.linalg, "lstsq", no_svd)
    monkeypatch.setattr(np.lib._polynomial_impl, "lstsq", no_svd)  # what np.polyfit calls
    config = _near_cloak_or_cavity("stiff")
    convergence_sweep({})
    lining_sweep({})
    assemble_ntd(config, OMEGA, 16)
    assemble_ntd(_near_cloak_or_cavity("cavity"), OMEGA, 16)
    free_disk_ntd(BG, 2.0, OMEGA, 16)
    energy_identity_check(config, OMEGA, {0: (1.0, 0.0), 3: (0.2, 0.5j)})
    solve_mode(config, OMEGA, 3, (1.0, 0.0))
    mode_system_condition(config, OMEGA, 3)


# ---------------------------------------------------------------------------
# the sweeps' walk through the interfaces


@pytest.mark.parametrize("h", [0.2, 0.05, 0.01, 1e-3])
def test_walk_of_a_background_inner_stack_is_zero(h):
    # a background core at r = h, and two background annuli over a
    # background core, are the free disk: Lambda - Lambda_free vanishes to
    # rounding. At h = 1e-3, |H_32| ~ 1e161 at r = h, past the square root
    # of DBL_MAX: the 2x2 inverses must scale their blocks first
    configs = [LayeredDiskConfig(radii=(2.0, h), media=(BG, BG)),
               LayeredDiskConfig(radii=(2.0, h, 0.5 * h), media=(BG,) * 3)]
    ref, diffs = modesolver._free_disk_differences(configs, OMEGA, 32)
    for diff in diffs:
        assert np.abs(diff).max() <= 1e-12 * np.abs(ref.blocks).max()


@pytest.mark.parametrize("omega", [1.0, 2.0])
def test_sweep_distances_match_the_paired_global_solves(omega):
    # oracle: the NtD maps of the global interface solve, paired as the
    # sweeps used to pair them, each device against the free disk or its
    # cavity
    h_values = [0.2, 0.1, 0.05, 0.025]
    config = {"omega": omega, "convergence": {"h_values": h_values}}
    conv, lin = convergence_sweep(config), lining_sweep(config)
    ref = free_disk_ntd(BG, 2.0, omega, conv["n_max"])
    for name, content in DEFAULT_CONTENTS.items():
        devices = [build_near_cloak(h, 1.0, 1.0, 1.0, 0.0, content=content, background=BG).virtual
                   for h in h_values]
        for row, device in zip(conv["contents"][name]["rows"], devices):
            op = assemble_ntd(device, omega, conv["n_max"])
            assert row["distance"] == pytest.approx(ntd_distance(op, ref), rel=1e-10)

    def lining_distance(h, beta):
        device = build_near_cloak(h, 1.0, beta, 1.0, 0.0, content=BG, background=BG).virtual
        return ntd_distance(assemble_ntd(device, omega, lin["n_max"]),
                            assemble_ntd(lining_config(h, BG), omega, lin["n_max"]))

    for row in lin["rows"]:
        assert row["distance"] == pytest.approx(lining_distance(row["h"], 1.0), rel=1e-10)
    for row in lin["beta_scan"]:
        assert row["distance"] == pytest.approx(
            lining_distance(lin["beta_scan_at_h"], row["beta"]), rel=1e-10)


def test_walk_names_a_singular_mode_of_one_config_only(monkeypatch):
    # the s_rt row of mode 5 at the middle device's core radius is zeroed:
    # the core's traction system S_J is singular there, its columns are not
    configs = [build_near_cloak(h, 1.0, 1.0, 1.0, 0.0, content=DEFAULT_CONTENTS["stiff"],
                                background=BG).virtual for h in (0.1, 0.05, 0.025)]
    _, want = modesolver._free_disk_differences(configs, OMEGA, 16)
    basis_table = modesolver._basis_table

    def singular_core(points, omega, orders):
        table = basis_table(points, omega, orders)
        table.values[table.rows[(configs[1].media[-1], configs[1].radii[-1])], 5, 3] = 0.0
        return table

    monkeypatch.setattr(modesolver, "_basis_table", singular_core)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, got = modesolver._free_disk_differences(configs, OMEGA, 16)
    assert isinstance(got[1], NearResonanceError)
    assert got[1].mode == 5 and got[1].condition == np.inf
    for k in (0, 2):
        assert got[k].tobytes() == want[k].tobytes()


def test_walk_passes_an_inclusion_that_resonates_alone(resonance):
    # the two-layer inclusion is traction-free resonant in mode 0 on its
    # own, so its NtD map at r = 1 is infinite there; inside the
    # background it is not, and the walk's T-matrix at r = 1 stays finite
    inclusion = resonant_config(1.0, 1.0, 0.5, 1.0, resonance)
    device = LayeredDiskConfig(radii=(2.0, 1.0, 0.5), media=(BG,) + inclusion.media)
    ref, (diff,) = modesolver._free_disk_differences([device], OMEGA, 8)
    want = assemble_ntd(device, OMEGA, 8).blocks - ref.blocks
    assert np.abs(diff - want).max() <= 1e-12 * np.abs(want).max()


def test_walk_checks_the_free_disk_inverse():
    # the outer medium of this inclusion is traction-free resonant in mode
    # 0 as a disk of radius 2: the walk's inverse of that disk's traction
    # system is checked against the limit like its other 2x2 systems
    config = resonant_config(1.0, 1.0, 1.0, 2.0,
                             find_resonant_densities(1.0, 1.0, 1.0, 2.0, OMEGA))
    ref, (diff,) = modesolver._free_disk_differences([config], OMEGA, 8)
    assert ref.conditions[0] > 1e14
    assert isinstance(diff, NearResonanceError)
    assert diff.mode == 0 and diff.condition > 1e14
    with pytest.raises(NearResonanceError) as exc:
        assemble_ntd(config, OMEGA, 8)
    assert exc.value.mode == 0


def test_walk_inverse_scales_its_columns():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2, 40)) + 1j * rng.standard_normal((2, 2, 40))
    want = np.moveaxis(np.linalg.inv(np.moveaxis(a, (0, 1), (1, 2))), (1, 2), (0, 1))
    for scales in ((1.0, 1.0), (1e160, 1.0), (1e-160, 1e160)):
        s = np.array(scales)[:, None]
        b = a * s  # column j scaled by scales[j]: det(b) overflows or underflows
        inv, cond = modesolver._inv(b, np.abs(b).max(axis=0))
        assert np.abs(inv * s[:, None] - want).max() <= 1e-13 * np.abs(want).max()
        assert (np.isfinite(cond) & (cond >= 1.0)).all()
    # a zero column is singular, and the identity has condition 1
    b = a.copy()
    b[:, 1, 3] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        _, cond = modesolver._inv(b, np.abs(b).max(axis=0))
    assert cond[3] == np.inf and np.isfinite(np.delete(cond, 3)).all()
    eye = np.eye(2)[:, :, None] * np.ones(3)
    assert modesolver._inv(eye, np.ones((2, 3)))[1].tolist() == [1.0] * 3


def _walk_two(other):
    """The walk of a near-cloak beside ``other``."""
    return modesolver._free_disk_differences([_near_cloak_or_cavity("stiff"), other], OMEGA, 8)


@pytest.mark.parametrize("call, want", [
    (lambda: LayeredDiskConfig(radii=(2.0,), media=(BG,), inner="shell"), "inner must be"),
    (lambda: LayeredDiskConfig(radii=(2.0, 2.0), media=(BG, BG)), "strictly decreasing"),
    (lambda: LayeredDiskConfig(radii=(2.0, 1.0), media=(BG,)), "expected 2 media"),
    (lambda: LayeredDiskConfig(radii=(2.0,), media=(), inner="cavity"), "needs an annulus"),
    (lambda: harness.loglog_fit([0.1], [1.0]), "at least two points"),
    (lambda: energy_identity_check(_lossy_core(), OMEGA, {}), (0.0, 0.0, 0.0)),
    # the walk's free disk is the configs' shared outer region: configs
    # whose outer regions differ have none, and a config with no outer
    # annulus has nothing to walk; an empty h grid leaves a sweep no device
    (lambda: _walk_two(LayeredDiskConfig(radii=(3.0, 1.0), media=(BG, BG))),
     "share their outer region"),
    (lambda: _walk_two(LayeredDiskConfig(radii=(2.0, 1.0), media=(DEFAULT_CONTENTS["soft"], BG))),
     "share their outer region"),
    (lambda: _walk_two(LayeredDiskConfig(radii=(2.0,), media=(BG,))),
     "config 1 has no outer annulus"),
    (lambda: convergence_sweep({"convergence": {"h_values": []}}), "h_values"),
    (lambda: lining_sweep({"convergence": {"h_values": []}}), "h_values"),
    # an empty list of contents leaves no device either, two contents of
    # one name, given or automatic, would keep only the last, and a name
    # that is not a string cannot key the outputs
    (lambda: convergence_sweep({"convergence": {"contents": []}}), "contents must not be empty"),
    (lambda: convergence_sweep({"convergence": {"contents": [{"name": "a"},
                                                             {"name": "a", "lambda": 3.0}]}}),
     "names must be distinct: 'a' repeats"),
    (lambda: convergence_sweep({"convergence": {"contents": [{"lambda": 2.0},
                                                             {"name": "content0"}]}}),
     "names must be distinct: 'content0' repeats"),
    (lambda: convergence_sweep({"convergence": {"contents": [{"name": 3}, {"name": "3"}]}}),
     r"contents\[0\].name must be a string, got 3"),
], ids=["inner", "radii-order", "media-count", "cavity-without-annulus", "one-point-fit",
        "no-tractions", "walk-outer-radius", "walk-outer-medium", "walk-no-annulus",
        "convergence-empty-h", "lining-empty-h", "convergence-empty-contents",
        "convergence-repeated-name", "convergence-repeated-automatic-name",
        "convergence-name-not-a-string"])
def test_edge_inputs_are_refused_or_trivial(call, want):
    # a refusal names what is wrong, and a balance over no tractions is all
    # zero; no sweep, CLI command or demo reaches these branches
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            call()
    else:
        assert call() == want


def test_mode_decoupling_structure():
    sol = solve_mode(LayeredDiskConfig(radii=(2.0,), media=(BG,)), OMEGA, 4, (1.0, 0.5))
    assert all(f.n == 4 for f in sol.fields)


def test_lossless_blocks_symmetric():
    config = LayeredDiskConfig(
        radii=(2.0, 1.0, 0.4),
        media=(BG, IsotropicMedium(2.0, 0.8, 1.5), IsotropicMedium(0.5, 0.3, 2.0)),
        inner="core",
    )
    op = assemble_ntd(config, OMEGA, 10)
    for n in range(11):
        blk = op.blocks[n]
        assert np.abs(blk - blk.T).max() < 1e-10 * max(1.0, np.abs(blk).max())
        assert np.abs(blk.imag).max() < 1e-12 * max(1.0, np.abs(blk).max())


def test_cavity_ntd_exists_for_generic_frequency():
    config = LayeredDiskConfig(radii=(2.0, 0.3), media=(BG,), inner="cavity")
    op = assemble_ntd(config, OMEGA, 6)
    assert np.all(np.isfinite(op.blocks))


def test_lossy_interface_trace_scaling():
    # traction trace from outside the lossy interface equals
    # gamma h^(2+delta) times the background-moduli traction of the
    # inside field (the transmission condition with the scaled tensor)
    h, gamma, delta = 0.1, 1.3, 0.5
    nc = build_near_cloak(h, 1.0, 1.0, gamma, delta, content=IsotropicMedium(2.0, 1.0, 1.0))
    scale = gamma * h ** (2 + delta)
    for n in (0, 1, 3):
        sol = solve_mode(nc.virtual, OMEGA, n, (0.4, -0.9))
        outer_field, lossy_field = sol.fields[0], sol.fields[1]
        psi_plus = np.array(outer_field.traction_polar(h))
        # background-moduli traction of the lossy-side field: the lossy
        # medium's stress is scale * (background stress of the same field)
        psi_minus = np.array(lossy_field.traction_polar(h)) / scale
        resid = np.abs(psi_plus - scale * psi_minus).max()
        assert resid <= 1e-8 * max(np.abs(psi_plus).max(), 1e-30)
        # independent cross-check of the inside trace via Cartesian FD
        # with background moduli applied to the (unchanged) lossy field
        th = 0.3
        x = h * np.array([np.cos(th), np.sin(th)])
        T_fd = fd_traction_cartesian(lossy_field, x, x / h, law_medium=BG)
        rhat = x / h
        that = np.array([-np.sin(th), np.cos(th)])
        expected = psi_minus[0] * np.cos(n * th) * rhat + psi_minus[1] * np.sin(n * th) * that
        assert np.abs(T_fd - expected).max() <= 1e-5 * max(1.0, np.abs(expected).max())


def test_normal_tangential_stress_decomposition():
    # T u = A d_nu u + B d_tau u with det A = mu (lam + 2 mu), checked on
    # an analytic quadratic displacement field
    lam, mu = 1.7, 0.9
    rng = np.random.default_rng(5)
    coeff = rng.normal(size=(2, 6))

    def u(p):
        x, y = p
        basis = np.array([1.0, x, y, x * x, x * y, y * y])
        return coeff @ basis

    def grad_u(p):
        x, y = p
        dx = np.array([0.0, 1.0, 0.0, 2 * x, y, 0.0])
        dy = np.array([0.0, 0.0, 1.0, 0.0, x, 2 * y])
        return np.stack([coeff @ dx, coeff @ dy], axis=1)  # [i, j] = d u_i / d x_j

    th = 1.1
    nu = np.array([np.cos(th), np.sin(th)])
    tau = np.array([-nu[1], nu[0]])
    p = np.array([0.4, -0.2])
    G = grad_u(p)
    sigma = lam * np.trace(G) * np.eye(2) + mu * (G + G.T)
    T = sigma @ nu
    A = np.array(
        [
            [mu + (lam + mu) * nu[0] ** 2, (lam + mu) * nu[0] * nu[1]],
            [(lam + mu) * nu[0] * nu[1], mu + (lam + mu) * nu[1] ** 2],
        ]
    )
    B = np.array(
        [
            [-(lam + mu) * nu[0] * nu[1], lam * nu[0] ** 2 - mu * nu[1] ** 2],
            [-lam * nu[1] ** 2 + mu * nu[0] ** 2, (lam + mu) * nu[0] * nu[1]],
        ]
    )
    d_nu = G @ nu
    d_tau = G @ tau
    np.testing.assert_allclose(T, A @ d_nu + B @ d_tau, atol=1e-10)
    assert np.linalg.det(A) == pytest.approx(mu * (lam + 2 * mu), rel=1e-14)


# ---------------------------------------------------------------------------
# resonance


@pytest.fixture(scope="module")
def resonance():
    return find_resonant_densities(1.0, 1.0, 0.5, 1.0, OMEGA)


def test_resonance_residuals(resonance):
    lam, mu, r1, r0 = 1.0, 1.0, 1.0, 0.5
    res = resonance
    assert res.det_residual < 1e-8
    kp1 = OMEGA * np.sqrt(res.rho1 / (lam + 2 * mu))
    # oracle: scipy's jv/jvp, outside the library
    f_res = abs(2 * mu * jvp(0, kp1 * r1, 2) - lam * jv(0, kp1 * r1))
    assert f_res < 1e-8
    kp2 = OMEGA * np.sqrt(res.rho2 / (lam + 2 * mu))
    c1, c2 = res.c
    u_jump = abs(c1 * kp1 * jvp(0, kp1 * r0)
                 - c2 * kp2 * jvp(0, kp2 * r0))
    du_jump = abs(c1 * kp1**2 * jvp(0, kp1 * r0, 2)
                  - c2 * kp2**2 * jvp(0, kp2 * r0, 2))
    assert u_jump + du_jump < 1e-8
    assert abs(np.linalg.norm(res.c) - 1.0) < 1e-12


def test_resonance_roots_match_mpmath(resonance):
    mp = pytest.importorskip("mpmath")
    lam, mu, r0, r1 = 1, 1, 0.5, 1
    with mp.workdps(40):
        def J0(t, k=0):
            return mp.besselj(0, t, derivative=k)

        t_star = mp.findroot(lambda t: 2 * mu * J0(t, 2) - lam * J0(t), resonance.t_star)
        t1 = t_star * r0 / r1
        t2 = mp.findroot(lambda t: t1 * J0(t1, 1) * t**2 * J0(t, 2)
                         - t * J0(t, 1) * t1**2 * J0(t1, 2), resonance.t2)
        t_star, t2 = float(t_star), float(t2)
    assert resonance.t_star == pytest.approx(t_star, rel=1e-13)
    assert resonance.t2 == pytest.approx(t2, rel=1e-13)
    assert abs(resonance.t2 - resonance.t1) > 1e-6


def test_resonant_config_triggers_near_resonance_error(resonance):
    config = resonant_config(1.0, 1.0, 0.5, 1.0, resonance)
    with pytest.raises(NearResonanceError) as exc:
        assemble_ntd(config, OMEGA, 2)
    assert exc.value.mode == 0
    assert exc.value.condition > 1e14


def test_resonance_conditioning_spike(resonance):
    config = resonant_config(1.0, 1.0, 0.5, 1.0, resonance)
    at = mode_system_condition(config, OMEGA, 0)
    off = mode_system_condition(
        LayeredDiskConfig(
            radii=config.radii,
            media=(config.media[0],
                   IsotropicMedium(1.0, 1.0, resonance.rho2 * 1.01)),
            inner="core",
        ),
        OMEGA,
        0,
    )
    assert at / off > 1e3


def test_resonance_input_validation():
    with pytest.raises(ValueError):
        find_resonant_densities(1.0, 1.0, 1.0, 0.5, OMEGA)


@pytest.mark.parametrize("args, match", [
    ((1.0, 1.0, 0.5, 1.0, np.nan), "omega=nan"),
    ((1.0, 1.0, 0.5, 1.0, np.inf), "omega=inf"),
    ((1.0, 1.0, 0.5, 1.0, 0.0), "omega=0.0"),
    ((1.0, 1.0, 0.5, np.inf, OMEGA), "r1=inf"),
    ((1.0, 1.0, np.nan, 1.0, OMEGA), "r0=nan"),
    ((1.0, 1.0, 0.0, 1.0, OMEGA), "r0=0.0"),
    ((np.nan, 1.0, 0.5, 1.0, OMEGA), "lam=nan"),
    ((1.0, np.inf, 0.5, 1.0, OMEGA), "mu=inf"),
], ids=["omega-nan", "omega-inf", "omega-zero", "r1-inf", "r0-nan", "r0-zero", "lam-nan",
        "mu-inf"])
def test_resonance_refuses_non_finite_input(args, match):
    # a NaN or infinite input used to give NaN or zero densities, or a
    # SearchWindowError
    with pytest.raises(ValueError, match=match):
        find_resonant_densities(*args)


# ---------------------------------------------------------------------------
# distances and the damping balance


def test_ntd_distance_definition():
    op = free_disk_ntd(BG, 2.0, OMEGA, 5)
    assert ntd_distance(op, op) == 0.0
    blocks = op.blocks.copy()
    eps = 1e-3
    n_hit = 3
    blocks[n_hit] = blocks[n_hit] + eps * np.array([[1.0, 0.0], [0.0, 0.0]])
    from elastocloak import NtDOperator

    other = NtDOperator(omega=OMEGA, n_max=5, radius=2.0, blocks=blocks)
    assert ntd_distance(op, other) == pytest.approx(np.sqrt(1 + n_hit**2) * eps, rel=1e-12)


def test_ntd_distance_rejects_operators_on_different_circles():
    with pytest.raises(ValueError, match="radius"):
        ntd_distance(free_disk_ntd(BG, 2.0, OMEGA, 5), free_disk_ntd(BG, 1.0, OMEGA, 5))


def test_energy_identity_lossless_is_zero():
    layered = LayeredDiskConfig(
        radii=(2.0, 0.1, 0.05),
        media=(BG, IsotropicMedium(0.01, 0.01, 1.0), IsotropicMedium(1.0, 1.0, 100.0)),
        inner="core",
    )
    uniform = LayeredDiskConfig(radii=(2.0, 1.0), media=(BG, BG))
    # both sides are rounding noise without a lossy region; the residual
    # used to divide by the larger of them and read 1.0
    for config, tractions in ((layered, {1: (0.7, 0.3)}),
                              (uniform, {1: (1.0, 0.0), 2: (1.0, 0.0)})):
        resid, lhs, rhs = energy_identity_check(config, OMEGA, tractions)
        assert lhs == 0.0
        assert abs(rhs) < 1e-12
        assert type(resid) is float and resid < 1e-12


@pytest.mark.parametrize("core", [IsotropicMedium(1.0, 0.8 + 0.2j, 1.0),
                                  IsotropicMedium(2.0 + 0.3j, 1.0, 1.0)],
                         ids=["complex-mu", "complex-lam"])
def test_energy_identity_refuses_complex_moduli(core):
    # only Im(rho) enters the absorbed power: a lossy modulus would read lhs 0
    config = LayeredDiskConfig(radii=(2.0, 0.5), media=(BG, core), inner="core")
    with pytest.raises(ValueError, match=r"region 1 .*complex lam or mu"):
        energy_identity_check(config, OMEGA, {1: (0.7, 0.3)})


def test_energy_identity_near_cloak():
    nc = build_near_cloak(0.1, 1.0, 1.0, 1.0, 0.0, content=IsotropicMedium(2.0, 1.0, 1.0))
    rng = np.random.default_rng(4)
    tractions = {n: tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for n in range(5)}
    resid, lhs, rhs = energy_identity_check(nc.virtual, OMEGA, tractions)
    assert lhs > 0 and rhs > 0
    assert resid < 1e-6


def test_energy_identity_matches_per_radius_quadrature():
    # per-mode solves and a per-radius Gauss-Legendre sum of the region
    # fields, against the batched all-mode, all-radius evaluation
    config = build_near_cloak(0.1, 1.0, 1.0, 1.0, 0.0,
                              content=IsotropicMedium(2.0, 1.0, 1.0)).virtual
    rng = np.random.default_rng(7)
    tractions = {n: rng.normal(size=2) + 1j * rng.normal(size=2) for n in (0, 2, 3)}
    _, lhs, rhs = energy_identity_check(config, OMEGA, tractions)

    R = config.outer_radius
    free_disk = free_disk_ntd(BG, R, OMEGA, 3)
    x, w = np.polynomial.legendre.leggauss(64)
    spans = [(config.radii[i + 1], config.radii[i]) for i in range(config.n_annuli)]
    spans.append((0.0, config.radii[-1]))
    lhs_ref = rhs_ref = 0.0
    for n, tr in tractions.items():
        sol = solve_mode(config, OMEGA, n, tr)
        fac = 2.0 * np.pi if n == 0 else np.pi
        for field, (a, b) in zip(sol.fields, spans):
            im_rho = complex(field.medium.rho).imag
            for xi, wi in zip(x, w):
                r = 0.5 * (b + a) + 0.5 * (b - a) * xi
                ur, ut = field.displacement_polar(r)
                lhs_ref += (OMEGA**2 * im_rho * fac * 0.5 * (b - a) * wi * r
                            * (abs(ur) ** 2 + abs(ut) ** 2))
        du = sol.boundary_displacement() - free_disk.blocks[n] @ tr
        rhs_ref += -fac * R * np.imag(tr[0] * np.conj(du[0]) + tr[1] * np.conj(du[1]))
    assert lhs == pytest.approx(lhs_ref, rel=1e-12)
    assert rhs == pytest.approx(rhs_ref, rel=1e-12)


# the damping balances whose absorbed power is checked against a reference
# quadrature: the six benchmark devices (content, h, omega), the criterion-6
# device, a lossy core, a thick lossy annulus at a high frequency, and a
# single high mode
_BALANCE_CASES = [f"{c},h={h},w={w:g}" for w in (1.0, 2.0)
                  for h, c in zip((0.1, 0.05, 0.025), DEFAULT_CONTENTS)]
_BALANCE_CASES += ["criterion-6", "lossy-core", "thick-annulus", "mode-20"]


def _balance_case(case):
    """(config, omega, tractions) of the damping balance ``case``."""
    rng = np.random.default_rng(0)
    tractions = {n: tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for n in range(6)}
    criterion_6 = build_near_cloak(0.1, 1.0, 1.0, 1.0, 0.0, content=IsotropicMedium(2.0, 1.0, 1.0),
                                   background=BG).virtual
    if case == "criterion-6":
        return criterion_6, OMEGA, tractions
    if case == "lossy-core":
        return _lossy_core(), OMEGA, tractions
    if case == "thick-annulus":  # lossy on [0.2, 1.9]
        return LayeredDiskConfig(radii=(2.0, 1.9, 0.2),
                                 media=(BG, IsotropicMedium(1.0, 1.0, 1.0 + 1.0j),
                                        IsotropicMedium(2.0, 1.0, 1.0))), 5.0, tractions
    if case == "mode-20":
        return criterion_6, OMEGA, {20: (1.0, 0.0)}
    content, h, omega = case.split(",")
    return (build_near_cloak(float(h[2:]), 1.0, 1.0, 1.0, 0.0, content=DEFAULT_CONTENTS[content],
                             background=BG).virtual, float(omega[2:]), tractions)


@pytest.mark.parametrize("case", _BALANCE_CASES)
def test_energy_identity_matches_a_256_node_reference(case):
    # the reference takes 8 panels of 32 Gauss-Legendre nodes, whose
    # weights hold an integrand weighted to one end of the region to
    # rounding, independently of the check's own rule
    config, omega, tractions = _balance_case(case)
    _, lhs, _ = energy_identity_check(config, omega, tractions)
    ref = _per_region_absorbed_power(config, omega, tractions, *_panel_rule(8, 32))
    assert abs(lhs - ref) <= 4e-15 * abs(ref)


def test_energy_identity_doubles_the_rule_of_an_unresolved_region(monkeypatch):
    sizes = []
    rule = modesolver._gauss_rule
    monkeypatch.setattr(modesolver, "_gauss_rule", lambda n: sizes.append(n) or rule(n))
    config, omega, tractions = _balance_case("criterion-6")
    energy_identity_check(config, omega, tractions)
    assert set(sizes) == {24}
    # a single traction mode 20 is not resolved on 24 nodes
    sizes.clear()
    energy_identity_check(config, omega, {20: (1.0, 0.0)})
    assert set(sizes) == {24, 48}
    # ... and is refused, naming its region, where 24 nodes are the cap
    monkeypatch.setattr(modesolver, "_GAUSS_CAP", 24)
    energy_identity_check(config, omega, tractions)
    with pytest.raises(RuntimeError, match=r"region 1 \(r in \[0\.05, 0\.1\]\).* not resolved "
                                           r"by 24 Gauss-Legendre nodes"):
        energy_identity_check(config, omega, {20: (1.0, 0.0)})


def test_energy_identity_refuses_a_non_finite_integrand(monkeypatch):
    # a NaN basis at the Gauss nodes inside the lossy annulus (0.05, 0.1),
    # its interface points finite: refused, never accepted or escalated
    bm = modesolver.basis_matrix

    def nan_inside(medium, n, r, *args):
        out = bm(medium, n, r, *args)
        out[(np.asarray(r) > 0.05) & (np.asarray(r) < 0.1)] = np.nan
        return out

    monkeypatch.setattr(modesolver, "basis_matrix", nan_inside)
    config, omega, tractions = _balance_case("criterion-6")
    with pytest.raises(RuntimeError, match=r"region 1 \(r in \[0\.05, 0\.1\]\).* not finite"):
        energy_identity_check(config, omega, tractions)


def test_energy_identity_takes_the_free_disk_from_the_outer_basis(monkeypatch):
    # u0 comes from one traction solve on the J columns of the basis the
    # solver already holds; its blocks are those of free_disk_ntd bit for bit
    seen = []
    solve = modesolver._traction_solve

    def spy(B, orders, rhs):
        x = solve(B, orders, rhs)
        seen.append(B[:, 0:2] @ x)
        return x

    monkeypatch.setattr(modesolver, "_traction_solve", spy)
    orders = np.arange(6)
    tractions = {int(n): (1.0, 0.5j) for n in orders}
    for h in (0.1, 0.05, 0.025):
        for omega in (1.0, 2.0):
            for content in DEFAULT_CONTENTS.values():
                config = build_near_cloak(h, 1.0, 1.0, 1.0, 0.0, content=content,
                                          background=BG).virtual
                seen.clear()
                energy_identity_check(config, omega, tractions)
                (u0_blocks,) = seen
                want = free_disk_ntd(BG, config.outer_radius, omega, 5).blocks
                assert u0_blocks.tobytes() == want.tobytes()


@pytest.mark.parametrize("omega", [-1.0, 0.0, np.nan, np.inf])
def test_energy_identity_refuses_omega_with_or_without_tractions(omega):
    # with no tractions the check returned (0.0, 0.0, 0.0) for any omega,
    # where with tractions basis_matrix refused it
    config = LayeredDiskConfig(radii=(2.0, 1.0), media=(BG, BG))
    for tractions in ({}, {1: (1.0, 0.5)}):
        with pytest.raises(ValueError, match=re.escape(
                f"omega must be positive and finite, got {omega!r}")):
            energy_identity_check(config, omega, tractions)


def test_energy_identity_quadratic_scaling():
    nc = build_near_cloak(0.1, 1.0, 1.0, 1.0, 0.0, content=BG)
    one = energy_identity_check(nc.virtual, OMEGA, {2: (0.5, 0.1)})
    two = energy_identity_check(nc.virtual, OMEGA, {2: (1.0, 0.2)})
    assert two[1] == pytest.approx(4.0 * one[1], rel=1e-10)
    assert two[2] == pytest.approx(4.0 * one[2], rel=1e-10)


# ---------------------------------------------------------------------------
# P/S decomposition: the P terms of a field are curl free, the S terms
# divergence free, and the two sum to the field


def test_restrict_fd_grad_div_oracle():
    # reconstruct v_p as -(1/kp^2) grad div v by finite differences and
    # compare with the potential split: the P and S parts of the field are
    # its one-polarization fields
    p = ModeField(BG, OMEGA, 1, (("J", "P", 0.6 + 0.2j),))
    s = ModeField(BG, OMEGA, 1, (("J", "S", -0.4 + 0.9j),))
    field = ModeField(BG, OMEGA, 1, p.terms + s.terms)
    kp, ks = wavenumbers(BG, OMEGA)
    x = np.array([0.8, 0.5])
    h = 1e-4

    def div_v(pt):
        e = np.eye(2)
        out = 0.0
        for j in range(2):
            out += (field.displacement_cartesian(pt + h * e[j])[j]
                    - field.displacement_cartesian(pt - h * e[j])[j]) / (2 * h)
        return out

    grad_div = np.zeros(2, dtype=complex)
    e = np.eye(2)
    for i in range(2):
        grad_div[i] = (div_v(x + h * e[i]) - div_v(x - h * e[i])) / (2 * h)
    vp_fd = -grad_div / kp**2
    vp = p.displacement_cartesian(x)
    assert np.abs(vp_fd - vp).max() < 1e-5
    # and v = v_p + v_s
    total = p.displacement_cartesian(x) + s.displacement_cartesian(x)
    np.testing.assert_allclose(total, field.displacement_cartesian(x), atol=1e-13)


def test_wavenumber_ratio():
    for med in (BG, IsotropicMedium(2.0, 0.5, 3.0)):
        kp, ks = wavenumbers(med, OMEGA)
        assert kp / ks == pytest.approx(np.sqrt(med.mu / (med.lam + 2 * med.mu)), rel=1e-14)
