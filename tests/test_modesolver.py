"""Layered-disk mode solver: reduction anchors, interface physics,
resonances, and the damping balance.

Oracles: the closed-form uniform-disk blocks (exact algebraic anchor),
Cartesian finite-difference stress evaluation of reconstructed fields,
and the normal/tangential stress decomposition identity.
"""

import numpy as np
import pytest

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
    find_resonant_densities,
    free_disk_ntd,
    mode_system_condition,
    ntd_distance,
    ntd_from_json,
    ntd_to_json,
    ps_decompose,
    resonant_config,
    solve_mode,
    traction_coeffs,
    uniform_disk,
)
from elastocloak.modesolver import free_disk_block
from elastocloak.specfun import bessel_j, bessel_j_prime, bessel_j_second
from elastocloak.wavefields import ModeField, wavenumbers

BG = IsotropicMedium(1.0, 1.0, 1.0)
OMEGA = 1.0


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
# traction coefficients


def test_mode0_pressure_matches_radial_gradient_field():
    # u = c grad J_0(kp r) = c kp J_0'(kp r) rhat
    c = 0.8
    kp, _ = wavenumbers(BG, OMEGA)
    r = 0.9
    sigma, u = traction_coeffs(BG, 0, r, OMEGA, [c, 0.0], kinds=(("J", "P"), ("J", "S")))
    assert u[0] == pytest.approx(c * kp * bessel_j_prime(0, kp * r), rel=1e-13)
    assert u[1] == 0.0
    # sigma_rr equals kp^2 (2 mu J0'' - lam J0) c for the pure mode-0 field
    expected = c * kp**2 * (2 * BG.mu * bessel_j_second(0, kp * r)
                            - BG.lam * bessel_j(0, kp * r))
    assert sigma[0] == pytest.approx(expected, rel=1e-12)
    assert sigma[1] == 0.0


def test_zero_coefficients_give_zero():
    sigma, u = traction_coeffs(BG, 3, 1.1, OMEGA, [0, 0, 0, 0])
    assert np.all(sigma == 0) and np.all(u == 0)


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
        traction_coeffs(BG, 1, 0.0, OMEGA, [1, 0, 0, 0])


@pytest.mark.parametrize("n", [-1, -3])
def test_negative_order_rejected(n):
    with pytest.raises(ValueError, match="order must be >= 0"):
        traction_coeffs(BG, n, 1.0, OMEGA, [1, 0, 0, 0])


# ---------------------------------------------------------------------------
# assembly anchors


def test_homogeneous_reduction_matches_closed_form():
    config = LayeredDiskConfig(radii=(2.0, 0.7, 0.3), media=(BG, BG, BG), inner="core")
    for n_max in (16, 48):
        op = assemble_ntd(config, OMEGA, n_max=n_max)
        for n in sorted({0, 1, 2, 7, 16, n_max}):
            ref = free_disk_block(BG, n, 2.0, OMEGA)
            assert np.abs(op.blocks[n] - ref).max() < 1e-10


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


@pytest.mark.parametrize("h, mode", [(0.05, 90), (0.005, 71)])
def test_overflowed_mode_raises_typed_error(h, mode):
    # the unscaled Hankel functions of the small inner radii overflow
    # first at these modes; the error names the mode and stays a LinAlgError
    config = build_near_cloak(h, 1.0, 1.0, 1.0, 0.0, content=DEFAULT_CONTENTS["stiff"],
                              background=BG).virtual
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


def test_mode_decoupling_structure():
    sol = solve_mode(uniform_disk(BG), OMEGA, 4, (1.0, 0.5))
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
    f_res = abs(2 * mu * bessel_j_second(0, kp1 * r1) - lam * bessel_j(0, kp1 * r1))
    assert f_res < 1e-8
    kp2 = OMEGA * np.sqrt(res.rho2 / (lam + 2 * mu))
    c1, c2 = res.c
    u_jump = abs(c1 * kp1 * bessel_j_prime(0, kp1 * r0)
                 - c2 * kp2 * bessel_j_prime(0, kp2 * r0))
    du_jump = abs(c1 * kp1**2 * bessel_j_second(0, kp1 * r0)
                  - c2 * kp2**2 * bessel_j_second(0, kp2 * r0))
    assert u_jump + du_jump < 1e-8
    assert abs(np.linalg.norm(res.c) - 1.0) < 1e-12


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


def test_energy_identity_lossless_is_zero():
    config = LayeredDiskConfig(
        radii=(2.0, 0.1, 0.05),
        media=(BG, IsotropicMedium(0.01, 0.01, 1.0), IsotropicMedium(1.0, 1.0, 100.0)),
        inner="core",
    )
    resid, lhs, rhs = energy_identity_check(config, OMEGA, {1: (0.7, 0.3)})
    assert lhs == 0.0
    assert abs(rhs) < 1e-12


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
        du = sol.boundary_displacement() - free_disk_block(BG, n, R, OMEGA) @ tr
        rhs_ref += -fac * R * np.imag(tr[0] * np.conj(du[0]) + tr[1] * np.conj(du[1]))
    assert lhs == pytest.approx(lhs_ref, rel=1e-12)
    assert rhs == pytest.approx(rhs_ref, rel=1e-12)


def test_energy_identity_quadratic_scaling():
    nc = build_near_cloak(0.1, 1.0, 1.0, 1.0, 0.0, content=BG)
    one = energy_identity_check(nc.virtual, OMEGA, {2: (0.5, 0.1)})
    two = energy_identity_check(nc.virtual, OMEGA, {2: (1.0, 0.2)})
    assert two[1] == pytest.approx(4.0 * one[1], rel=1e-10)
    assert two[2] == pytest.approx(4.0 * one[2], rel=1e-10)


# ---------------------------------------------------------------------------
# P/S decomposition


def test_ps_decompose_pure_pressure():
    field = ModeField(BG, OMEGA, 2, (("J", "P", 1.0), ("J", "S", 0.0)))
    p, s = ps_decompose(field)
    assert len(s.terms) == 1 and s.terms[0][2] == 0.0
    r = 1.1
    np.testing.assert_allclose(p.boundary_values(r), field.boundary_values(r))


def test_ps_decompose_fd_grad_div_oracle():
    # reconstruct v_p as -(1/kp^2) grad div v by finite differences and
    # compare with the potential split
    field = ModeField(BG, OMEGA, 1, (("J", "P", 0.6 + 0.2j), ("J", "S", -0.4 + 0.9j)))
    p, s = ps_decompose(field)
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


# ---------------------------------------------------------------------------
# serialization


def test_ntd_json_roundtrip():
    nc = build_near_cloak(0.1, 1.0, 1.0, 1.0, 0.0, content=BG)
    op = assemble_ntd(nc.virtual, OMEGA, 4)
    op2 = ntd_from_json(ntd_to_json(op))
    assert op2.omega == op.omega and op2.n_max == op.n_max
    np.testing.assert_allclose(op2.blocks, op.blocks, rtol=0, atol=0)
