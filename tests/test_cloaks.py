"""Ideal-cloak closed forms, near-cloak assembly, the physical device."""

import numpy as np
import pytest

from elastocloak import harness
from elastocloak import (
    IsotropicMedium,
    assemble_ntd,
    blowup_map,
    build_near_cloak,
    free_disk_ntd,
    ideal_cloak_polar,
    iso_stiffness,
    ntd_distance,
    pushforward_density,
    pushforward_stiffness,
)
from elastocloak.modesolver import LayeredDiskConfig

BG = IsotropicMedium(1.0, 1.0, 1.0)


def test_polar_entries_at_outer_boundary():
    C, rho = ideal_cloak_polar(BG, 2.0)
    E = C.entries.real
    assert E[0, 0, 0, 0] == pytest.approx(1.5)
    assert E[1, 1, 1, 1] == pytest.approx(6.0)
    assert E[0, 0, 1, 1] == pytest.approx(1.0)
    assert E[0, 1, 1, 0] == pytest.approx(1.0)
    assert rho == pytest.approx(2.0)


def test_degeneration_toward_inner_boundary():
    rs = [1.5, 1.1, 1.01, 1.001]
    rrrr = [ideal_cloak_polar(BG, r)[0].entries[0, 0, 0, 0].real for r in rs]
    tttt = [ideal_cloak_polar(BG, r)[0].entries[1, 1, 1, 1].real for r in rs]
    assert rrrr[0] > rrrr[1] > rrrr[2] > rrrr[3] > 0
    assert tttt[0] < tttt[1] < tttt[2] < tttt[3]
    assert rrrr[-1] < 5e-3 and tttt[-1] > 1e3


def test_singular_radius_error():
    with pytest.raises(ValueError):
        ideal_cloak_polar(BG, 1.0)
    with pytest.raises(ValueError):
        ideal_cloak_polar(BG, 0.7)
    with pytest.raises(ValueError, match="got r = nan"):
        ideal_cloak_polar(BG, np.nan)


def test_closed_form_matches_pushforward_at_100_radii():
    med = IsotropicMedium(1.3, 0.6)
    C0 = iso_stiffness(med, 2)
    F = blowup_map(2)
    rng = np.random.default_rng(0)
    worst = 0.0
    for r in 1.0 + 1e-3 + (1.0 - 1e-3) * rng.random(100):
        C, rho = ideal_cloak_polar(med, float(r))
        Cn = pushforward_stiffness(C0, F, float(r))
        rn = pushforward_density(med.rho, F, float(r))
        worst = max(worst, float(np.abs(C.entries - Cn.entries).max()))
        worst = max(worst, abs(complex(rho) - rn))
    assert worst < 1e-12


def test_ideal_cloak_3d_uses_numeric_pushforward():
    r = 1.5
    C = pushforward_stiffness(iso_stiffness(BG, 3), blowup_map(3), r)
    rho = pushforward_density(BG.rho, blowup_map(3), r)
    # diagonal polar Jacobian: m = (1/2, r/(2(r-1)), r/(2(r-1)))
    m = np.array([0.5, r / (2 * (r - 1)), r / (2 * (r - 1))])
    det = m.prod()
    C0 = iso_stiffness(BG, 3).entries
    # C~_iqkp = m_q m_p C_iqkp / det for a diagonal polar Jacobian
    direct = np.einsum("iqkp,q,p->iqkp", C0, m, m) / det
    np.testing.assert_allclose(C.entries, direct, atol=1e-13)
    assert np.real(rho) == pytest.approx(1.0 / det, rel=1e-12)


def test_near_cloak_lossy_layer_values():
    nc = build_near_cloak(0.1, 1.0, 1.0, 1.0, 0.0, content=BG)
    lossy = nc.virtual.media[1]
    assert lossy.lam == pytest.approx(0.01)
    assert lossy.mu == pytest.approx(0.01)
    assert lossy.rho == 1.0 + 1.0j
    # virtual core density is the content density rescaled by 1/h^2
    assert nc.virtual.media[2].rho == pytest.approx(100.0)
    assert nc.virtual.radii == (2.0, 0.1, 0.05)


def test_near_cloak_alpha_beta_density():
    nc = build_near_cloak(0.2, 0.7, 2.5, 1.0, 0.0, content=BG)
    assert nc.virtual.media[1].rho == pytest.approx(0.7 + 2.5j)


def test_near_cloak_parameter_validation():
    with pytest.raises(ValueError):
        build_near_cloak(0.6, 1, 1, 1, 0, content=BG)
    with pytest.raises(ValueError):
        build_near_cloak(0.1, 0, 1, 1, 0, content=BG)
    with pytest.raises(ValueError):
        build_near_cloak(0.1, 1, 1, 1, -0.5, content=BG)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "delta"])
def test_near_cloak_refuses_non_finite_constants(name, value):
    # alpha = nan built a device whose lining density failed later in
    # wavenumbers; an infinite delta gave the lining zero moduli
    consts = {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "delta": 0.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        build_near_cloak(0.1, content=BG, **consts)


def test_degenerate_configuration_is_uniform_disk():
    # content == background with the lossy layer replaced by background
    nc = build_near_cloak(0.1, 1, 1, 1, 0, content=BG)
    degenerate = LayeredDiskConfig(radii=nc.virtual.radii, media=(BG, BG, BG), inner="core")
    omega, n_max = 1.0, 8
    op = assemble_ntd(degenerate, omega, n_max)
    ref = free_disk_ntd(BG, 2.0, omega, n_max)
    assert ntd_distance(op, ref) < 1e-12


def test_physical_virtual_duality():
    nc = build_near_cloak(0.1, 1.0, 1.0, 1.0, 0.0,
                          content=IsotropicMedium(2.0, 0.5, 3.0))
    fmap = nc.map
    # cloaking layer: push-forward of the virtual background
    C0 = iso_stiffness(BG, 2)
    for r in (1.2, 1.6, 1.95):
        C_phys, rho_phys = nc.stiffness_at(r)
        C_ref = pushforward_stiffness(C0, fmap, float(r))
        rho_ref = pushforward_density(1.0, fmap, float(r))
        assert np.abs(C_phys.entries - C_ref.entries).max() < 1e-10
        assert abs(rho_phys - rho_ref) < 1e-10
    # lossy lining: scaling branch leaves 2D moduli unchanged,
    # density picks up h^2
    C_l, rho_l = nc.stiffness_at(0.7)
    lossy = nc.virtual.media[1]
    assert C_l.entries[0, 0, 0, 0] == pytest.approx(lossy.lam + 2 * lossy.mu, rel=1e-12)
    assert rho_l == pytest.approx(lossy.rho * 0.1**2, rel=1e-12)
    # content region: the scaling branch undoes the 1/h^2 of the virtual
    # core density, to rounding
    C_a, rho_a = nc.stiffness_at(0.3)
    assert rho_a == pytest.approx(3.0, rel=1e-15)
    assert C_a.entries[0, 0, 0, 0] == pytest.approx(3.0, rel=1e-14)


@pytest.mark.parametrize("h", [0.05, 0.1, 0.3, 1e-6])
def test_stiffness_at_interface_sides_and_bad_radii(h):
    nc = build_near_cloak(h, 1.0, 1.0, 1.0, 0.0, content=IsotropicMedium(2.0, 0.5, 3.0))
    bg, lining, core = nc.virtual.media

    def pushed(medium, r):
        return (pushforward_stiffness(iso_stiffness(medium, 2), nc.map, r).entries,
                pushforward_density(medium.rho, nc.map, r))

    # an interface belongs to the layer inside it: r = 1 to the lining,
    # r = 1/2 to the content
    for r, medium in ((2.0, bg), (1.0 + 1e-9, bg), (0.5 + 1e-9, lining),
                      (0.5, core), (1e-3, core)):
        C, rho = nc.stiffness_at(r)
        C_ref, rho_ref = pushed(medium, r)
        assert np.array_equal(C.entries, C_ref) and rho == rho_ref, r
    # r = 1 takes the lining through the inner branch x -> x/h, its limit
    # from inside: 2D moduli unchanged, density times h^2
    for r in (1.0, 1.0 - 1e-12):
        C, rho = nc.stiffness_at(r)
        np.testing.assert_allclose(C.entries, iso_stiffness(lining, 2).entries, rtol=1e-12)
        assert rho == pytest.approx(lining.rho * h**2, rel=1e-12), r
    for r in (np.nan, 0.0, -0.5, np.nextafter(2.0, 3.0), np.inf):
        with pytest.raises(ValueError, match="outside the device"):
            nc.stiffness_at(r)


def test_stiffness_at_a_subnormal_radius_reads_the_content():
    content = IsotropicMedium(2.0, 0.5, 3.0)
    nc = build_near_cloak(0.1, 1.0, 1.0, 1.0, 0.0, content=content)
    C, rho = nc.stiffness_at(5e-324)  # the preimage 5e-324 h underflows to 0
    np.testing.assert_allclose(C.entries, iso_stiffness(content, 2).entries, rtol=1e-14)
    assert rho == pytest.approx(3.0, rel=1e-14)


def test_design_table_ellipticity_collapses_toward_inner_boundary():
    rows = harness.design_table({"design": {"r_min": 1.0001, "r_max": 2.0, "num": 5}})["rows"]
    ell = np.array([row["min_ellipticity"] for row in rows])
    largest = np.array([max(abs(v) for k, v in row.items() if k.startswith("C_"))
                        for row in rows])
    # the ellipticity floor collapses and the largest entry blows up
    # toward r = 1
    assert np.all(np.diff(ell) > 0)
    assert np.all(np.diff(largest) < 0)
