"""Acceptance gate: every verification criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line
per criterion. The sweep fixtures are shared so the whole gate stays
well under the one-minute budget.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import jv, jvp

from elastocloak import (
    IsotropicMedium,
    assemble_ntd,
    blowup_map,
    build_near_cloak,
    check_legendre,
    energy_identity_check,
    find_resonant_densities,
    free_disk_ntd,
    identity_map,
    ideal_cloak_polar,
    iso_stiffness,
    lining_config,
    mode_system_condition,
    ntd_distance,
    pushforward_density,
    pushforward_stiffness,
    regularized_blowup_map,
    resonant_config,
    solve_exterior_cavity,
    symmetry_report,
)
from elastocloak.harness import kernel_check, loglog_fit
from elastocloak.modesolver import LayeredDiskConfig, _j0_derivatives, free_disk_block
from elastocloak.wavefields import _radial

BG = IsotropicMedium(1.0, 1.0, 1.0)
OMEGA = 1.0
N_MAX = 16
H_SWEEP = (0.2, 0.1, 0.05, 0.025)
CONTENTS = {
    "soft": IsotropicMedium(0.2, 0.2, 1.0),
    "stiff": IsotropicMedium(5.0, 5.0, 1.0),
    "heavy": IsotropicMedium(1.0, 1.0, 4.0),
}


def report(num, passed, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def convergence_data():
    t0 = time.perf_counter()
    ref = free_disk_ntd(BG, 2.0, OMEGA, N_MAX)
    dists = {}
    for name, content in CONTENTS.items():
        row = []
        for h in H_SWEEP:
            nc = build_near_cloak(h, 1.0, 1.0, 1.0, 0.0, content=content, background=BG)
            row.append(ntd_distance(assemble_ntd(nc.virtual, OMEGA, N_MAX), ref))
        dists[name] = row
    return {"dists": dists, "seconds": time.perf_counter() - t0}


def test_criterion_1_convergence_rate(convergence_data):
    ok = True
    details = []
    for name, row in convergence_data["dists"].items():
        fit = loglog_fit(H_SWEEP, row)
        details.append(f"{name}: slope={fit.slope:.3f} r2={fit.r2:.4f}")
        ok &= 1.6 <= fit.slope <= 2.4 and fit.r2 >= 0.98
    runtime = convergence_data["seconds"]
    ok &= runtime < 60.0
    report(1, ok, "; ".join(details) + f"; runtime={runtime:.1f}s (< 60 s)")


def test_criterion_2_content_independence(convergence_data):
    spreads = []
    for i, h in enumerate(H_SWEEP):
        vals = [row[i] for row in convergence_data["dists"].values()]
        spreads.append((max(vals) - min(vals)) / max(vals))
    worst = max(spreads)
    report(2, worst <= 0.5, f"max cross-content spread {worst:.3f} (<= 0.5)")


def test_criterion_3_traction_free_lining():
    dists = []
    for h in H_SWEEP:
        nc = build_near_cloak(h, 1.0, 1.0, 1.0, 0.0, content=BG, background=BG)
        lossy = assemble_ntd(nc.virtual, OMEGA, N_MAX)
        cavity = assemble_ntd(lining_config(h, BG), OMEGA, N_MAX)
        dists.append(ntd_distance(lossy, cavity))
    fit = loglog_fit(H_SWEEP, dists)
    report(3, fit.slope >= 1.6, f"lining slope {fit.slope:.3f} (>= 1.6), r2={fit.r2:.4f}")


def test_criterion_4_resonance_construction():
    lam, mu, r0, r1 = 1.0, 1.0, 0.5, 1.0
    res = find_resonant_densities(lam, mu, r0, r1, OMEGA)
    kp1 = OMEGA * np.sqrt(res.rho1 / (lam + 2 * mu))
    kp2 = OMEGA * np.sqrt(res.rho2 / (lam + 2 * mu))
    # oracle: scipy's jv/jvp, outside the library
    f_res = abs(2 * mu * jvp(0, kp1 * r1, 2) - lam * jv(0, kp1 * r1))
    c1, c2 = res.c
    trans = abs(c1 * kp1 * jvp(0, kp1 * r0)
                - c2 * kp2 * jvp(0, kp2 * r0)) + abs(
        c1 * kp1**2 * jvp(0, kp1 * r0, 2)
        - c2 * kp2**2 * jvp(0, kp2 * r0, 2)
    )
    config = resonant_config(lam, mu, r0, r1, res)
    cond_at = mode_system_condition(config, OMEGA, 0)
    off_cfg = LayeredDiskConfig(
        radii=config.radii,
        media=(config.media[0], IsotropicMedium(lam, mu, res.rho2 * 1.001)),
        inner="core",
    )
    spike = cond_at / mode_system_condition(off_cfg, OMEGA, 0)
    ok = res.det_residual < 1e-8 and f_res < 1e-8 and trans < 1e-8 and spike > 1e3
    report(4, ok, f"det={res.det_residual:.2e} Tu1={f_res:.2e} "
                  f"trans={trans:.2e} spike={spike:.2e}")


def test_criterion_5_exterior_cavity_scaling():
    tractions = {0: (1.0, 0.3), 1: (0.5, 0.2), 2: (0.3, 0.1), 3: (0.2, 0.4)}
    norms = [solve_exterior_cavity(h, tractions, OMEGA, BG).boundary_norm(2.0)
             for h in H_SWEEP]
    fit = loglog_fit(H_SWEEP, norms)
    report(5, 0.7 <= fit.slope <= 1.3, f"cavity trace slope {fit.slope:.3f} in [0.7, 1.3]")


def test_criterion_6_energy_identity():
    # each trial is a random boundary traction: a random coefficient set
    # across modes 0..5 (isolated very high modes drive both sides to the
    # 1e-15 absolute floor where a relative test is meaningless)
    nc = build_near_cloak(0.1, 1.0, 1.0, 1.0, 0.0,
                          content=IsotropicMedium(2.0, 1.0, 1.0), background=BG)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        tractions = {
            n: tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for n in range(6)
        }
        resid, _, _ = energy_identity_check(nc.virtual, OMEGA, tractions)
        worst = max(worst, resid)
    report(6, worst < 1e-6, f"worst damping-balance residual {worst:.2e} (< 1e-6)")


def test_criterion_7_kernel_suite():
    res = kernel_check({"omega": OMEGA, "kernelcheck": {"n_pairs": 1000}})
    by_name = {c["name"]: c for c in res["checks"]}
    ok = (
        by_name["reciprocity"]["value"] <= 1e-12
        and by_name["navier_residual"]["value"] <= 1e-6
        and by_name["series_3d"]["value"] <= 1e-10
        and by_name["gap_rate"]["value"] <= 2.0
    )
    detail = " ".join(f"{k}={by_name[k]['value']:.2e}"
                      for k in ("reciprocity", "navier_residual", "series_3d", "gap_rate"))
    report(7, ok, detail)


def test_criterion_8_pushforward_suite():
    med = IsotropicMedium(1.0, 1.0)
    C0 = iso_stiffness(med, 2)
    F = blowup_map(2)
    Ct = pushforward_stiffness(C0, F, 1.5)
    rep = symmetry_report(Ct, tol=1e-14)
    major_exact = rep.major
    minor_broken = rep.max_violation > 1e-3
    rng = np.random.default_rng(1)
    closed_err = 0.0
    for r in 1.0 + 1e-3 + (1.0 - 1e-3) * rng.random(100):
        C, rho = ideal_cloak_polar(med, float(r))
        Cn = pushforward_stiffness(C0, F, float(r))
        closed_err = max(closed_err, float(np.abs(C.entries - Cn.entries).max()))
        closed_err = max(closed_err,
                         abs(complex(rho) - pushforward_density(1.0, F, float(r))))
    ident = np.abs(pushforward_stiffness(C0, identity_map(2), 1.3).entries
                   - C0.entries).max()
    Fh = regularized_blowup_map(0.25, 2)
    elliptic_all = True
    for r in 1.02 + 0.96 * rng.random(100):
        ok, c0 = check_legendre(pushforward_stiffness(C0, Fh, float(r)))
        elliptic_all &= ok and c0 > 0
    ok = major_exact and minor_broken and closed_err < 1e-12 and ident == 0.0 \
        and elliptic_all
    report(8, ok, f"major={major_exact} minor_violation={rep.max_violation:.3f} "
                  f"closed_vs_numeric={closed_err:.2e} identity={ident} "
                  f"ellipticity_100pts={elliptic_all}")


def test_criterion_9_homogeneous_reduction():
    config = LayeredDiskConfig(radii=(2.0, 0.9, 0.4), media=(BG, BG, BG), inner="core")
    op = assemble_ntd(config, OMEGA, N_MAX)
    worst = max(
        float(np.abs(op.blocks[n] - free_disk_block(BG, n, 2.0, OMEGA)).max())
        for n in range(N_MAX + 1)
    )
    report(9, worst < 1e-10, f"multi-layer vs closed-form anchor {worst:.2e} (< 1e-10)")


def test_criterion_10_special_functions():
    # identities on 10^3 complex points; target-relative accuracy is
    # measured where the exponential J/Y growth leaves double-precision
    # headroom over the O(1/z) Wronskian (|Im z| <= 5)
    rng = np.random.default_rng(2)
    mag = rng.uniform(1e-3, 50.0, 1000)
    ang = rng.uniform(-np.pi, np.pi, 1000)
    z = mag * np.exp(1j * ang)
    z = np.where(np.abs(z.imag) > 5.0, z.real + 1j * np.sign(z.imag) * 5.0, z)
    # W[J_1, H_1] = 2i / (pi z) (H = J + iY) on the mode solver's tables
    j, dj = _radial("J", np.array([1]), z)
    h, dh = _radial("H", np.array([1]), z)
    target = 2j / (np.pi * z)
    worst_w = float((np.abs((j * dh - dj * h)[:, 0] - target) / np.abs(target)).max())
    worst_r = 0.0
    for zz, (j0, j1, j2) in zip(z, _radial("J", np.array([0, 1, 2]), z)[0]):
        lhs = j0 + j2
        rhs = (2.0 / zz) * j1
        scale = max(abs(lhs), abs(rhs))
        if scale > 1e-250:
            worst_r = max(worst_r, abs(lhs - rhs) / scale)
    # independent series bisection for the first positive zero of J_0
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        val = sum((-1.0) ** m * (mid / 2) ** (2 * m) / math.factorial(m) ** 2
                  for m in range(40))
        lo, hi = (mid, hi) if val > 0 else (lo, mid)
    zero_oracle = 0.5 * (lo + hi)
    jzero_err = abs(_j0_derivatives(np.array([zero_oracle]))[0][0])
    ok = worst_w <= 1e-10 and worst_r <= 1e-10 and jzero_err < 1e-12
    report(10, ok, f"wronskian={worst_w:.2e} recurrence={worst_r:.2e} "
                   f"j0_zero_residual={jzero_err:.2e}")
