"""Experiment drivers: design tables, convergence sweeps, resonance and
kernel-property reports.

All drivers are pure functions from a configuration dictionary to plain
data (lists/dicts of Python floats), so the CLI layer only does I/O.
Rate fits are unweighted least squares on log-log data over the
unflagged rows; fits with R^2 < 0.98, or with fewer than two unflagged
rows (slope NaN), are flagged as rejected, and all-zero distance data
raises (degenerate input, nothing to fit).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import specfun
from .cloaks import build_near_cloak, ideal_cloak_polar, lining_config
from .kernels import (
    asymptotic_gap_2d,
    circle_quadrature,
    dl_potential,
    eta_constant,
    green_omega,
    green_static,
    green_traction,
    layer_operators,
)
from .modesolver import (
    LayeredDiskConfig,
    NearResonanceError,
    assemble_ntd,
    find_resonant_densities,
    free_disk_condition_scan,
    free_disk_ntd,
    mode_system_condition,
    ntd_distance,
    per_mode_distance,
)
from .tensors import IsotropicMedium, check_legendre
from .wavefields import wavenumbers

__all__ = [
    "FitResult",
    "loglog_fit",
    "design_table",
    "convergence_sweep",
    "lining_sweep",
    "resonance_report",
    "kernel_check",
    "DEFAULT_CONTENTS",
]

DEFAULT_CONTENTS = {
    "soft": IsotropicMedium(0.2, 0.2, 1.0),
    "stiff": IsotropicMedium(5.0, 5.0, 1.0),
    "heavy": IsotropicMedium(1.0, 1.0, 4.0),
}

_N_MAX_CEILING = 48


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float
    rejected: bool


def loglog_fit(h_values, distances, r2_min=0.98):
    """Least-squares slope of log(distance) against log(h)."""
    h = np.asarray(h_values, dtype=float)
    d = np.asarray(distances, dtype=float)
    if h.size < 2:
        raise ValueError("need at least two points to fit a rate")
    if np.any(d <= 0):
        raise ValueError("degenerate data: distances must be positive to fit a rate")
    x, y = np.log(h), np.log(d)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return FitResult(
        slope=float(slope), intercept=float(intercept), r2=r2, rejected=r2 < r2_min
    )


def _background(config):
    bg = config.get("background", {})
    return IsotropicMedium(bg.get("lambda", 1.0), bg.get("mu", 1.0), 1.0)


def _content_from(d):
    return IsotropicMedium(
        d.get("lambda", 1.0),
        d.get("mu", 1.0),
        complex(d.get("rho_re", 1.0), d.get("rho_im", 0.0)),
    )


def _cloak_params(config):
    c = config.get("cloak", {})
    return dict(
        h=c.get("h", 0.1),
        alpha=c.get("alpha", 1.0),
        beta=c.get("beta", 1.0),
        gamma=c.get("gamma", 1.0),
        delta=c.get("delta", 0.0),
    )


def design_table(config):
    """Ideal-cloak material table over a radius grid.

    Rows: radius, the eight nontrivial polar entries, transformed
    density, and the estimated ellipticity floor. Grid points at r <= 1
    are clipped (with a note in the result).
    """
    bg = _background(config)
    sec = config.get("design", {})
    r_min = float(sec.get("r_min", 1.02))
    r_max = float(sec.get("r_max", 2.0))
    num = int(sec.get("num", 25))
    grid = np.linspace(r_min, r_max, num) if num > 0 else np.array([])
    clipped = int(np.sum(grid <= 1.0))
    grid = grid[grid > 1.0]
    rows = []
    for r in grid:
        C, rho = ideal_cloak_polar(bg, float(r))
        E = C.entries.real
        _, c0 = check_legendre(C, samples=int(config.get("design_samples", 512)))
        rows.append(
            {
                "r": float(r),
                "C_rrrr": float(E[0, 0, 0, 0]),
                "C_tttt": float(E[1, 1, 1, 1]),
                "C_rrtt": float(E[0, 0, 1, 1]),
                "C_ttrr": float(E[1, 1, 0, 0]),
                "C_rttr": float(E[0, 1, 1, 0]),
                "C_trrt": float(E[1, 0, 0, 1]),
                "C_rtrt": float(E[0, 1, 0, 1]),
                "C_trtr": float(E[1, 0, 1, 0]),
                "rho": float(np.real(rho)),
                "min_ellipticity": float(c0),
            }
        )
    return {"rows": rows, "clipped_points": clipped}


def _sweep_distances(config, reference_op, make_config, n_max, omega):
    """Distances ||Lambda(h) - reference|| over the h grid, with flags."""
    h_values = list(config.get("convergence", {}).get("h_values", [0.2, 0.1, 0.05, 0.025]))
    rows = []
    for h in h_values:
        t0 = time.perf_counter()
        try:
            op = assemble_ntd(make_config(h), omega, n_max)
            tail = per_mode_distance(op, reference_op)
            dist = float(tail.max())
            tail_ratio = float(tail[-2:].max() / max(dist, 1e-300))
            rows.append(
                {
                    "h": float(h),
                    "distance": dist,
                    "tail_ratio": tail_ratio,
                    "seconds": time.perf_counter() - t0,
                    "flag": "",
                }
            )
        except NearResonanceError as exc:
            rows.append(
                {
                    "h": float(h),
                    "distance": float("nan"),
                    "tail_ratio": float("nan"),
                    "seconds": time.perf_counter() - t0,
                    "flag": f"near-resonance mode {exc.mode}",
                }
            )
    return rows


def _fit_rows(rows):
    """Rate fit over the unflagged rows; a rejected all-NaN fit when fewer
    than two remain."""
    ok = [r for r in rows if not r["flag"]]
    if len(ok) < 2:
        nan = float("nan")
        return FitResult(slope=nan, intercept=nan, r2=nan, rejected=True)
    return loglog_fit([r["h"] for r in ok], [r["distance"] for r in ok])


def convergence_sweep(config):
    """Near-cloak convergence: fitted rate of ||Lambda_h - Lambda_0||.

    Runs the h sweep for each configured content (default: soft, stiff,
    heavy), raising n_max automatically while the last two modes carry
    more than 1% of the distance. Also reports the cross-content spread
    at each h (content independence) and a frequency preflight.
    """
    omega = float(config.get("omega", 1.0))
    n_max = int(config.get("n_max", 16))
    bg = _background(config)
    params = _cloak_params(config)
    contents = config.get("convergence", {}).get("contents")
    if contents:
        contents = {c.get("name", f"content{i}"): _content_from(c) for i, c in enumerate(contents)}
    else:
        contents = dict(DEFAULT_CONTENTS)

    preflight = free_disk_condition_scan(bg, 2.0, omega, n_max)
    results = {}
    while True:
        ref = free_disk_ntd(bg, 2.0, omega, n_max)
        results = {}
        worst_tail = 0.0
        for name, content in contents.items():
            def make(h):
                p = dict(params)
                p["h"] = h
                return build_near_cloak(content=content, background=bg, **p).virtual

            rows = _sweep_distances(config, ref, make, n_max, omega)
            worst_tail = max(
                worst_tail,
                max((r["tail_ratio"] for r in rows if not r["flag"]), default=0.0),
            )
            results[name] = {"rows": rows, "fit": _fit_rows(rows).__dict__}
        if worst_tail <= 0.01 or n_max >= _N_MAX_CEILING:
            break
        n_max = min(n_max + 8, _N_MAX_CEILING)

    # content-independence spread per h
    h_values = [r["h"] for r in next(iter(results.values()))["rows"]]
    spreads = []
    for i, h in enumerate(h_values):
        ds = [res["rows"][i]["distance"] for res in results.values() if not res["rows"][i]["flag"]]
        if ds:
            spreads.append({"h": h, "spread": (max(ds) - min(ds)) / max(ds)})
    return {
        "omega": omega,
        "n_max": n_max,
        "preflight_max_condition": preflight,
        "contents": results,
        "spreads": spreads,
    }


def lining_sweep(config):
    """Rate at which the lossy layer realizes the traction-free lining.

    Compares the near-cloak NtD against the traction-free-cavity NtD of
    the same virtual geometry across the h grid. The report also carries
    two qualitative side scans (not pass/fail gated): the per-h distance
    as damping grows, and the fitted rate with a larger scaling exponent
    delta (the rate constant does not depend on it).
    """
    omega = float(config.get("omega", 1.0))
    n_max = int(config.get("n_max", 16))
    bg = _background(config)
    params = _cloak_params(config)
    content = _content_from(config.get("content", {}))
    h_values = list(config.get("convergence", {}).get("h_values", [0.2, 0.1, 0.05, 0.025]))

    def distance_at(h, p):
        """Distance and flag at (h, p); NaN and a flag near a resonance."""
        lossy = build_near_cloak(content=content, background=bg, **{**p, "h": h}).virtual
        cavity = lining_config(h, bg)
        try:
            d = ntd_distance(assemble_ntd(lossy, omega, n_max), assemble_ntd(cavity, omega, n_max))
        except NearResonanceError as exc:
            return {"distance": float("nan"), "flag": f"near-resonance mode {exc.mode}"}
        return {"distance": float(d), "flag": ""}

    rows = []
    for h in h_values:
        t0 = time.perf_counter()
        row = distance_at(h, params)
        rows.append({"h": float(h), **row, "seconds": time.perf_counter() - t0})
    fit = _fit_rows(rows)

    h_mid = h_values[min(1, len(h_values) - 1)]
    beta_scan = [
        {"beta": b, **distance_at(h_mid, {**params, "beta": b})}
        for b in (params["beta"], 4.0 * params["beta"], 16.0 * params["beta"])
    ]
    delta_rows = [{"h": h, **distance_at(h, {**params, "delta": params["delta"] + 0.5})}
                  for h in h_values]
    delta_slope = _fit_rows(delta_rows).slope
    return {
        "omega": omega,
        "n_max": n_max,
        "rows": rows,
        "fit": fit.__dict__,
        "beta_scan_at_h": h_mid,
        "beta_scan": beta_scan,
        "delta_shift_slope": None if np.isnan(delta_slope) else delta_slope,
    }


def resonance_report(config):
    """Construct a cloak-busting inclusion and scan its conditioning spike."""
    sec = config.get("resonance", {})
    r0 = float(sec.get("r0", 0.5))
    r1 = float(sec.get("r1", 1.0))
    if r0 >= r1:
        raise ValueError(f"need r0 < r1, got r0={r0}, r1={r1}")
    bg = _background(config)
    lam, mu = float(np.real(bg.lam)), float(np.real(bg.mu))
    omega = float(config.get("omega", 1.0))
    res = find_resonant_densities(lam, mu, r0, r1, omega)

    kp1 = omega * np.sqrt(res.rho1 / (lam + 2 * mu))
    f_val = abs(2 * mu * specfun.bessel_j_second(0, kp1 * r1).real
                - lam * specfun.bessel_j(0, kp1 * r1).real)
    kp2 = omega * np.sqrt(res.rho2 / (lam + 2 * mu))
    c1, c2 = res.c
    u_jump = abs(c1 * kp1 * specfun.bessel_j_prime(0, kp1 * r0)
                 - c2 * kp2 * specfun.bessel_j_prime(0, kp2 * r0))
    du_jump = abs(c1 * kp1**2 * specfun.bessel_j_second(0, kp1 * r0)
                  - c2 * kp2**2 * specfun.bessel_j_second(0, kp2 * r0))

    scan = []
    for fac in [1.0 - 1e-3, 1.0, 1.0 + 1e-3]:
        r2 = res.rho2 * fac
        cfg = LayeredDiskConfig(
            radii=(r1, r0),
            media=(IsotropicMedium(lam, mu, res.rho1), IsotropicMedium(lam, mu, r2)),
            inner="core",
        )
        scan.append({"rho2": float(r2), "condition": mode_system_condition(cfg, omega, 0)})
    conds = [s["condition"] for s in scan]
    spike_ratio = conds[1] / max(conds[0], conds[2])
    return {
        "omega": omega,
        "lambda": lam,
        "mu": mu,
        "r0": r0,
        "r1": r1,
        "rho1": res.rho1,
        "rho2": res.rho2,
        "t_star": res.t_star,
        "t1": res.t1,
        "t2": res.t2,
        "c": [[res.c[0].real, res.c[0].imag], [res.c[1].real, res.c[1].imag]],
        "det_residual": res.det_residual,
        "outer_traction_residual": float(f_val),
        "transmission_residual": float(u_jump + du_jump),
        "condition_scan": scan,
        "spike_ratio": float(spike_ratio),
    }


def kernel_check(config, corrupt_eta=False):
    """Property suite for the fundamental-solution layer.

    Checks reciprocity, the Navier residual of kernel columns, the 3D
    series against the closed form, the 2D small-separation rate, the
    double-layer jump relation, and the interior Calderon identity.
    ``corrupt_eta`` negates the gap constant to demonstrate the suite
    actually bites. Returns per-check dicts with ``passed`` flags.
    """
    omega = float(config.get("omega", 1.0))
    seed = int(config.get("seed", 0))
    bg = _background(config)
    rng = np.random.default_rng(seed)
    checks = []

    static_only = omega == 0.0

    # reciprocity: Pi(x, y) == Pi(y, x)^T
    worst = 0.0
    n_pairs = int(config.get("kernelcheck", {}).get("n_pairs", 200))
    for _ in range(n_pairs):
        x, y = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2)
        if np.linalg.norm(x - y) < 1e-3:
            continue
        G = green_omega(x, y, omega, bg, 2) if not static_only else green_static(x, y, bg, 2)
        Gt = green_omega(y, x, omega, bg, 2) if not static_only else green_static(y, x, bg, 2)
        worst = max(worst, float(np.abs(G - Gt.T).max()))
    checks.append({"name": "reciprocity", "value": worst, "tol": 1e-12,
                   "passed": worst <= 1e-12})

    if not static_only:
        checks.append(_navier_check(omega, bg, rng))
        checks.append(_series_3d_check(omega, bg))
        checks.append(_gap_rate_check(omega, bg, corrupt_eta))
        checks.append(_jump_check(omega, bg, rng))
        checks.append(_calderon_check(omega, bg))
    else:
        checks.append(_jump_check(0.0, bg, rng))

    return {"omega": omega, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


def _navier_residual_once(omega, medium, x, y, step):
    lam, mu, rho = medium.lam, medium.mu, medium.rho
    E = np.eye(2)

    def P(z):
        return green_omega(z, y, omega, medium, 2)

    P0 = P(x)
    lap = sum((P(x + step * E[j]) - 2 * P0 + P(x - step * E[j])) / step**2 for j in range(2))
    gd = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for m in range(2):
            if i == m:
                d2 = (P(x + step * E[i]) - 2 * P0 + P(x - step * E[i])) / step**2
            else:
                d2 = (
                    P(x + step * (E[i] + E[m]))
                    - P(x + step * (E[i] - E[m]))
                    - P(x - step * (E[i] - E[m]))
                    + P(x - step * (E[i] + E[m]))
                ) / (4 * step**2)
            gd[i, :] += d2[m, :]
    return mu * lap + (lam + mu) * gd + omega**2 * rho * P0, P0


def _navier_check(omega, medium, rng):
    """Richardson-extrapolated FD residual of the Navier operator on columns."""
    y = np.array([0.0, 0.0])
    worst = 0.0
    for _ in range(4):
        x = rng.uniform(0.6, 1.4) * _unit(rng)
        r_h, P0 = _navier_residual_once(omega, medium, x, y, 4e-3)
        r_h2, _ = _navier_residual_once(omega, medium, x, y, 2e-3)
        resid = (4.0 * r_h2 - r_h) / 3.0
        worst = max(worst, float(np.abs(resid).max() / np.abs(omega**2 * P0).max()))
    return {"name": "navier_residual", "value": worst, "tol": 1e-6, "passed": worst <= 1e-6}


def _unit(rng):
    th = rng.uniform(0, 2 * np.pi)
    return np.array([np.cos(th), np.sin(th)])


def _series_3d_check(omega, medium, n_terms=40, d=0.5):
    """Closed-form 3D kernel against its entire Taylor series.

    The series coefficients follow from expanding exp(ikd)/(4 pi d) and
    applying grad grad termwise; the medium enters through the (n+2)-th
    powers of the wavenumbers and the rho omega^2 divisor.
    """
    import math as _math

    kp, ks = wavenumbers(medium, omega)
    w2 = complex(medium.rho) * omega**2
    x = np.array([0.1, 0.2, 0.3])
    u = d * np.array([0.6, 0.48, 0.64]) / np.linalg.norm([0.6, 0.48, 0.64])
    y = x - u
    A = np.zeros((3, 3), dtype=complex)
    for n in range(n_terms):
        base = 1j**n / ((n + 2) * _math.factorial(n) * w2)
        cI = base * ((n + 1) * ks ** (n + 2) + kp ** (n + 2)) * d ** (n - 1)
        cU = base * (n - 1) * (ks ** (n + 2) - kp ** (n + 2)) * d ** (n - 3)
        A += (cI * np.eye(3) - cU * np.outer(u, u)) / (4 * np.pi)
    closed = green_omega(x, y, omega, medium, 3)
    err = float(np.abs(A - closed).max())
    return {"name": "series_3d", "value": err, "tol": 1e-10, "passed": err <= 1e-10}


def _gap_rate_check(omega, medium, corrupt_eta=False):
    """d^2 log d decay of the small-separation remainder (dyadic fit)."""
    x = np.array([0.3, 0.4])
    direction = _unit(np.random.default_rng(7))
    Ks = []
    for d in (1e-3, 1e-4):
        gap = asymptotic_gap_2d(x, x - d * direction, omega, medium)
        if corrupt_eta:
            gap += 2.0 * eta_constant(omega, medium) * np.eye(2)
        Ks.append(float(np.abs(gap).max() / (d**2 * abs(np.log(d)))))
    ratio = max(Ks) / min(Ks)
    return {"name": "gap_rate", "value": ratio, "tol": 2.0, "passed": ratio <= 2.0}


def _jump_check(omega, medium, rng, n_points=512, eps=0.02):
    """Double-layer jump: exterior minus interior trace equals the density."""
    quad = circle_quadrature(2.0, n_points)
    t = quad.angles
    density = np.stack([np.cos(t) + 0.3 * np.sin(2 * t), 0.5 + np.sin(t)], axis=1)
    i0 = 17
    x0 = quad.nodes[i0]
    out = dl_potential(quad, density, (1 + eps) * x0, omega, medium)
    inn = dl_potential(quad, density, (1 - eps) * x0, omega, medium)
    jump = out - inn
    err = float(np.abs(jump - density[i0]).max() / np.abs(density[i0]).max())
    return {"name": "dl_jump", "value": err, "tol": 5e-2, "passed": err <= 5e-2}


def _calderon_check(omega, medium, sizes=(64, 128)):
    """Interior Calderon identity (1/2) u + K u = S (T u); spectral decay."""
    src = np.array([3.0, 1.0])
    q = np.array([0.7, -0.4])
    errs = []
    for N in sizes:
        quad = circle_quadrature(2.0, N)
        ops = layer_operators(quad, omega, medium)
        u = np.zeros((N, 2), dtype=complex)
        T = np.zeros((N, 2), dtype=complex)
        for i in range(N):
            u[i] = green_omega(quad.nodes[i], src, omega, medium, 2) @ q
            Xi = green_traction(src, quad.nodes[i], quad.normals[i], omega, medium, 2)
            T[i] = Xi.T @ q
        uf, Tf = u.reshape(-1), T.reshape(-1)
        errs.append(float(np.abs(0.5 * uf + ops.K @ uf - ops.S @ Tf).max()))
    improving = errs[-1] < 1e-7 and errs[-1] <= errs[0]
    return {"name": "calderon", "value": errs[-1], "tol": 1e-7,
            "passed": improving, "errors": errs}
