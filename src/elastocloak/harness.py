"""Experiment drivers: design tables, convergence sweeps, resonance and
kernel-property reports.

All drivers are pure functions from a configuration dictionary to plain
data (lists/dicts of Python floats), so the CLI layer only does I/O.
Each refuses a config key that no command reads, naming its path.
The convergence and lining sweeps share one pipeline: ``_sweep_setup``
reads their common settings, and ``_sweep`` takes the distances of
config pairs from one walk per n_max, raising n_max the same way for
both. Rate fits are unweighted least squares on log-log data over the
unflagged rows; fits with R^2 < 0.98, or with fewer than two unflagged
rows (slope NaN), are flagged as rejected, and data with an h that is
not positive and finite, or a distance that is not, raises.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .cloaks import build_near_cloak, ideal_cloak_polar, lining_config
from .kernels import (
    _pi,
    _radial_pack,
    _xi,
    asymptotic_gap_2d,
    circle_quadrature,
    dl_potential,
    green_omega,
    layer_operators,
)
from .modesolver import (
    ModeOverflowError,
    _check_count,
    _free_disk_differences,
    _j0_derivatives,
    _weighted_smax,
    find_resonant_densities,
    mode_system_condition,
    resonant_config,
)
from .tensors import IsotropicMedium, check_legendre
from .wavefields import _special, wavenumbers

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
_R2_MIN = 0.98  # a rate fit of lower R^2 is rejected

# Every config key that some command reads: a section maps to its own keys,
# a list of sections to the keys of each entry, and a value to None.
_MEDIUM_KEYS = dict.fromkeys(("lambda", "mu", "rho_re", "rho_im"))
_CONFIG_KEYS = {
    "omega": None,
    "n_max": None,
    "seed": None,
    "background": dict.fromkeys(("lambda", "mu")),
    "cloak": dict.fromkeys(("alpha", "beta", "gamma", "delta")),
    "content": _MEDIUM_KEYS,
    "convergence": {"h_values": None, "contents": [{"name": None, **_MEDIUM_KEYS}]},
    "design": dict.fromkeys(("r_min", "r_max", "num")),
    "resonance": dict.fromkeys(("r0", "r1")),
    "kernelcheck": {"n_pairs": None},
}


def _check_keys(config, known=_CONFIG_KEYS, path=""):
    """Refuse a config key that no command reads, and a section that is not
    a table (or list of tables), naming its path: a misspelt key would
    otherwise run the default silently."""
    if not isinstance(config, dict):
        raise ValueError(f"config key {path[:-1]!r} must be a table" if path
                         else "the config must be a table")
    for key, value in config.items():
        where = f"{path}{key}"
        if key not in known:
            raise ValueError(f"unknown config key {where!r}: no command reads it")
        sub = known[key]
        if isinstance(sub, list):
            if not isinstance(value, list):
                raise ValueError(f"config key {where!r} must be a list of tables")
            for i, entry in enumerate(value):
                _check_keys(entry, sub[0], f"{where}[{i}].")
        elif sub is not None:
            _check_keys(value, sub, where + ".")


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float
    rejected: bool


def loglog_fit(h_values, distances):
    """Least-squares slope of log(distance) against log(h).

    The line comes in closed form from centered sums. Raises
    ``ValueError`` for fewer than two points, for h values that are all
    equal, and for an h or a distance that is not positive and finite.
    """
    h = np.asarray(h_values, dtype=float)
    d = np.asarray(distances, dtype=float)
    if h.size < 2:
        raise ValueError("need at least two points to fit a rate")
    if not (np.all(h > 0) and np.isfinite(h).all() and np.isfinite(d).all()):
        raise ValueError("h values must be positive and finite, distances finite")
    if np.any(d <= 0):
        raise ValueError("degenerate data: distances must be positive to fit a rate")
    x, y = np.log(h), np.log(d)
    xm, ym = float(x.mean()), float(y.mean())
    dx, dy = x - xm, y - ym
    sxx = float(dx @ dx)
    if sxx == 0:
        raise ValueError("degenerate data: h values must not all be equal")
    slope = float(dx @ dy) / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    ss_tot = float(dy @ dy)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 0.0
    return FitResult(slope=slope, intercept=intercept, r2=r2, rejected=r2 < _R2_MIN)


def _background(config):
    bg = config.get("background", {})
    return IsotropicMedium(bg.get("lambda", 1.0), bg.get("mu", 1.0), 1.0)


def _content_from(d):
    return IsotropicMedium(
        d.get("lambda", 1.0),
        d.get("mu", 1.0),
        complex(d.get("rho_re", 1.0), d.get("rho_im", 0.0)),
    )


def design_table(config):
    """Ideal-cloak material table over a radius grid.

    Rows: radius, the eight nontrivial polar entries, transformed
    density, and the exact ellipticity floor (``check_legendre``). Grid
    points at r <= 1 are clipped (with a note in the result). A
    ``design.num`` that is not a non-negative integer, and a
    ``design.r_min`` or ``design.r_max`` that is not finite, is refused
    with a ``ValueError`` naming the key.
    """
    _check_keys(config)
    bg = _background(config)
    sec = config.get("design", {})
    r_min = float(sec.get("r_min", 1.02))
    r_max = float(sec.get("r_max", 2.0))
    for key, value in (("r_min", r_min), ("r_max", r_max)):
        if not np.isfinite(value):
            raise ValueError(f"design.{key} must be finite, got {value}")
    num = sec.get("num", 25)
    _check_count(num, "design.num")
    grid = np.linspace(r_min, r_max, num)
    clipped = int(np.sum(grid <= 1.0))
    grid = grid[grid > 1.0]
    rows = []
    for r in grid:
        C, rho = ideal_cloak_polar(bg, float(r))
        E = C.entries.real
        _, c0 = check_legendre(C)
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


def _flag(exc):
    """Row flag of a mode solve that failed with a typed error."""
    kind = "mode overflow" if isinstance(exc, ModeOverflowError) else "near-resonance"
    return f"{kind} mode {exc.mode}"


@contextmanager
def _stage(seconds, name):
    """Add the wall time of the block to ``seconds[name]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0


def _sweep_setup(config):
    """Check the config's keys and read what both sweeps share: omega,
    n_max, the background, the cloak constants and the h grid (an empty
    one is refused: the sweeps read their free disk from the devices).
    The stage times start with loading ``scipy.special``, deferred until
    here so that the first solve does not carry it."""
    _check_keys(config)
    omega = float(config.get("omega", 1.0))
    n_max = config.get("n_max", 16)
    _check_count(n_max, "n_max")  # refused, not truncated
    bg = _background(config)
    cloak = config.get("cloak", {})
    params = {key: cloak.get(key, default)
              for key, default in (("alpha", 1.0), ("beta", 1.0), ("gamma", 1.0), ("delta", 0.0))}
    h_values = list(config.get("convergence", {}).get("h_values", [0.2, 0.1, 0.05, 0.025]))
    if not h_values:
        raise ValueError("convergence.h_values must not be empty")
    seconds = {}
    with _stage(seconds, "load_special"):
        _special()
    return omega, int(n_max), bg, params, h_values, seconds


def _sweep(pairs, omega, n_max, seconds):
    """(distance, tail ratio, flag) of ||Lambda_a - Lambda_b|| for each
    pair (a, b) of configs, b None for the free disk, and the n_max and
    free-disk preflight it used.

    Every distinct config is walked once per n_max, in one
    ``_free_disk_differences`` call, and Lambda_a - Lambda_b is taken as
    (Lambda_a - Lambda_free) - (Lambda_b - Lambda_free), so no two maps
    that agree to O(h^2) are subtracted. The distance is the largest
    per-mode sqrt(1+n^2) smax, the tail ratio the share of it in the last
    two modes. A pair with a typed error on either side (every pair, when
    the free disk overflows: its J columns are every device's outer
    annulus's) gets NaN for both and the flag of the first. While some
    tail ratio exceeds 1%, n_max is raised by 8, up to ``_N_MAX_CEILING``.
    The preflight is the largest 1-norm condition ||S||_1 ||S^-1||_1 of
    the free disk's traction systems S (NaN when it overflows), taken
    once, at the configured n_max.
    """
    configs = list(dict.fromkeys(c for pair in pairs for c in pair if c is not None))
    nan, preflight = float("nan"), None
    while True:
        with _stage(seconds, "solve"):
            ref, diffs = _free_disk_differences(configs, omega, n_max)
        if preflight is None:
            preflight = nan if isinstance(ref, Exception) else float(ref.conditions.max())
        with _stage(seconds, "distances"):
            # the free disk's Lambda - Lambda_free is 0, and x - 0.0 is x
            diffs = {None: 0.0, **dict(zip(configs, diffs))}
            flags = [next((_flag(diffs[c]) for c in pair if isinstance(diffs[c], Exception)), "")
                     for pair in pairs]
            out = [(nan, nan, flag) for flag in flags]
            ok = [i for i, flag in enumerate(flags) if not flag]
            if ok:
                stack = np.stack([diffs[pairs[i][0]] - diffs[pairs[i][1]] for i in ok])
                for i, per_mode in zip(ok, _weighted_smax(stack)):
                    dist = float(per_mode.max())
                    out[i] = (dist, float(per_mode[-2:].max() / max(dist, 1e-300)), "")
        if n_max >= _N_MAX_CEILING or all(flag or tail <= 0.01 for _, tail, flag in out):
            return out, n_max, preflight
        n_max = min(n_max + 8, _N_MAX_CEILING)


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
    heavy; a list of contents must not be empty, and their names, given or
    the automatic ``content{i}``, must be distinct strings), each device
    against the free disk through ``_sweep``, which raises n_max while the
    last two modes carry more than 1% of some row's distance. A row whose walk
    is near a resonance or overflows gets a NaN distance and a flag. Also
    reports the cross-content spread at each h (content independence) and
    the free-disk preflight condition. The wall time of each stage is
    kept apart, under ``seconds``.
    """
    omega, n_max, bg, params, h_values, seconds = _sweep_setup(config)
    entries = config.get("convergence", {}).get("contents")
    if entries == []:
        raise ValueError("convergence.contents must not be empty")
    contents = dict(DEFAULT_CONTENTS) if entries is None else {}
    for i, entry in enumerate(entries or []):
        name = entry.get("name", f"content{i}")
        if not isinstance(name, str):  # the name keys the JSON and CSV outputs
            raise ValueError(f"convergence.contents[{i}].name must be a string, got {name!r}")
        if name in contents:
            raise ValueError(f"convergence.contents names must be distinct: {name!r} repeats")
        contents[name] = _content_from(entry)
    with _stage(seconds, "build"):
        devices = [build_near_cloak(h, content=content, background=bg, **params).virtual
                   for content in contents.values() for h in h_values]
    dists, n_max, preflight = _sweep([(d, None) for d in devices], omega, n_max, seconds)

    with _stage(seconds, "fit"):
        rows = [{"h": float(h), "distance": d, "tail_ratio": tail, "flag": flag}
                for h, (d, tail, flag) in zip(h_values * len(contents), dists)]
        results = {}
        for k, name in enumerate(contents):
            content_rows = rows[k * len(h_values):(k + 1) * len(h_values)]
            results[name] = {"rows": content_rows, "fit": _fit_rows(content_rows).__dict__}
        # content-independence spread per h
        spreads = []
        for i, h in enumerate(h_values):
            ds = [res["rows"][i]["distance"] for res in results.values()
                  if not res["rows"][i]["flag"]]
            if ds:
                spreads.append({"h": float(h), "spread": (max(ds) - min(ds)) / max(ds)})
    return {
        "omega": omega,
        "n_max": n_max,
        "preflight_max_condition": preflight,
        "contents": results,
        "spreads": spreads,
        "seconds": seconds,
    }


def lining_sweep(config):
    """Rate at which the lossy layer realizes the traction-free lining.

    Compares the near-cloak NtD against the traction-free-cavity NtD of
    the same virtual geometry across the h grid. The report also carries
    two qualitative side scans (not pass/fail gated): the per-h distance
    as damping grows, and the fitted rate with a larger scaling exponent
    delta (the rate constant does not depend on it). Every (near-cloak,
    cavity) pair of the rows and side scans goes through ``_sweep``, so
    its n_max is raised as the convergence sweep's is, and the side scans
    count toward that; a row whose walk is near a resonance or overflows,
    on either side, gets a NaN distance and the flag of the first. The
    wall time of each stage is kept apart, under ``seconds``.
    """
    omega, n_max, bg, params, h_values, seconds = _sweep_setup(config)
    content = _content_from(config.get("content", {}))
    h_mid = h_values[min(1, len(h_values) - 1)]
    betas = (params["beta"], 4.0 * params["beta"], 16.0 * params["beta"])
    shifted = {**params, "delta": params["delta"] + 0.5}

    def pair(h, p):
        """(near-cloak, traction-free cavity) configs at (h, p)."""
        return (build_near_cloak(h, content=content, background=bg, **p).virtual,
                lining_config(h, bg))

    with _stage(seconds, "build"):
        # the rows, then the beta scan at h_mid, then the delta-shifted rows
        pairs = ([pair(h, params) for h in h_values]
                 + [pair(h_mid, {**params, "beta": b}) for b in betas]
                 + [pair(h, shifted) for h in h_values])
    dists, n_max, _ = _sweep(pairs, omega, n_max, seconds)
    n_h = len(h_values)
    with _stage(seconds, "fit"):
        dists = [{"distance": d, "flag": flag} for d, _, flag in dists]
        rows = [{"h": float(h), **d} for h, d in zip(h_values, dists[:n_h])]
        fit = _fit_rows(rows)
        beta_scan = [{"beta": b, **d} for b, d in zip(betas, dists[n_h:n_h + len(betas)])]
        delta_rows = [{"h": h, **d} for h, d in zip(h_values, dists[n_h + len(betas):])]
        delta_slope = _fit_rows(delta_rows).slope
    return {
        "omega": omega,
        "n_max": n_max,
        "rows": rows,
        "fit": fit.__dict__,
        "beta_scan_at_h": h_mid,
        "beta_scan": beta_scan,
        "delta_shift_slope": None if np.isnan(delta_slope) else delta_slope,
        "seconds": seconds,
    }


def resonance_report(config):
    """Construct a cloak-busting inclusion and scan its conditioning spike."""
    _check_keys(config)
    sec = config.get("resonance", {})
    r0 = float(sec.get("r0", 0.5))
    r1 = float(sec.get("r1", 1.0))
    bg = _background(config)
    lam, mu = float(np.real(bg.lam)), float(np.real(bg.mu))
    omega = float(config.get("omega", 1.0))
    res = find_resonant_densities(lam, mu, r0, r1, omega)

    kp1 = omega * np.sqrt(res.rho1 / (lam + 2 * mu))
    kp2 = omega * np.sqrt(res.rho2 / (lam + 2 * mu))
    J0, J0p, J0pp = _j0_derivatives(np.array([kp1 * r1, kp1 * r0, kp2 * r0]))
    f_val = abs(2 * mu * J0pp[0] - lam * J0[0])
    c1, c2 = res.c
    u_jump = abs(c1 * kp1 * J0p[1] - c2 * kp2 * J0p[2])
    du_jump = abs(c1 * kp1**2 * J0pp[1] - c2 * kp2**2 * J0pp[2])

    scan = []
    for fac in [1.0 - 1e-3, 1.0, 1.0 + 1e-3]:
        r2 = res.rho2 * fac
        cfg = resonant_config(lam, mu, r0, r1, replace(res, rho2=r2))
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


def kernel_check(config):
    """Property suite for the fundamental-solution layer.

    Checks reciprocity, the Navier residual of kernel columns, the 3D
    series against the closed form, the 2D small-separation rate, the
    double-layer jump relation, and the interior Calderon identity.
    Returns per-check dicts with ``passed`` flags. A ``seed`` or
    ``kernelcheck.n_pairs`` that is not a non-negative integer is refused
    with a ``ValueError`` naming the key.
    """
    _check_keys(config)
    omega = float(config.get("omega", 1.0))
    seed = config.get("seed", 0)
    _check_count(seed, "seed")
    bg = _background(config)
    rng = np.random.default_rng(seed)
    checks = []

    static_only = omega == 0.0

    # reciprocity: Pi(x, y) == Pi(y, x)^T; the pairs are drawn as x, y in turn
    n_pairs = config.get("kernelcheck", {}).get("n_pairs", 200)
    _check_count(n_pairs, "kernelcheck.n_pairs")
    x, y = np.moveaxis(rng.uniform(-1.5, 1.5, (n_pairs, 2, 2)), 1, 0)
    u = x - y
    d = np.linalg.norm(u, axis=-1)
    keep = d >= 1e-3
    pack = _radial_pack(omega, bg, 2)
    G = _pi(u[keep], d[keep], pack)
    Gt = _pi(-u[keep], d[keep], pack)
    worst = float(np.abs(G - np.swapaxes(Gt, -1, -2)).max(initial=0.0))
    checks.append({"name": "reciprocity", "value": worst, "tol": 1e-12,
                   "passed": worst <= 1e-12})

    if not static_only:
        checks.append(_navier_check(omega, bg, rng))
        checks.append(_series_3d_check(omega, bg))
        checks.append(_gap_rate_check(omega, bg))
        checks.append(_jump_check(omega, bg, rng))
        checks.append(_calderon_check(omega, bg))
    else:
        checks.append(_jump_check(0.0, bg, rng))

    return {"omega": omega, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


# The nine finite-difference stencil offsets, in units of the step:
# the centre, +-e0, +-e1, +-(e0 + e1) and +-(e0 - e1).
_STENCIL = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1],
                     [1, 1], [-1, -1], [1, -1], [-1, 1]], dtype=float)


def _navier_residuals(omega, medium, P, step):
    """FD Navier residual mu Lap P + (lam + mu) grad div P + omega^2 rho P
    from the kernel values P[..., 9, 2, 2] on ``_STENCIL`` at one step."""
    lam, mu, rho = medium.lam, medium.mu, medium.rho
    P0, Pe, Pw, Pn, Ps, Pne, Psw, Pse, Pnw = np.moveaxis(P, -3, 0)
    h2 = step**2
    d2_00 = (Pe - 2 * P0 + Pw) / h2  # d^2/dx0^2
    d2_11 = (Pn - 2 * P0 + Ps) / h2  # d^2/dx1^2
    # the mixed derivative of each (i, m), each summed in its own stencil order
    d2_01 = (Pne - Pse - Pnw + Psw) / (4 * h2)
    d2_10 = (Pne - Pnw - Pse + Psw) / (4 * h2)
    lap = d2_00 + d2_11
    # (grad div P)[i, :] = sum_m d_i d_m P[m, :]
    gd = np.stack([d2_00[..., 0, :] + d2_01[..., 1, :],
                   d2_10[..., 0, :] + d2_11[..., 1, :]], axis=-2)
    return mu * lap + (lam + mu) * gd + omega**2 * rho * P0


def _navier_check(omega, medium, rng):
    """Richardson-extrapolated FD residual of the Navier operator on
    columns of the Green tensor (source at the origin), at four sample
    points; one kernel evaluation covers every stencil point."""
    x = np.empty((4, 2))
    for i in range(4):
        x[i] = rng.uniform(0.6, 1.4) * _unit(rng)
    steps = np.array([4e-3, 2e-3])
    pts = x[:, None, None, :] + steps[None, :, None, None] * _STENCIL  # (4, 2, 9, 2)
    # |x| as a dot product, which rounds as green_omega's norm of one point does
    d = np.sqrt(pts[..., None, :] @ pts[..., :, None])[..., 0, 0]
    P = _pi(pts, d, _radial_pack(omega, medium, 2))
    r_h = _navier_residuals(omega, medium, P[:, 0], steps[0])
    r_h2 = _navier_residuals(omega, medium, P[:, 1], steps[1])
    resid = (4.0 * r_h2 - r_h) / 3.0
    P0 = P[:, 0, 0]
    rel = np.abs(resid).max(axis=(1, 2)) / np.abs(omega**2 * P0).max(axis=(1, 2))
    worst = float(rel.max())
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


def _gap_rate_check(omega, medium):
    """d^2 log d decay of the small-separation remainder (dyadic fit)."""
    x = np.array([0.3, 0.4])
    direction = _unit(np.random.default_rng(7))
    Ks = []
    for d in (1e-3, 1e-4):
        gap = asymptotic_gap_2d(x, x - d * direction, omega, medium)
        Ks.append(float(np.abs(gap).max() / (d**2 * abs(np.log(d)))))
    ratio = max(Ks) / min(Ks)
    return {"name": "gap_rate", "value": ratio, "tol": 2.0, "passed": ratio <= 2.0}


def _jump_check(omega, medium, rng):
    """Double-layer jump: exterior minus interior trace equals the density.

    The jump J(eps) across the circle at offsets +-eps has an O(eps)
    error that grows with omega; the Richardson value 2 J(eps) - J(2 eps)
    removes it. What is left grows with |ks| eps, and resolving the
    potential at a node-to-target distance eps takes more nodes as eps
    shrinks, so both scale with the background shear wavenumber ks: eps
    = 0.02 / max(1, |ks|) on 512 max(1, ceil |ks|) nodes.
    """
    k = max(1.0, abs(wavenumbers(medium, omega)[1]))
    eps = 0.02 / k
    quad = circle_quadrature(2.0, 512 * int(np.ceil(k)))
    t = quad.angles
    density = np.stack([np.cos(t) + 0.3 * np.sin(2 * t), 0.5 + np.sin(t)], axis=1)
    i0 = 17
    x0 = quad.nodes[i0]

    def jump(e):
        return (dl_potential(quad, density, (1 + e) * x0, omega, medium)
                - dl_potential(quad, density, (1 - e) * x0, omega, medium))

    extrapolated = 2.0 * jump(eps) - jump(2.0 * eps)
    err = float(np.abs(extrapolated - density[i0]).max() / np.abs(density[i0]).max())
    return {"name": "dl_jump", "value": err, "tol": 5e-2, "passed": err <= 5e-2}


def _calderon_check(omega, medium, sizes=(64, 128)):
    """Interior Calderon identity (1/2) u + K u = S (T u); spectral decay."""
    src = np.array([3.0, 1.0])
    q = np.array([0.7, -0.4])
    pack = _radial_pack(omega, medium, 2)
    lam, mu = complex(medium.lam), complex(medium.mu)
    errs = []
    for N in sizes:
        quad = circle_quadrature(2.0, N)
        ops = layer_operators(quad, omega, medium)
        v = quad.nodes - src
        d = np.linalg.norm(v, axis=-1)
        # field of the point force q at src, and its traction on the circle
        uf = (_pi(v, d, pack) @ q).reshape(-1)
        Tf = np.einsum("nli,l->ni", _xi(-v, d, quad.normals, pack, lam, mu), q).reshape(-1)
        errs.append(float(np.abs(0.5 * uf + ops.K @ uf - ops.S @ Tf).max()))
    improving = errs[-1] < 1e-7 and errs[-1] <= errs[0]
    return {"name": "calderon", "value": errs[-1], "tol": 1e-7,
            "passed": improving, "errors": errs}
