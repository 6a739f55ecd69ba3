"""The three workloads: their operations, inputs and output checks.

An operation is one call a user would make. Each workload is a fixed list
of operations; a pass runs the list once, in order. Inputs come from the
seed only. Every output is checked after its pass, outside the timed
region, against ``oracles`` or against a property the method must have.

Check functions return a list of problems (empty when the output is
right). An operation that raised is not checked: it is counted as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

H_SWEEP = (0.1, 0.04, 0.016, 0.0064)
SLOPE_RANGE = (1.6, 2.4)
R2_MIN = 0.98
SPREAD_MAX = 0.5
LINING_SLOPE_MIN = 1.6
ENERGY_MAX = 1e-6
BLOCK_TOL = 1e-10
NEAR_RESONANCE_BLOCK = 1e3  # largest free-disk block entry a seeded medium may give
RADIUS = 2.0


@dataclass
class Workload:
    ops: list  # of (name, thunk)
    warmup: object  # thunk run once during set-up
    check: object  # {op name: result} -> list of problems
    min_passes: int  # enough for the tail percentile to sit inside one kind of operation
    context: dict = field(default_factory=dict)


def build(name, seed, scratch, spans_dir):
    """The workload ``name`` with inputs from ``seed``.

    ``scratch`` takes command outputs; traced CLI children write their
    spans to ``spans_dir``.
    """
    if name == "cli-default":
        return cli_default(seed, Path(scratch), Path(spans_dir))
    return {"ntd-sweep": ntd_sweep, "kernel-suite": kernel_suite}[name](seed)


def _interleave(ops):
    """Order ``ops`` so that each kind (the name before "[") is spread evenly
    over the pass; a median over one kind then samples the whole pass rather
    than one stretch of it, which matters on a host whose speed drifts."""
    kinds = {}
    for op in ops:
        kinds.setdefault(op[0].split("[")[0], []).append(op)
    keyed = [((i + 0.5) / len(group), k, op)
             for k, group in enumerate(kinds.values()) for i, op in enumerate(group)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def _block_problems(label, blocks, ref, real=False):
    out = []
    for n in range(ref.shape[0]):
        b = blocks[n]
        if not np.all(np.isfinite(b)):
            out.append(f"{label}: mode {n} not finite")
            continue
        if oracles.rel_err(b, ref[n]) > BLOCK_TOL:
            out.append(f"{label}: mode {n} off the reference by {oracles.rel_err(b, ref[n]):.2e}")
        if oracles.rel_err(b.T, b) > BLOCK_TOL:
            out.append(f"{label}: mode {n} not symmetric")
        if real and float(np.abs(b.imag).max()) > BLOCK_TOL * float(np.abs(b).max()):
            out.append(f"{label}: lossless mode {n} not real")
    return out


def _fit_problems(label, rows, lo, hi, r2_min):
    ok = [r for r in rows if not r["flag"]]
    if len(ok) < 2:
        return [f"{label}: fewer than two unflagged rows"]
    slope, r2 = oracles.loglog_slope([r["h"] for r in ok], [r["distance"] for r in ok])
    out = []
    if not lo <= slope <= hi:
        out.append(f"{label}: slope {slope:.3f} outside [{lo}, {hi}]")
    if r2 < r2_min:
        out.append(f"{label}: r2 {r2:.4f} < {r2_min}")
    return out


def convergence_problems(label, res):
    """Every content converges at rate h^2 and the contents agree."""
    out = []
    contents = res["contents"]
    for cname, data in contents.items():
        out += _fit_problems(f"{label} {cname}", data["rows"], *SLOPE_RANGE, R2_MIN)
    by_h = {}
    for data in contents.values():
        for r in data["rows"]:
            if not r["flag"]:
                by_h.setdefault(r["h"], []).append(r["distance"])
    for h, ds in by_h.items():
        spread = (max(ds) - min(ds)) / max(ds)
        if spread > SPREAD_MAX:
            out.append(f"{label}: content spread {spread:.3f} at h={h} > {SPREAD_MAX}")
    return out


def lining_problems(label, res):
    return _fit_problems(label, res["rows"], LINING_SLOPE_MIN, np.inf, -np.inf)


# ---------------------------------------------------------------------------
# ntd-sweep


def ntd_sweep(seed):
    """Mode-solver sweeps: h-sweeps, NtD maps, damping balance, high order.

    Fixed: the sweep grid, the near-cloak devices and the two high-order
    solves. From the seed: two lossless media for the free-disk and
    identical-media references, and the boundary tractions of the damping
    balance.
    """
    import elastocloak as ec

    rng = np.random.default_rng(seed)
    grid = [(w, n) for w in (1.0, 2.0) for n in (16, 32)]
    media = [_medium_off_resonance(rng) for _ in range(2)]
    contents = list(ec.DEFAULT_CONTENTS.values())
    energy_cases = [(h, w) for w in (1.0, 2.0) for h in (0.1, 0.05, 0.025)]
    tractions = [{n: rng.standard_normal(2) + 1j * rng.standard_normal(2) for n in range(6)}
                 for _ in energy_cases]
    bg = ec.IsotropicMedium(1.0, 1.0, 1.0)

    def near_cloak(h, content):
        return ec.build_near_cloak(h, 1.0, 1.0, 1.0, 0.0, content=content, background=bg).virtual

    identical = ec.LayeredDiskConfig(radii=(RADIUS, 1.0, 0.5),
                                     media=(ec.IsotropicMedium(*media[0]),) * 3)
    high = [(h, near_cloak(h, ec.DEFAULT_CONTENTS["stiff"])) for h in (0.05, 0.005)]

    ops, checks = [], {}
    for w, n in grid:
        cfg = {"omega": w, "n_max": n, "convergence": {"h_values": list(H_SWEEP)}}
        ops.append((f"convergence_sweep[w={w:g},n_max={n}]",
                    lambda cfg=cfg: ec.convergence_sweep(cfg)))
        checks[ops[-1][0]] = convergence_problems
        ops.append((f"lining_sweep[w={w:g},n_max={n}]", lambda cfg=cfg: ec.lining_sweep(cfg)))
        checks[ops[-1][0]] = lining_problems
    refs = {}
    for i, m in enumerate(media):
        for w, n in grid:
            name = f"free_disk_ntd[medium={i},w={w:g},n_max={n}]"
            ops.append((name, lambda m=m, w=w, n=n: ec.free_disk_ntd(
                ec.IsotropicMedium(*m), RADIUS, w, n)))
            refs[name] = (m, w, n)
    ops.append(("assemble_ntd[identical-media]", lambda: ec.assemble_ntd(identical, 1.0, 32)))
    refs[ops[-1][0]] = (media[0], 1.0, 32)
    for (h, w), tr, content in zip(energy_cases, tractions, contents * 2):
        dev = near_cloak(h, content)
        ops.append((f"energy_identity_check[h={h:g},w={w:g}]",
                    lambda dev=dev, w=w, tr=tr: ec.energy_identity_check(dev, w, tr)))
        checks[ops[-1][0]] = lambda label, res: (
            [f"{label}: damping-balance residual {res[0]:.2e}"] if not res[0] < ENERGY_MAX else [])
    high_refs = {}
    for h, cfg in high:
        name = f"assemble_ntd[h={h:g},n_max=100]"
        ops.append((name, lambda cfg=cfg: ec.assemble_ntd(cfg, 1.0, 100)))
        high_refs[name] = cfg

    ref_cache = {}

    def reference(key):
        if key not in ref_cache:
            m, w, n = key
            ref_cache[key] = oracles.uniform_disk_ntd(*m, RADIUS, w, n)
        return ref_cache[key]

    def check(results):
        problems = []
        for name, res in results.items():
            if name in checks:
                problems += checks[name](name, res)
            elif name in refs:
                problems += _block_problems(name, res.blocks, reference(refs[name]), real=True)
            elif name in high_refs:
                # modes 0..48 must equal those of an n_max = 48 solve
                key = ("n48", name)
                if key not in ref_cache:
                    ref_cache[key] = ec.assemble_ntd(high_refs[name], 1.0, 48).blocks
                if not np.all(np.isfinite(res.blocks)):
                    problems.append(f"{name}: non-finite blocks")
                problems += _block_problems(name, res.blocks, ref_cache[key])
        return problems

    return Workload(_interleave(ops),
                    lambda: ec.assemble_ntd(identical, 1.0, 8), check, min_passes=4)


def _medium_off_resonance(rng):
    """A lossless medium whose disk is not near a traction-free resonance.

    Near one the NtD map itself is ill conditioned (a block grows like the
    inverse distance to it) and no double-precision solve meets
    ``BLOCK_TOL``; such draws are rejected. Resonances only occur in the
    propagating modes, all below n = 12 here.
    """
    while True:
        m = tuple(float(v) for v in (rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0),
                                     rng.uniform(0.5, 2.0)))
        if all(np.abs(oracles.uniform_disk_ntd(*m, RADIUS, w, 12, digits=15)).max()
               <= NEAR_RESONANCE_BLOCK for w in (1.0, 2.0)):
            return m


# ---------------------------------------------------------------------------
# kernel-suite


CALDERON_MAX = 1e-7
ROUNDING_FLOOR = 1e-12
SOMIGLIANA_MAX = 1e-8
CAVITY_SLOPE = (0.7, 1.3)
SYMMETRY_MAX = 1e-12


def kernel_suite(seed):
    """Boundary-integral layer: kernel checks, Nystrom operators, potentials.

    Fixed: the unit medium, omega = 1, the circle radius 2, N and the h
    grid. From the seed: the kernel_check pair sample, an exterior point
    force (position 2.8-3.6 from the centre, complex direction), the angles
    of eight interior targets at |x| = 0.75 R, and the cavity tractions of
    modes 0-3.
    """
    import elastocloak as ec

    rng = np.random.default_rng(seed)
    omega, bg = 1.0, ec.IsotropicMedium(1.0, 1.0, 1.0)
    src = rng.uniform(2.8, 3.6) * _unit(rng)
    force = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    force /= np.linalg.norm(force)
    # one radius, seeded angles: a potential costs more the closer its target
    # is to the nodes, so every target sits at the largest radius checked
    targets = [0.75 * RADIUS * _unit(rng) for _ in range(8)]
    # the far trace falls like h through the net force of mode 1, which is
    # proportional to s_rr - s_rt there; keep it at least 0.5
    cavity_tr = {n: tuple(rng.uniform(0.5, 1.5, 2)) for n in (0, 2, 3)}
    s_rr = rng.uniform(0.5, 1.5)
    cavity_tr[1] = (s_rr, s_rr - rng.uniform(0.5, 1.0))
    field_at = lambda pts, normals: oracles.point_force_field(  # noqa: E731
        pts, src, force, normals, omega, 1.0, 1.0, 1.0)

    quad = ec.circle_quadrature(RADIUS, 128)
    u_nodes, t_nodes = field_at(quad.nodes, quad.normals)

    check_name = "kernel_check[n_pairs=1000]"
    ops = [(check_name,
            lambda: ec.kernel_check({"seed": seed, "kernelcheck": {"n_pairs": 1000}}))]
    sizes = (128, 256, 512)
    for n in sizes:
        ops.append((f"layer_operators[N={n}]", lambda n=n: ec.layer_operators(
            ec.circle_quadrature(RADIUS, n), omega, bg)))
    for i, x in enumerate(targets):
        ops.append((f"sl_potential[target={i}]",
                    lambda x=x: ec.sl_potential(quad, t_nodes, x, omega, bg)))
    for i, x in enumerate(targets):
        ops.append((f"dl_potential[target={i}]",
                    lambda x=x: ec.dl_potential(quad, u_nodes, x, omega, bg)))
    for h in H_SWEEP:
        ops.append((f"solve_exterior_cavity[h={h:g}]",
                    lambda h=h: ec.solve_exterior_cavity(h, cavity_tr, omega, bg)))

    small = {}

    def calderon(ops_):
        q = ops_.quadrature
        u, t = field_at(q.nodes, q.normals)
        uf, tf = u.reshape(-1), t.reshape(-1)
        return float(np.abs(0.5 * uf + ops_.K @ uf - ops_.S @ tf).max())

    def check(results):
        problems = []
        kc = results.get(check_name)
        if kc is not None and not kc["passed"]:
            problems.append("kernel_check: " + ", ".join(
                c["name"] for c in kc["checks"] if not c["passed"]) + " failed")
        # the residual falls with N (computed at N = 32, 64 as the start of
        # the sequence) until it reaches the rounding floor
        if not small:
            for n in (32, 64):
                small[n] = calderon(ec.layer_operators(ec.circle_quadrature(RADIUS, n), omega, bg))
        seq = [(n, small[n]) for n in (32, 64)]
        for n in sizes:
            lo = results.get(f"layer_operators[N={n}]")
            if lo is None:
                continue
            asym = oracles.rel_err(lo.S.T, lo.S)
            if asym > SYMMETRY_MAX:
                problems.append(f"layer_operators[N={n}]: S not symmetric ({asym:.2e})")
            res = calderon(lo)
            if res > CALDERON_MAX:
                problems.append(f"layer_operators[N={n}]: Calderon residual {res:.2e}")
            seq.append((n, res))
        for (n0, r0), (n1, r1) in zip(seq, seq[1:]):
            if not (r1 < r0 or r1 <= ROUNDING_FLOOR):
                problems.append(f"Calderon residual rises from N={n0} ({r0:.2e}) to N={n1} ({r1:.2e})")
        for i, x in enumerate(targets):
            sl = results.get(f"sl_potential[target={i}]")
            dl = results.get(f"dl_potential[target={i}]")
            if sl is None or dl is None:
                continue
            u_x = field_at(x, [[1.0, 0.0]])[0][0]
            err = oracles.rel_err(sl - dl, u_x)
            if not err <= SOMIGLIANA_MAX:
                problems.append(f"Somigliana identity off by {err:.2e} at target {i}")
        sols = [(h, results.get(f"solve_exterior_cavity[h={h:g}]")) for h in H_SWEEP]
        sols = [(h, s) for h, s in sols if s is not None]
        if len(sols) >= 2:
            slope, _ = oracles.loglog_slope([h for h, _ in sols],
                                            [s.boundary_norm(RADIUS) for _, s in sols])
            if not CAVITY_SLOPE[0] <= slope <= CAVITY_SLOPE[1]:
                problems.append(f"exterior-cavity trace slope {slope:.3f} outside {CAVITY_SLOPE}")
        return problems

    warm_quad = ec.circle_quadrature(RADIUS, 64)
    return Workload(_interleave(ops),
                    lambda: ec.layer_operators(warm_quad, omega, bg), check, min_passes=3)


def _unit(rng):
    th = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([np.cos(th), np.sin(th)])


# ---------------------------------------------------------------------------
# cli-default

COMMANDS = ("design", "convergence", "lining", "resonance", "kernelcheck")
RESIDUAL_MAX = 1e-8
SPIKE_MIN = 1e3
DESIGN_TOL = 1e-12
DESIGN_GRID = (1.02, 2.0, 25)  # the CLI's default radius grid


def cli_default(seed, scratch, spans_dir):
    """Each CLI command with its default config, one child process at a time.

    From the seed: the ``--seed`` every command gets (it sets the
    kernelcheck pair sample). Outputs go to a scratch directory per pass.
    """
    # "traced" switches the children to the tracing entry point
    state = {"pass": 0, "traced": False}
    span_files = []

    def argv(cmd, out):
        if state["traced"]:
            spans = spans_dir / f"{state['pass']}-{cmd}.npz"
            span_files.append(spans)
            head = [sys.executable, str(BENCH / "cli_child.py"), str(spans)]
        else:
            head = [sys.executable, "-m", "elastocloak.cli"]
        return head + [cmd, "--out", str(out), "--seed", str(seed)]

    def run(cmd, out):
        proc = subprocess.run(argv(cmd, out), cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        return {"returncode": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr, "out": out}

    def op(cmd):
        def thunk():
            return run(cmd, scratch / f"pass{state['pass']}" / cmd)
        return thunk

    ops = [(cmd, op(cmd)) for cmd in COMMANDS]

    def check(results):
        problems = []
        for cmd, res in results.items():
            if res["returncode"] != 0:
                problems.append(f"{cmd}: exit code {res['returncode']}: {res['stderr'][-300:]}")
                continue
            problems += [f"{cmd}: {p}" for p in CLI_CHECKS[cmd](res)]
        state["pass"] += 1
        return problems

    def warmup():
        res = run("design", scratch / "warmup")
        if res["returncode"] != 0:
            raise RuntimeError(f"warm-up design failed: {res['stderr'][-300:]}")

    return Workload(ops, warmup, check, min_passes=3,
                    context={"state": state, "span_files": span_files})


def design_problems(res):
    lines = (Path(res["out"]) / "design.csv").read_text().splitlines()
    if not lines or not lines[0].startswith("# config_sha256="):
        return ["design.csv lacks its header comment"]
    cols = lines[1].split(",")
    rows = [dict(zip(cols, map(float, ln.split(",")))) for ln in lines[2:]]
    grid = np.linspace(*DESIGN_GRID)
    if len(rows) != grid.size:
        return [f"design.csv has {len(rows)} rows, expected {grid.size}"]
    out = []
    for r_expected, row in zip(grid, rows):
        r = row["r"]
        if abs(r - r_expected) > DESIGN_TOL:
            out.append(f"design.csv radius {r} != {r_expected}")
        for key, val in oracles.ideal_cloak_row(1.0, 1.0, r).items():
            if abs(row[key] - val) > DESIGN_TOL * max(1.0, abs(val)):
                out.append(f"design.csv r={r}: {key}={row[key]!r}, closed form {val!r}")
    return out


def convergence_json_problems(res):
    data = json.loads((Path(res["out"]) / "convergence.json").read_text())
    return convergence_problems("convergence.json", data)


def lining_json_problems(res):
    data = json.loads((Path(res["out"]) / "lining.json").read_text())
    return lining_problems("lining.json", data)


def resonance_problems(res):
    data = json.loads((Path(res["out"]) / "resonance.json").read_text())
    out = [f"{key} {data[key]:.2e} >= {RESIDUAL_MAX}"
           for key in ("det_residual", "outer_traction_residual", "transmission_residual")
           if not data[key] < RESIDUAL_MAX]
    if not data["spike_ratio"] > SPIKE_MIN:
        out.append(f"spike ratio {data['spike_ratio']:.2e} <= {SPIKE_MIN}")
    f = oracles.outer_traction_residual(data["lambda"], data["mu"], data["rho1"],
                                        data["r1"], data["omega"])
    if not f <= RESIDUAL_MAX:
        out.append(f"outer traction condition {f:.2e} (mpmath) > {RESIDUAL_MAX}")
    return out


def kernelcheck_problems(res):
    lines = [ln for ln in res["stdout"].splitlines() if ln.strip()]
    if not lines:
        return ["kernelcheck printed nothing"]
    return [f"non-PASS line: {ln}" for ln in lines if not ln.startswith("PASS ")]


CLI_CHECKS = {
    "design": design_problems,
    "convergence": convergence_json_problems,
    "lining": lining_json_problems,
    "resonance": resonance_problems,
    "kernelcheck": kernelcheck_problems,
}
