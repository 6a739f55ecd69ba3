"""Command-line harness.

    elastocloak design|convergence|lining|resonance|kernelcheck
        [--config FILE] [--out DIR] [--seed S]

Configs are JSON or TOML; every key is optional and defaults to the
standard verification setup (omega = 1, unit background, h sweep
0.2/0.1/0.05/0.025, lossy constants alpha = beta = gamma = 1, delta = 0).
CSV and JSON outputs are deterministic for a fixed config and seed and
carry the config hash and library version. What a run measured about
itself (the wall time of each stage of a sweep) goes to a
``<command>.run.json`` sidecar beside the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

try:
    import tomllib as _toml
except ModuleNotFoundError:  # Python < 3.11
    try:
        import tomli as _toml
    except ModuleNotFoundError:
        _toml = None

from . import __version__
from .harness import (
    convergence_sweep,
    design_table,
    kernel_check,
    lining_sweep,
    resonance_report,
)


def load_config(path):
    if path is None:
        return {}
    path = Path(path)
    text = path.read_bytes()
    if path.suffix.lower() == ".toml":
        if _toml is None:
            raise RuntimeError("TOML config requires tomllib/tomli")
        return _toml.loads(text.decode())
    return json.loads(text.decode())


def config_hash(config):
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, rows, columns, config):
    lines = [f"# config_sha256={config_hash(config)} elastocloak={__version__}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, payload, config):
    payload = dict(payload)
    payload["config_sha256"] = config_hash(config)
    payload["elastocloak"] = __version__
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_result(out, name, res, config):
    """``<name>.json`` without the run's ``seconds``, which go to the
    ``<name>.run.json`` sidecar."""
    res = dict(res)
    write_json(out / f"{name}.run.json", {"seconds": res.pop("seconds")}, config)
    write_json(out / f"{name}.json", res, config)


def cmd_design(config, out):
    res = design_table(config)
    cols = ["r", "C_rrrr", "C_tttt", "C_rrtt", "C_ttrr", "C_rttr", "C_trrt",
            "C_rtrt", "C_trtr", "rho", "min_ellipticity"]
    write_csv(out / "design.csv", res["rows"], cols, config)
    if res["clipped_points"]:
        print(f"warning: {res['clipped_points']} grid points at r <= 1 clipped",
              file=sys.stderr)
    print(f"wrote {out / 'design.csv'} ({len(res['rows'])} rows)")
    return 0


def cmd_convergence(config, out):
    res = convergence_sweep(config)
    rows = []
    for name, data in res["contents"].items():
        for r in data["rows"]:
            rows.append({"content": name, **r})
    cols = ["content", "h", "distance", "tail_ratio", "flag"]
    write_csv(out / "convergence.csv", rows, cols, config)
    write_result(out, "convergence", res, config)
    for name, data in res["contents"].items():
        fit = data["fit"]
        status = "REJECTED" if fit["rejected"] else "ok"
        print(f"{name}: slope={fit['slope']:.3f} r2={fit['r2']:.4f} [{status}]")
    return 0


def cmd_lining(config, out):
    res = lining_sweep(config)
    cols = ["h", "distance", "flag"]
    write_csv(out / "lining.csv", res["rows"], cols, config)
    write_result(out, "lining", res, config)
    fit = res["fit"]
    status = "REJECTED" if fit["rejected"] else "ok"
    print(f"lining: slope={fit['slope']:.3f} r2={fit['r2']:.4f} [{status}]")
    return 0


def cmd_resonance(config, out):
    res = resonance_report(config)
    write_json(out / "resonance.json", res, config)
    write_csv(out / "resonance_scan.csv", res["condition_scan"],
              ["rho2", "condition"], config)
    print(f"rho1={res['rho1']:.6g} rho2={res['rho2']:.6g} "
          f"det_residual={res['det_residual']:.3e} spike={res['spike_ratio']:.3e}")
    return 0


def cmd_kernelcheck(config, out):
    res = kernel_check(config)
    write_json(out / "kernelcheck.json", res, config)
    for c in res["checks"]:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
              f"value={c['value']:.3e} tol={c['tol']:.1e}")
    return 0 if res["passed"] else 1


_COMMANDS = {
    "design": cmd_design,
    "convergence": cmd_convergence,
    "lining": cmd_lining,
    "resonance": cmd_resonance,
    "kernelcheck": cmd_kernelcheck,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="elastocloak",
        description="Elastic cloak design, resonance, and verification harness",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", type=str, default=None, help="JSON or TOML config")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override RNG seed")
    args = parser.parse_args(argv)

    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[args.command](config, out)


if __name__ == "__main__":
    raise SystemExit(main())
