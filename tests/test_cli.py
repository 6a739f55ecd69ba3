"""CLI harness: commands, config handling, determinism, fit policy."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elastocloak import harness
from elastocloak.cli import main
from elastocloak.harness import kernel_check, loglog_fit
from elastocloak.kernels import eta_constant
from elastocloak.modesolver import NearResonanceError


def run(args):
    return main([str(a) for a in args])


def test_design_csv_contents(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"design": {"r_min": 1.5, "r_max": 2.0, "num": 2}}))
    assert run(["design", "--config", cfg, "--out", tmp_path]) == 0
    lines = (tmp_path / "design.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    header = lines[1].split(",")
    last = dict(zip(header, lines[-1].split(",")))
    assert float(last["r"]) == 2.0
    assert float(last["C_rrrr"]) == pytest.approx(1.5)
    assert float(last["C_tttt"]) == pytest.approx(6.0)
    assert float(last["rho"]) == pytest.approx(2.0)


def test_design_empty_grid_header_only(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"design": {"r_min": 1.2, "r_max": 1.4, "num": 0}}))
    assert run(["design", "--config", cfg, "--out", tmp_path]) == 0
    lines = (tmp_path / "design.csv").read_text().splitlines()
    assert len(lines) == 2  # hash comment + column header


@pytest.mark.parametrize("config, key", [
    ({"design": {"num": 2.7}}, "design.num"),
    ({"design": {"num": True}}, "design.num"),
    ({"design": {"num": -3}}, "design.num"),
])
def test_design_refuses_sizes_it_would_truncate(config, key):
    # int() would turn 2.7 into 2 rows, true into 1 and -3 into none
    with pytest.raises(ValueError, match=key):
        harness.design_table(config)


@pytest.mark.parametrize("key", ["r_min", "r_max"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_design_refuses_non_finite_bounds(tmp_path, key, value):
    # a NaN r_max gave no rows and an inf or NaN r_min one row at r = 2;
    # JSON parses NaN and Infinity, so the CLI path is refused too
    with pytest.raises(ValueError, match=f"design.{key}"):
        harness.design_table({"design": {key: value}})
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"design": {key: value}}))
    with pytest.raises(ValueError, match=f"design.{key}"):
        run(["design", "--config", cfg, "--out", tmp_path])
    assert not (tmp_path / "design.csv").exists()


# the functions behind the five commands
COMMAND_FUNCTIONS = [harness.design_table, harness.convergence_sweep, harness.lining_sweep,
                     harness.resonance_report, harness.kernel_check]


@pytest.mark.parametrize("config, message", [
    ({"desgin": {"num": 3}}, "unknown config key 'desgin'"),  # a misspelt section
    ({"design_samples": 0}, "unknown config key 'design_samples'"),  # a removed key
    ({"cloak": {"h": 0.1}}, "unknown config key 'cloak.h'"),  # a misspelt nested key
    ({"design": {"num": 3, "r_mni": 1.5}}, "unknown config key 'design.r_mni'"),
    ({"convergence": {"contents": [{"name": "a"}, {"nmae": "b"}]}},
     r"unknown config key 'convergence.contents\[1\].nmae'"),
    ({"design": 5}, "config key 'design' must be a table"),
    ({"convergence": {"contents": {"name": "a"}}},
     "config key 'convergence.contents' must be a list of tables"),
], ids=["section", "removed", "cloak.h", "design", "contents", "not-a-table", "not-a-list"])
@pytest.mark.parametrize("command", COMMAND_FUNCTIONS, ids=lambda f: f.__name__)
def test_commands_refuse_keys_no_command_reads(command, config, message):
    with pytest.raises(ValueError, match=message):
        command(config)


def test_readme_config_runs_under_every_command(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"Example config:\s*```json\n(.*?)```", readme, re.S)
    config = json.loads(block.group(1))
    for command in COMMAND_FUNCTIONS:
        command(dict(config))
    # and through the CLI, with the --seed override
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    for cmd in ("design", "resonance", "kernelcheck"):
        assert run([cmd, "--config", path, "--out", tmp_path, "--seed", 4]) == 0


def test_design_grid_clipping(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"design": {"r_min": 0.9, "r_max": 1.5, "num": 7}}))
    assert run(["design", "--config", cfg, "--out", tmp_path]) == 0
    err = capsys.readouterr().err
    assert "clipped" in err


def test_determinism_byte_identical(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "seed": 3,
        "n_max": 6,
        "design": {"r_min": 1.1, "r_max": 2.0, "num": 9},
        "convergence": {"h_values": [0.2, 0.1], "contents": [{"name": "x"}]},
    }))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        for cmd in ("design", "convergence", "lining"):
            run([cmd, "--config", cfg, "--out", out])
    for name in ("design.csv", "convergence.csv", "convergence.json",
                 "lining.csv", "lining.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # the sidecars hold the wall time of each stage of the sweeps
    for name in ("convergence", "lining"):
        seconds = json.loads((out1 / f"{name}.run.json").read_text())["seconds"]
        assert set(seconds) == {"load_special", "build", "solve", "distances",
                                "fit"}, name
        assert all(t >= 0.0 for t in seconds.values()), name


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _loaded_after(code, tmp_path):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    probe = code + "\nimport sys\nprint(' '.join(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


def test_commands_import_only_what_they_use(tmp_path):
    run_cmd = "from elastocloak.cli import main\nmain([{!r}, '--out', 'out'])"
    assert not _loaded_after("import elastocloak", tmp_path) & {"scipy.special",
                                                                "scipy.optimize"}
    assert not _loaded_after(run_cmd.format("design"), tmp_path) & {"scipy.special",
                                                                    "scipy.optimize"}
    loaded = _loaded_after(run_cmd.format("resonance"), tmp_path)
    assert "scipy.special" in loaded and "scipy.optimize" not in loaded


def test_toml_config(tmp_path):
    try:
        import tomllib  # noqa: F401  (Python >= 3.11)
    except ModuleNotFoundError:
        pytest.importorskip("tomli")
    cfg = tmp_path / "c.toml"
    cfg.write_text("[design]\nr_min = 1.5\nr_max = 2.0\nnum = 2\n")
    assert run(["design", "--config", cfg, "--out", tmp_path]) == 0
    assert (tmp_path / "design.csv").exists()


def test_loglog_fit_rejects_degenerate_data():
    with pytest.raises(ValueError, match="degenerate"):
        loglog_fit([0.2, 0.1, 0.05], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="degenerate"):
        loglog_fit([0.1, 0.1], [1e-2, 2e-2])


def test_loglog_fit_matches_polyfit():
    rng = np.random.default_rng(11)
    for m in rng.integers(2, 12, 40):
        h = np.exp(rng.uniform(-7.0, 0.0, m))
        d = np.exp(rng.uniform(-20.0, 5.0, m))
        fit = loglog_fit(h, d)
        slope, intercept = np.polyfit(np.log(h), np.log(d), 1)
        assert fit.slope == pytest.approx(slope, rel=1e-12, abs=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=1e-12)


def test_loglog_fit_is_exact_on_collinear_data():
    # at powers of two, log(h**2) is exactly 2 log(h) and log(1/h) exactly
    # -log(h), so the centered sums are exact
    h = 2.0 ** -np.arange(6)
    for d, slope in ((h**2, 2.0), (1.0 / h, -1.0)):
        fit = loglog_fit(h, d)
        assert (fit.slope, fit.intercept, fit.r2) == (slope, 0.0, 1.0)


@pytest.mark.parametrize("h, d", [
    ([0.2, 0.1, 0.05], [1e-2, np.nan, 2e-3]),
    ([0.2, 0.1, 0.05], [1e-2, np.inf, 2e-3]),
    ([0.2, -0.1, 0.05], [1e-2, 5e-3, 2e-3]),
    ([0.2, 0.0, 0.05], [1e-2, 5e-3, 2e-3]),
    ([0.2, np.inf, 0.05], [1e-2, 5e-3, 2e-3]),
    ([0.2, np.nan, 0.05], [1e-2, 5e-3, 2e-3]),
])
def test_loglog_fit_rejects_non_finite_data(h, d):
    with pytest.raises(ValueError, match="finite"):
        loglog_fit(h, d)


def test_loglog_fit_r2_policy():
    h = np.array([0.2, 0.1, 0.05, 0.025])
    noisy = 7.0 * h**2 * np.array([1.0, 3.5, 0.3, 2.0])
    fit = loglog_fit(h, noisy)
    assert fit.rejected
    clean = loglog_fit(h, 7.0 * h**2)
    assert not clean.rejected and clean.slope == pytest.approx(2.0)
    assert clean.r2 > 0.999999


def test_resonance_command(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"resonance": {"r0": 0.5, "r1": 1.0}}))
    assert run(["resonance", "--config", cfg, "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "resonance.json").read_text())
    assert rep["det_residual"] < 1e-8
    assert rep["spike_ratio"] > 1e3
    assert (tmp_path / "resonance_scan.csv").exists()


def test_resonance_rejects_bad_radii(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"resonance": {"r0": 1.0, "r1": 0.5}}))
    with pytest.raises(ValueError):
        run(["resonance", "--config", cfg, "--out", tmp_path])


def test_kernelcheck_passes_and_detects_corruption(tmp_path, monkeypatch):
    res = kernel_check({"kernelcheck": {"n_pairs": 60}})
    assert res["passed"]
    # a gap constant of the wrong sign: Pi - Pi_0 + eta I in place of Pi - Pi_0 - eta I
    gap = harness.asymptotic_gap_2d
    monkeypatch.setattr(harness, "asymptotic_gap_2d", lambda x, y, omega, medium: (
        gap(x, y, omega, medium) + 2.0 * eta_constant(omega, medium) * np.eye(2)))
    bad = kernel_check({"kernelcheck": {"n_pairs": 10}})
    names = {c["name"]: c["passed"] for c in bad["checks"]}
    assert not names["gap_rate"]


def test_kernelcheck_static_dispatch():
    res = kernel_check({"omega": 0.0, "kernelcheck": {"n_pairs": 40}})
    names = [c["name"] for c in res["checks"]]
    assert "series_3d" not in names and "gap_rate" not in names
    assert res["passed"]


def test_kernelcheck_cli_exit_code(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kernelcheck": {"n_pairs": 40}}))
    assert run(["kernelcheck", "--config", cfg, "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "kernelcheck.json").read_text())
    assert rep["passed"]


def test_convergence_command_small(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "n_max": 8,
        "convergence": {
            "h_values": [0.2, 0.1, 0.05],
            "contents": [{"name": "probe", "lambda": 2.0, "mu": 1.0}],
        },
    }))
    assert run(["convergence", "--config", cfg, "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "convergence.json").read_text())
    fit = rep["contents"]["probe"]["fit"]
    assert 1.5 < fit["slope"] < 2.5
    csv = (tmp_path / "convergence.csv").read_text().splitlines()
    assert csv[1].split(",")[0] == "content"


def test_lining_command_small(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_max": 8, "convergence": {"h_values": [0.2, 0.1, 0.05]}}))
    assert run(["lining", "--config", cfg, "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "lining.json").read_text())
    assert rep["fit"]["slope"] > 1.5
    # side scans are report-only; just check they are emitted and sane
    assert len(rep["beta_scan"]) == 3
    assert all(row["distance"] > 0 for row in rep["beta_scan"])
    assert abs(rep["delta_shift_slope"] - rep["fit"]["slope"]) < 0.6


def test_fit_rows_with_one_unflagged_row_is_rejected():
    rows = [{"h": 0.2, "distance": 0.3, "flag": ""}]
    rows += [{"h": h, "distance": float("nan"), "flag": "near-resonance mode 0"}
             for h in (0.1, 0.05)]
    fit = harness._fit_rows(rows)
    assert fit.rejected
    assert np.isnan(fit.slope) and np.isnan(fit.intercept) and np.isnan(fit.r2)


@pytest.mark.parametrize("failing, delta_slope", [
    ({3}, "fitted"),  # the beta = 4 beta0 side-scan point
    ({6}, "fitted"),  # one delta side-scan point: two rows remain
    ({5, 7}, None),  # all but one delta side-scan point
])
def test_lining_side_scans_survive_near_resonance(monkeypatch, failing, delta_slope):
    # the distinct near-cloak systems, in stack order: the main rows (h =
    # 0.2, 0.1, 0.05), the beta scan at h = 0.1 past beta0 (whose device is
    # the main row's), then the delta scan over h
    real = harness._free_disk_differences
    near_cloaks = []

    def flaky(configs, *args):
        ref, out = real(configs, *args)
        for i, config in enumerate(configs):
            if config.inner == "core":
                near_cloaks.append(config)
                if len(near_cloaks) - 1 in failing:
                    out[i] = NearResonanceError("forced", mode=3, condition=1e15)
        return ref, out

    monkeypatch.setattr(harness, "_free_disk_differences", flaky)
    rep = harness.lining_sweep({"n_max": 8, "convergence": {"h_values": [0.2, 0.1, 0.05]}})
    assert len(near_cloaks) == 8
    assert all(not r["flag"] for r in rep["rows"])
    beta_flags = [r["flag"] for r in rep["beta_scan"]]
    if 3 in failing:
        assert beta_flags == ["", "near-resonance mode 3", ""]
        assert np.isnan(rep["beta_scan"][1]["distance"])
    else:
        assert beta_flags == ["", "", ""]
    # the beta0 point is the main row at h = 0.1
    assert rep["beta_scan"][0]["distance"] == rep["rows"][1]["distance"]
    if delta_slope is None:
        assert rep["delta_shift_slope"] is None
    else:
        assert abs(rep["delta_shift_slope"] - rep["fit"]["slope"]) < 0.6


def test_sweeps_resolve_h_down_to_1e_5():
    # each distance comes from the devices' T-matrices at r = h, not as the
    # difference of two maps that agree to O(h^2): the h = 1e-5 rows read
    # C(1e-4) h^2, unflagged, for every content and for the lining
    config = {"convergence": {"h_values": [1e-3, 1e-4, 1e-5]}}
    conv, lin = harness.convergence_sweep(config), harness.lining_sweep(config)
    for rows, fit in [(res["rows"], res["fit"]) for res in conv["contents"].values()] + [
            (lin["rows"], lin["fit"])]:
        assert not any(r["flag"] for r in rows)
        assert not fit["rejected"] and abs(fit["slope"] - 2.0) <= 0.01
        c = rows[1]["distance"] / 1e-4**2
        assert rows[2]["distance"] == pytest.approx(c * 1e-5**2, rel=1e-4)


def test_sweeps_flag_mode_overflow(tmp_path):
    # a configured n_max past the representable modes flags the rows
    # (mode 98 at h = 0.1, mode 71 at h = 0.005) instead of raising
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_max": 100, "convergence": {"h_values": [0.1, 0.005]}}))
    for cmd in ("convergence", "lining"):
        assert run([cmd, "--config", cfg, "--out", tmp_path]) == 0
    conv = json.loads((tmp_path / "convergence.json").read_text())
    for res in conv["contents"].values():
        assert [r["flag"] for r in res["rows"]] == ["mode overflow mode 98",
                                                    "mode overflow mode 71"]
        assert all(np.isnan(r["distance"]) for r in res["rows"])
        assert res["fit"]["rejected"]
    lin = json.loads((tmp_path / "lining.json").read_text())
    assert [r["flag"] for r in lin["rows"]] == ["mode overflow mode 98", "mode overflow mode 71"]
    assert all(r["flag"] == "mode overflow mode 71" for r in lin["beta_scan"])
    assert lin["delta_shift_slope"] is None
    assert "mode overflow mode 98" in (tmp_path / "lining.csv").read_text()


def test_convergence_flags_rows_past_the_free_disk_overflow(tmp_path):
    # n_max 150 is past the free-disk reference's last representable mode
    # (147); the rows are flagged, as lining flags them, instead of raising
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_max": 150, "convergence": {"h_values": [0.1, 0.05]}}))
    for cmd in ("convergence", "lining"):
        assert run([cmd, "--config", cfg, "--out", tmp_path]) == 0
    conv = json.loads((tmp_path / "convergence.json").read_text())
    assert np.isnan(conv["preflight_max_condition"])
    for res in conv["contents"].values():
        assert [r["flag"] for r in res["rows"]] == ["mode overflow mode 98",
                                                    "mode overflow mode 91"]
        assert res["fit"]["rejected"]
    lin = json.loads((tmp_path / "lining.json").read_text())
    assert [r["flag"] for r in lin["rows"]] == ["mode overflow mode 98", "mode overflow mode 91"]
    # at h = 0.05, mode 91 is the first to need H_92 of the background's P
    # argument at the inner radius, 0.05 / sqrt(3): H_91 is representable
    # and H_92 exceeds DBL_MAX (~1.80e308)
    mp = pytest.importorskip("mpmath")
    z = mp.mpf(0.05) / mp.sqrt(3)
    assert abs(mp.hankel1(91, z)) == pytest.approx(1.483e305, rel=1e-3)
    assert abs(mp.hankel1(92, z)) / mp.mpf("9.352e308") == pytest.approx(1.0, rel=1e-3)


def test_convergence_escalates_n_max_to_the_same_sweep():
    # n_max 2 leaves more than 1% of the distance in its last two modes,
    # so the sweep raises it by 8 to 10, and every row and spread is then
    # that of a sweep configured at 10; the preflight is taken once, at
    # the configured n_max, before any escalation; the lining sweep raises
    # n_max the same way
    low, high = harness.convergence_sweep({"n_max": 2}), harness.convergence_sweep({"n_max": 10})
    assert low["n_max"] == high["n_max"] == 10
    assert low["contents"] == high["contents"]
    assert low["spreads"] == high["spreads"]
    assert low["preflight_max_condition"] == pytest.approx(7.32, rel=1e-3)
    assert high["preflight_max_condition"] == pytest.approx(30773, rel=1e-4)
    low, high = harness.lining_sweep({"n_max": 2}), harness.lining_sweep({"n_max": 10})
    del low["seconds"], high["seconds"]
    assert low["n_max"] == 10
    assert low == high


def test_sweeps_refuse_a_bad_omega_or_n_max(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_max": -1}))
    with pytest.raises(ValueError, match="n_max"):
        run(["convergence", "--config", cfg, "--out", tmp_path])
    # a configured n_max that is not an integer is refused, not truncated
    for n_max in (2.5, True):
        for sweep in (harness.convergence_sweep, harness.lining_sweep):
            with pytest.raises(ValueError, match="n_max"):
                sweep({"n_max": n_max, "convergence": {"h_values": [0.2, 0.1]}})
    for omega in (-1, 0):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"omega": omega}))
        for cmd in ("convergence", "lining"):
            with pytest.raises(ValueError, match="omega"):
                run([cmd, "--config", cfg, "--out", tmp_path])


def test_configured_n_max_and_background_content(tmp_path):
    # content defaulting to the background ("cloaking nothing") still
    # converges at the same rate
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_max": 6, "convergence": {"h_values": [0.2, 0.1, 0.05],
                                                           "contents": [{"name": "nothing"}]}}))
    assert run(["convergence", "--config", cfg, "--out", tmp_path]) == 0
    rep = json.loads((tmp_path / "convergence.json").read_text())
    assert rep["n_max"] >= 6
    assert 1.6 < rep["contents"]["nothing"]["fit"]["slope"] < 2.4
