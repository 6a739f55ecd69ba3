"""CLI harness: commands, config handling, determinism, fit policy."""

import json

import numpy as np
import pytest

from elastocloak import harness
from elastocloak.cli import main
from elastocloak.harness import kernel_check, loglog_fit
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
        run(["design", "--config", cfg, "--out", out])
        run(["convergence", "--config", cfg, "--out", out])
    assert (out1 / "design.csv").read_bytes() == (out2 / "design.csv").read_bytes()
    assert (out1 / "convergence.csv").read_bytes() == (out2 / "convergence.csv").read_bytes()


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


def test_kernelcheck_passes_and_detects_corruption(tmp_path):
    res = kernel_check({"kernelcheck": {"n_pairs": 60}})
    assert res["passed"]
    bad = kernel_check({"kernelcheck": {"n_pairs": 10}}, corrupt_eta=True)
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
    ({3}, "fitted"),  # the first beta side-scan point
    ({7}, "fitted"),  # one delta side-scan point: two rows remain
    ({6, 8}, None),  # all but one delta side-scan point
])
def test_lining_side_scans_survive_near_resonance(monkeypatch, failing, delta_slope):
    # the near-cloak solves run in order: the main rows (h = 0.2, 0.1,
    # 0.05), the beta scan at h = 0.1, then the delta scan over h
    real = harness.assemble_ntd
    near_cloak_calls = []

    def flaky(config, omega, n_max, **kw):
        if config.inner == "core":
            near_cloak_calls.append(None)
            if len(near_cloak_calls) - 1 in failing:
                raise NearResonanceError("forced", mode=3, condition=1e15)
        return real(config, omega, n_max, **kw)

    monkeypatch.setattr(harness, "assemble_ntd", flaky)
    rep = harness.lining_sweep({"n_max": 8, "convergence": {"h_values": [0.2, 0.1, 0.05]}})
    assert len(near_cloak_calls) == 9
    assert all(not r["flag"] for r in rep["rows"])
    beta_flags = [r["flag"] for r in rep["beta_scan"]]
    if 3 in failing:
        assert beta_flags == ["near-resonance mode 3", "", ""]
        assert np.isnan(rep["beta_scan"][0]["distance"])
    else:
        assert beta_flags == ["", "", ""]
    if delta_slope is None:
        assert rep["delta_shift_slope"] is None
    else:
        assert abs(rep["delta_shift_slope"] - rep["fit"]["slope"]) < 0.6


def test_n_max_override_and_background_content(tmp_path):
    # content defaulting to the background ("cloaking nothing") still
    # converges at the same rate
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"convergence": {"h_values": [0.2, 0.1, 0.05],
                                               "contents": [{"name": "nothing"}]}}))
    assert run(["convergence", "--config", cfg, "--out", tmp_path, "--n-max", "6"]) == 0
    rep = json.loads((tmp_path / "convergence.json").read_text())
    assert rep["n_max"] >= 6
    assert 1.6 < rep["contents"]["nothing"]["fit"]["slope"] < 2.4
