"""Each output check of the benchmark accepts a right output and rejects a
deliberately corrupted one; the metric helpers compute what they claim.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import elastocloak as ec  # noqa: E402
import elastocloak.cli  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

H = np.array(workloads.H_SWEEP)


def _rows(distances):
    return [{"h": float(h), "distance": float(d), "flag": ""} for h, d in zip(H, distances)]


def _sweep(scale=(1.0, 1.1, 1.2), rate=2.0):
    return {"contents": {f"c{i}": {"rows": _rows(s * H**rate)} for i, s in enumerate(scale)}}


# -- sweep results -------------------------------------------------------------


def test_convergence_check_rejects_wrong_rate_fit_and_spread():
    assert workloads.convergence_problems("c", _sweep()) == []
    assert workloads.convergence_problems("c", _sweep(rate=1.0))
    assert workloads.convergence_problems("c", _sweep(rate=2.6))
    assert workloads.convergence_problems("c", _sweep(scale=(1.0, 1.0, 3.0)))
    noisy = _sweep()
    noisy["contents"]["c0"]["rows"][2]["distance"] *= 8.0  # r^2 < 0.98
    assert workloads.convergence_problems("c", noisy)


def test_lining_check_rejects_slow_rate():
    assert workloads.lining_problems("l", {"rows": _rows(H**2)}) == []
    assert workloads.lining_problems("l", {"rows": _rows(H**1.5)})


# -- NtD blocks ------------------------------------------------------------------


def test_block_check_rejects_perturbed_asymmetric_complex_and_nan_blocks():
    m = (1.7, 0.9, 1.3)
    blocks = ec.free_disk_ntd(ec.IsotropicMedium(*m), 2.0, 1.0, 8).blocks
    ref = oracles.uniform_disk_ntd(*m, 2.0, 1.0, 8)
    assert workloads._block_problems("b", blocks, ref, real=True) == []
    for corrupt in (
        lambda b: b.__setitem__((3, 0, 0), b[3, 0, 0] * (1 + 1e-8)),
        lambda b: b.__setitem__((3, 0, 1), b[3, 0, 1] + 1e-6 * abs(b[3]).max()),
        lambda b: b.__setitem__((5, 1, 1), b[5, 1, 1] + 1e-6j * abs(b[5]).max()),
        lambda b: b.__setitem__((0, 0, 0), np.nan),
    ):
        bad = blocks.copy()
        corrupt(bad)
        assert workloads._block_problems("b", bad, ref, real=True)


def test_ntd_sweep_checks_energy_and_high_order_results():
    wl = workloads.ntd_sweep(seed=3)
    name = next(n for n, _ in wl.ops if n.startswith("energy_identity_check"))
    assert wl.check({name: (1e-12, 1.0, 1.0)}) == []
    assert wl.check({name: (1e-3, 1.0, 1.0)})
    high = next(n for n, _ in wl.ops if n.startswith("assemble_ntd[h=0.05"))
    dev = ec.build_near_cloak(0.05, 1.0, 1.0, 1.0, 0.0, content=ec.DEFAULT_CONTENTS["stiff"],
                              background=ec.IsotropicMedium(1.0, 1.0, 1.0)).virtual
    good = ec.assemble_ntd(dev, 1.0, 60)
    assert wl.check({high: good}) == []
    bad = copy.deepcopy(good)
    bad.blocks[55, 0, 0] = np.inf
    assert wl.check({high: bad})
    bad = copy.deepcopy(good)
    bad.blocks[10] *= 1.0 + 1e-7
    assert wl.check({high: bad})


# -- kernel-suite ------------------------------------------------------------------


@pytest.fixture(scope="module")
def kernel_wl():
    return workloads.kernel_suite(seed=5)


def _op(wl, prefix):
    return next(thunk for name, thunk in wl.ops if name.startswith(prefix))


def test_kernel_check_failure_is_reported(kernel_wl):
    ok = {"passed": True, "checks": [{"name": "x", "passed": True}]}
    bad = {"passed": False, "checks": [{"name": "x", "passed": False}]}
    assert kernel_wl.check({"kernel_check[n_pairs=1000]": ok}) == []
    assert kernel_wl.check({"kernel_check[n_pairs=1000]": bad})


def test_layer_operator_checks_reject_asymmetric_s_and_wrong_k(kernel_wl):
    ops = _op(kernel_wl, "layer_operators[N=128]")()
    assert kernel_wl.check({"layer_operators[N=128]": ops}) == []
    S = ops.S.copy()
    S[0, 5] *= 1.0 + 1e-9
    assert kernel_wl.check({"layer_operators[N=128]": SimpleNamespace(
        S=S, K=ops.K, quadrature=ops.quadrature)})
    assert kernel_wl.check({"layer_operators[N=128]": SimpleNamespace(
        S=ops.S, K=ops.K * (1 + 1e-5), quadrature=ops.quadrature)})


def test_calderon_check_rejects_residual_rising_with_n(kernel_wl):
    ops = _op(kernel_wl, "layer_operators[N=128]")()
    eps = 1e-9 / np.abs(ops.S).max()  # lifts the residual far above the N=128 one
    rising = SimpleNamespace(S=ops.S, K=ops.K + eps * np.eye(ops.K.shape[0]),
                             quadrature=ops.quadrature)
    problems = kernel_wl.check({"layer_operators[N=128]": ops,
                                "layer_operators[N=256]": rising})
    assert any("rises" in p for p in problems), problems


def test_somigliana_check_rejects_perturbed_potential(kernel_wl):
    sl = _op(kernel_wl, "sl_potential[target=0]")()
    dl = _op(kernel_wl, "dl_potential[target=0]")()
    ok = {"sl_potential[target=0]": sl, "dl_potential[target=0]": dl}
    assert kernel_wl.check(ok) == []
    assert kernel_wl.check(dict(ok, **{"dl_potential[target=0]": dl * (1 + 1e-6)}))


def test_cavity_check_rejects_wrong_trace_rate(kernel_wl):
    names = [n for n, _ in kernel_wl.ops if n.startswith("solve_exterior_cavity")]
    good = {n: thunk() for n, thunk in kernel_wl.ops if n in names}
    assert kernel_wl.check(good) == []
    fake = {n: SimpleNamespace(boundary_norm=lambda r, h=h: h**2) for n, h in zip(names, H)}
    assert kernel_wl.check(fake)


# -- cli-default ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    for cmd in ("design", "resonance"):
        assert elastocloak.cli.main([cmd, "--out", str(out)]) == 0
    return out


def test_design_check_rejects_wrong_entry(cli_out, tmp_path):
    assert workloads.design_problems({"out": cli_out}) == []
    lines = (cli_out / "design.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[7] = repr(float(cells[7]) * (1 + 1e-9))  # C_rtrt
    lines[5] = ",".join(cells)
    (tmp_path / "design.csv").write_text("\n".join(lines) + "\n")
    assert workloads.design_problems({"out": tmp_path})


def test_resonance_check_rejects_wrong_density_and_weak_spike(cli_out, tmp_path):
    assert workloads.resonance_problems({"out": cli_out}) == []
    data = json.loads((cli_out / "resonance.json").read_text())
    for key, value in (("rho1", data["rho1"] * (1 + 1e-6)), ("spike_ratio", 10.0),
                       ("det_residual", 1e-6)):
        (tmp_path / "resonance.json").write_text(json.dumps(dict(data, **{key: value})))
        assert workloads.resonance_problems({"out": tmp_path}), key


def test_sweep_json_checks_read_the_files(tmp_path):
    (tmp_path / "convergence.json").write_text(json.dumps(_sweep()))
    (tmp_path / "lining.json").write_text(json.dumps({"rows": _rows(H**2)}))
    assert workloads.convergence_json_problems({"out": tmp_path}) == []
    assert workloads.lining_json_problems({"out": tmp_path}) == []
    (tmp_path / "convergence.json").write_text(json.dumps(_sweep(rate=1.2)))
    (tmp_path / "lining.json").write_text(json.dumps({"rows": _rows(H)}))
    assert workloads.convergence_json_problems({"out": tmp_path})
    assert workloads.lining_json_problems({"out": tmp_path})


def test_cli_check_rejects_nonzero_exit(tmp_path):
    wl = workloads.cli_default(1, tmp_path, tmp_path)
    assert wl.check({"design": {"returncode": 2, "stdout": "", "stderr": "boom"}})


def test_kernelcheck_check_rejects_fail_line():
    assert workloads.kernelcheck_problems({"stdout": "PASS a: value=0\n"}) == []
    assert workloads.kernelcheck_problems({"stdout": "PASS a: value=0\nFAIL b: value=1\n"})
    assert workloads.kernelcheck_problems({"stdout": ""})


# -- metric helpers ----------------------------------------------------------------------


def test_tail_leaves_ten_samples_beyond_and_falls_back_to_median():
    lat = list(range(1, 79))
    pct, value, beyond = run.tail(lat, 78, 39.5)
    assert (pct, value, beyond) == (87, 68, 10)
    assert run.tail(lat[:10], 10, 5.5) == (50, 5.5, 5)


def test_per_op_averages_each_operation_over_the_passes():
    wl = SimpleNamespace(ops=[("a", None), ("b", None), ("c", None)])
    # two passes of a, b, c
    per_op = run._per_op(wl, [1.0, 2.0, 10.0, 3.0, 6.0, 20.0])
    assert per_op == {"a": 2.0, "b": 4.0, "c": 15.0}


def test_oracle_field_matches_library_green_tensor():
    bg = ec.IsotropicMedium(1.0, 1.0, 1.0)
    x, y, q, n = np.array([0.4, -0.3]), np.array([3.0, 1.0]), np.array([0.7, -0.4]), np.array([0.6, 0.8])
    u, t = oracles.point_force_field(x, y, q, n, 1.0, 1.0, 1.0, 1.0)
    assert np.allclose(u[0], ec.green_omega(x, y, 1.0, bg) @ q, rtol=1e-12, atol=0)
    assert np.allclose(t[0], ec.green_traction(y, x, n, 1.0, bg).T @ q, rtol=1e-10, atol=0)


def test_layer_metrics_self_time_and_counters():
    rec = spans.Recorder()
    inner = rec._wrap("kernels.green_omega", lambda: 1)
    outer = rec._wrap("kernels.sl_potential", lambda: inner() + inner())
    rec.active = True
    rec.begin_op("op")
    assert outer() == 2
    rec.active = False
    rec.count("harness.n_max_escalations", 2)
    arrays = rec.arrays()
    assert list(arrays["parent"]) == [-1, 0, 0]
    out = spans.layer_metrics([(rec.meta(), arrays)])
    dur = arrays["end"] - arrays["start"]
    assert out["kernels.green_omega.calls"] == 2
    assert out["kernels.sl_potential.s"] == pytest.approx(dur[0], abs=1e-12)
    assert out["kernels.green_omega.self_s"] == pytest.approx(dur[1] + dur[2], abs=1e-12)
    assert out["harness.n_max_escalations"] == 2
    assert out["trace.absent"] == 0
