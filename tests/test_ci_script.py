"""The CI scripts: the one that compares the numbers of two CLI output
files, and the one that reports the size of the source tree."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / ".github" / "scripts"
SCRIPT = SCRIPTS / "max_rel_diff.py"


def _run(tmp_path, a, b, suffix):
    paths = []
    for name, text in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}{suffix}")
        paths[-1].write_text(text, encoding="utf-8")
    proc = subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def _kernelcheck(navier, calderon, omega=1.0):
    return json.dumps({"checks": [
        {"name": "navier_residual", "passed": True, "tol": 1e-6, "value": navier},
        {"name": "calderon", "passed": True, "tol": 1e-7, "errors": [5.7e-9, calderon],
         "value": calderon},
    ], "config_sha256": "44136fa355b3678a", "omega": omega}, indent=2)


def test_json_checks_read_in_units_of_their_tol(tmp_path):
    # a residual at its rounding floor moves by 3 % of itself, but by
    # 4.2e-5 of its tol: it no longer sets the largest relative difference
    lines = _run(tmp_path, _kernelcheck(1.448e-9, 1.998e-15),
                 _kernelcheck(1.490e-9, 1.994e-15), ".json")
    assert lines == [
        "all 3 other numbers equal",
        "checks[0].value: |a - b| / tol = 4.20e-05 (tol 1e-06)",
        "checks[1].errors[1]: |a - b| / tol = 4.00e-11 (tol 1e-07)",
        "checks[1].value: |a - b| / tol = 4.00e-11 (tol 1e-07)",
    ]
    # a number outside a check's value and errors keeps the relative difference
    lines = _run(tmp_path, _kernelcheck(1.448e-9, 1e-15), _kernelcheck(1.448e-9, 1e-15, 1.5),
                 ".json")
    assert lines == ["1 of 3 numbers differ, largest relative difference 3.33e-01"]
    assert _run(tmp_path, '{"a": [1, 2]}', '{"a": [1, 2, 3]}', ".json") == [
        "numbers at 1 paths are in one file only"]
    assert _run(tmp_path, '{"x": 1.0}', '{"x": 1.0 }', ".json") == [
        "all 1 numbers equal, text differs"]


def test_json_numbers_are_also_reported_per_leaf_key(tmp_path):
    # a tail ratio that moved by 1 does not hide distances that moved by
    # 1e-12: each leaf key that differs gets its own line, largest first
    def sweep(distances, tails):
        return json.dumps({"rows": [{"distance": d, "h": h, "tail_ratio": t}
                                    for d, h, t in zip(distances, (0.2, 0.1), tails)],
                           "n_max": 16})

    lines = _run(tmp_path, sweep([2.0, 0.5], [1e-14, 1e-13]),
                 sweep([2.0 * (1 + 1e-12), 0.5], [1e-26, 1e-34]), ".json")
    assert lines == ["3 of 7 numbers differ, largest relative difference 1.00e+00",
                     "tail_ratio: 2 of 2 numbers differ, largest relative difference 1.00e+00",
                     "distance: 1 of 2 numbers differ, largest relative difference 1.00e-12"]
    # beside the tol-scaled lines, which stay as they are
    lines = _run(tmp_path, _kernelcheck(1.448e-9, 1e-15, 1.5).replace('"passed"', '"x": 2, "passed"'),
                 _kernelcheck(1.490e-9, 1e-15).replace('"passed"', '"x": 3, "passed"'), ".json")
    assert lines == [
        "3 of 5 other numbers differ, largest relative difference 3.33e-01",
        "x: 2 of 2 numbers differ, largest relative difference 3.33e-01",
        "omega: 1 of 1 numbers differ, largest relative difference 3.33e-01",
        "checks[0].value: |a - b| / tol = 4.20e-05 (tol 1e-06)",
    ]


def test_other_files_pair_their_numbers_in_order(tmp_path):
    assert _run(tmp_path, "h,d\n0.1,2.0\n0.2,4.0\n", "h,d\n0.1,2.0\n0.2,5.0\n", ".csv") == [
        "1 of 4 numbers differ, largest relative difference 2.00e-01"]
    assert _run(tmp_path, "h,d\n0.1,nan\n", "h, d\n0.1,nan\n", ".csv") == [
        "all 2 numbers equal, text differs"]
    assert _run(tmp_path, "1 2", "1 2 3", ".csv") == ["2 numbers against 3"]


def test_src_size_counts_lines_public_names_and_modules(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""Doc."""\nfrom .a import *\n')
    (pkg / "a.py").write_text('__all__ = ["f", "g"]\n\n\ndef f():\n    pass\n\n\ng = 1\n')
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "src_size.py"), f"tiny={pkg}",
                           f"head={src}"], capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["| tree | lines | public names | modules | uncalled public defs |",
                         "| --- | ---: | ---: | ---: | ---: |", "| tiny | 10 | 2 | 2 | 1 |"]
    # the repository's own tree, against its imported modules
    files = sorted((src / "elastocloak").glob("*.py"))
    modules = [importlib.import_module("elastocloak" + ("" if f.stem == "__init__" else f".{f.stem}"))
               for f in files]
    names = sum(len(vars(m).get("__all__", ())) for m in modules)
    n_lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    assert lines[3].startswith(f"| head | {n_lines} | {names} | {len(files)} | ")
    # the public functions that only tests call, kept as oracles
    assert lines[-1] == ("head: `maps.identity_map`, `maps.jacobian`, "
                         "`tensors.apply_stiffness`")


def test_src_size_lists_public_defs_that_no_other_code_names(tmp_path):
    # f is called only inside its own module, g is not a def, h is named by
    # another module, k by a demo and m by a benchmark string
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "a.py").write_text('__all__ = ["f", "g", "h", "k", "m"]\n'
                              "def f(): pass\ndef h(): return f()\n"
                              "def k(): pass\ndef m(): pass\ng = 1\n")
    (src / "b.py").write_text("from .a import h\n")
    for d, text in (("demos", "import pkg\npkg.k()\n"), ("benchmark", 'TRACED = ("m",)\n')):
        (tmp_path / d).mkdir()
        (tmp_path / d / "x.py").write_text(text)
    proc = subprocess.run([sys.executable, str(SCRIPTS / "src_size.py"), f"t={src.parent}"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[2:] == ["| t | 7 | 5 | 2 | 1 |", "", "t: `a.f`"]


def test_src_size_refuses_an_argument_that_is_not_label_dir():
    # checked before the table header is printed: a bad argument after a
    # good one leaves no half table
    for args in (["src"], ["head=src", "base"], ["=src"], ["head="]):
        proc = subprocess.run([sys.executable, str(SCRIPTS / "src_size.py"), *args],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: src_size.py LABEL=DIR")
