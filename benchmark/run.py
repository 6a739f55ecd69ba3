#!/usr/bin/env python3
"""Benchmark of elastocloak: three workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload ntd-sweep --seed 1 --seconds 30 --trace 0

Needs no install: it puts ``src`` on the path and passes it on to every
child process. With ``--trace 0`` it runs whole passes over the workload's
operations for about ``--seconds`` (at least the workload's minimum number
of passes), checks every output and prints the end-to-end metrics. With
``--trace 1`` it runs one untraced and one traced pass and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
readable summary goes to standard error, and the full report to
``.bench_out/results/``. See README.md in this directory.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread, here and in every child: the load comes from one
# thread on a host of nproc = 2 shared cores. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("ntd-sweep", "kernel-suite", "cli-default")
SETUP_SAMPLES = 5  # this run's own set-up plus four fresh processes
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
TAIL_MIN_SAMPLES = 40
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up only and print it (used for the set-up samples)")
    return p.parse_args(argv)


def run_pass(wl, rec=None):
    """Run every operation once; return results, latencies, errors, wall time."""
    results, latencies, errors = {}, [], {}
    t_pass = time.perf_counter()
    for name, thunk in wl.ops:
        if rec is not None:
            rec.begin_op(name)
        t = time.perf_counter()
        try:
            results[name] = thunk()
        except Exception as exc:  # a failing operation is counted, not fatal
            errors[name] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
    return results, latencies, errors, time.perf_counter() - t_pass


def tail(latencies, n_min, p50):
    """Nearest-rank latency at the workload's tail percentile.

    The percentile is the highest whole one that leaves ``TAIL_BEYOND``
    samples above it in a run of the minimum length ``n_min``; it is fixed
    per workload, so runs of any length measure the same point. Below
    ``TAIL_MIN_SAMPLES`` such a percentile is no tail, and ``p50`` (the
    run's ``op_p50_s``) is reported instead.
    """
    if n_min < TAIL_MIN_SAMPLES:
        return 50, p50, len(latencies) // 2
    pct = math.floor(100 * (n_min - TAIL_BEYOND) / n_min)
    ordered = sorted(latencies)
    rank = math.ceil(pct / 100 * len(ordered))
    return pct, ordered[rank - 1], len(ordered) - rank


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest child.

    Children run one at a time, so this bounds what was resident at once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_probe(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(wl, args, setup_s):
    latencies, passes, errors, problems = [], [], {}, []
    attempted = failed = 0
    start = time.perf_counter()
    while (len(passes) < wl.min_passes
           or time.perf_counter() - start + statistics.median(passes) <= args.seconds):
        results, lat, errs, wall = run_pass(wl)
        latencies += lat
        passes.append(wall)
        attempted += len(lat)
        failed += len(errs)
        errors.update(errs)
        problems += wl.check(results)
    rss = peak_rss_mb()  # before the set-up probes start children
    setups = [setup_s] + [setup_probe(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    per_op = _per_op(wl, latencies)
    p50 = statistics.median(list(per_op.values()))
    pct, tail_s, beyond = tail(latencies, len(wl.ops) * wl.min_passes, p50)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {"passes": passes, "setup_samples": setups, "tail_percentile": pct,
              "tail_samples_beyond": beyond, "latency_samples": len(latencies),
              "op_latency_mean": per_op, "latencies": latencies}
    return attempted, failed, errors, problems, metrics, detail


def _per_op(wl, latencies):
    """Each operation's mean latency over the run's passes.

    ``op_p50_s`` is the median of these. The host's speed switches between
    levels within seconds; a median of the raw samples jumps from one level
    to the next as the share of time spent at each crosses one half, while
    a mean over passes follows that share smoothly.
    """
    names = [name for name, _ in wl.ops]
    per = {}
    for i, value in enumerate(latencies):
        per.setdefault(names[i % len(names)], []).append(value)
    return {k: statistics.fmean(v) for k, v in per.items()}


def traced_run(wl, spans_dir):
    import spans

    attempted = failed = 0
    errors, problems = {}, []
    walls = []
    rec = spans.Recorder()
    for traced in (False, True):
        if traced:
            rec.install()
            if "state" in wl.context:
                wl.context["state"]["traced"] = True
            rec.active = True
        results, lat, errs, wall = run_pass(wl, rec if traced else None)
        rec.active = False
        walls.append(wall)
        attempted += len(lat)
        failed += len(errs)
        errors.update(errs)
        problems += wl.check(results)
    rec.save(spans_dir / "spans.npz")
    recordings = [(rec.meta(), rec.arrays())]
    recordings += [spans.load(p) for p in wl.context.get("span_files", ())]
    layer = spans.layer_metrics(recordings)
    layer["trace.overhead_s"] = walls[1] - walls[0]
    units = dict(spans.METRICS)
    metrics = {k: (v, units[k]) for k, v in layer.items()}
    detail = {"untraced_pass_s": walls[0], "traced_pass_s": walls[1],
              "absent": sorted(set(rec.absent)), "spans": len(rec.start)}
    return attempted, failed, errors, problems, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "elastocloak" / "__init__.py").is_file():
        print(f"error: no elastocloak sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    import workloads

    tag = f"{args.workload}-seed{args.seed}"
    scratch = OUT / "scratch" / f"{tag}-{os.getpid()}"
    spans_dir = OUT / "spans" / tag
    for d in (scratch, spans_dir):
        d.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, scratch, spans_dir)
        wl.warmup()
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run = traced_run(wl, spans_dir) if args.trace else timed_run(wl, args, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted, failed, errors, problems, metrics, detail = run

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  errors=errors, problems=problems, detail=detail,
                  versions=_versions())
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(report, indent=2))

    print(f"{args.workload} seed={args.seed}: attempted {attempted}, failed {failed}, "
          f"correct {not problems}", file=sys.stderr)
    for name, err in errors.items():
        print(f"  failed {name}: {err}", file=sys.stderr)
    for p in problems[:20]:
        print(f"  check: {p}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _versions():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


if __name__ == "__main__":
    sys.exit(main())
