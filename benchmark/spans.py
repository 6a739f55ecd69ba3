"""Span recorder for the traced benchmark run.

Wraps the public functions named in ``TRACED`` from outside the library:
each wrapper is installed on the defining module and on every
``elastocloak`` module that imported the function by name, so calls made
through either name are recorded. A span holds its function, start, end,
parent span and operation id. Spans stay in memory (typed arrays, about
30 bytes each) and are written out once, at the end of the run.

A function that a later change removes or renames is listed in
``Recorder.absent``, counted in ``trace.absent`` and reads 0 in its own
metrics; it does not stop the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# module -> public functions wrapped
TRACED = {
    "specfun": ("bessel_j", "bessel_j_prime", "bessel_j_second", "bessel_y",
                "bessel_y_prime", "hankel1", "hankel1_prime", "cyl_eval"),
    "wavefields": ("basis_matrix", "basis_column"),
    "modesolver": ("assemble_ntd", "free_disk_ntd", "ntd_distance", "solve_mode",
                   "energy_identity_check", "mode_system_condition",
                   "find_resonant_densities"),
    "cloaks": ("build_near_cloak", "ideal_cloak_polar"),
    "tensors": ("check_legendre",),
    "kernels": ("layer_operators", "green_omega", "green_traction", "sl_potential",
                "dl_potential", "solve_exterior_cavity"),
    "harness": ("convergence_sweep", "lining_sweep", "kernel_check",
                "resonance_report", "design_table"),
    "cli": ("main", "write_csv", "write_json"),
}

# (metric, unit) of every per-layer metric. ``<fn>.calls`` counts spans,
# ``<fn>.s`` sums their durations, ``<fn>.self_s`` their self time; the
# rest are counters taken at the same calls.
METRICS = (
    ("specfun.calls", "count"), ("specfun.self_s", "s"),
    ("wavefields.basis_matrix.calls", "count"), ("wavefields.basis_matrix.self_s", "s"),
    ("wavefields.basis_column.calls", "count"), ("wavefields.basis_column.self_s", "s"),
    ("modesolver.assemble_ntd.calls", "count"), ("modesolver.assemble_ntd.s", "s"),
    ("modesolver.assemble_ntd.self_s", "s"), ("modesolver.blocks", "count"),
    ("modesolver.free_disk_ntd.s", "s"), ("modesolver.ntd_distance.s", "s"),
    ("modesolver.solve_mode.calls", "count"), ("modesolver.energy_identity_check.s", "s"),
    ("modesolver.mode_system_condition.calls", "count"),
    ("modesolver.mode_system_condition.s", "s"),
    ("modesolver.find_resonant_densities.s", "s"),
    ("cloaks.build_near_cloak.calls", "count"), ("cloaks.build_near_cloak.s", "s"),
    ("cloaks.ideal_cloak_polar.s", "s"),
    ("tensors.check_legendre.calls", "count"), ("tensors.check_legendre.self_s", "s"),
    ("kernels.layer_operators.calls", "count"), ("kernels.layer_operators.s", "s"),
    ("kernels.layer_operators.pairs", "count"), ("kernels.layer_operators.bytes", "B"),
    ("kernels.green_omega.calls", "count"), ("kernels.green_omega.self_s", "s"),
    ("kernels.green_traction.calls", "count"), ("kernels.green_traction.self_s", "s"),
    ("kernels.sl_potential.s", "s"), ("kernels.dl_potential.s", "s"),
    ("kernels.solve_exterior_cavity.s", "s"),
    ("harness.convergence_sweep.s", "s"), ("harness.lining_sweep.s", "s"),
    ("harness.kernel_check.s", "s"), ("harness.resonance_report.s", "s"),
    ("harness.design_table.s", "s"), ("harness.n_max_escalations", "count"),
    ("cli.import_s", "s"), ("cli.main.s", "s"), ("cli.write.s", "s"),
    ("trace.overhead_s", "s"), ("trace.absent", "count"),
)


class Recorder:
    """In-memory span store plus the counters measured at the same calls."""

    def __init__(self):
        self.names = []  # function id -> "module.function"
        self.ops = []  # operation id -> operation name
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.current_op = -1
        self.active = False
        self.absent = []
        self.counters = {}
        self.sweep_levels = {}  # open convergence_sweep span -> n_max values

    def begin_op(self, name):
        self.ops.append(name)
        self.current_op = len(self.ops) - 1

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        after = _AFTER.get(qualname)
        rec, stack, clock = self, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = len(rec.start)
            rec.fn.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.op.append(rec.current_op)
            rec.end.append(0.0)
            stack.append(i)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[i] = clock()
                stack.pop()
            if after is not None:
                after(rec, i, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every function in TRACED wherever the library binds it."""
        for modname, funcs in TRACED.items():
            try:
                home = importlib.import_module(f"elastocloak.{modname}")
            except ImportError:
                self.absent += [f"{modname}.{f}" for f in funcs]
                continue
            mods = [m for k, m in list(sys.modules.items())
                    if m is not None and (k == "elastocloak" or k.startswith("elastocloak."))]
            for fname in funcs:
                original = getattr(home, fname, None)
                if not callable(original):
                    self.absent.append(f"{modname}.{fname}")
                    continue
                wrapper = self._wrap(f"{modname}.{fname}", original)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, attr, wrapper)

    def arrays(self):
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def meta(self):
        return {"names": self.names, "ops": self.ops, "absent": self.absent,
                "counters": self.counters}

    def save(self, path):
        np.savez(path, meta=np.array(json.dumps(self.meta())), **self.arrays())


def load(path):
    """(meta, arrays) of a span file written by ``Recorder.save``."""
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        arrays = {k: z[k] for k in ("fn", "start", "end", "parent", "op")}
    return meta, arrays


# -- counters taken from call results ------------------------------------------


def _assembled(rec, i, args, kwargs, result):
    rec.count("modesolver.blocks", int(result.blocks.shape[0]))
    # an n_max escalation re-solves the sweep at a larger n_max, so each
    # convergence_sweep span collects the distinct n_max it solved at
    n_max = kwargs.get("n_max", args[2] if len(args) > 2 else None)
    for s in reversed(rec.stack):
        if rec.names[rec.fn[s]] == "harness.convergence_sweep":
            rec.sweep_levels.setdefault(s, set()).add(n_max)
            break


def _free_disk(rec, i, args, kwargs, result):
    rec.count("modesolver.blocks", int(result.blocks.shape[0]))


def _layer_size(rec, i, args, kwargs, result):
    n = result.S.shape[0] // 2  # two components per node
    rec.count("kernels.layer_operators.pairs", n * n)
    rec.count("kernels.layer_operators.bytes", int(result.S.nbytes + result.K.nbytes))


def _sweep_done(rec, i, args, kwargs, result):
    levels = rec.sweep_levels.pop(i, ())
    rec.count("harness.n_max_escalations", max(len(levels) - 1, 0))


_AFTER = {
    "modesolver.assemble_ntd": _assembled,
    "modesolver.free_disk_ntd": _free_disk,
    "kernels.layer_operators": _layer_size,
    "harness.convergence_sweep": _sweep_done,
}


# -- metrics -----------------------------------------------------------------


def layer_metrics(recordings):
    """Per-layer metrics from one or more (meta, arrays) recordings.

    Self time is a span's duration minus the time its direct child spans
    cover.
    """
    calls, incl, own = {}, {}, {}
    counters, absent = {}, set()
    for meta, a in recordings:
        names = meta["names"]
        absent.update(meta["absent"])
        for key, value in meta["counters"].items():
            counters[key] = counters.get(key, 0) + value
        if a["fn"].size == 0:
            continue
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        k = len(names)
        per_calls = np.bincount(a["fn"], minlength=k)
        per_incl = np.bincount(a["fn"], weights=dur, minlength=k)
        per_own = np.bincount(a["fn"], weights=dur - covered, minlength=k)
        for nid, name in enumerate(names):
            calls[name] = calls.get(name, 0) + int(per_calls[nid])
            incl[name] = incl.get(name, 0.0) + float(per_incl[nid])
            own[name] = own.get(name, 0.0) + float(per_own[nid])

    out = {}
    for metric, _unit in METRICS:
        head, _, kind = metric.rpartition(".")
        table = {"calls": calls, "s": incl, "self_s": own}.get(kind)
        out[metric] = table.get(head, 0) if table is not None else counters.get(metric, 0)
    specfun = [f"specfun.{f}" for f in TRACED["specfun"]]
    out["specfun.calls"] = sum(calls.get(n, 0) for n in specfun)
    out["specfun.self_s"] = sum(own.get(n, 0.0) for n in specfun)
    out["cli.write.s"] = incl.get("cli.write_csv", 0.0) + incl.get("cli.write_json", 0.0)
    out["trace.absent"] = len(absent)
    return out
