"""Spans at the saturate layer boundaries, recorded from outside the package.

A Tracer replaces public callables with timing wrappers: the four maps of
every SystemDefinition (through dataclasses.replace) and the module-level
names that callers look up, in every saturate module that binds them. Each
call inside a job becomes one span (name, start, end, parent span, job id,
attributes taken from its arguments or result). Spans stay in memory;
`layer_metrics` turns them into the per-layer numbers.

Only public names are touched, so the benchmark keeps working when private
helpers move.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# span tuple fields
ID, NAME, START, END, PARENT, JOB, ATTRS = range(7)


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _map_attrs(args, kwargs, result):
    return {"rows": _rows(args[0])}


def _window_attrs(args, kwargs, result):
    return {"rows_in": int(args[0].shape[0]), "rows_out": int(result.shape[0]),
            "d": int(args[0].shape[1])}


def _iterate_limit_attrs(args, kwargs, result):
    return {"rows": 1, "iterations": int(result.iterations),
            "unconverged": 0 if result.converged else 1}


def _iterate_batch_attrs(args, kwargs, result):
    rows = _rows(args[1])
    conv = np.asarray(result[2], dtype=bool)
    unconverged = rows * int(not conv) if conv.ndim == 0 else int(np.count_nonzero(~conv))
    return {"rows": rows, "iterations": int(np.max(result[1])), "unconverged": unconverged}


def _coupled_limit_attrs(args, kwargs, result):
    rep = result[1]
    return {"iterations": int(rep.iterations), "unconverged": 0 if rep.converged else 1}


def _len_attrs(args, kwargs, result):
    return {"n": len(result)}


def _battery_attrs(args, kwargs, result):
    return {"n": len(result.checks)}


# (module, public name, span name, attribute hook)
BOUNDARIES = [
    ("saturate.kernels", "window_mean_forward", "kernels.window_fwd", _window_attrs),
    ("saturate.kernels", "window_mean_adjoint", "kernels.window_adj", _window_attrs),
    ("saturate.system", "iterate_limit", "system.iterate_limit", _iterate_limit_attrs),
    ("saturate.system", "iterate_batch", "system.iterate_batch", _iterate_batch_attrs),
    ("saturate.potential", "bp_threshold", "potential.bp_threshold", None),
    ("saturate.potential", "potential_threshold", "potential.potential_threshold", None),
    ("saturate.potential", "maxwell_threshold", "potential.maxwell_threshold", None),
    ("saturate.potential", "fixed_points", "potential.fixed_points", _len_attrs),
    ("saturate.potential", "energy_gap", "potential.energy_gap", None),
    ("saturate.potential", "threshold_report", "potential.threshold_report", None),
    ("saturate.coupled", "coupled_limit", "coupled.coupled_limit", _coupled_limit_attrs),
    ("saturate.coupled", "coupled_bp_threshold", "coupled.coupled_bp_threshold", None),
    ("saturate.coupled", "hessian_bound", "coupled.hessian_bound", None),
    ("saturate.system", "verify_admissible", "verify.verify_admissible", None),
    ("saturate.verify", "lemma_battery", "verify.lemma_battery", _battery_attrs),
    ("saturate.config", "load_config", "config.load_config", None),
    ("saturate.config", "build_system", "config.build_system", None),
    ("saturate.cli", "main", "cli.main", None),
]

SYSTEM_MAPS = [
    ("check_update", "models.g", _map_attrs),
    ("bit_update", "models.f", _map_attrs),
    ("check_energy", "models.check_energy", None),
    ("bit_energy", "models.bit_energy", None),
]


class Tracer:
    """Wraps saturate's public callables and records one span per call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job_id = None  # spans are recorded only while a job runs
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def suspended(self):
        """Calls made inside this block (on this thread) are not recorded."""
        self._local.off = True
        try:
            yield
        finally:
            self._local.off = False

    def wrap(self, name, fn, attrs=None, transform=None):
        def traced(*args, **kwargs):
            job = self.job_id
            if job is None or getattr(self._local, "off", False):
                result = fn(*args, **kwargs)
                return transform(result) if transform else result
            stack = self._stack()
            # a pool thread's first span hangs under the span the main thread
            # is blocked in
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                if transform:
                    result = transform(result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs and result is not None else None
                self.spans.append((sid, name, t0, t1, parent, job, extra))

        traced.__wrapped__ = fn
        return traced

    def wrap_system(self, system):
        """The same system with its four maps traced."""
        maps = {field: self.wrap(name, getattr(system, field), attrs)
                for field, name, attrs in SYSTEM_MAPS}
        with self.suspended():  # __post_init__ re-validates the maps
            return dataclasses.replace(system, **maps)

    def install(self):
        """Patch every binding of each boundary callable in loaded saturate modules."""
        import saturate.cli  # noqa: F401  (loads every layer)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "saturate" or n.startswith("saturate.")]
        for mod_name, attr, span_name, attrs in BOUNDARIES:
            orig = getattr(sys.modules.get(mod_name), attr, None)
            if orig is None:  # moved or removed: that boundary reads zero
                continue
            transform = self.wrap_system if span_name == "config.build_system" else None
            wrapped = self.wrap(span_name, orig, attrs, transform)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[ID], "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT], "job": s[JOB],
                                     "attrs": s[ATTRS]}) + "\n")


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, bytes_written: int) -> dict:
    """Per-layer counts and times from one traced run's spans."""
    by_id = {s[ID]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)

    def named(*names):
        return [s for s in spans if s[NAME] in names]

    def dur(s):
        return s[END] - s[START]

    def self_time(s):
        return dur(s) - _union_length([(c[START], c[END]) for c in children[s[ID]]],
                                      s[START], s[END])

    def ancestors(s):
        p = s[PARENT]
        while p is not None and p in by_id:
            yield by_id[p]
            p = by_id[p][PARENT]

    def direct_children(names, child_names):
        return sum(1 for s in named(*names) for c in children[s[ID]] if c[NAME] in child_names)

    m = {}
    g, f = named("models.g"), named("models.f")
    energies = named("models.check_energy", "models.bit_energy")
    m["models.g_calls"] = len(g)
    m["models.g_rows"] = sum(s[ATTRS]["rows"] for s in g if s[ATTRS])
    m["models.g_s"] = sum(map(dur, g))
    m["models.f_calls"] = len(f)
    m["models.f_rows"] = sum(s[ATTRS]["rows"] for s in f if s[ATTRS])
    m["models.f_s"] = sum(map(dur, f))
    m["models.max_rows_per_call"] = max((s[ATTRS]["rows"] for s in g + f if s[ATTRS]), default=0)
    m["models.energy_calls"] = len(energies)
    m["models.energy_s"] = sum(map(dur, energies))

    fwd, adj = named("kernels.window_fwd"), named("kernels.window_adj")
    m["kernels.window_fwd_calls"] = len(fwd)
    m["kernels.window_fwd_s"] = sum(map(dur, fwd))
    m["kernels.window_adj_calls"] = len(adj)
    m["kernels.window_adj_s"] = sum(map(dur, adj))
    m["kernels.window_rows"] = sum(s[ATTRS]["rows_in"] for s in fwd + adj if s[ATTRS])
    # computed, not measured: each window call reads and writes rows x d doubles
    m["kernels.window_bytes_computed"] = sum(
        (s[ATTRS]["rows_in"] + s[ATTRS]["rows_out"]) * s[ATTRS]["d"] * 8
        for s in fwd + adj if s[ATTRS])

    system_names = ("system.iterate_limit", "system.iterate_batch")
    outer = [s for s in named(*system_names)
             if not any(a[NAME] in system_names for a in ancestors(s))]
    rows = sum(s[ATTRS]["rows"] for s in outer if s[ATTRS])
    unconverged = sum(s[ATTRS]["unconverged"] for s in outer if s[ATTRS])
    m["system.iterate_calls"] = len(outer)
    m["system.iterations"] = sum(s[ATTRS]["iterations"] for s in outer if s[ATTRS])
    m["system.row_iterations"] = sum(s[ATTRS]["iterations"] * s[ATTRS]["rows"]
                                     for s in outer if s[ATTRS])
    m["system.unconverged"] = unconverged
    m["system.converged_ratio"] = (rows - unconverged) / rows if rows else 1.0
    m["system.iterate_s"] = sum(map(dur, outer))
    m["system.iterate_self_s"] = sum(map(self_time, outer))

    fps = named("potential.fixed_points")
    m["potential.bp_s"] = sum(map(dur, named("potential.bp_threshold")))
    m["potential.bp_probes"] = direct_children(("potential.bp_threshold",), system_names)
    m["potential.potential_s"] = sum(map(dur, named("potential.potential_threshold")))
    m["potential.potential_probes"] = direct_children(
        ("potential.potential_threshold",), ("potential.energy_gap", "potential.fixed_points"))
    m["potential.maxwell_s"] = sum(map(dur, named("potential.maxwell_threshold")))
    m["potential.maxwell_probes"] = direct_children(
        ("potential.maxwell_threshold",), ("potential.fixed_points",))
    m["potential.energy_gap_calls"] = len(named("potential.energy_gap"))
    m["potential.fixed_points_calls"] = len(fps)
    m["potential.fixed_points_s"] = sum(map(dur, fps))
    seeds = sum(_first_batch_rows(s, children) for s in fps)
    found = sum(s[ATTRS]["n"] for s in fps if s[ATTRS])
    m["potential.seeds"] = seeds
    m["potential.fp_found"] = found
    m["potential.fp_yield"] = found / seeds if seeds else 0.0

    limits = named("coupled.coupled_limit")
    steps = sum(s[ATTRS]["iterations"] for s in limits if s[ATTRS])
    limit_s = sum(map(dur, limits))
    m["coupled.limit_calls"] = len(limits)
    m["coupled.steps"] = steps
    m["coupled.limit_s"] = limit_s
    m["coupled.step_us"] = 1e6 * limit_s / steps if steps else 0.0
    m["coupled.unconverged"] = sum(s[ATTRS]["unconverged"] for s in limits if s[ATTRS])
    m["coupled.threshold_s"] = sum(map(dur, named("coupled.coupled_bp_threshold")))
    m["coupled.threshold_probes"] = direct_children(
        ("coupled.coupled_bp_threshold",), ("coupled.coupled_limit",))
    m["coupled.hessian_s"] = sum(map(dur, named("coupled.hessian_bound")))

    m["verify.admissible_s"] = sum(map(dur, named("verify.verify_admissible")))
    battery = named("verify.lemma_battery")
    m["verify.battery_s"] = sum(map(dur, battery))
    m["verify.checks"] = sum(s[ATTRS]["n"] for s in battery if s[ATTRS])

    m["config.load_s"] = sum(map(dur, named("config.load_config")))
    m["cli.self_s"] = sum(map(self_time, named("cli.main")))
    m["cli.bytes_written"] = bytes_written
    m["trace.spans"] = len(spans)
    return m


def _first_batch_rows(fp_span, children) -> int:
    """Rows of the first check-map batch a fixed-point enumeration evaluates.

    That batch is the seed set: Newton seeds for d=2, the iterated lattice
    otherwise. The all-ones limit computed first (an iterate_limit child) is
    skipped.
    """
    frontier = [c for c in children[fp_span[ID]] if c[NAME] != "system.iterate_limit"]
    found = []
    while frontier:
        s = frontier.pop()
        if s[NAME] == "models.g" and s[ATTRS]:
            found.append(s)
        frontier.extend(children[s[ID]])
    return min(found, key=lambda s: s[START])[ATTRS]["rows"] if found else 0


# counts that must repeat exactly between runs of the same code and inputs
DETERMINISTIC = (
    "models.g_calls", "models.g_rows", "models.f_calls", "models.f_rows",
    "models.max_rows_per_call", "models.energy_calls",
    "kernels.window_fwd_calls", "kernels.window_adj_calls", "kernels.window_rows",
    "kernels.window_bytes_computed",
    "system.iterate_calls", "system.iterations", "system.row_iterations", "system.unconverged",
    "potential.bp_probes", "potential.potential_probes", "potential.maxwell_probes",
    "potential.energy_gap_calls", "potential.fixed_points_calls", "potential.seeds",
    "potential.fp_found",
    "coupled.limit_calls", "coupled.steps", "coupled.unconverged", "coupled.threshold_probes",
    "verify.checks", "cli.bytes_written", "trace.spans",
)
