"""Spans around the public calls into each fvptrunc module, from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every fvptrunc module that binds it (modules import names from each other,
so `fvptrunc.harness.picard_solve` and `fvptrunc.reference.picard_solve`
are the same function bound twice), and each traced method on its class.
`Tracer.restore()` puts every original back.  Spans are kept in memory as
[name, start, end, parent] and written out once, by `write`.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (span name, module, attribute path) of every traced callable.
TARGETS = (
    ("cli.main", "fvptrunc.cli", "main"),
    ("harness.run_experiment", "fvptrunc.harness", "run_experiment"),
    ("harness.certified_rho", "fvptrunc.harness", "_certified_rho"),
    ("harness.add_noise", "fvptrunc.harness", "add_noise"),
    ("reference.build_reference", "fvptrunc.harness", "build_reference"),
    ("param_choice.choose_level", "fvptrunc.param_choice", "choose_level"),
    ("bounds.truncation_bound", "fvptrunc.bounds", "truncation_bound"),
    ("bounds.noise_bound", "fvptrunc.bounds", "noise_bound"),
    ("bounds.total_bound", "fvptrunc.bounds", "total_bound"),
    ("bounds.check_dominance", "fvptrunc.bounds", "check_dominance"),
    ("spectral.gevrey_norm", "fvptrunc.spectral", "gevrey_norm"),
    ("spectral.scaled_norm_rows", "fvptrunc.spectral", "scaled_norm_rows"),
    ("grids.sup_distance", "fvptrunc.grids", "Trajectory.sup_distance"),
    ("grids.sup_norm", "fvptrunc.grids", "Trajectory.sup_norm"),
    ("quadrature.exp_kernel_profile", "fvptrunc.quadrature", "exp_kernel_profile"),
    ("quadrature.backward_cumulative", "fvptrunc.quadrature", "backward_cumulative"),
    ("solver.picard_solve", "fvptrunc.solver", "picard_solve"),
    ("solver.fixed_point_map", "fvptrunc.solver", "fixed_point_map"),
    ("solver.fixed_point_defect", "fvptrunc.solver", "fixed_point_defect"),
    ("problem.source_apply", "fvptrunc.problem", "SourceFunction.apply"),
)

QUADRATURE = ("quadrature.exp_kernel_profile", "quadrature.backward_cumulative")
HARNESS = ("harness.run_experiment", "harness.certified_rho", "harness.add_noise")

# Every per-layer metric with its unit; see `Tracer.metrics`.
PER_LAYER = {
    "spectral.gevrey_norm.s": "s", "spectral.gevrey_norm.calls": "count",
    "spectral.scaled_norm_rows.s": "s", "spectral.scaled_norm_rows.calls": "count",
    "grids.sup_distance.s": "s", "grids.sup_distance.self_s": "s",
    "grids.sup_distance.calls": "count",
    "grids.sup_norm.s": "s", "grids.sup_norm.calls": "count",
    "quadrature.exp_kernel_profile.s": "s", "quadrature.exp_kernel_profile.calls": "count",
    "quadrature.backward_cumulative.s": "s",
    "quadrature.backward_cumulative.calls": "count",
    "quadrature.points": "count", "quadrature.ns_per_point": "ns",
    "quadrature.bytes_computed": "B",
    "solver.picard_solve.s": "s", "solver.picard_solve.calls": "count",
    "solver.picard_iterations": "count",
    "solver.fixed_point_map.self_s": "s", "solver.fixed_point_map.calls": "count",
    "solver.fixed_point_defect.s": "s",
    "problem.source_apply.s": "s", "problem.source_apply.calls": "count",
    "reference.build_reference.s": "s", "reference.ladder_solves": "count",
    "harness.self_s": "s", "harness.cells": "count", "harness.cell_solves": "count",
    "harness.solves_per_cell": "count",
    "param_choice.choose_level.s": "s", "bounds.s": "s", "cli.self_s": "s",
    "trace.run_s": "s", "trace.overhead_s": "s",
}


def _resolve(module: str, path: str):
    """(owner, attribute, original) for 'func' or 'Class.method' in module,
    or None when the program no longer has it (`Tracer.missing` lists it,
    and its layer reads 0)."""
    try:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Wraps the TARGETS while installed and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.points = 0          # samples passed to the quadrature routines
        self.bytes = 0           # bytes those calls read and write, by array size
        self.iterations = 0      # sum of PicardResult.iterations
        self.cells = 0           # rows returned by run_experiment
        self.missing: list[str] = []  # TARGETS the program lacks
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _observe(self, name: str, args, kwargs, result):
        if name in QUADRATURE:
            # exp_kernel_profile(lam, h, w, order=2), backward_cumulative(h, w, order=2)
            skip = 1 if name == QUADRATURE[0] else 0
            w = args[1 + skip] if len(args) > 1 + skip else kwargs["w"]
            order = args[2 + skip] if len(args) > 2 + skip else kwargs.get("order", 2)
            n = np.asarray(w).size  # all modes, should w gain a mode axis
            k = 6 if order == 6 else 2
            self.points += n
            # samples in, stencil gather, weight table, profile out (the
            # gather and the table have n - 1 rows per mode; counted as n)
            self.bytes += 8 * n * (2 + 2 * k)
        elif name == "solver.picard_solve":
            self.iterations += result.iterations
        elif name == "harness.run_experiment":
            self.cells += len(result.rows)

    def _wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, self._observe

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            observe(name, args, kwargs, result)
            return result

        return traced

    def install(self):
        for name, module, path in TARGETS:
            target = _resolve(module, path)
            if target is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, original = target
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "fvptrunc" or mod_name.startswith("fvptrunc."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # ----------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _inside(self, idx: int, names) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self) -> dict:
        """The PER_LAYER metrics of the spans recorded so far, but for the
        trace.* ones, which the caller takes from body wall times.

        `.s` is inclusive time, counting a span only when no enclosing span
        belongs to the same group; `.self_s` is summed self time; `.calls`
        counts spans.
        """
        own = self.self_times()
        by_name = defaultdict(list)
        for i, span in enumerate(self.spans):
            by_name[span[0]].append(i)

        def inclusive(*names):
            return sum(self.spans[i][2] - self.spans[i][1]
                       for n in names for i in by_name[n] if not self._inside(i, names))

        def self_s(*names):
            return sum(own[i] for n in names for i in by_name[n])

        def calls(name):
            return len(by_name[name])

        bounds = [n for n, _, _ in TARGETS if n.startswith("bounds.")]
        quad_s = inclusive(*QUADRATURE)
        cell_solves = sum(1 for i in by_name["solver.picard_solve"]
                          if self._inside(i, ("harness.run_experiment",))
                          and not self._inside(i, ("reference.build_reference",)))
        return {
            "spectral.gevrey_norm.s": inclusive("spectral.gevrey_norm"),
            "spectral.gevrey_norm.calls": calls("spectral.gevrey_norm"),
            "spectral.scaled_norm_rows.s": inclusive("spectral.scaled_norm_rows"),
            "spectral.scaled_norm_rows.calls": calls("spectral.scaled_norm_rows"),
            "grids.sup_distance.s": inclusive("grids.sup_distance"),
            "grids.sup_distance.self_s": self_s("grids.sup_distance"),
            "grids.sup_distance.calls": calls("grids.sup_distance"),
            "grids.sup_norm.s": inclusive("grids.sup_norm"),
            "grids.sup_norm.calls": calls("grids.sup_norm"),
            "quadrature.exp_kernel_profile.s": inclusive(QUADRATURE[0]),
            "quadrature.exp_kernel_profile.calls": calls(QUADRATURE[0]),
            "quadrature.backward_cumulative.s": inclusive(QUADRATURE[1]),
            "quadrature.backward_cumulative.calls": calls(QUADRATURE[1]),
            "quadrature.points": self.points,
            "quadrature.ns_per_point": 1e9 * quad_s / self.points if self.points else 0.0,
            "quadrature.bytes_computed": self.bytes,
            "solver.picard_solve.s": inclusive("solver.picard_solve"),
            "solver.picard_solve.calls": calls("solver.picard_solve"),
            "solver.picard_iterations": self.iterations,
            "solver.fixed_point_map.self_s": self_s("solver.fixed_point_map"),
            "solver.fixed_point_map.calls": calls("solver.fixed_point_map"),
            "solver.fixed_point_defect.s": inclusive("solver.fixed_point_defect"),
            "problem.source_apply.s": inclusive("problem.source_apply"),
            "problem.source_apply.calls": calls("problem.source_apply"),
            "reference.build_reference.s": inclusive("reference.build_reference"),
            "reference.ladder_solves": sum(
                1 for i in by_name["solver.picard_solve"]
                if self._inside(i, ("reference.build_reference",))),
            "harness.self_s": self_s(*HARNESS),
            "harness.cells": self.cells,
            "harness.cell_solves": cell_solves,
            "harness.solves_per_cell": cell_solves / self.cells if self.cells else 0.0,
            "param_choice.choose_level.s": inclusive("param_choice.choose_level"),
            "bounds.s": inclusive(*bounds),
            "cli.self_s": self_s("cli.main"),
        }

    def write(self, path, run_id: str):
        """Append this run's spans to `path`, one JSON list per line."""
        with open(path, "a") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([run_id, name, start, end, parent]) + "\n")
