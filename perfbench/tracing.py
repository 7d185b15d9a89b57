"""In-memory span tracer for the baryrom benchmark.

The tracer rebinds public functions as they are bound in the
``baryrom.pipeline`` namespace, so every call the pipeline (or the
benchmark) makes through that name records a span: name, start, end,
parent span and, for some layers, a count taken at the boundary (bytes of
a file, barycenter sweeps, grid cells advanced).  Nothing in the package
itself changes.  A call a module makes to its own functions (for example
``io.check_file`` hashing through ``io.sha256_file``) stays inside its
caller's span.

Spans are kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from contextlib import contextmanager

# name in baryrom.pipeline -> span name, "<module>.<function>"
TRACED = {
    "predict": "pipeline.predict",
    "study_weights": "weights.study_weights",
    "karcher_barycenter": "manifold.karcher_barycenter",
    "itsgm_interpolate": "manifold.itsgm_interpolate",
    "update_reduced_model": "rom.update_reduced_model",
    "combined_basis": "rom.combined_basis",
    "initial_condition": "rom.initial_condition",
    "integrate_rom": "rom.integrate_rom",
    "reconstruct_field": "rom.reconstruct_field",
    "direct_project": "rom.direct_project",
    "assemble_cross_tensors": "rom.assemble_cross_tensors",
    "compute_pod": "pod.compute_pod",
    "global_mean": "pod.global_mean",
    "run": "solver.run",
    "write_matrix": "io.write_matrix",
    "write_archive": "io.write_archive",
    "write_manifest": "io.write_manifest",
    "sha256_file": "io.sha256_file",
    "read_matrix": "io.read_matrix",
    "read_archive": "io.read_archive",
    "read_manifest": "io.read_manifest",
    "check_file": "io.check_file",
    "mean_error": "metrics.mean_error",
    "error_report": "metrics.error_report",
}

IO_WRITE = ("io.write_matrix", "io.write_archive", "io.write_manifest", "io.sha256_file")
IO_READ = ("io.read_matrix", "io.read_archive", "io.read_manifest", "io.check_file",
           "io.sha256_file")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size_of_first_arg(args, kwargs, result):
    return os.path.getsize(args[0])


# span name -> count recorded at the boundary from (args, kwargs, result)
COUNTS = {
    "io.write_matrix": _size_of_first_arg,
    "io.write_archive": _size_of_first_arg,
    "io.write_manifest": _size_of_first_arg,
    "io.sha256_file": _size_of_first_arg,
    "io.read_matrix": _size_of_first_arg,
    "io.read_archive": _size_of_first_arg,
    "io.read_manifest": _size_of_first_arg,
    "io.check_file": lambda args, kwargs, result: os.path.getsize(result),
    "manifold.karcher_barycenter": lambda args, kwargs, result: result.iterations,
    "solver.run": lambda args, kwargs, result: (
        _arg(args, kwargs, 1, "grid").n
        * (_arg(args, kwargs, 0, "cfg").transient + _arg(args, kwargs, 0, "cfg").steps)),
    "rom.reconstruct_field": lambda args, kwargs, result: result.values.nbytes,
    "rom.integrate_rom": lambda args, kwargs, result: 4 * _arg(args, kwargs, 3, "steps"),
}

BUILD_SPAN = "bench.build"  # the benchmark's span around one study build

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Records spans around the traced pipeline names while installed."""

    def __init__(self, namespace):
        self.namespace = namespace
        self.spans = []  # [name, start, end, parent index or -1, count or None]
        self._open = []
        self._originals = {attr: getattr(namespace, attr) for attr in TRACED}
        self._wrapped = {attr: self._wrap(TRACED[attr], fn)
                         for attr, fn in self._originals.items()}

    def _begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._open[-1] if self._open else -1, None])
        self._open.append(idx)
        return idx

    def _end(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if count is not None:
                self.spans[idx][COUNT] = count(args, kwargs, result)
            return result

        return traced

    def install(self):
        for attr, fn in self._wrapped.items():
            setattr(self.namespace, attr, fn)

    def remove(self):
        for attr, fn in self._originals.items():
            setattr(self.namespace, attr, fn)

    @contextmanager
    def paused(self):
        """Run the body with the original, untraced functions bound."""
        self.remove()
        try:
            yield
        finally:
            self.install()

    @contextmanager
    def span(self, name):
        """A span of the benchmark's own, around a phase or operation."""
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def dump(self, path, env):
        records = [{"name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "count": s[COUNT]} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "spans": records}, fh)


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(spans):
    """Per-layer figures from a finished span list.

    Times are medians per call unless named otherwise; ``io.*`` figures are
    per study build (the descendants of each ``BUILD_SPAN``), medians over
    builds.  Counts are computed from file sizes, array sizes and call
    arguments, not measured.
    """
    by_name = {}
    children_time = [0.0] * len(spans)
    build_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        parent = s[PARENT]
        if parent >= 0:
            children_time[parent] += s[END] - s[START]
        build_of[i] = i if s[NAME] == BUILD_SPAN else (
            build_of[parent] if parent >= 0 else -1)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def med_ms(name):
        return 1e3 * _median([dur(i) for i in by_name.get(name, [])])

    def med_count(name):
        return _median([spans[i][COUNT] for i in by_name.get(name, [])
                        if spans[i][COUNT] is not None], 0)

    builds = {}
    for i, s in enumerate(spans):
        b = build_of[i]
        if b < 0 or b == i:
            continue
        acc = builds.setdefault(b, {"write_s": 0.0, "check_s": 0.0,
                                    "written": 0, "read": 0})
        if s[NAME] in IO_WRITE:
            acc["write_s"] += dur(i)
        if s[NAME] == "io.check_file":
            acc["check_s"] += dur(i)
        if s[NAME] in IO_WRITE and s[NAME] != "io.sha256_file":
            acc["written"] += s[COUNT]
        if s[NAME] in IO_READ:
            acc["read"] += s[COUNT]
    per_build = list(builds.values())

    predicts = by_name.get("pipeline.predict", [])
    solver_runs = by_name.get("solver.run", [])
    # compare() makes three error reports per row (bary, itsgm, truth-POD floor)
    rows = len(by_name.get("metrics.error_report", [])) / 3
    metric_time = sum(dur(i) for name in ("metrics.mean_error", "metrics.error_report")
                      for i in by_name.get(name, []))

    return {
        "pipeline.predict_self_ms": 1e3 * _median(
            [dur(i) - children_time[i] for i in predicts]),
        "pipeline.predict_coverage_pct": 100.0 * _median(
            [children_time[i] / dur(i) for i in predicts]),
        "weights.study_weights_ms": med_ms("weights.study_weights"),
        "manifold.barycenter_ms": med_ms("manifold.karcher_barycenter"),
        "manifold.barycenter_sweeps": med_count("manifold.karcher_barycenter"),
        "manifold.itsgm_ms": med_ms("manifold.itsgm_interpolate"),
        "rom.update_ms": med_ms("rom.update_reduced_model"),
        "rom.combined_basis_ms": med_ms("rom.combined_basis"),
        "rom.initial_condition_ms": med_ms("rom.initial_condition"),
        "rom.integrate_ms": med_ms("rom.integrate_rom"),
        "rom.rhs_evals": med_count("rom.integrate_rom"),
        "rom.lift_ms": med_ms("rom.reconstruct_field"),
        "rom.lift_bytes": med_count("rom.reconstruct_field"),
        "rom.direct_project_ms": med_ms("rom.direct_project"),
        "rom.assemble_ms": med_ms("rom.assemble_cross_tensors"),
        "pod.compute_pod_ms": med_ms("pod.compute_pod"),
        "pod.global_mean_ms": med_ms("pod.global_mean"),
        "solver.run_s": med_ms("solver.run") / 1e3,
        "solver.cell_updates_per_s": _median(
            [spans[i][COUNT] / dur(i) for i in solver_runs]),
        "io.write_ms": 1e3 * _median([b["write_s"] for b in per_build]),
        "io.check_file_ms": 1e3 * _median([b["check_s"] for b in per_build]),
        "io.bytes_written": _median([b["written"] for b in per_build], 0),
        "io.bytes_read": _median([b["read"] for b in per_build], 0),
        "io.archive_bytes": med_count("io.write_archive"),
        "metrics.error_ms": 1e3 * metric_time / rows if rows else 0.0,
    }
