"""The benchmark's workloads, their correctness checks and their metrics.

Every workload calls the public ``baryrom.pipeline`` functions from one
process, in a closed loop with a single client: an operation starts only
after the previous one returned.  README.md says why each workload exists
and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import scipy.linalg

from baryrom import pipeline
from baryrom.errors import BaryromError

from tracing import BUILD_SPAN, Tracer, layer_metrics

NU_RANGE = (0.05, 0.11)       # span of the default trained set
TEST_NU = (0.06, 0.08, 0.10)  # default held-out set
TEST_JITTER = 0.0002          # the seed moves each held-out target by at most this
WARMUP = 3                    # predictions before the timed sweep
C3_TARGETS = 3                # seeded sweep targets checked against direct_project
C3_TOL = 1e-10                # acceptance criterion C3
MIN_COVERAGE_PCT = 95.0       # traced runs: child spans' share of predict wall time

# setups: set-up builds per run; probe_mb: size of the probe's memory pass
# (see Clock), 0 for none; ref_s: the typical length of one ref unit on the
# 2-vCPU host the bounds were set on, which turns set-up ref units into
# setup_s seconds at a fixed host speed
WORKLOADS = {
    "online-coarse": {"kind": "online", "nx": 256, "setups": 8, "probe_mb": 0, "ref_s": 0.012},
    "online-fine": {"kind": "online", "nx": 20000, "setups": 3, "probe_mb": 16, "ref_s": 0.020},
    "study-build": {"kind": "study", "nx": 2000, "setups": 3, "probe_mb": 0, "ref_s": 0.012},
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "predict_p50_ref": "ref",
    "predict_p90_ref": "ref",
    "generate_ref": "ref",
    "offline_ref": "ref",
    "compare_ref": "ref",
    "bary_err_pct": "%",
    "itsgm_err_pct": "%",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name -> unit
    "bench.ref_ms": "ms",
    "pipeline.predict_p50_ms": "ms",
    "pipeline.predict_p90_ms": "ms",
    "pipeline.predict_per_s": "1/s",
    "pipeline.predict_self_ms": "ms",
    "pipeline.predict_coverage_pct": "%",
    "trace.overhead_pct": "%",
    "weights.study_weights_ms": "ms",
    "manifold.barycenter_ms": "ms",
    "manifold.barycenter_sweeps": "count",
    "manifold.itsgm_ms": "ms",
    "rom.update_ms": "ms",
    "rom.combined_basis_ms": "ms",
    "rom.initial_condition_ms": "ms",
    "rom.integrate_ms": "ms",
    "rom.rhs_evals": "count",
    "rom.lift_ms": "ms",
    "rom.lift_bytes": "B",
    "rom.direct_project_ms": "ms",
    "rom.assemble_ms": "ms",
    "pod.compute_pod_ms": "ms",
    "pod.global_mean_ms": "ms",
    "solver.run_s": "s",
    "solver.cell_updates_per_s": "1/s",
    "io.write_ms": "ms",
    "io.check_file_ms": "ms",
    "io.bytes_written": "B",
    "io.bytes_read": "B",
    "io.archive_bytes": "B",
    "metrics.error_ms": "ms",
}


class Clock:
    """Wall time, and the same time in units of a fixed reference kernel.

    On a shared host the CPU speed can change by a factor of two for
    seconds to minutes at a time, which moves every raw time by more than
    any regression bound.  The reference kernel does the kind of work
    that dominates the pipeline -- small numpy/scipy calls whose cost is
    mostly interpreter overhead, as in the reduced RK4 loop and the
    solver's step loop -- and never changes; it calls numpy and scipy
    only, never baryrom.  With ``big_mb`` it also makes one pass over an
    array of that size, for workloads whose mesh-sized work is bound by
    memory traffic, which host contention slows more than interpreter
    work.  It is run between the benchmark's operations ("probes"), and
    an operation's time divided by the kernel's time around it (a "ref"
    unit) follows the code rather than the host's speed at that moment.
    """

    def __init__(self, big_mb=0):
        g = np.random.default_rng(0)
        m = 3.0 * np.eye(7) + 0.1 * g.random((7, 7))
        self.factor = scipy.linalg.cho_factor(m @ m.T)
        self.c = g.random((7, 7, 7))
        self.a0 = g.random(7)
        self.big = g.random(big_mb * 2**20 // 8) if big_mb else None
        self.probes = []
        self.probe()

    def probe(self):
        t0 = time.perf_counter()
        a = self.a0
        for _ in range(400):
            a = 0.5 * scipy.linalg.cho_solve(
                self.factor, a - 1e-3 * np.einsum("e,eij,j->i", a, self.c, a))
        if self.big is not None:
            float((self.big * 1.0001).sum())
        elapsed = time.perf_counter() - t0
        self.probes.append(elapsed)
        return elapsed

    def unit(self):
        """Kernel time around the operation that just ended: the mean of the
        last probe, taken before it, and a fresh probe after it."""
        before = self.probes[-1]
        return 0.5 * (before + self.probe())

    @contextmanager
    def stage(self, names, calls=None):
        """Time the body as one stage, probing after every call it makes to
        the named ``baryrom.pipeline`` functions, so a stage of several
        seconds is sampled many times.  Probe time is excluded from the
        stage.  ``calls`` receives (name, method keyword, seconds, ref) per
        probed call.  On exit the yielded dict holds the stage's "wall"
        seconds and "ref" units: each probed call over the probes on either
        side of it, and the rest of the stage over the median of the stage's
        probes."""
        first = len(self.probes) - 1
        originals = {name: getattr(pipeline, name) for name in names}
        probing = [0.0]
        covered = [0.0, 0.0]  # seconds inside probed calls, and their ref units

        def probed(name, fn):
            def call(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - t0
                    t1 = time.perf_counter()
                    unit = self.unit()
                    probing[0] += time.perf_counter() - t1
                    covered[0] += elapsed
                    covered[1] += elapsed / unit
                    if calls is not None:
                        calls.append((name, kwargs.get("method"), elapsed, elapsed / unit))
            return call

        for name, fn in originals.items():
            setattr(pipeline, name, probed(name, fn))
        result = {}
        t0 = time.perf_counter()
        try:
            yield result
        finally:
            wall = time.perf_counter() - t0 - probing[0]
            for name, fn in originals.items():
                setattr(pipeline, name, fn)
            self.probe()
            result["wall"] = wall
            rest = (wall - covered[0]) / statistics.median(self.probes[first:])
            result["ref"] = covered[1] + rest


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self, log):
        self.attempted = 0
        self.failures = []
        self.log = log

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            self.log(f"FAILED: {what}")


def _percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def c4_holds(row):
    """Acceptance criterion C4 on one compare row."""
    _, e_b, e_i, e_t, _ = row
    return e_b <= max(2.0 * e_t, 1.0) and e_b <= 2.0 * e_i


def update_gap(study, nu):
    """Largest relative gap between the cheap update and direct projection
    onto the combined basis (acceptance criterion C3)."""
    cfg = study.cfg
    modes = [b.modes for b in study.bases]
    w = pipeline.study_weights(study, nu)
    bary = pipeline.karcher_barycenter(modes, w.values, tol=cfg.tol, max_iter=cfg.max_iter,
                                       init=pipeline.nearest_index(study.params, nu))
    model = pipeline.update_reduced_model(study.tensors, w, bary.rotations, nu)
    phi = pipeline.combined_basis(modes, w, bary.rotations)
    oracle = pipeline.direct_project(phi, study.mean, study.ip, study.grid.gradient, nu)
    return max(
        np.linalg.norm(getattr(model, k) - getattr(oracle, k))
        / max(np.linalg.norm(getattr(oracle, k)), 1e-14)
        for k in ("M", "R", "Cbar", "C", "F")
    )


# the heavy pipeline calls of each stage; the clock probes after each one
PROBED = {
    "generate": ("run",),
    "offline": ("compute_pod", "assemble_cross_tensors"),
    "compare": ("predict", "compute_pod", "error_report"),
}


class Runner:
    """One workload run: set-up, timed phase, checks, metrics.

    ``raw`` holds wall times in seconds and ``ref`` the same operations in
    reference-kernel units.  Predictions are timed only when untraced: a
    traced run alternates traced and untraced operations, and ``op_ref``
    keeps both kinds for the tracing overhead.
    """

    def __init__(self, name, seed, seconds, trace, work, log):
        self.spec = WORKLOADS[name]
        self.seconds = seconds
        self.work = work
        self.tally = Tally(log)
        self.sweep_rng, self.check_rng, self.test_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
        self.tracer = Tracer(pipeline) if trace else None
        self.clock = Clock(self.spec["probe_mb"])
        stages = ("setup", "generate", "offline", "compare", "predict")
        self.raw = {k: [] for k in stages}
        self.ref = {k: [] for k in stages}
        self.op_ref = {True: [], False: []}
        self.rows = []

    # --- building blocks -------------------------------------------------

    def _op_mode(self, i):
        """A traced run alternates: even operations traced, odd ones untraced.
        Returns (traced, context to run the operation in)."""
        if self.tracer is None:
            return False, nullcontext()
        if i % 2 == 0:
            return True, nullcontext()
        return False, self.tracer.paused()

    def _record(self, name, stage):
        self.raw[name].append(stage["wall"])
        self.ref[name].append(stage["ref"])

    def build(self, cfg, with_compare, calls=None):
        """generate -> offline -> load (-> compare), each stage timed.
        Returns (study, compare rows, total seconds, total ref units)."""
        span = self.tracer.span(BUILD_SPAN) if self.tracer else nullcontext()
        rows = None
        with span:
            with self.clock.stage(PROBED["generate"]) as generate:
                pipeline.run_generate(cfg, self.work, jobs=1)
            with self.clock.stage(PROBED["offline"]) as offline:
                pipeline.run_offline(self.work, jobs=1)
            with self.clock.stage(PROBED["compare"], calls) as compare:
                study = pipeline.load_study(self.work)
                if with_compare:
                    rows = pipeline.compare(study)[0]
        stages = {"generate": generate, "offline": offline, "compare": compare}
        for name, stage in stages.items():
            if with_compare or name != "compare":
                self._record(name, stage)
        return (study, rows, sum(st["wall"] for st in stages.values()),
                sum(st["ref"] for st in stages.values()))

    def predict_once(self, study, nu, timed):
        """One sweep prediction, then its checks outside the timed window.
        Returns its reference-unit time, or None if it failed."""
        t0 = time.perf_counter()
        try:
            _, rec, report = pipeline.predict(study, nu, ic_mode="weighted")
        except BaryromError as exc:
            self.tally.record(False, f"predict nu={nu!r}: {exc}")
            self.clock.probe()
            return None
        elapsed = time.perf_counter() - t0
        ratio = elapsed / self.clock.unit()
        if timed:
            self.raw["predict"].append(elapsed)
            self.ref["predict"].append(ratio)
        peak = np.max(np.abs(rec.values), axis=0)
        converged = report["barycenter"]["converged"]
        ok = converged and bool(np.all(np.isfinite(rec.values))) and peak[1:].max() <= peak[0]
        self.tally.record(ok, f"prediction at nu={nu!r}: converged={converged}, "
                          f"max|u| {peak.max():.6g} vs max|u(t0)| {peak[0]:.6g}")
        return ratio

    def check_update(self, study):
        for _ in range(C3_TARGETS):
            nu = float(self.check_rng.uniform(*NU_RANGE))
            gap = update_gap(study, nu)
            self.tally.record(gap < C3_TOL, f"C3 at nu={nu!r}: relative gap {gap:.3e}")

    def check_rows(self, rows):
        for row in rows:
            self.tally.record(c4_holds(row), f"C4 at nu={row[0]!r}: bary {row[1]:.5g}% "
                              f"itsgm {row[2]:.5g}% floor {row[3]:.5g}%")

    # --- workloads ---------------------------------------------------------

    def online(self):
        """Set up the trained study, then a closed-loop predict sweep at
        seeded viscosities."""
        cfg = pipeline.StudyConfig(grid_n=self.spec["nx"], test_nu=[])
        study = None
        for _ in range(self.spec["setups"]):
            study, _, total, total_ref = self.build(cfg, with_compare=False)
            self.raw["setup"].append(total)
            self.ref["setup"].append(total_ref)
        # The checks run before the sweep: the peak resident set is reached in
        # compare(), and this way the heap it starts from does not depend on
        # how many predictions fit in the timed phase.
        # Every workload reports every end-to-end metric, so compare_ref and the
        # error metrics come from a node-reproduction compare() here, one call
        # at each trained viscosity.  Checks and compares run untraced, so the
        # per-call medians of a traced run are those of the sweep.
        with self.tracer.paused() if self.tracer else nullcontext():
            self.check_update(study)
            for nu in cfg.trained_nu:
                self.clock.probe()
                with self.clock.stage(PROBED["compare"]) as stage:
                    rows, _ = pipeline.compare(study, targets=[nu])
                self._record("compare", stage)
                self.rows += rows
        self.check_rows(self.rows)

        for _ in range(WARMUP):
            self.predict_once(study, float(self.sweep_rng.uniform(*NU_RANGE)), timed=False)

        end = time.perf_counter() + self.seconds
        i = 0
        while i < 2 or time.perf_counter() < end:
            nu = float(self.sweep_rng.uniform(*NU_RANGE))
            traced, mode = self._op_mode(i)
            with mode:
                ratio = self.predict_once(study, nu, timed=not traced)
            if ratio is not None:
                self.op_ref[traced].append(ratio)
            i += 1

    def study_build(self):
        """Repeated full builds of the default study: generate, offline,
        load, compare."""
        test_nu = [round(v + float(self.test_rng.uniform(-TEST_JITTER, TEST_JITTER)), 6)
                   for v in TEST_NU]
        cfg = pipeline.StudyConfig(grid_n=self.spec["nx"], test_nu=test_nu)
        reference = None
        for _ in range(self.spec["setups"]):
            _, rows, total, total_ref = self.build(cfg, with_compare=True)
            self.raw["setup"].append(total)
            self.ref["setup"].append(total_ref)
            self.check_rows(rows)
            reference = reference or rows
        for k in ("generate", "offline", "compare"):  # set-up builds are not timed
            self.raw[k].clear()
            self.ref[k].clear()

        end = time.perf_counter() + self.seconds
        i = 0
        while i < 2 or time.perf_counter() < end:
            traced, mode = self._op_mode(i)
            calls = []  # includes the predict() calls compare() makes
            with mode:
                _, rows, _, total_ref = self.build(cfg, with_compare=True, calls=calls)
            if not traced:
                for name, method, seconds, units in calls:
                    if name == "predict" and method == "barycentric":
                        self.raw["predict"].append(seconds)
                        self.ref["predict"].append(units)
            self.op_ref[traced].append(total_ref)
            self.check_rows(rows)
            self.tally.record(rows == reference,
                              "compare rows differ between builds of the same study")
            i += 1
        self.rows = reference

    # --- results -----------------------------------------------------------

    def run(self):
        if self.tracer:
            self.tracer.install()
        try:
            if self.spec["kind"] == "online":
                self.online()
            else:
                self.study_build()
        finally:
            if self.tracer:
                self.tracer.remove()

    def end_to_end(self):
        ref = self.ref
        return {
            "setup_s": self.spec["ref_s"] * statistics.median(ref["setup"]),
            "predict_p50_ref": _percentile(ref["predict"], 50),
            "predict_p90_ref": _percentile(ref["predict"], 90),
            "generate_ref": statistics.median(ref["generate"]),
            "offline_ref": statistics.median(ref["offline"]),
            "compare_ref": statistics.median(ref["compare"]),
            "bary_err_pct": float(np.mean([r[1] for r in self.rows])),
            "itsgm_err_pct": float(np.mean([r[2] for r in self.rows])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def raw_times(self):
        """The same operations in wall time, for people reading the output."""
        raw = self.raw
        return {
            "setup_wall_s": statistics.median(raw["setup"]),
            "predict_p50_ms": 1e3 * _percentile(raw["predict"], 50),
            "predict_p90_ms": 1e3 * _percentile(raw["predict"], 90),
            "predict_per_s": len(raw["predict"]) / sum(raw["predict"]),
            "predict_samples": len(raw["predict"]),
            "generate_s": statistics.median(raw["generate"]),
            "offline_s": statistics.median(raw["offline"]),
            "compare_s": statistics.median(raw["compare"]),
            "ref_ms": 1e3 * statistics.median(self.clock.probes),
        }

    def per_layer(self):
        out = layer_metrics(self.tracer.spans)
        coverage = out["pipeline.predict_coverage_pct"]
        self.tally.record(coverage >= MIN_COVERAGE_PCT,
                          f"child spans cover {coverage:.2f}% of predict wall time, "
                          f"below {MIN_COVERAGE_PCT}%")
        raw = self.raw_times()
        out["bench.ref_ms"] = raw["ref_ms"]
        out["pipeline.predict_p50_ms"] = raw["predict_p50_ms"]
        out["pipeline.predict_p90_ms"] = raw["predict_p90_ms"]
        out["pipeline.predict_per_s"] = raw["predict_per_s"]
        traced, untraced = (statistics.median(self.op_ref[k]) for k in (True, False))
        out["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        return out
