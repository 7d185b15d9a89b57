"""Offline/online workflow behind the command-line interface.

generate -> snapshot matrices per trained/test viscosity + manifest
offline  -> shared mean, per-parameter POD bases, cross-Galerkin archive
predict  -> weights, barycenter, cheap operator update, reduced solve,
            field reconstruction (or the tangent-interpolation baseline)
compare  -> mean errors of both interpolated models and the truth-POD
            floor against the stored high-fidelity runs
bench    -> wall-clock of the cheap update vs direct projection, with the
            mesh sizes timed in alternation rep by rep
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DataIntegrityError, NotConvergedError, ShapeMismatchError
from .io import (
    check_file,
    read_archive,
    read_manifest,
    read_matrix,
    sha256_file,
    write_archive,
    write_manifest,
    write_matrix,
)
from .manifold import itsgm_interpolate, karcher_barycenter, orthonormalize
# mean_error stays bound here: perfbench's Tracer wraps every name in its TRACED
from .metrics import error_report, mean_error, write_csv  # noqa: F401
from .pod import InnerProduct, PODBasis, SnapshotMatrix, compute_pod, global_mean
from .rom import (
    CrossGalerkinTensors,
    assemble_cross_tensors,
    combined_basis,
    direct_project,
    initial_condition,
    integrate_rom,
    reconstruct_field,
    update_reduced_model,
)
from .solver import Grid1D, SolverConfig, initial_profile, run
from .weights import KINDS, WeightScheme, WeightVector, evaluate_weights, select_neighbors

METHODS = ("barycentric", "itsgm")
IC_MODES = ("truth", "weighted")


@dataclass
class StudyConfig:
    grid_n: int = 256
    grid_length: float = 2.0 * np.pi
    dt: float = 1e-3
    steps: int = 995
    save_every: int = 5
    transient: int = 300
    initial: object = "two_mode"
    trained_nu: list = field(default_factory=lambda: [0.05, 0.07, 0.09, 0.11])
    test_nu: list = field(default_factory=lambda: [0.06, 0.08, 0.10])
    q: int = 7
    weights_kind: str = "lagrange"
    weights_power: float = 2.0
    weights_neighbors: int = 3
    tol: float = 1e-10
    max_iter: int = 100

    def grid(self) -> Grid1D:
        return Grid1D(self.grid_n, self.grid_length)

    def solver_config(self, nu: float) -> SolverConfig:
        return SolverConfig(nu=nu, dt=self.dt, steps=self.steps, initial=self.initial,
                            save_every=self.save_every, transient=self.transient)

    def to_dict(self) -> dict:
        return {
            "grid": {"n": self.grid_n, "length": self.grid_length},
            "dt": self.dt,
            "steps": self.steps,
            "save_every": self.save_every,
            "transient": self.transient,
            "initial": self.initial if isinstance(self.initial, str) else list(self.initial),
            "trained_nu": list(self.trained_nu),
            "test_nu": list(self.test_nu),
            "q": self.q,
            "weights": {
                "kind": self.weights_kind,
                "power": self.weights_power,
                "neighbors": self.weights_neighbors,
            },
            "tol": self.tol,
            "max_iter": self.max_iter,
        }


def _weight_kind(kind: str) -> str:
    """Canonical weight-scheme name; ``idw`` is accepted for inverse distance."""
    kind = "inverse_distance" if kind == "idw" else kind
    if kind not in KINDS:
        raise ConfigError(f"unknown weight kind {kind!r}")
    return kind


def config_from_dict(doc: dict) -> StudyConfig:
    """StudyConfig from its JSON form; absent keys keep the StudyConfig default."""
    base = StudyConfig().to_dict()
    try:
        grid = {**base["grid"], **doc.get("grid", {})}
        wts = {**base["weights"], **doc.get("weights", {})}
        d = {**base, **doc}
        cfg = StudyConfig(
            grid_n=int(grid["n"]),
            grid_length=float(grid["length"]),
            dt=float(d["dt"]),
            steps=int(d["steps"]),
            save_every=int(d["save_every"]),
            transient=int(d["transient"]),
            initial=d["initial"],
            trained_nu=[float(v) for v in d["trained_nu"]],
            test_nu=[float(v) for v in d["test_nu"]],
            q=int(d["q"]),
            weights_kind=_weight_kind(str(wts["kind"])),
            weights_power=float(wts["power"]),
            weights_neighbors=int(wts["neighbors"]),
            tol=float(d["tol"]),
            max_iter=int(d["max_iter"]),
        )
        grid = cfg.grid()
        for nu in cfg.trained_nu + cfg.test_nu:
            initial_profile(cfg.solver_config(nu), grid)
    except (TypeError, ValueError, ShapeMismatchError) as exc:
        raise ConfigError(f"bad configuration value: {exc}") from exc
    if not cfg.trained_nu and cfg.test_nu:
        raise ConfigError("test_nu given without any trained_nu")
    if len(set(cfg.trained_nu)) != len(cfg.trained_nu):
        raise ConfigError("trained_nu values must be distinct")
    n_snapshots = cfg.steps // cfg.save_every + 1
    if not 1 <= cfg.q <= n_snapshots:
        raise ConfigError(f"q must lie in 1..{n_snapshots}, the snapshots per run")
    return cfg


def load_config(path) -> StudyConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(doc)


def _nu_tag(nu: float) -> str:
    return f"{nu:g}"


def run_generate(cfg: StudyConfig, outdir, jobs: int = 1) -> dict:
    """Run the high-fidelity solver per viscosity and write snapshots."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = cfg.grid()
    tasks = [(nu, "trained") for nu in cfg.trained_nu]
    tasks += [(nu, "test") for nu in cfg.test_nu if nu not in cfg.trained_nu]

    def one(task):
        nu, role = task
        snap = run(cfg.solver_config(nu), grid)
        path = outdir / f"snap_nu{_nu_tag(nu)}.mat"
        write_matrix(path, snap.values)
        return {
            "nu": nu,
            "role": role,
            "path": path.name,
            "sha256": sha256_file(path),
            "t0": float(snap.times[0]),
            "save_dt": cfg.save_every * cfg.dt,
            "n_snapshots": int(snap.values.shape[1]),
        }

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        runs = list(pool.map(one, tasks))

    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "runs": runs,
    }
    write_manifest(outdir / "manifest.json", manifest)
    return manifest


def _run_entry(manifest: dict, nu: float, role=None) -> dict:
    for entry in manifest["runs"]:
        if entry["nu"] == nu and (role is None or entry["role"] == role):
            return entry
    raise DataIntegrityError(f"no stored run for nu={nu!r}"
                             + (f" with role {role!r}" if role else ""))


def load_snapshots(outdir, manifest: dict, nu: float, role=None) -> SnapshotMatrix:
    entry = _run_entry(manifest, nu, role)
    path = check_file(outdir, entry)
    values = read_matrix(path)
    times = entry["t0"] + entry["save_dt"] * np.arange(values.shape[1])
    return SnapshotMatrix(values=values, times=times, param=nu)


def run_offline(outdir, jobs: int = 1, q=None) -> dict:
    """Build mean field, POD bases, initial states and the tensor archive."""
    outdir = Path(outdir)
    manifest = read_manifest(outdir / "manifest.json")
    cfg = config_from_dict(manifest["config"] if q is None
                           else {**manifest["config"], "q": q})
    grid = cfg.grid()
    ip = InnerProduct(grid.dx)

    trained = [load_snapshots(outdir, manifest, nu, role="trained") for nu in cfg.trained_nu]
    mean = global_mean(trained)

    def one_pod(snap: SnapshotMatrix) -> PODBasis:
        fluct = SnapshotMatrix(
            values=snap.values - mean[:, None], times=snap.times, param=snap.param
        )
        return compute_pod(fluct, ip, cfg.q)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        bases = list(pool.map(one_pod, trained))

    ct = assemble_cross_tensors(bases, mean, ip, grid.gradient)

    mean_path = outdir / "mean.mat"
    write_matrix(mean_path, mean)
    pod_entries = []
    ic_entries = []
    for snap, basis in zip(trained, bases):
        tag = _nu_tag(snap.param)
        pod_path = outdir / f"pod_nu{tag}.mat"
        write_matrix(pod_path, basis.modes)
        ic_path = outdir / f"ic_nu{tag}.mat"
        write_matrix(ic_path, snap.values[:, 0])
        pod_entries.append({
            "nu": snap.param,
            "path": pod_path.name,
            "sha256": sha256_file(pod_path),
            "eigenvalues": [float(v) for v in basis.eigenvalues],
        })
        ic_entries.append({
            "nu": snap.param,
            "path": ic_path.name,
            "sha256": sha256_file(ic_path),
        })

    archive_path = outdir / "tensors.arc"
    write_archive(archive_path, vars(ct), {"q": cfg.q, "nx": grid.n, "dx": grid.dx})

    manifest["config"] = cfg.to_dict()
    manifest["offline"] = {
        "mean": {"path": mean_path.name, "sha256": sha256_file(mean_path)},
        "pod": pod_entries,
        "ics": ic_entries,
        "archive": {"path": archive_path.name, "sha256": sha256_file(archive_path)},
    }
    write_manifest(outdir / "manifest.json", manifest)
    return manifest


@dataclass
class Study:
    """Everything the online stage needs, loaded from offline outputs."""

    outdir: Path
    manifest: dict
    cfg: StudyConfig
    grid: Grid1D
    ip: InnerProduct
    mean: np.ndarray
    bases: list
    ics: list
    tensors: CrossGalerkinTensors

    @property
    def params(self) -> np.ndarray:
        return np.array(self.cfg.trained_nu, dtype=float)


def load_study(outdir) -> Study:
    outdir = Path(outdir)
    manifest = read_manifest(outdir / "manifest.json")
    if "offline" not in manifest:
        raise DataIntegrityError("manifest has no offline section; run offline first")
    cfg = config_from_dict(manifest["config"])
    grid = cfg.grid()
    ip = InnerProduct(grid.dx)
    off = manifest["offline"]
    mean = read_matrix(check_file(outdir, off["mean"]))[:, 0]
    bases = []
    for entry in off["pod"]:
        modes = read_matrix(check_file(outdir, entry))
        bases.append(PODBasis(
            modes=modes,
            eigenvalues=np.array(entry["eigenvalues"]),
            param=entry["nu"],
        ))
    ics = [read_matrix(check_file(outdir, entry))[:, 0] for entry in off["ics"]]
    arrays, meta = read_archive(check_file(outdir, off["archive"]))
    ct = CrossGalerkinTensors(*(arrays[f.name] for f in fields(CrossGalerkinTensors)))
    if int(meta["q"]) != cfg.q or ct.q != cfg.q:
        raise DataIntegrityError("archive truncation order disagrees with the config")
    return Study(outdir, manifest, cfg, grid, ip, mean, bases, ics, ct)


def study_weights(study: Study, nu: float, kind=None, neighbors=None) -> WeightVector:
    """Weights over all trained nodes: the chosen scheme on the nearest
    neighbors, zero elsewhere."""
    params = study.params
    kind = _weight_kind(kind) if kind else study.cfg.weights_kind
    m = study.cfg.weights_neighbors if neighbors is None else int(neighbors)
    m = min(m, params.size)
    sel = select_neighbors(params, nu, m)
    local = evaluate_weights(WeightScheme(kind, params[sel], study.cfg.weights_power), nu)
    full = np.zeros(params.size)
    full[sel] = local.values
    return WeightVector(values=full, target=float(nu))


def nearest_index(params, nu: float) -> int:
    return select_neighbors(params, nu, 1)[0]


def _barycenter(study: Study, w: WeightVector, nu: float, tol=None):
    """Karcher barycenter of the trained bases, started at the node nearest nu."""
    return karcher_barycenter(
        [b.modes for b in study.bases], w.values,
        tol=study.cfg.tol if tol is None else float(tol),
        max_iter=study.cfg.max_iter, init=nearest_index(study.params, nu),
    )


def predict(study: Study, nu: float, method: str = "barycentric",
            ic_mode: str = "weighted", allow_nonconverged: bool = False,
            kind=None, neighbors=None, tol=None):
    """Online stage at one viscosity.

    Returns (trajectory, reconstruction, report) where the report is a
    JSON-ready dict with the interpolation diagnostics and timings.
    """
    if not (np.isfinite(nu) and nu > 0):
        raise ConfigError(f"viscosity must be positive and finite, got {nu!r}")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if ic_mode not in IC_MODES:
        raise ValueError(f"ic_mode must be one of {IC_MODES}, got {ic_mode!r}")
    cfg = study.cfg
    w = study_weights(study, nu, kind=kind, neighbors=neighbors)
    if not np.isfinite(w.values).all():
        raise ConfigError(f"viscosity {nu!r} lies too far outside the trained range "
                          "for its interpolation weights to be finite")
    t0_run = study.manifest["runs"][0]["t0"] if study.manifest.get("runs") else 0.0
    report = {
        "nu": nu,
        "method": method,
        "ic_mode": ic_mode,
        "weights": [float(v) for v in w.values],
        "trained_nu": [float(v) for v in study.params],
        "timings": {},
    }

    timer = time.perf_counter
    if method == "barycentric":
        t = timer()
        try:
            bary = _barycenter(study, w, nu, tol)
        except NotConvergedError as exc:
            # an iterate that overflowed is no usable approximation
            if not (allow_nonconverged and np.isfinite(exc.result.final_gradient_norm)):
                raise
            bary = exc.result
        report["timings"]["barycenter_s"] = timer() - t
        report["barycenter"] = {
            "iterations": bary.iterations,
            "final_gradient_norm": bary.final_gradient_norm,
            "converged": bary.converged,
        }
        t = timer()
        model = update_reduced_model(study.tensors, w, bary.rotations, nu)
        report["timings"]["update_s"] = timer() - t
        t = timer()
        basis = combined_basis([b.modes for b in study.bases], w, bary.rotations)
        report["timings"]["combined_basis_s"] = timer() - t
    else:
        t = timer()
        sel = [k for k in range(study.params.size) if w.values[k] != 0.0]
        ortho = [orthonormalize(study.bases[k].modes) for k in sel]
        ref_local = int(np.argmin(np.abs(study.params[sel] - nu)))
        basis = itsgm_interpolate(ortho, w.values[sel], ref_local)
        report["timings"]["interpolation_s"] = timer() - t
        t = timer()
        model = direct_project(basis, study.mean, study.ip, study.grid.gradient, nu)
        report["timings"]["projection_s"] = timer() - t

    t = timer()
    if ic_mode == "truth":
        truth = load_snapshots(study.outdir, study.manifest, nu)
        u0 = truth.values[:, 0]
        t0 = float(truth.times[0])
    else:
        u0 = np.zeros(study.grid.n)
        for k, wk in enumerate(w.values):
            if wk != 0.0:
                u0 += wk * study.ics[k]
        t0 = float(t0_run)
    alpha0 = initial_condition(basis, study.mean, study.ip, u0)
    report["timings"]["initial_condition_s"] = timer() - t

    t = timer()
    traj = integrate_rom(model, alpha0, cfg.dt, cfg.steps,
                         record_every=cfg.save_every, t0=t0)
    report["timings"]["integrate_s"] = timer() - t
    # roundoff amplification bound of the folded M^-1; M is finite SPD once
    # the integrator has factored it
    report["mass_condition"] = float(np.linalg.cond(model.M))
    t = timer()
    recon = reconstruct_field(basis, study.mean, traj, param=nu)
    report["timings"]["lift_s"] = timer() - t
    return traj, recon, report


def truth_pod_baseline(study: Study, truth: SnapshotMatrix) -> SnapshotMatrix:
    """ROM built from the target's own truth snapshots: the accuracy floor."""
    nu = truth.param
    fluct = SnapshotMatrix(
        values=truth.values - study.mean[:, None], times=truth.times, param=nu
    )
    basis = compute_pod(fluct, study.ip, study.cfg.q)
    model = direct_project(basis.modes, study.mean, study.ip, study.grid.gradient, nu)
    alpha0 = initial_condition(basis.modes, study.mean, study.ip, truth.values[:, 0])
    traj = integrate_rom(model, alpha0, study.cfg.dt, study.cfg.steps,
                         record_every=study.cfg.save_every, t0=float(truth.times[0]))
    return reconstruct_field(basis.modes, study.mean, traj, param=nu)


def compare(study: Study, targets=None, kind=None, neighbors=None):
    """Mean errors of both interpolated models and the truth-POD floor.

    Returns (rows, reports): one row per target with columns
    nu, barycentric, itsgm, truth_pod, ratio_barycentric_itsgm, and the
    per-time error reports keyed by (nu, method).
    """
    cfg = study.cfg
    targets = list(cfg.test_nu) if targets is None else [float(v) for v in targets]
    methods = (*METHODS, "truth_pod")
    rows = []
    reports = {}
    for nu in targets:
        truth = load_snapshots(study.outdir, study.manifest, nu)
        for method in methods:  # one reconstruction held at a time
            rec = (truth_pod_baseline(study, truth) if method == "truth_pod" else
                   predict(study, nu, method=method, ic_mode="truth",
                           kind=kind, neighbors=neighbors)[1])
            reports[(nu, method)] = error_report(truth, rec, study.ip, method)
        e_b, e_i, e_t = (reports[(nu, m)].mean for m in methods)
        rows.append([nu, e_b, e_i, e_t, e_b / e_i if e_i > 0 else np.inf])
    return rows, reports


def write_compare_outputs(outdir, rows, reports):
    outdir = Path(outdir)
    write_csv(
        outdir / "compare.csv",
        ["nu", "barycentric", "itsgm", "truth_pod", "ratio_barycentric_itsgm"],
        [[float(v) for v in row] for row in rows],
    )
    by_nu = {}
    for (nu, method), rep in reports.items():
        by_nu.setdefault(nu, {})[method] = rep
    for nu, reps in by_nu.items():
        methods = sorted(reps)
        rows_t = [[t] + [reps[m].per_time[j][1] for m in methods]
                  for j, (t, _) in enumerate(reps[methods[0]].per_time)]
        write_csv(outdir / f"errors_time_nu{_nu_tag(nu)}.csv", ["t"] + methods, rows_t)


def _timed_alternating(fns, reps: int) -> np.ndarray:
    """(reps, len(fns)) seconds per call, the calls alternating within each
    rep (reversed on odd reps) so a drift in machine speed hits all alike."""
    for fn in fns:  # warm caches
        fn()
    times = np.empty((reps, len(fns)))
    for r in range(reps):
        for j in (range(len(fns)) if r % 2 == 0 else reversed(range(len(fns)))):
            t = time.perf_counter()
            fns[j]()
            times[r, j] = time.perf_counter() - t
    return times


def bench_update(studies, nu: float, reps: int = 20):
    """Seconds of the cheap update and of direct projection, one (reps,
    len(studies)) array each, the studies timed in alternation."""
    updates, directs = [], []
    for study in studies:
        w = study_weights(study, nu)
        bary = _barycenter(study, w, nu)
        basis = combined_basis([b.modes for b in study.bases], w, bary.rotations)
        updates.append(partial(update_reduced_model, study.tensors, w, bary.rotations, nu))
        directs.append(partial(direct_project, basis, study.mean, study.ip,
                               study.grid.gradient, nu))
    return _timed_alternating(updates, reps), _timed_alternating(directs, reps)
