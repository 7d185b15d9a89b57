"""Offline/online workflow behind the command-line interface.

generate -> snapshot matrices per trained/test viscosity, the shared
            mean of the trained runs, and the manifest
offline  -> per-parameter POD bases and initial states, cross-Galerkin
            archive; it reads one trained run at a time
predict  -> weights, barycenter, cheap operator update and initial
            coordinates (all q-sized), reduced solve, field
            reconstruction (or the tangent-interpolation baseline)
compare  -> mean errors of both interpolated models and the truth-POD
            floor against the stored high-fidelity runs, holding one
            truth run at a time and scoring each model's lift a block
            of rows at a time
bench    -> wall-clock of the q-sized online path vs direct projection,
            with the mesh sizes timed in alternation rep by rep
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DataIntegrityError, NotConvergedError, ShapeMismatchError
# check_file and sha256_file stay bound here: perfbench's Tracer wraps them by name
from .io import (  # noqa: F401
    check_file,
    entry_path,
    read_archive,
    read_manifest,
    read_matrix,
    sha256_file,
    write_archive,
    write_manifest,
    write_matrix,
)
from .manifold import gram_coordinates, itsgm_interpolate, karcher_barycenter, orthonormalize
# mean_error stays bound here: perfbench's Tracer wraps every name in its TRACED
from .metrics import error_report, mean_error, write_csv  # noqa: F401
# global_mean stays bound here: perfbench's Tracer wraps it by name
from .pod import (  # noqa: F401
    InnerProduct,
    PODBasis,
    SnapshotMatrix,
    compute_pod,
    global_mean,
    mean_of_row_sums,
)
from .rom import (
    CrossGalerkinTensors,
    FactoredField,
    assemble_cross_tensors,
    combined_basis,
    direct_project,
    factored_field,
    initial_condition,
    integrate_rom,
    reconstruct_field,
    stacked,
    update_reduced_model,
    weighted_rotations,
)
# run stays bound here for perfbench's Tracer, which wraps it by name
from .solver import Grid1D, SolverConfig, initial_profile, run, run_batch  # noqa: F401
from .weights import KINDS, WeightScheme, WeightVector, evaluate_weights, select_neighbors

METHODS = ("barycentric", "itsgm")
IC_MODES = ("truth", "weighted")
# snapshot bytes of the runs that generate marches in one step loop.  At
# 200 snapshots a run that is every run of a study up to nx=2000, where a
# step is bound by the interpreter, and 2 runs at nx=20000, where it is
# bound by memory traffic: there 2 runs beat 1 and 4, and 16 MB (1 run)
# gave up that gain to save 4 % of the nx=2000 study-build peak memory
GENERATE_BATCH_BYTES = 64 * 2**20


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
        if cfg.weights_neighbors < 1 or cfg.max_iter < 1:
            raise ValueError("weights.neighbors and max_iter must be >= 1")
        if not (0.0 < cfg.weights_power < np.inf and 0.0 <= cfg.tol < np.inf):
            raise ValueError("weights.power must be > 0 and tol >= 0, both finite")
        # checks grid, dt, step counts and the initial state even with no viscosities
        u0 = initial_profile(cfg.solver_config(1.0), cfg.grid())
        if not np.isfinite(u0).all():
            raise ValueError("initial vector entries must be finite")
        for nu in cfg.trained_nu + cfg.test_nu:
            cfg.solver_config(nu)
    except (TypeError, ValueError, OverflowError, ShapeMismatchError) as exc:
        raise ConfigError(f"bad configuration value: {exc}") from exc
    if not cfg.trained_nu and cfg.test_nu:
        raise ConfigError("test_nu given without any trained_nu")
    for key in ("trained_nu", "test_nu"):
        if len(set(getattr(cfg, key))) != len(getattr(cfg, key)):
            raise ConfigError(f"{key} values must be distinct")
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
    """File-name tag of a viscosity: %g when it reads back as nu, else repr."""
    tag = f"{nu:g}"
    return tag if float(tag) == nu else repr(nu)


def _fan_out(fn, items, jobs: int) -> list:
    """[fn(x) for x in items]: in the calling thread when jobs == 1, which
    keeps a worker thread's own heap out of the peak memory, else on
    ``jobs`` worker threads."""
    if jobs == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _field(doc, key: str, where: str = "manifest", kind=object):
    """doc[key]; a DataIntegrityError naming ``where`` unless doc is a JSON
    object that holds key with a value of type ``kind``."""
    if not (isinstance(doc, dict) and key in doc and isinstance(doc[key], kind)):
        raise DataIntegrityError(f"{where} lacks {key!r} or it has the wrong type")
    return doc[key]


def remove_listed_files(outdir, manifest: dict) -> None:
    """Delete the data files a manifest lists in those of its runs, mean and
    offline section it holds.  A section of the wrong JSON type is a
    DataIntegrityError; an entry that names no plain file inside outdir is
    skipped."""
    off = _field(manifest, "offline", kind=dict) if "offline" in manifest else {}
    entries = [doc[key] for doc, key in ((manifest, "mean"), (off, "archive")) if key in doc]
    for doc, key in ((manifest, "runs"), (off, "pod"), (off, "ics")):
        entries += _field(doc, key, kind=list) if key in doc else []
    for entry in entries:
        try:
            path = entry_path(outdir, entry)
        except DataIntegrityError:
            continue
        if path.is_file():
            path.unlink()


def _entry(path: Path, digest: str, **fields) -> dict:
    """Manifest entry of a written file: its name, its hash and ``fields``."""
    return {"path": path.name, "sha256": digest, **fields}


def _read(reader, outdir, entry):
    """``reader``'s result for the file a manifest entry names, verified
    against the hash the entry records."""
    return reader(entry_path(outdir, entry), entry["sha256"])


def _shaped(what, arr: np.ndarray, shape: tuple) -> np.ndarray:
    if arr.shape != shape:
        raise DataIntegrityError(f"{what} has shape {arr.shape}, expected {shape}")
    return arr


def run_generate(cfg: StudyConfig, outdir, jobs: int = 1) -> dict:
    """Run the high-fidelity solver for every viscosity and write snapshots
    and the shared mean of the trained runs.

    The viscosities are marched in chunks, each one ``run_batch`` step
    loop over a (B, n) state whose B snapshot matrices together fit
    GENERATE_BATCH_BYTES (at least one run per chunk).  ``jobs`` worker
    threads run one chunk each at a time, and each chunk writes its files
    and keeps the row sums of its trained runs when it ends.  The mean
    adds those sums in trained_nu order, as ``global_mean`` does.  The
    chunking changes no output byte.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = cfg.grid()
    tasks = [(nu, "trained") for nu in cfg.trained_nu]
    tasks += [(nu, "test") for nu in cfg.test_nu if nu not in cfg.trained_nu]
    ns = cfg.steps // cfg.save_every + 1
    size = max(1, GENERATE_BATCH_BYTES // (8 * grid.n * ns))

    def chunk(members):
        snaps = run_batch([cfg.solver_config(nu) for nu, _ in members], grid)
        entries, row_sums = [], []
        for (nu, role), snap in zip(members, snaps):
            path = outdir / f"snap_nu{_nu_tag(nu)}.mat"
            entries.append(_entry(path, write_matrix(path, snap.values), nu=nu, role=role,
                                  t0=float(snap.times[0]), save_dt=cfg.save_every * cfg.dt,
                                  n_snapshots=int(snap.values.shape[1])))
            if role == "trained":
                row_sums.append(snap.values.sum(axis=1))
        return entries, row_sums

    chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
    done = _fan_out(chunk, chunks, jobs)  # in task order: trained runs first

    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "runs": [entry for entries, _ in done for entry in entries],
    }
    if cfg.trained_nu:
        mean_path = outdir / "mean.mat"
        mean = mean_of_row_sums([s for _, row_sums in done for s in row_sums], ns)
        manifest["mean"] = _entry(mean_path, write_matrix(mean_path, mean))
    write_manifest(outdir / "manifest.json", manifest)
    return manifest


def _run_entry(manifest: dict, nu: float, role=None) -> dict:
    for entry in _field(manifest, "runs", kind=list):
        if (_field(entry, "nu", "run entry") == nu
                and (role is None or _field(entry, "role", "run entry") == role)):
            return entry
    raise DataIntegrityError(f"no stored run for nu={nu!r}"
                             + (f" with role {role!r}" if role else ""))


def load_snapshots(outdir, manifest: dict, nu: float, role=None) -> SnapshotMatrix:
    entry = _run_entry(manifest, nu, role)
    t0, save_dt = (_field(entry, key, "run entry", kind=(int, float)) for key in ("t0", "save_dt"))
    values = _read(read_matrix, outdir, entry)
    return SnapshotMatrix(values=values, times=t0 + save_dt * np.arange(values.shape[1]),
                          param=nu)


def _stored_mean(outdir, manifest: dict, nx: int) -> np.ndarray:
    """The shared mean field generate wrote, checked against the mesh size."""
    if "mean" not in manifest:
        raise DataIntegrityError("manifest lists no mean field; run generate again to "
                                 "write one")
    mean = _read(read_matrix, outdir, manifest["mean"])
    return _shaped(manifest["mean"]["path"], mean, (nx, 1))[:, 0]


def run_offline(outdir, jobs: int = 1, q=None) -> dict:
    """Build POD bases, initial states and the tensor archive from the
    trained runs and the mean that generate wrote."""
    outdir = Path(outdir)
    manifest = read_manifest(outdir / "manifest.json")
    config = _field(manifest, "config", kind=dict)
    cfg = config_from_dict(config if q is None else {**config, "q": q})
    if not cfg.trained_nu:
        raise ConfigError("offline needs at least one trained_nu")
    grid = cfg.grid()
    ip = InnerProduct(grid.dx)
    mean = _stored_mean(outdir, manifest, grid.n)
    shape = (grid.n, cfg.steps // cfg.save_every + 1)

    # One trained run is read, its first state kept as its stored initial
    # state, the run made its fluctuations in place and reduced to its POD
    # basis, and dropped before the next is read: with ``jobs`` workers the
    # peak is ``jobs`` runs plus the weighted copy compute_pod makes of each.
    def reduce(nu):
        values = _shaped(f"trained run nu={nu!r}",
                         load_snapshots(outdir, manifest, nu, role="trained").values, shape)
        ic = values[:, 0].copy()
        values -= mean[:, None]
        return ic, compute_pod(values, ip, cfg.q)

    ics, bases = zip(*_fan_out(reduce, cfg.trained_nu, jobs))
    ct = assemble_cross_tensors([b.modes for b in bases], mean, ip, grid.gradient)

    pod_entries = []
    ic_entries = []
    for nu, basis, ic in zip(cfg.trained_nu, bases, ics):
        tag = _nu_tag(nu)
        pod_path = outdir / f"pod_nu{tag}.mat"
        pod_entries.append(_entry(pod_path, write_matrix(pod_path, basis.modes), nu=nu,
                                  eigenvalues=[float(v) for v in basis.eigenvalues]))
        ic_path = outdir / f"ic_nu{tag}.mat"
        ic_entries.append(_entry(ic_path, write_matrix(ic_path, ic), nu=nu))

    archive_path = outdir / "tensors.arc"
    manifest["config"] = cfg.to_dict()
    manifest["offline"] = {
        "pod": pod_entries,
        "ics": ic_entries,
        "archive": _entry(archive_path, write_archive(
            archive_path, vars(ct), {"q": cfg.q, "nx": grid.n, "dx": grid.dx})),
    }
    write_manifest(outdir / "manifest.json", manifest)
    return manifest


@dataclass
class Study:
    """Everything the online stage needs, loaded from offline outputs.

    ``frame`` holds the trained bases in ``gram_coordinates``, one (Np q,
    q) block each, from the Gram matrix of the stacked bases [Phi_1 ...
    Phi_Np], and ``ic_coords`` the coordinates of the stored
    initial states, ic_coords[:, j] = [Phi_1 ... Phi_Np]^T W (ics[j] -
    mean), (Np q, Np).  With them and the tensor archive, a barycentric
    prediction reads no mesh-sized array until it lifts its trajectory.
    ``ortho`` holds the orthonormalized trained bases the ITSGM baseline
    interpolates, made once here rather than in every prediction.
    """

    outdir: Path
    manifest: dict
    cfg: StudyConfig
    grid: Grid1D
    ip: InnerProduct
    mean: np.ndarray
    bases: list
    ics: list
    tensors: CrossGalerkinTensors
    frame: list
    ic_coords: np.ndarray
    ortho: list

    @property
    def params(self) -> np.ndarray:
        return np.array(self.cfg.trained_nu, dtype=float)


def load_study(outdir) -> Study:
    outdir = Path(outdir)
    manifest = read_manifest(outdir / "manifest.json")
    if "offline" not in manifest:
        raise DataIntegrityError("manifest has no offline section; run offline first")
    cfg = config_from_dict(_field(manifest, "config", kind=dict))
    grid = cfg.grid()
    ip = InnerProduct(grid.dx)
    off = manifest["offline"]
    nx, q, np_ = grid.n, cfg.q, len(cfg.trained_nu)
    pod, ic_list = (_field(off, key, "offline section", kind=list) for key in ("pod", "ics"))
    if len(pod) != np_ or len(ic_list) != np_:
        raise DataIntegrityError(f"offline section lists other than {np_} bases and states")

    def matrix(entry, cols):  # a stored (nx, cols) matrix
        return _shaped(entry["path"], _read(read_matrix, outdir, entry), (nx, cols))

    mean = _stored_mean(outdir, manifest, nx)
    bases = [PODBasis(matrix(e, q), np.array(_field(e, "eigenvalues", "pod entry", kind=list)))
             for e in pod]
    ics = [matrix(entry, 1)[:, 0] for entry in ic_list]
    arrays, meta = _read(read_archive, outdir, _field(off, "archive", "offline section"))
    if meta.get("q") != cfg.q:
        raise DataIntegrityError("archive truncation order disagrees with the config")
    ct = _cross_tensors(arrays, np_, q)
    frame = gram_coordinates(stacked(ct.M) / ip.weight, cfg.q)
    ic_coords = _coords(bases, mean, ip, np.column_stack(ics))
    ortho = [orthonormalize(b.modes) for b in bases]
    return Study(outdir, manifest, cfg, grid, ip, mean, bases, ics, ct, frame, ic_coords, ortho)


def _cross_tensors(arrays: dict, np_: int, q: int) -> CrossGalerkinTensors:
    """The archive's tensors, each checked against its shape for Np bases
    of q modes."""
    block, vec = (np_, np_, q, q), (np_, q)
    shapes = {"M": block, "R": block, "Cbar": block, "C": (np_,) * 3 + (q,) * 3,
              "F_conv": vec, "F_diff": vec}
    for name, shape in shapes.items():
        if name not in arrays:
            raise DataIntegrityError(f"tensor archive lacks the array {name!r}")
        _shaped(f"archive array {name!r}", arrays[name], shape)
    return CrossGalerkinTensors(**{name: arrays[name] for name in shapes})


def _coords(bases, mean, ip: InnerProduct, fields) -> np.ndarray:
    """c[:, j] = [Phi_1 ... Phi_Np]^T W (fields[:, j] - mean), shape (Np q, m)."""
    return np.hstack([b.modes for b in bases]).T @ ip.apply(fields - mean[:, None])


def check_viscosity(nu: float) -> None:
    """A viscosity that is not positive and finite is a ConfigError."""
    if not (np.isfinite(nu) and nu > 0):
        raise ConfigError(f"viscosity must be positive and finite, got {nu!r}")


def study_weights(study: Study, nu: float, kind=None, neighbors=None) -> WeightVector:
    """Weights over all trained nodes: the chosen scheme on the nearest
    neighbors, zero elsewhere.  A viscosity that is not positive and
    finite, or whose weights overflow, is a ConfigError."""
    check_viscosity(nu)
    params = study.params
    kind = _weight_kind(kind) if kind else study.cfg.weights_kind
    m = study.cfg.weights_neighbors if neighbors is None else int(neighbors)
    m = min(m, params.size)
    sel = select_neighbors(params, nu, m)
    local = evaluate_weights(WeightScheme(kind, params[sel], study.cfg.weights_power), nu)
    full = np.zeros(params.size)
    full[sel] = local.values
    if not np.isfinite(full).all():
        raise ConfigError(f"viscosity {nu!r} lies too far outside the trained range "
                          "for its interpolation weights to be finite")
    return WeightVector(values=full, target=float(nu))


def nearest_index(params, nu: float) -> int:
    return select_neighbors(params, nu, 1)[0]


@contextmanager
def _timed(timings: dict, key: str):
    """Add the wall-clock seconds of the body to timings[key]."""
    t = time.perf_counter()
    yield
    timings[key] = timings.get(key, 0.0) + (time.perf_counter() - t)


def online_model(study: Study, w: WeightVector, nu: float, coords=None, tol=None,
                 allow_nonconverged: bool = False, timings=None):
    """The q-sized half of a barycentric prediction at nu, for weights w:
    the barycenter of the trained bases on their Gram coordinates, started
    at the node nearest nu (a stalled one is kept if ``allow_nonconverged``
    and its gradient norm is finite), the operator update, and the initial
    coordinates of the state whose trained-basis coordinates are
    ``coords``, by default the weighted initial state's: the solution of
    M alpha0 = S^T coords, with M the updated mass matrix and S the
    ``weighted_rotations``.  ``timings`` gains barycenter_s, update_s and
    initial_condition_s.  Returns (barycenter result, model, alpha0)."""
    timings = {} if timings is None else timings
    with _timed(timings, "barycenter_s"):
        try:
            bary = karcher_barycenter(
                study.frame, w.values, tol=study.cfg.tol if tol is None else float(tol),
                max_iter=study.cfg.max_iter, init=nearest_index(study.params, nu))
        except NotConvergedError as exc:
            if not (allow_nonconverged and np.isfinite(exc.result.final_gradient_norm)):
                raise
            bary = exc.result
    with _timed(timings, "update_s"):
        model = update_reduced_model(study.tensors, w, bary.rotations, nu)
    with _timed(timings, "initial_condition_s"):
        coords = study.ic_coords @ w.values if coords is None else coords
        alpha0 = np.linalg.solve(model.M, weighted_rotations(w, bary.rotations).T @ coords)
    return bary, model, alpha0


def predict(study: Study, nu: float, method: str = "barycentric",
            ic_mode: str = "weighted", allow_nonconverged: bool = False,
            kind=None, neighbors=None, tol=None, truth: SnapshotMatrix | None = None,
            lift: bool = True):
    """Online stage at one viscosity.

    ``ic_mode="truth"`` starts from the first state of the stored run at
    nu: ``truth`` when given, else the run read from disk.  Up to the lift,
    the barycentric method does q-sized work only: barycenter, operator
    update and, with the weighted initial state, its coordinates.

    Returns (trajectory, reconstruction, report) where the report is a
    JSON-ready dict with the interpolation diagnostics and timings.  With
    ``lift=False`` the reconstruction is left unformed: the second item is
    the trajectory's ``FactoredField``.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if ic_mode not in IC_MODES:
        raise ValueError(f"ic_mode must be one of {IC_MODES}, got {ic_mode!r}")
    cfg = study.cfg
    w = study_weights(study, nu, kind=kind, neighbors=neighbors)
    timings = {}
    report = {
        "nu": nu,
        "method": method,
        "ic_mode": ic_mode,
        "weights": [float(v) for v in w.values],
        "trained_nu": [float(v) for v in study.params],
        "timings": timings,
    }

    coords = None  # online_model's default: the weighted initial state
    if ic_mode == "truth":
        with _timed(timings, "initial_condition_s"):
            truth = load_snapshots(study.outdir, study.manifest, nu) if truth is None else truth
            if method == "barycentric":
                coords = _coords(study.bases, study.mean, study.ip, truth.values[:, :1])[:, 0]
    if method == "barycentric":
        bary, model, alpha0 = online_model(study, w, nu, coords, tol=tol,
                                           allow_nonconverged=allow_nonconverged,
                                           timings=timings)
        report["barycenter"] = {
            "iterations": bary.iterations,
            "final_gradient_norm": bary.final_gradient_norm,
            "converged": bary.converged,
            "gradient_norms": bary.gradient_norms,
            "min_overlap_ratio": bary.min_overlap_ratio,
        }
    else:
        with _timed(timings, "interpolation_s"):
            sel = [k for k in range(study.params.size) if w.values[k] != 0.0]
            ortho = [study.ortho[k] for k in sel]
            ref_local = int(np.argmin(np.abs(study.params[sel] - nu)))
            basis = itsgm_interpolate(ortho, w.values[sel], ref_local)
        with _timed(timings, "projection_s"):
            model = direct_project(basis, study.mean, study.ip, study.grid.gradient, nu)
        with _timed(timings, "initial_condition_s"):
            u0 = (truth.values[:, 0] if ic_mode == "truth" else
                  sum(wk * ic for wk, ic in zip(w.values, study.ics) if wk != 0.0))
            alpha0 = initial_condition(basis, study.mean, study.ip, u0)

    with _timed(timings, "integrate_s"):
        traj = integrate_rom(model, alpha0, cfg.dt, cfg.steps,
                             record_every=cfg.save_every, t0=cfg.transient * cfg.dt)
    # roundoff amplification bound of the folded M^-1; M is finite SPD once
    # the integrator has factored it
    report["mass_condition"] = float(np.linalg.cond(model.M))
    with _timed(timings, "lift_s"):
        if method == "barycentric":
            basis = combined_basis([b.modes for b in study.bases], w, bary.rotations)
        lifter = reconstruct_field if lift else factored_field
        recon = lifter(basis, study.mean, traj, param=nu)
    return traj, recon, report


def truth_pod_baseline(study: Study, truth: SnapshotMatrix) -> FactoredField:
    """ROM built from the target's own truth snapshots, the accuracy floor,
    with its lift left unformed."""
    nu = truth.param
    basis = compute_pod(truth.values - study.mean[:, None], study.ip, study.cfg.q)
    model = direct_project(basis.modes, study.mean, study.ip, study.grid.gradient, nu)
    alpha0 = initial_condition(basis.modes, study.mean, study.ip, truth.values[:, 0])
    traj = integrate_rom(model, alpha0, study.cfg.dt, study.cfg.steps,
                         record_every=study.cfg.save_every, t0=float(truth.times[0]))
    return factored_field(basis.modes, study.mean, traj, param=nu)


def compare(study: Study, targets=None, kind=None, neighbors=None):
    """Mean errors of both interpolated models and the truth-POD floor.

    Returns (rows, reports): one row per target with columns
    nu, barycentric, itsgm, truth_pod, ratio_barycentric_itsgm, and the
    per-time error reports keyed as reports[nu][method].  No model's field
    is formed: each is scored from its ``FactoredField`` a block of rows at
    a time, and the truth is squared and summed once, by the first report.
    """
    cfg = study.cfg
    targets = list(cfg.test_nu) if targets is None else [float(v) for v in targets]
    for nu in targets:  # before any run is read
        check_viscosity(nu)
    if len(set(targets)) < len(targets):
        raise ConfigError(f"compare targets must be distinct, got {targets}")
    methods = (*METHODS, "truth_pod")
    rows = []
    reports = {}
    for nu in targets:
        truth = load_snapshots(study.outdir, study.manifest, nu)
        ref_sq = None
        for method in methods:
            # method= stays a keyword: perfbench reads it from the predict calls
            approx = (truth_pod_baseline(study, truth) if method == "truth_pod" else
                      predict(study, nu, method=method, ic_mode="truth", kind=kind,
                              neighbors=neighbors, truth=truth, lift=False)[1])
            rep = error_report(truth, approx, study.ip, method, ref_sq=ref_sq)
            reports.setdefault(nu, {})[method] = rep
            ref_sq = rep.ref_sq
        del truth  # before the next target's is read
        e_b, e_i, e_t = (reports[nu][m].mean for m in methods)
        rows.append([nu, e_b, e_i, e_t, e_b / e_i if e_i > 0 else np.inf])
    return rows, reports


def write_compare_outputs(outdir, rows, reports):
    outdir = Path(outdir)
    write_csv(
        outdir / "compare.csv",
        ["nu", "barycentric", "itsgm", "truth_pod", "ratio_barycentric_itsgm"],
        [[float(v) for v in row] for row in rows],
    )
    for nu, reps in reports.items():
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
    """Seconds of the whole q-sized online path (weights, then
    ``online_model`` with the weighted initial state) and of direct
    projection onto the interpolated basis, one (reps, len(studies)) array
    each, the studies timed in alternation."""
    updates, directs = [], []
    for study in studies:
        w = study_weights(study, nu)
        basis = combined_basis([b.modes for b in study.bases], w,
                               online_model(study, w, nu)[0].rotations)
        updates.append(lambda study=study: online_model(study, study_weights(study, nu), nu))
        directs.append(partial(direct_project, basis, study.mean, study.ip,
                               study.grid.gradient, nu))
    return _timed_alternating(updates, reps), _timed_alternating(directs, reps)
