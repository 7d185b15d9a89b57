"""Offline/online workflow behind the command-line interface.

generate -> snapshot matrices per trained/test viscosity, the shared
            mean of the trained runs, and the manifest
offline  -> one archive of the per-parameter POD bases, spectra and
            initial states and the cross-Galerkin tensors; it reads one
            trained run at a time
predict  -> weights, barycenter, cheap operator update and initial
            coordinates (all q-sized), reduced solve one step per
            sample, then the one mesh-sized step: the interpolated basis
            and the field reconstruction (or the tangent-interpolation
            baseline)
compare  -> mean errors of both interpolated models and the truth-POD
            floor (on the offline basis at a trained target) against
            the stored high-fidelity runs, holding one truth run at a
            time and scoring each model's lift factors [Phi | mean] a
            block of rows at a time
bench    -> wall-clock of the q-sized online path vs direct projection,
            with the mesh sizes timed in alternation rep by rep

Every study option comes from the study's StudyConfig (schema: ``_KEYS``); a
caller overrides one with ``StudyConfig.replace``, checked as a config file is.
"""

from __future__ import annotations

import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial, reduce
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
from .manifold import gram_coordinates, itsgm_interpolate, karcher_barycenter
# mean_error stays bound here: perfbench's Tracer wraps every name in its TRACED
from .metrics import error_report, mean_error, reference_sq, write_csv  # noqa: F401
# global_mean stays bound here: perfbench's Tracer wraps it by name
from .pod import (  # noqa: F401
    PODBasis,
    SnapshotMatrix,
    compute_pod,
    global_mean,
    mean_of_row_sums,
    sample_times,
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
    update_reduced_model,
    weighted_rotations,
)
# run stays bound here for perfbench's Tracer, which wraps it by name
from .solver import Grid1D, SolverConfig, initial_profile, run, run_batch  # noqa: F401
from .solver import _inverse_symbols
from .weights import WeightVector, lagrange_weights, select_neighbors

METHODS = ("barycentric", "itsgm")
IC_MODES = ("truth", "weighted")
# snapshot bytes of the runs that generate marches in one step loop.  At
# 200 snapshots a run that is every run of a study up to nx=2000, where a
# step is bound by the interpreter, and 2 runs at nx=20000, where it is
# bound by memory traffic: there 2 runs beat 1 and 4, and 16 MB (1 run)
# gave up that gain to save 4 % of the nx=2000 study-build peak memory
GENERATE_BATCH_BYTES = 64 * 2**20


@dataclasses.dataclass
class StudyConfig:
    grid_n: int = 256
    grid_length: float = 2.0 * np.pi
    dt: float = 1e-3
    steps: int = 995
    save_every: int = 5
    transient: int = 300
    initial: object = "two_mode"
    trained_nu: list = dataclasses.field(default_factory=lambda: [0.05, 0.07, 0.09, 0.11])
    test_nu: list = dataclasses.field(default_factory=lambda: [0.06, 0.08, 0.10])
    q: int = 7
    weights_neighbors: int = 3
    tol: float = 1e-10
    max_iter: int = 100

    def grid(self) -> Grid1D:
        return Grid1D(self.grid_n, self.grid_length)

    def solver_config(self, nu: float) -> SolverConfig:
        return SolverConfig(nu=nu, dt=self.dt, steps=self.steps, initial=self.initial,
                            save_every=self.save_every, transient=self.transient)

    def to_dict(self) -> dict:
        """The config-file form: ``_KEYS`` in order, a dotted key in its section."""
        doc = {}
        for key, (name, _) in _KEYS.items():
            section, _, sub = key.rpartition(".")
            value = getattr(self, name)
            value = list(value) if isinstance(value, (list, tuple, np.ndarray)) else value
            (doc.setdefault(section, {}) if section else doc)[sub] = value
        return doc

    def replace(self, **fields) -> StudyConfig:
        """A copy with ``fields`` changed, checked as a config file is."""
        return config_from_dict(dataclasses.replace(self, **fields).to_dict())


def _number(value, key: str) -> float:
    """A JSON number as a float; a boolean, a string or any other value is
    a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(value, key: str) -> int:
    """An integral JSON number as an int, else a ConfigError."""
    if not _number(value, key).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _numbers(values, key: str) -> list:
    return [_number(v, f"{key} entry") for v in values]


def _initial(value, key: str):
    """The initial profile unchanged: a name, or a state whose entries are numbers."""
    _numbers(value if isinstance(value, list) else [], key)
    return value


# config-file key -> (StudyConfig field, parser(value, key)); a dotted key
# lies in the section its prefix names, and to_dict writes them in this order
_KEYS = {
    "grid.n": ("grid_n", _integer),
    "grid.length": ("grid_length", _number),
    "dt": ("dt", _number),
    "steps": ("steps", _integer),
    "save_every": ("save_every", _integer),
    "transient": ("transient", _integer),
    "initial": ("initial", _initial),
    "trained_nu": ("trained_nu", _numbers),
    "test_nu": ("test_nu", _numbers),
    "q": ("q", _integer),
    "weights.neighbors": ("weights_neighbors", _integer),
    "tol": ("tol", _number),
    "max_iter": ("max_iter", _integer),
}


def config_from_dict(doc: dict) -> StudyConfig:
    """StudyConfig from its JSON form; absent keys keep the StudyConfig
    default, and a key outside ``_KEYS`` or a value of the wrong type is
    a ConfigError: a count takes an integral number, and no key takes a
    boolean or a string where a number is due."""
    base = StudyConfig().to_dict()
    sections = [key for key, value in base.items() if isinstance(value, dict)]
    unknown = [k for k in doc if k not in base]
    unknown += [f"{s}.{k}" for s in sections if isinstance(doc.get(s), dict)
                for k in doc[s] if k not in base[s]]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(map(repr, unknown))}")
    try:
        d = {**base, **doc, **{s: {**base[s], **doc.get(s, {})} for s in sections}}
        cfg = StudyConfig(**{name: parse(reduce(dict.__getitem__, key.split("."), d), key)
                             for key, (name, parse) in _KEYS.items()})
        if cfg.weights_neighbors < 1 or cfg.max_iter < 1:
            raise ValueError("weights.neighbors and max_iter must be >= 1")
        if not 0.0 <= cfg.tol < np.inf:
            raise ValueError("tol must be >= 0 and finite")
        # checks grid, dt, step counts and the initial state even with no viscosities
        u0 = initial_profile(cfg.solver_config(1.0), cfg.grid())
        if not np.isfinite(u0).all():
            raise ValueError("initial vector entries must be finite")
        for nu in cfg.trained_nu + cfg.test_nu:
            cfg.solver_config(nu)
        if cfg.trained_nu or cfg.test_nu:  # the largest nu has the largest nu dt / dx^2
            _inverse_symbols([cfg.solver_config(max(cfg.trained_nu + cfg.test_nu))], cfg.grid())
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
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSON and UTF-8 decoding errors are ValueErrors
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
                                  t0=float(snap.times[0])))
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


def load_snapshots(outdir, manifest: dict, cfg: StudyConfig, nu: float,
                   role=None) -> SnapshotMatrix:
    """The stored run at nu, checked against the study's parsed ``cfg`` as
    generate writes it: the entry's t0 must be cfg.transient * cfg.dt and
    the matrix (grid n, steps // save_every + 1), else a DataIntegrityError
    names the run.  Its instants, the ``sample_times`` t0 + k save_every
    dt, are those of a reduced trajectory.  No field of the manifest's
    config is read: ``cfg`` is the one source of them."""
    entry = _run_entry(manifest, nu, role)
    t0 = cfg.transient * cfg.dt
    if _field(entry, "t0", "run entry", kind=(int, float)) != t0:
        raise DataIntegrityError(f"run nu={nu!r} starts at t0={entry['t0']!r}, expected the "
                                 f"config's transient * dt = {t0!r}")
    ns = cfg.steps // cfg.save_every + 1
    values = _shaped(f"run nu={nu!r}", _read(read_matrix, outdir, entry), (cfg.grid_n, ns))
    return SnapshotMatrix(values=values, times=sample_times(t0, cfg.dt, cfg.save_every, ns),
                          param=nu)


def _stored_mean(outdir, manifest: dict, nx: int) -> np.ndarray:
    """The shared mean field generate wrote, checked against the mesh size."""
    if "mean" not in manifest:
        raise DataIntegrityError("manifest lists no mean field; run generate again to "
                                 "write one")
    mean = _read(read_matrix, outdir, manifest["mean"])
    return _shaped(manifest["mean"]["path"], mean, (nx, 1))[:, 0]


def run_offline(outdir, jobs: int = 1, q=None) -> dict:
    """From the trained runs and the mean that generate wrote, write the one
    archive tensors.arc: the six cross-Galerkin tensors, the POD ``bases``
    (Np, nx, q), their spectra ``eigenvalues`` (Np, Ns) and the initial
    states ``ics`` (Np, nx).  It deletes no file."""
    outdir = Path(outdir)
    manifest = read_manifest(outdir / "manifest.json")
    cfg = config_from_dict(_field(manifest, "config", kind=dict))
    cfg = cfg if q is None else cfg.replace(q=q)
    if not cfg.trained_nu:
        raise ConfigError("offline needs at least one trained_nu")
    grid = cfg.grid()
    mean = _stored_mean(outdir, manifest, grid.n)

    # One trained run is read, its first state kept as its stored initial
    # state, the run made its fluctuations in place and reduced to its POD
    # basis, and dropped before the next is read: with ``jobs`` workers the
    # peak is ``jobs`` runs, as compute_pod's correlation is one syrk that
    # makes no weighted copy of a run.
    def pod_of(nu):
        values = load_snapshots(outdir, manifest, cfg, nu, role="trained").values
        ic = values[:, 0].copy()
        values -= mean[:, None]
        return ic, compute_pod(values, grid.dx, cfg.q)

    ics, bases = zip(*_fan_out(pod_of, cfg.trained_nu, jobs))
    modes = [b.modes for b in bases]
    ct = assemble_cross_tensors(modes, mean, grid.dx, grid.gradient)
    arrays = {**vars(ct), "bases": np.stack(modes), "ics": np.stack(ics),
              "eigenvalues": np.stack([b.eigenvalues for b in bases])}
    archive_path = outdir / "tensors.arc"
    manifest["config"] = cfg.to_dict()
    manifest["offline"] = {"archive": _entry(archive_path, write_archive(
        archive_path, arrays, {"q": cfg.q, "nx": grid.n, "dx": grid.dx}))}
    write_manifest(outdir / "manifest.json", manifest)
    return manifest


@dataclasses.dataclass
class Study:
    """Everything the online stage needs, loaded from the mean and the
    offline archive: ``bases`` holds one PODBasis per trained viscosity,
    views of the archive's stacked bases and spectra, and ``ics`` the
    (Np, nx) stored initial states.  ``bases[k]`` is the POD of the
    stored run at ``cfg.trained_nu[k]``, so it is also the truth-POD floor's
    basis when that viscosity is a compare target.

    ``frame`` holds the trained bases in ``gram_coordinates``, one (Np q,
    q) block each, from the Gram matrix of the stacked bases [Phi_1 ...
    Phi_Np], and ``ic_coords`` the coordinates of the stored
    initial states, ic_coords[:, j] = dx [Phi_1 ... Phi_Np]^T (ics[j] -
    mean), (Np q, Np).  With them and the tensor archive, a barycentric
    prediction from the weighted initial state reads no mesh-sized array
    until it lifts its trajectory.
    The ITSGM baseline interpolates the ``bases`` as they are stored; it
    orthonormalizes those it weights itself.
    """

    outdir: Path
    manifest: dict
    cfg: StudyConfig
    grid: Grid1D
    ip: float  # the quadrature weight of every inner product, grid.dx
    mean: np.ndarray
    bases: list
    ics: np.ndarray
    tensors: CrossGalerkinTensors
    frame: list
    ic_coords: np.ndarray

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
    mean = _stored_mean(outdir, manifest, grid.n)
    arrays, _ = _read(read_archive, outdir,
                      _field(manifest["offline"], "archive", "offline section"))
    stored = _archive_arrays(arrays, len(cfg.trained_nu), grid.n, cfg.q,
                             cfg.steps // cfg.save_every + 1)
    bases = [PODBasis(*pair) for pair in zip(stored.pop("bases"), stored.pop("eigenvalues"))]
    ics = stored.pop("ics")
    ct = CrossGalerkinTensors(**stored)
    frame = gram_coordinates(ct.M / grid.dx, cfg.q)
    weighted = grid.dx * (np.column_stack(ics) - mean[:, None])
    ic_coords = np.vstack([b.modes.T @ weighted for b in bases])
    return Study(outdir, manifest, cfg, grid, grid.dx, mean, bases, ics, ct, frame, ic_coords)


def _archive_arrays(arrays: dict, np_: int, nx: int, q: int, ns: int) -> dict:
    """The nine arrays of the archive, each checked against its shape for
    Np bases of q modes on nx points and runs of ns snapshots: the six
    stacked tensors, the bases, the initial states and the POD spectra.
    An archive with an array missing or of another shape is rebuilt by
    offline."""
    n = np_ * q
    shapes = {"M": (n, n), "R": (n, n), "Cbar": (n, n), "C": (n, n * n),
              "F_conv": (np_, q), "F_diff": (np_, q),
              "bases": (np_, nx, q), "ics": (np_, nx), "eigenvalues": (np_, ns)}
    for name, shape in shapes.items():
        found = f"has shape {arrays[name].shape}" if name in arrays else "is missing"
        if name not in arrays or arrays[name].shape != shape:
            raise DataIntegrityError(f"archive array {name!r} {found}, expected {shape}; "
                                     "run offline again to rebuild the archive")
    return {name: arrays[name] for name in shapes}


def cached_study(cfg: StudyConfig, outdir, jobs: int = 1) -> Study:
    """The study of ``cfg`` under outdir, reused if its manifest was written
    from ``cfg`` (offline runs if it has not).  Otherwise the stale
    manifest's runs are deleted, each entry that names a plain file inside
    outdir, and the study is generated and built again; generate and
    offline rewrite the mean and the archive under their own names.  A
    ``runs`` that is not a list is a DataIntegrityError before anything
    is deleted."""
    outdir = Path(outdir)
    path = outdir / "manifest.json"
    manifest = read_manifest(path) if path.exists() else {}
    if manifest.get("config") != cfg.to_dict():
        for entry in _field(manifest, "runs", kind=list) if "runs" in manifest else []:
            try:
                run = entry_path(outdir, entry)
            except DataIntegrityError:
                continue
            if run.is_file():
                run.unlink()
        manifest = run_generate(cfg, outdir, jobs=jobs)
    if "offline" not in manifest:
        run_offline(outdir, jobs=jobs)
    return load_study(outdir)


def check_viscosity(nu: float) -> None:
    """A viscosity that is not positive and finite is a ConfigError."""
    if not (np.isfinite(nu) and nu > 0):
        raise ConfigError(f"viscosity must be positive and finite, got {nu!r}")


def study_weights(study: Study, nu: float) -> WeightVector:
    """Weights over all trained nodes: Lagrange weights on the nearest
    weights.neighbors nodes, zero elsewhere.  A viscosity that is not
    positive and finite, or whose weights overflow, is a ConfigError."""
    check_viscosity(nu)
    cfg, params = study.cfg, study.params
    sel = select_neighbors(params, nu, min(cfg.weights_neighbors, params.size))
    full = np.zeros(params.size)
    full[sel] = lagrange_weights(params[sel], nu)
    if not np.isfinite(full).all():
        raise ConfigError(f"interpolation weights at viscosity {nu!r} are not finite (trained "
                          f"range [{params.min():g}, {params.max():g}])")
    return WeightVector(full)


def nearest_index(params, nu: float) -> int:
    return select_neighbors(params, nu, 1)[0]


class _timed:
    """Adds the wall-clock seconds of its body to timings[key]: a plain
    class, as a generator context manager costs twice as much per use."""

    def __init__(self, timings: dict, key: str):
        self.timings, self.key = timings, key

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.start
        self.timings[self.key] = self.timings.get(self.key, 0.0) + elapsed


def online_model(study: Study, w: WeightVector, nu: float,
                 allow_nonconverged: bool = False, timings=None):
    """The q-sized half of a barycentric prediction at nu, for weights w:
    the barycenter of the trained bases on their Gram coordinates, started
    at the node nearest nu (a stalled one is kept if ``allow_nonconverged``
    and its gradient norm is finite), and the operator update.  ``timings``
    gains barycenter_s and update_s.  Returns (barycenter result, model)."""
    timings = {} if timings is None else timings
    with _timed(timings, "barycenter_s"):
        try:
            bary = karcher_barycenter(
                study.frame, w.values, tol=study.cfg.tol, max_iter=study.cfg.max_iter,
                init=nearest_index(study.params, nu))
        except NotConvergedError as exc:
            if not (allow_nonconverged and np.isfinite(exc.result.final_gradient_norm)):
                raise
            bary = exc.result
    with _timed(timings, "update_s"):
        model = update_reduced_model(study.tensors, w, bary.rotations, nu)
    return bary, model


def weighted_initial_condition(study: Study, w: WeightVector, rotations, M) -> np.ndarray:
    """Coordinates of the weighted initial state sum_k w_k ics[k] in the
    interpolated basis of ``rotations``, without that basis: the solution of
    M alpha0 = S^T c, with M the updated mass matrix, S the
    ``weighted_rotations`` and c the weighted trained-basis coordinates
    ``ic_coords`` w."""
    return np.linalg.solve(M, weighted_rotations(w, rotations).T @ (study.ic_coords @ w.values))


def _explicit_model(study: Study, basis, nu: float, u0, timings: dict):
    """(model, alpha0) on one explicit N-by-q basis, ITSGM's or the floor's:
    ``direct_project`` at nu and the ``initial_condition`` of the state u0,
    timed in ``timings`` as projection_s and initial_condition_s."""
    with _timed(timings, "projection_s"):
        model = direct_project(basis, study.mean, study.ip, study.grid.gradient, nu)
    with _timed(timings, "initial_condition_s"):
        alpha0 = initial_condition(basis, study.mean, study.ip, u0)
    return model, alpha0


def _march(cfg: StudyConfig, model, alpha0, report: dict):
    """``integrate_rom`` at the instants of the stored runs: steps //
    save_every steps of h = save_every dt from t0 = transient dt.  ``report``
    gains h as reduced_step, the step count and the mass_condition."""
    h, n = cfg.save_every * cfg.dt, cfg.steps // cfg.save_every
    traj = integrate_rom(model, alpha0, h, n, t0=cfg.transient * cfg.dt)
    report.update(reduced_step=h, reduced_steps=n, mass_condition=traj.mass_condition)
    return traj


def predict(study: Study, nu: float, method: str = "barycentric",
            ic_mode: str = "weighted", allow_nonconverged: bool = False,
            truth: SnapshotMatrix | None = None, lift: bool = True):
    """Online stage at one viscosity.

    ``ic_mode="truth"`` starts from the first state of the stored run at
    nu: ``truth`` when given, else the run read from disk.  Up to the lift,
    the barycentric method with the weighted initial state does q-sized
    work only: barycenter, operator update and initial coordinates.  With
    the truth initial state it projects that state onto the interpolated
    basis by ``initial_condition``.  As for the truth-POD floor, ITSGM's
    model is built by ``_explicit_model``, and either model is marched by
    ``_march``.

    Returns (trajectory, reconstruction, report) where the report is a
    JSON-ready dict with the interpolation diagnostics and timings.  The
    reconstruction is the lift onto the interpolated basis, which the
    barycentric method forms once, by ``combined_basis``; with
    ``lift=False`` it is left unformed, the trajectory's ``FactoredField``.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if ic_mode not in IC_MODES:
        raise ValueError(f"ic_mode must be one of {IC_MODES}, got {ic_mode!r}")
    cfg = study.cfg
    w = study_weights(study, nu)
    timings = {}
    report = {
        "nu": nu,
        "method": method,
        "ic_mode": ic_mode,
        "weights": w.values.tolist(),
        "trained_nu": study.params.tolist(),
        "timings": timings,
    }

    basis = None  # the barycentric basis is formed for the lift, or for a truth IC
    if ic_mode == "truth" and truth is None:
        with _timed(timings, "initial_condition_s"):
            truth = load_snapshots(study.outdir, study.manifest, cfg, nu)
    if method == "barycentric":
        bary, model = online_model(study, w, nu, allow_nonconverged=allow_nonconverged,
                                   timings=timings)
        report["barycenter"] = {
            "iterations": bary.iterations,
            "final_gradient_norm": bary.final_gradient_norm,
            "converged": bary.converged,
            "gradient_norms": bary.gradient_norms,
            "min_overlap_ratio": bary.min_overlap_ratio,
        }
        with _timed(timings, "initial_condition_s"):
            if ic_mode == "weighted":
                alpha0 = weighted_initial_condition(study, w, bary.rotations, model.M)
            else:
                basis = combined_basis([b.modes for b in study.bases], w, bary.rotations)
                alpha0 = initial_condition(basis, study.mean, study.ip, truth.values[:, 0])
    else:
        with _timed(timings, "interpolation_s"):
            basis = itsgm_interpolate([b.modes for b in study.bases], w.values,
                                      nearest_index(study.params, nu))
        with _timed(timings, "initial_condition_s"):
            u0 = (truth.values[:, 0] if ic_mode == "truth" else
                  sum(wk * ic for wk, ic in zip(w.values, study.ics) if wk != 0.0))
        model, alpha0 = _explicit_model(study, basis, nu, u0, timings)

    with _timed(timings, "integrate_s"):
        traj = _march(cfg, model, alpha0, report)
    with _timed(timings, "lift_s"):
        if basis is None:
            basis = combined_basis([b.modes for b in study.bases], w, bary.rotations)
        lifter = reconstruct_field if lift else factored_field
        recon = lifter(basis, study.mean, traj, param=nu)
    return traj, recon, report


def truth_pod_baseline(study: Study, truth: SnapshotMatrix) -> FactoredField:
    """ROM built from the target's own truth snapshots, the accuracy floor,
    with its lift left unformed; built and marched as ``predict``'s ITSGM.
    At a trained viscosity (matched exactly, as ``_run_entry`` matches) the
    basis is the study's offline one, the POD of that same run, so no
    fluctuation copy is made and no POD is computed again; at any other the
    truth's POD is computed here."""
    nu, cfg = truth.param, study.cfg
    if nu in cfg.trained_nu:
        basis = study.bases[cfg.trained_nu.index(nu)]
    else:
        basis = compute_pod(truth.values - study.mean[:, None], study.ip, cfg.q)
    model, alpha0 = _explicit_model(study, basis.modes, nu, truth.values[:, 0], {})
    return factored_field(basis.modes, study.mean, _march(cfg, model, alpha0, {}), param=nu)


def compare(study: Study, targets=None):
    """Mean errors of both interpolated models and the truth-POD floor.

    Returns (rows, reports): one row per target with columns
    nu, barycentric, itsgm, truth_pod, ratio_barycentric_itsgm, and the
    per-time error reports keyed as reports[nu][method].  No model's field
    is formed: each is scored from its ``FactoredField`` a block of rows at
    a time.  Every target's stored run is found before the first is read.
    Each truth is squared and summed once, by ``reference_sq`` as soon as
    it is read, so a truth with a zero-norm instant raises
    ZeroReferenceError before any model is built against it.  The
    truth-POD floor of a trained target is built on its offline basis
    (``truth_pod_baseline``), so only an untrained target costs a POD.
    """
    cfg = study.cfg
    targets = list(cfg.test_nu) if targets is None else [float(v) for v in targets]
    for nu in targets:  # before any run is read or any target scored
        check_viscosity(nu)
        _run_entry(study.manifest, nu)
    if len(set(targets)) < len(targets):
        raise ConfigError(f"compare targets must be distinct, got {targets}")
    methods = (*METHODS, "truth_pod")
    rows = []
    reports = {}
    for nu in targets:
        truth = load_snapshots(study.outdir, study.manifest, cfg, nu)
        ref_sq = reference_sq(truth, study.ip)
        for method in methods:
            # method= stays a keyword: perfbench reads it from the predict calls
            approx = (truth_pod_baseline(study, truth) if method == "truth_pod" else
                      predict(study, nu, method=method, ic_mode="truth", truth=truth,
                              lift=False)[1])
            rep = error_report(truth, approx, study.ip, ref_sq=ref_sq)
            reports.setdefault(nu, {})[method] = rep
            del approx  # before the next model is built
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
    """Seconds of the whole q-sized online path (weights, ``online_model``
    and the ``weighted_initial_condition``) and of direct projection onto
    the interpolated basis, one (reps, len(studies)) array each, the
    studies timed in alternation."""
    def online_path(study):
        w = study_weights(study, nu)
        bary, model = online_model(study, w, nu)
        return w, bary, weighted_initial_condition(study, w, bary.rotations, model.M)

    updates, directs = [], []
    for study in studies:
        w, bary, _ = online_path(study)
        basis = combined_basis([b.modes for b in study.bases], w, bary.rotations)
        updates.append(partial(online_path, study))
        directs.append(partial(direct_project, basis, study.mean, study.ip,
                               study.grid.gradient, nu))
    return _timed_alternating(updates, reps), _timed_alternating(directs, reps)
