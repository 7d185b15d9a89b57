import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from baryrom import (
    NotConvergedError,
    NumericalError,
    SnapshotMatrix,
    combined_basis,
    compute_pod,
    initial_condition,
    itsgm_interpolate,
    karcher_barycenter,
    mean_error,
)
from baryrom.cli import build_parser, main
from baryrom.metrics import error_report, reference_sq
from baryrom.io import (
    read_archive,
    read_manifest,
    read_matrix,
    sha256_file,
    write_archive,
    write_manifest,
    write_matrix,
)
from baryrom import manifold, pipeline, rom, solver

SMALL_CONFIG = {
    "grid": {"n": 64, "length": 6.283185307179586},
    "dt": 1e-3,
    "steps": 120,
    "save_every": 4,
    "transient": 40,
    "initial": "two_mode",
    "trained_nu": [0.05, 0.07, 0.09, 0.11],
    "test_nu": [0.08],
    "q": 4,
    "weights": {"neighbors": 3},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """generate + offline on a small study, shared across CLI tests."""
    root = tmp_path_factory.mktemp("study")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    out = root / "out"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["offline", "--out", str(out)]) == 0
    return root, cfg_path, out


def test_generate_outputs(workdir):
    _, _, out = workdir
    manifest = read_manifest(out / "manifest.json")
    trained = [r for r in manifest["runs"] if r["role"] == "trained"]
    assert len(trained) == 4
    for entry in trained:
        values = read_matrix(out / entry["path"], entry["sha256"])
        assert values.shape == (64, 120 // 4 + 1)


def test_generate_rerun_identical_hashes(workdir, tmp_path):
    _, cfg_path, out = workdir
    out2 = tmp_path / "again"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    m1 = read_manifest(out / "manifest.json")
    m2 = read_manifest(out2 / "manifest.json")
    h1 = {r["nu"]: r["sha256"] for r in m1["runs"]}
    h2 = {r["nu"]: r["sha256"] for r in m2["runs"]}
    assert h1 == h2


def test_parallel_jobs_identical_outputs(workdir, tmp_path):
    _, cfg_path, out = workdir
    out2 = tmp_path / "jobs"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out2),
                 "--jobs", "4"]) == 0
    assert main(["offline", "--out", str(out2), "--jobs", "4"]) == 0
    m1 = read_manifest(out / "manifest.json")
    m2 = read_manifest(out2 / "manifest.json")
    assert {r["nu"]: r["sha256"] for r in m1["runs"]} \
        == {r["nu"]: r["sha256"] for r in m2["runs"]}
    assert (out / "tensors.arc").read_bytes() == (out2 / "tensors.arc").read_bytes()


def test_generate_empty_nu_list(tmp_path):
    cfg = dict(SMALL_CONFIG, trained_nu=[], test_nu=[])
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(cfg_path), "--out",
                 str(tmp_path / "o")]) == 0
    manifest = read_manifest(tmp_path / "o" / "manifest.json")
    assert manifest["runs"] == []


def test_offline_without_trained_nu_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(SMALL_CONFIG, trained_nu=[], test_nu=[])))
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert main(["offline", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_offline_writes_one_archive(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    out = tmp_path / "o"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["offline", "--out", str(out)]) == 0
    manifest = read_manifest(out / "manifest.json")
    snaps = {e["path"] for e in manifest["runs"]}
    assert all(name.startswith("snap_") for name in snaps)
    assert ({p.name for p in out.iterdir()}
            == snaps | {"mean.mat", "manifest.json", "tensors.arc"})
    assert list(manifest["offline"]) == ["archive"]
    arrays, _ = read_archive(out / "tensors.arc", manifest["offline"]["archive"]["sha256"])
    mean = read_matrix(out / "mean.mat", manifest["mean"]["sha256"])
    ip = SMALL_CONFIG["grid"]["length"] / SMALL_CONFIG["grid"]["n"]
    for k, nu in enumerate(SMALL_CONFIG["trained_nu"]):
        entry = manifest["runs"][k]
        assert entry["nu"] == nu
        run = read_matrix(out / entry["path"], entry["sha256"])
        oracle = compute_pod(run - mean, ip, SMALL_CONFIG["q"])
        assert arrays["bases"][k].tobytes() == oracle.modes.tobytes()
        assert arrays["eigenvalues"][k].tobytes() == oracle.eigenvalues.tobytes()
        assert arrays["ics"][k].tobytes() == run[:, 0].tobytes()


def test_load_study_reads_the_mean_and_the_archive_once_each(workdir, monkeypatch):
    _, _, out = workdir
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("read_matrix", "read_archive"):
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    pipeline.load_study(out)
    assert sorted(calls) == ["read_archive", "read_matrix"]


def test_offline_archive_reload_bit_identical(workdir):
    _, _, out = workdir
    digest = read_manifest(out / "manifest.json")["offline"]["archive"]["sha256"]
    arrays1, meta1 = read_archive(out / "tensors.arc", digest)
    arrays2, meta2 = read_archive(out / "tensors.arc", digest)
    assert meta1 == meta2
    for name in arrays1:
        assert arrays1[name].tobytes() == arrays2[name].tobytes()
    # weighted orthonormality: each diagonal block of the stacked mass is the identity
    q = meta1["q"]
    for k in range(len(SMALL_CONFIG["trained_nu"])):
        block = arrays1["M"][k * q:(k + 1) * q, k * q:(k + 1) * q]
        assert np.max(np.abs(block - np.eye(q))) < 1e-10


def test_offline_rerun_deterministic(workdir, tmp_path):
    _, cfg_path, out = workdir
    out2 = tmp_path / "redo"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert main(["offline", "--out", str(out2)]) == 0
    assert (out / "tensors.arc").read_bytes() == (out2 / "tensors.arc").read_bytes()


def test_archive_with_extra_arrays_still_loads(workdir, tmp_path):
    # older archives carry F_body and the trained viscosities as extra arrays
    _, _, out = workdir
    old = tmp_path / "old"
    shutil.copytree(out, old)
    arrays, meta = read_archive(old / "tensors.arc", sha256_file(old / "tensors.arc"))
    extra = {"F_body": np.zeros_like(arrays["F_diff"]),
             "params": np.array(SMALL_CONFIG["trained_nu"])}
    write_archive(old / "tensors.arc", {**arrays, **extra}, meta)
    manifest = read_manifest(old / "manifest.json")
    manifest["offline"]["archive"]["sha256"] = sha256_file(old / "tensors.arc")
    write_manifest(old / "manifest.json", manifest)
    assert main(["predict", "--out", str(old), "--nu", "0.08"]) == 0


def test_predict_untrained_smoke(workdir):
    _, _, out = workdir
    assert main(["predict", "--out", str(out), "--nu", "0.08", "--ic", "truth"]) == 0
    pdir = out / "predict_nu0.08_barycentric_truth"
    report = json.loads((pdir / "report.json").read_text())
    assert report["barycenter"]["converged"]
    assert report["barycenter"]["final_gradient_norm"] <= 1e-10
    assert set(report["timings"]) == {"barycenter_s", "update_s",
                                      "initial_condition_s", "integrate_s", "lift_s"}
    assert all(v >= 0 for v in report["timings"].values())
    assert 1.0 <= report["mass_condition"] < 1e3
    assert (report["reduced_step"], report["reduced_steps"]) == (4 * 1e-3, 120 // 4)
    assert report["lift_sha256"] == sha256_file(pdir / "lift.mat")
    lift = read_matrix(pdir / "lift.mat", report["lift_sha256"])
    assert lift.shape == (64, 5)
    assert np.all(np.isfinite(lift))
    lines = (pdir / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,alpha1,alpha2,alpha3,alpha4"
    assert len(lines) == 32


def test_predict_honours_a_valid_tol(workdir):
    # a looser barycenter tolerance than the config's stops in fewer sweeps
    _, _, out = workdir
    path = out / "predict_nu0.075_barycentric" / "report.json"
    health = {}
    for tol in (None, "1e-4"):
        assert main(["predict", "--out", str(out), "--nu", "0.075"]
                    + (["--tol", tol] if tol else [])) == 0
        health[tol] = json.loads(path.read_text())["barycenter"]
    assert health["1e-4"]["converged"] and health["1e-4"]["final_gradient_norm"] <= 1e-4
    assert health["1e-4"]["iterations"] < health[None]["iterations"]


@pytest.mark.parametrize("fields", [
    {"weights_neighbors": 0}, {"weights_neighbors": 2.7}, {"tol": -1.0},
    {"tol": float("nan")},
], ids=["neighbors=0", "neighbors=2.7", "tol=-1", "tol=nan"])
def test_an_override_is_a_config_error_before_any_sweep(study, monkeypatch, fields):
    # every online option comes from the study config, and an override of
    # one is checked as a config file is
    sweeps = []
    monkeypatch.setattr(pipeline, "karcher_barycenter", lambda *a, **k: sweeps.append(a))
    with pytest.raises(pipeline.ConfigError):
        pipeline.predict(dataclasses.replace(study, cfg=study.cfg.replace(**fields)), 0.08)
    assert sweeps == []


@pytest.mark.parametrize("change", [
    {"grid": {"n": 10**15, "length": 6.283185307179586}},  # its initial profile: 7 PiB
    {"steps": 10**13, "save_every": 1},  # the snapshots of one run: 18 PiB
], ids=["grid-n", "steps"])
def test_a_study_that_does_not_fit_in_memory_exits_2_with_one_line(tmp_path, change):
    # each allocation is far past any address space, so it fails at once
    config = Path(__file__).resolve().parent.parent / "configs" / "burgers.json"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**json.loads(config.read_text()), **change}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and "Traceback" not in err.getvalue()
    assert lines[0].startswith("configuration error: the study does not fit in memory: ")
    assert not (tmp_path / "o").exists()


def test_online_functions_take_no_option_of_the_config():
    for fn in (pipeline.predict, pipeline.compare, pipeline.study_weights,
               pipeline.online_model):
        assert not {"kind", "neighbors", "tol"} & set(inspect.signature(fn).parameters)


def test_config_replace_round_trips_and_canonicalizes(study):
    assert study.cfg.replace() == study.cfg
    # an integral float count reads as an int, an int number as a float
    two = study.cfg.replace(weights_neighbors=2.0, tol=1)
    assert (two.weights_neighbors, two.tol) == (2, 1.0)
    assert (type(two.weights_neighbors), type(two.tol)) == (int, float)
    assert dataclasses.replace(two, weights_neighbors=3, tol=study.cfg.tol) == study.cfg


def test_cli_overrides_match_a_replaced_config(workdir):
    _, _, out = workdir
    nu = 0.085
    assert main(["predict", "--out", str(out), "--nu", str(nu),
                 "--neighbors", "2", "--tol", "1e-8"]) == 0
    study = pipeline.load_study(out)
    study.cfg = study.cfg.replace(weights_neighbors=2, tol=1e-8)
    traj, _, report = pipeline.predict(study, nu, lift=False)
    pdir = out / f"predict_nu{nu}_barycentric"
    rows = (pdir / "trajectory.csv").read_text().strip().split("\n")[1:]
    written = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert written[:, 0].tobytes() == traj.times.tobytes()
    assert written[:, 1:].tobytes() == traj.alphas.tobytes()
    assert json.loads((pdir / "report.json").read_text())["weights"] == report["weights"]
    assert np.count_nonzero(report["weights"]) == 2


def test_predict_trained_node_matches_truth_pod(workdir):
    _, _, out = workdir
    study = pipeline.load_study(out)
    nu = 0.07
    truth = pipeline.load_snapshots(out, study.manifest, study.cfg, nu)
    _, rec, report = pipeline.predict(study, nu, ic_mode="truth")
    # delta weights at the node
    w = np.array(report["weights"])
    expected = np.zeros(4)
    expected[1] = 1.0
    np.testing.assert_array_equal(w, expected)
    rec_t = pipeline.truth_pod_baseline(study, truth)
    e_pred = mean_error(truth, rec, study.ip)
    e_pod = mean_error(truth, rec_t, study.ip)
    assert abs(e_pred - e_pod) < 1e-6


def test_predict_itsgm_dispatch(workdir):
    _, _, out = workdir
    assert main(["predict", "--out", str(out), "--nu", "0.08", "--ic", "truth",
                 "--method", "itsgm"]) == 0
    pdir = out / "predict_nu0.08_itsgm_truth"
    report = json.loads((pdir / "report.json").read_text())
    assert report["method"] == "itsgm"
    assert set(report["timings"]) == {"interpolation_s", "projection_s",
                                      "initial_condition_s", "integrate_s", "lift_s"}
    assert 1.0 <= report["mass_condition"] < 1e3
    assert report["lift_sha256"] == sha256_file(pdir / "lift.mat")


@pytest.mark.parametrize("method, ic, nu", [("barycentric", "weighted", 0.075),
                                            ("itsgm", "truth", 0.08)])
def test_predict_writes_the_factors_of_the_predicted_field(workdir, monkeypatch,
                                                           method, ic, nu):
    # lift.mat @ [alpha^T; 1], alpha read back from trajectory.csv and the
    # product taken in row blocks of 10 rows or fewer, is bitwise the field
    # predict lifts
    _, _, out = workdir
    monkeypatch.setattr(rom, "BLOCK_BYTES", 8 * 31 * 10)
    assert main(["predict", "--out", str(out), "--nu", str(nu), "--method", method,
                 "--ic", ic]) == 0
    pdir = out / f"predict_nu{nu}_{method}{'_truth' if ic == 'truth' else ''}"
    assert sorted(p.name for p in pdir.iterdir()) == ["lift.mat", "report.json",
                                                      "trajectory.csv"]
    lift = read_matrix(pdir / "lift.mat", sha256_file(pdir / "lift.mat"))
    assert lift.shape == (64, 5)
    alphas = np.loadtxt(pdir / "trajectory.csv", delimiter=",", skiprows=1)[:, 1:]
    coeffs = np.vstack([alphas.T, np.ones(len(alphas))])
    field = np.empty((64, len(alphas)))
    bounds = rom.row_blocks(*field.shape)
    assert len(bounds) == 7
    for start, stop in bounds:
        np.matmul(lift[start:stop], coeffs, out=field[start:stop])
    study = pipeline.load_study(out)
    want = pipeline.predict(study, nu, method=method, ic_mode=ic)[1].values
    assert field.tobytes() == want.tobytes()


def test_only_a_weighted_predict_solves_for_the_weighted_initial_condition(workdir,
                                                                         monkeypatch):
    # a truth initial state is projected onto the combined basis; the
    # weighted coordinates would be thrown away, so they are not formed
    _, _, out = workdir
    study = pipeline.load_study(out)
    calls = []
    solve = pipeline.weighted_initial_condition
    monkeypatch.setattr(pipeline, "weighted_initial_condition",
                        lambda *args: calls.append(args) or solve(*args))
    nu = study.cfg.test_nu[0]
    pipeline.predict(study, nu, ic_mode="truth", lift=False)
    assert calls == []
    pipeline.predict(study, nu, lift=False)
    assert len(calls) == 1


def test_barycentric_predict_forms_the_combined_basis_once(workdir, monkeypatch):
    # the barycentric lift factor is [combined_basis | mean], formed by one
    # call through pipeline's binding of combined_basis; ITSGM lifts its own
    # interpolated basis and makes none
    _, _, out = workdir
    study = pipeline.load_study(out)
    calls = []

    def counted(*args):
        calls.append(args)
        return combined_basis(*args)

    monkeypatch.setattr(pipeline, "combined_basis", counted)
    field = pipeline.predict(study, 0.075, lift=False)[1]
    assert len(calls) == 1
    w = pipeline.study_weights(study, 0.075)
    rotations = pipeline.online_model(study, w, 0.075)[0].rotations
    want = np.column_stack([combined_basis([b.modes for b in study.bases], w, rotations),
                            study.mean])
    assert field.factor.tobytes() == want.tobytes()
    pipeline.predict(study, 0.075, method="itsgm", lift=False)
    assert len(calls) == 1


def test_only_itsgm_orthonormalizes(workdir, monkeypatch):
    # loading and a barycentric prediction factor no mesh-sized basis; ITSGM
    # factors each basis it interpolates, inside itsgm_interpolate
    _, _, out = workdir
    calls, inside = [], []
    qr, interpolate = manifold.orthonormalize, pipeline.itsgm_interpolate

    def counted(m):
        calls.append(bool(inside))
        return qr(m)

    def marked(*args, **kwargs):
        inside.append(1)
        try:
            return interpolate(*args, **kwargs)
        finally:
            inside.pop()

    for name, module in list(sys.modules.items()):  # every binding of it in the package
        if name.startswith("baryrom") and getattr(module, "orthonormalize", None) is qr:
            monkeypatch.setattr(module, "orthonormalize", counted)
    monkeypatch.setattr(pipeline, "itsgm_interpolate", marked)
    study = pipeline.load_study(out)
    assert calls == []
    pipeline.predict(study, 0.08, lift=False)
    assert calls == []
    pipeline.predict(study, 0.08, method="itsgm", lift=False)
    nonzero = np.count_nonzero(pipeline.study_weights(study, 0.08).values)
    assert nonzero > 1 and calls == [True] * nonzero


def test_itsgm_predict_follows_neighbors(workdir):
    _, _, out = workdir
    study = pipeline.load_study(out)
    nu = 0.08
    # the truth IC keeps the weights out of the initial state
    three = pipeline.predict(study, nu, method="itsgm", ic_mode="truth")[1].values
    study.cfg = study.cfg.replace(weights_neighbors=2)
    field = pipeline.predict(study, nu, method="itsgm", ic_mode="truth")[1].values
    assert np.max(np.abs(field - three)) > 1e-6 * np.max(np.abs(three))
    # the predicted field lies in the subspace interpolated with the 2-neighbour weights
    w = pipeline.study_weights(study, nu)
    assert np.count_nonzero(w.values) == 2
    sel = np.flatnonzero(w.values)
    ref = int(np.argmin(np.abs(study.params[sel] - nu)))
    basis = itsgm_interpolate([study.bases[k].modes for k in sel], w.values[sel],
                              ref_index=ref)
    fluct = field - study.mean[:, None]
    assert np.linalg.norm(fluct - basis @ (basis.T @ fluct)) < 1e-10 * np.linalg.norm(fluct)


def test_predict_deterministic_csv(workdir):
    _, _, out = workdir
    pdir = out / "predict_nu0.08_barycentric_truth"
    main(["predict", "--out", str(out), "--nu", "0.08", "--ic", "truth"])
    first = (pdir / "trajectory.csv").read_bytes()
    lift1 = (pdir / "lift.mat").read_bytes()
    main(["predict", "--out", str(out), "--nu", "0.08", "--ic", "truth"])
    assert (pdir / "trajectory.csv").read_bytes() == first
    assert (pdir / "lift.mat").read_bytes() == lift1
    report = json.loads((pdir / "report.json").read_text())
    assert report["lift_sha256"] == sha256_file(pdir / "lift.mat")


def test_predict_ic_modes_write_separate_outputs(workdir):
    _, _, out = workdir
    for ic in ("weighted", "truth"):
        assert main(["predict", "--out", str(out), "--nu", "0.08", "--ic", ic]) == 0
    dirs = {"weighted": out / "predict_nu0.08_barycentric",
            "truth": out / "predict_nu0.08_barycentric_truth"}
    for ic, pdir in dirs.items():
        assert json.loads((pdir / "report.json").read_text())["ic_mode"] == ic
    assert ((dirs["weighted"] / "trajectory.csv").read_bytes()
            != (dirs["truth"] / "trajectory.csv").read_bytes())


def test_compare_outputs(workdir):
    _, _, out = workdir
    assert main(["compare", "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().strip().split("\n")
    assert lines[0] == "nu,barycentric,itsgm,truth_pod,ratio_barycentric_itsgm"
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[0]) == 0.08
    assert all(float(v) >= 0 for v in row[1:4])
    per_time = (out / "errors_time_nu0.08.csv").read_text().strip().split("\n")
    assert per_time[0] == "t,barycentric,itsgm,truth_pod"
    # determinism of the table
    first = (out / "compare.csv").read_bytes()
    assert main(["compare", "--out", str(out)]) == 0
    assert (out / "compare.csv").read_bytes() == first


def test_compare_at_trained_node_matches_floor(workdir):
    _, _, out = workdir
    study = pipeline.load_study(out)
    rows, _ = pipeline.compare(study, targets=[0.09])
    nu, e_b, e_i, e_t, _ = rows[0]
    assert abs(e_b - e_t) < 1e-6
    assert abs(e_i - e_t) < 1e-6


def _per_time_oracle(study, truth):
    """Per-time errors of the three compare models at truth.param, each
    built without ``compare``: the floor from the POD of the truth's own
    fluctuations, as it is built at any target."""
    cfg, nu = study.cfg, truth.param
    modes = compute_pod(truth.values - study.mean[:, None], study.ip, cfg.q).modes
    model = rom.direct_project(modes, study.mean, study.ip, study.grid.gradient, nu)
    alpha0 = initial_condition(modes, study.mean, study.ip, truth.values[:, 0])
    traj = rom.integrate_rom(model, alpha0, cfg.save_every * cfg.dt,
                             cfg.steps // cfg.save_every, t0=cfg.transient * cfg.dt)
    floor = rom.factored_field(modes, study.mean, traj, param=nu)
    models = {m: pipeline.predict(study, nu, method=m, ic_mode="truth", truth=truth,
                                  lift=False)[1] for m in pipeline.METHODS}
    ref_sq = reference_sq(truth, study.ip)
    return {m: error_report(truth, approx, study.ip, ref_sq).per_time
            for m, approx in {**models, "truth_pod": floor}.items()}


def _archive_bytes(study):
    arrays = [study.mean, study.ics, study.ic_coords, *vars(study.tensors).values(),
              *study.frame, *(a for b in study.bases for a in (b.modes, b.eigenvalues))]
    return [np.asarray(a).tobytes() for a in arrays]


def _trained_compare_without_a_pod(study, nu, monkeypatch):
    truth = pipeline.load_snapshots(study.outdir, study.manifest, study.cfg, nu)
    expected = _per_time_oracle(study, truth)
    stored = _archive_bytes(study)

    def no_pod(*args, **kwargs):
        raise AssertionError("compute_pod called at a trained viscosity")

    monkeypatch.setattr(pipeline, "compute_pod", no_pod)
    _, reports = pipeline.compare(study, targets=[nu])
    assert sorted(reports[nu]) == sorted(expected)
    for method, per_time in expected.items():
        assert np.array(reports[nu][method].per_time).tobytes() == \
            np.array(per_time).tobytes(), method
    assert _archive_bytes(study) == stored


def test_compare_takes_a_trained_floor_from_the_offline_basis(workdir, monkeypatch):
    _, _, out = workdir
    _trained_compare_without_a_pod(pipeline.load_study(out), 0.07, monkeypatch)


def test_compare_takes_the_floor_from_a_q_override_offline_basis(workdir, tmp_path,
                                                                 monkeypatch):
    _, _, out = workdir
    copy = tmp_path / "q5"
    shutil.copytree(out, copy)
    pipeline.run_offline(copy, q=5)
    study = pipeline.load_study(copy)
    assert study.cfg.q == 5 and study.bases[0].modes.shape[1] == 5
    _trained_compare_without_a_pod(study, 0.11, monkeypatch)


def test_compare_computes_one_pod_per_untrained_target(workdir, monkeypatch):
    _, _, out = workdir
    study = pipeline.load_study(out)
    stored = _archive_bytes(study)
    pod, shapes = pipeline.compute_pod, []

    def counted(fluct, *args, **kwargs):
        shapes.append(np.shape(fluct))
        return pod(fluct, *args, **kwargs)

    monkeypatch.setattr(pipeline, "compute_pod", counted)
    pipeline.compare(study, targets=[0.07, 0.08, 0.11])
    assert shapes == [(64, 120 // 4 + 1)]  # 0.08 alone is untrained
    assert _archive_bytes(study) == stored


def test_compare_samples_a_long_time_study_as_its_models(tmp_path, capsys):
    # at this dt, t0 + (save_every dt) k and t0 + (save_every k) dt differ by
    # 1.8e-12 s, beyond the error report's tolerance on the instants: the
    # stored runs must be sampled as the reduced trajectories are
    x = pipeline.Grid1D(8, 2 * np.pi).x
    cfg = {"grid": {"n": 8}, "dt": 11.093, "steps": 600, "save_every": 3, "transient": 3,
           "trained_nu": [1e-5, 2e-5, 3e-5, 4e-5], "test_nu": [2.5e-5], "q": 2,
           "initial": list(1e-3 * np.sin(x) + 5e-4 * np.sin(2 * x))}
    cfg_path, out = tmp_path / "long.json", str(tmp_path / "long")
    cfg_path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(cfg_path), "--out", out]) == 0
    assert main(["offline", "--out", out]) == 0
    assert main(["compare", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    study = pipeline.load_study(out)
    truth = pipeline.load_snapshots(study.outdir, study.manifest, study.cfg, 2.5e-5)
    traj = pipeline.predict(study, 2.5e-5, ic_mode="truth", truth=truth, lift=False)[0]
    np.testing.assert_array_equal(truth.times, traj.times)


def test_offline_online_separation(workdir, tmp_path):
    # predict must succeed from offline artifacts alone
    _, cfg_path, _ = workdir
    out = tmp_path / "sep"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["offline", "--out", str(out)]) == 0
    for snap in out.glob("snap_*.mat"):
        snap.unlink()
    assert main(["predict", "--out", str(out), "--nu", "0.08",
                 "--ic", "weighted"]) == 0
    # but truth-referenced work now reports missing data
    assert main(["compare", "--out", str(out)]) == 4
    assert main(["predict", "--out", str(out), "--nu", "0.08",
                 "--ic", "truth"]) == 4


def test_default_study_dimensions():
    # stock configuration: 4 trained viscosities, 200 snapshots of 256 points
    cfg = pipeline.StudyConfig()
    assert cfg.grid_n == 256
    assert len(cfg.trained_nu) == 4
    assert cfg.steps // cfg.save_every + 1 == 200
    assert cfg.q == 7
    shipped = pipeline.load_config(
        Path(__file__).resolve().parent.parent / "configs" / "burgers.json")
    assert shipped.to_dict() == cfg.to_dict()


def test_single_trained_parameter_collapses_to_plain_rom(tmp_path):
    cfg = dict(SMALL_CONFIG, trained_nu=[0.07], test_nu=[], q=3)
    cfg_path = tmp_path / "single.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["offline", "--out", str(out)]) == 0
    arrays, meta = read_archive(out / "tensors.arc", sha256_file(out / "tensors.arc"))
    assert arrays["M"].shape == (3, 3) and arrays["C"].shape == (3, 9)
    assert np.max(np.abs(arrays["M"] - np.eye(3))) < 1e-10
    # constant interpolant: prediction works at any target
    assert main(["predict", "--out", str(out), "--nu", "0.2",
                 "--ic", "weighted"]) == 0


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "nope.json"
    assert main(["generate", "--config", str(missing), "--out",
                 str(tmp_path / "o")]) == 2
    negative = tmp_path / "neg.json"
    negative.write_text(json.dumps(dict(SMALL_CONFIG, trained_nu=[-0.1])))
    assert main(["generate", "--config", str(negative), "--out",
                 str(tmp_path / "o")]) == 2


def test_exit_code_tampered_data(workdir, tmp_path):
    _, cfg_path, _ = workdir
    out = tmp_path / "tamper"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["offline", "--out", str(out)]) == 0
    target = out / "mean.mat"
    target.write_bytes(target.read_bytes() + b"\x00")
    assert main(["predict", "--out", str(out), "--nu", "0.08",
                 "--ic", "weighted"]) == 4


def test_exit_code_numerical_failure(workdir, tmp_path):
    # an unreachable extrapolation target makes the fixed point stall
    _, cfg_path, _ = workdir
    out = tmp_path / "numfail"
    cfg = json.loads(cfg_path.read_text())
    cfg["max_iter"] = 2
    cfg["test_nu"] = []
    cfg_path2 = tmp_path / "c2.json"
    cfg_path2.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(cfg_path2), "--out", str(out)]) == 0
    assert main(["offline", "--out", str(out)]) == 0
    code = main(["predict", "--out", str(out), "--nu", "0.5", "--ic", "weighted"])
    assert code == 3
    assert main(["predict", "--out", str(out), "--nu", "0.5", "--ic", "weighted",
                 "--allow-nonconverged"]) == 0


def test_bench_command(workdir, tmp_path):
    root, cfg_path, _ = workdir
    out = tmp_path / "bench"
    cfg = json.loads(cfg_path.read_text())
    cfg["steps"] = 40
    cfg["transient"] = 10
    cfg["save_every"] = 4
    cfg["test_nu"] = []
    cfg_small = tmp_path / "bench.json"
    cfg_small.write_text(json.dumps(cfg))
    assert main(["bench", "--config", str(cfg_small), "--out", str(out),
                 "--sizes", "64,128", "--reps", "3"]) == 0
    lines = (out / "bench.csv").read_text().strip().split("\n")
    assert lines[0] == "method,nx,median_s"
    assert len(lines) == 5
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"barycentric_update", "direct_projection"}
    for line in lines[1:]:
        assert float(line.split(",")[2]) > 0


def test_bench_rebuilds_a_study_built_from_another_config(workdir, tmp_path):
    _, cfg_path, _ = workdir
    out = tmp_path / "bench"
    cfg = {**json.loads(cfg_path.read_text()), "steps": 40, "transient": 10,
           "test_nu": []}
    for steps, q in ((40, 4), (80, 2)):
        cfg_small = tmp_path / f"bench{steps}.json"
        cfg_small.write_text(json.dumps({**cfg, "steps": steps, "q": q}))
        assert main(["bench", "--config", str(cfg_small), "--out", str(out),
                     "--sizes", "64", "--reps", "2"]) == 0
        study = pipeline.load_study(out / "bench_nx64")
        assert (study.cfg.steps, study.cfg.q) == (steps, q)
        assert study.bases[0].modes.shape == (64, q)
        path = out / "bench_nx64" / "snap_nu0.05.mat"
        snaps = read_matrix(path, sha256_file(path))
        assert snaps.shape == (64, steps // 4 + 1)


def test_bench_rebuild_removes_files_of_the_stale_study(workdir, tmp_path):
    _, cfg_path, _ = workdir
    out = tmp_path / "bench"
    cfg = {**json.loads(cfg_path.read_text()), "steps": 40, "transient": 10,
           "test_nu": []}
    for trained in ([0.05, 0.07, 0.09, 0.11], [0.05, 0.08, 0.11]):
        cfg_small = tmp_path / "bench.json"
        cfg_small.write_text(json.dumps({**cfg, "trained_nu": trained}))
        assert main(["bench", "--config", str(cfg_small), "--out", str(out),
                     "--sizes", "64", "--reps", "2"]) == 0
    manifest = read_manifest(out / "bench_nx64" / "manifest.json")
    off = manifest["offline"]
    listed = {e["path"] for e in manifest["runs"]}
    listed |= {manifest["mean"]["path"], off["archive"]["path"], "manifest.json"}
    assert {p.name for p in (out / "bench_nx64").iterdir()} == listed
    assert "snap_nu0.07.mat" not in listed and "snap_nu0.08.mat" in listed


def test_bench_never_deletes_outside_its_size_directory(workdir, tmp_path):
    # a stale manifest in bench_nx16 whose entries name files outside it: a
    # relative path up, an absolute path and the parent directory itself
    _, cfg_path, _ = workdir
    out = tmp_path / "bench"
    size_dir = out / "bench_nx16"
    size_dir.mkdir(parents=True)
    victim, outside = out / "victim.txt", tmp_path / "outside.txt"
    for path in (victim, outside, size_dir / "stale.mat"):
        path.write_text("keep")
    entries = [{"path": name, "sha256": "0" * 64}
               for name in ("../victim.txt", str(outside), "..", "stale.mat")]
    write_manifest(size_dir / "manifest.json",
                   {"config": {}, "runs": entries, "mean": entries[0],
                    "offline": {"pod": entries[1:], "ics": entries[:1], "archive": entries[2]}})
    cfg_small = tmp_path / "bench.json"
    cfg_small.write_text(json.dumps({**json.loads(cfg_path.read_text()), "steps": 40,
                                     "transient": 10, "test_nu": []}))
    assert main(["bench", "--config", str(cfg_small), "--out", str(out),
                 "--sizes", "16", "--reps", "2"]) == 0
    assert victim.read_text() == "keep" and outside.read_text() == "keep"
    assert not (size_dir / "stale.mat").exists()  # the one entry inside is removed
    assert pipeline.load_study(size_dir).grid.n == 16


@pytest.mark.parametrize("nu", ["nan", "-0.05"])
def test_bench_checks_viscosity_before_building(workdir, tmp_path, nu):
    _, cfg_path, _ = workdir
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg_path), "--out", str(out),
                 "--sizes", "64", "--nu", nu]) == 2
    assert not (out / "bench_nx64").exists()


def test_viscosities_equal_to_six_digits_get_their_own_files(tmp_path):
    cfg_path = tmp_path / "close.json"
    cfg_path.write_text(json.dumps({**SMALL_CONFIG, "trained_nu": [0.05, 0.05000001, 0.09],
                                    "test_nu": []}))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["offline", "--out", str(out)]) == 0
    assert main(["predict", "--out", str(out), "--nu", "0.05000001"]) == 0
    paths = [r["path"] for r in read_manifest(out / "manifest.json")["runs"]]
    assert paths == ["snap_nu0.05.mat", "snap_nu0.05000001.mat", "snap_nu0.09.mat"]
    assert (out / "predict_nu0.05000001_barycentric" / "trajectory.csv").exists()


@pytest.mark.parametrize("error", NumericalError.__subclasses__(), ids=lambda e: e.__name__)
def test_every_numerical_error_exits_3_with_one_line(workdir, monkeypatch, capsys, error):
    _, _, out = workdir

    def fail(outdir):
        raise error("stand-in failure")

    monkeypatch.setattr(pipeline, "load_study", fail)
    assert main(["predict", "--out", str(out), "--nu", "0.08"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["numerical failure: stand-in failure"]


def test_far_extrapolation_is_a_numerical_failure(workdir):
    # Lagrange weights at nu=3.0 sum to 1 only to ~1e-12 absolute (sum |w| ~ 4e4)
    _, _, out = workdir
    assert main(["predict", "--out", str(out), "--nu", "3.0"]) == 3


@pytest.mark.parametrize("nu", ["0", "-0.05"])
def test_nonpositive_viscosity_is_a_config_error(workdir, nu):
    _, _, out = workdir
    assert main(["predict", "--out", str(out), "--nu", nu,
                 "--allow-nonconverged"]) == 2


@pytest.mark.parametrize("argv", [
    ["predict", "--nu", "0.08", "--q", "3"],
    ["compare", "--tol", "1e-8"],
    ["offline", "--method", "itsgm"],
    ["generate", "--config", "c.json", "--seed", "1"],
    ["predict", "--nu", "0.08", "--jobs", "2"],
    # bench takes q from its --config file, the key of its cached studies
    ["bench", "--config", "c.json", "--q", "2"],
])
def test_flag_a_command_does_not_honour_is_a_usage_error(argv, capsys):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"unrecognized arguments: {argv[-2]}" in err[0]


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, baryrom.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {m[0]: set(m[1].split())
                  for m in re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", readme, re.M)}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {flag for action in p._actions for flag in action.option_strings
                     if flag not in ("-h", "--help")}
              for name, p in sub.choices.items()}
    assert documented == parsed


MALFORMED_INPUT = [  # (argv, config overrides); "{out}" is a copy of the study
    (["compare", "--out", "{out}", "--targets", "abc"], {}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", "abc"], {}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", "4"], {}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", "64", "--reps", "0"], {}),
    (["offline", "--out", "{out}", "--q", "0"], {}),
    (["offline", "--out", "{out}", "--q", "99"], {}),
    (["generate", "--config", "{cfg}", "--out", "{out}", "--jobs", "-3"], {}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"initial": "foo"}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"steps": 3}),  # 1 snapshot < q
    (["predict", "--out", "{out}", "--nu", "0.08", "--neighbors", "0"], {}),
    (["predict", "--out", "{out}", "--nu", "0.08", "--neighbors", "-2"], {}),
    (["compare", "--out", "{out}", "--neighbors", "0"], {}),
    (["predict", "--out", "{out}", "--nu", "0.08", "--tol=-1e-10"], {}),
    (["predict", "--out", "{out}", "--nu", "0.08", "--tol", "nan"], {}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"weights": {"neighbors": 0}}),
    # a section that is not a JSON object
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"weights": [3]}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"grid": 64}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"max_iter": 0}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"tol": -1e-10}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"tol": float("nan")}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", "64", "--nu", "nan"], {}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", "64", "--nu", "inf"], {}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", "64", "--nu", "1e300"], {}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", "64", "--nu=-0.05"], {}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", ","], {}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", "64"],
     {"trained_nu": [], "test_nu": []}),
    (["compare", "--out", "{out}", "--targets", "nan"], {}),
    (["compare", "--out", "{out}", "--targets=-0.06"], {}),
    (["predict", "--out", "{out}", "--nu", "1e200"], {}),
    (["compare", "--out", "{out}", "--targets", ","], {}),
    (["compare", "--out", "{out}", "--targets", ""], {}),
    (["compare", "--out", "{out}", "--targets", "0.08,0.08"], {}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"test_nu": [0.08, 0.08]}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"trained_nus": [0.2]}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"grid": {"n": 64, "nx": 512}}),
    # a count takes an integral number; no key takes a boolean or a string for a number
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"q": 7.9}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"q": True}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"dt": True}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"max_iter": 1.5}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"save_every": "5"}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"test_nu": [True]}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"trained_nu": ["0.05"]}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"grid": {"n": 64.5}}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"steps": 120.5}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"transient": False}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"weights": {"neighbors": 2.5}}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"weights": {"neighbors": "3"}}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"tol": "1e-10"}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"grid": {"length": True}}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"initial": [True] * 64}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"initial": ["1.0"] * 64}),
    # a cell size whose square underflows or overflows, or whose nu dt / dx^2 overflows
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"grid": {"n": 64, "length": 1e-200}}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"grid": {"n": 64, "length": 1e160}}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"grid": {"n": 256, "length": 1e-158}}),
]


@pytest.mark.parametrize("argv, config", MALFORMED_INPUT)
def test_malformed_input_exits_2_with_one_line(workdir, tmp_path, capsys, argv, config):
    _, _, out = workdir
    study = tmp_path / "study"
    shutil.copytree(out, study)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**SMALL_CONFIG, **config}))
    argv = [a.format(out=study, cfg=cfg_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def _manifest_text(text):
    def corrupt(study):
        (study / "manifest.json").write_text(text)
    return corrupt


def _edit_manifest(edit):
    """A corruption applying ``edit(manifest, study)`` to the stored manifest."""
    def corrupt(study):
        manifest = read_manifest(study / "manifest.json")
        edit(manifest, study)
        write_manifest(study / "manifest.json", manifest)
    return corrupt


def _edit_archive(edit):
    """A corruption applying ``edit(arrays)`` to the archive, with the
    manifest hash kept in step."""
    def update(manifest, study):
        arrays, meta = read_archive(study / "tensors.arc",
                                    manifest["offline"]["archive"]["sha256"])
        edit(arrays)
        manifest["offline"]["archive"]["sha256"] = write_archive(
            study / "tensors.arc", arrays, meta)
    return _edit_manifest(update)


def _outside(entry_of, absolute):
    """Point a file entry at a valid copy of its file in a sibling directory."""
    def point(manifest, study):
        entry = entry_of(manifest)
        sibling = study.parent / "sibling"
        sibling.mkdir()
        shutil.copy(study / entry["path"], sibling)
        entry["path"] = (str(sibling / entry["path"]) if absolute
                         else f"../sibling/{entry['path']}")
    return _edit_manifest(point)


def _short_mean(manifest, study):
    path = study / "mean.mat"
    mean = read_matrix(path, manifest["mean"]["sha256"])
    manifest["mean"]["sha256"] = write_matrix(path, mean[1:])


def _rewritten_run(index, edit):
    """A corruption storing ``edit(values)`` as run ``index`` of the
    manifest, with its hash kept in step."""
    def rewrite(manifest, study):
        entry = manifest["runs"][index]
        path = study / entry["path"]
        entry["sha256"] = write_matrix(path, edit(read_matrix(path, entry["sha256"])))
    return _edit_manifest(rewrite)


def _moved_t0(manifest, study):
    manifest["runs"][-1]["t0"] += manifest["config"]["dt"]


def _block_layout(arrays):
    """The archive as it was stored before the stacked layout: M, R and
    Cbar as (Np, Np, q, q) blocks [h, k, i, j], C indexed [h, k, n, s, i, j]."""
    np_, q = arrays["F_diff"].shape
    for name in ("M", "R", "Cbar"):
        arrays[name] = arrays[name].reshape(np_, q, np_, q).transpose(0, 2, 1, 3)
    arrays["C"] = arrays["C"].reshape((np_, q) * 3).transpose(2, 4, 0, 1, 3, 5)


def _pre_archive_layout(manifest, study):
    """The layout of a study whose offline ran before the bases, spectra and
    initial states joined the archive: a matrix file for each basis and
    initial state, listed in the offline section, beside a tensor archive."""
    off = manifest["offline"]
    arrays, meta = read_archive(study / "tensors.arc", off["archive"]["sha256"])
    off["pod"], off["ics"] = [], []
    for nu, basis, spectrum, ic in zip(manifest["config"]["trained_nu"], arrays.pop("bases"),
                                       arrays.pop("eigenvalues"), arrays.pop("ics")):
        off["pod"].append({"path": f"pod_nu{nu:g}.mat", "nu": nu,
                           "sha256": write_matrix(study / f"pod_nu{nu:g}.mat", basis),
                           "eigenvalues": spectrum.tolist()})
        off["ics"].append({"path": f"ic_nu{nu:g}.mat", "nu": nu,
                           "sha256": write_matrix(study / f"ic_nu{nu:g}.mat", ic)})
    off["archive"]["sha256"] = write_archive(study / "tensors.arc", arrays, meta)


def _stale_bench(edit):
    """A bench directory that holds the copy, after ``edit(manifest)``, as
    its nx=64 study: stale, since it was built from another config."""
    def corrupt(study):
        _edit_manifest(lambda m, s: edit(m))(study)
        stale = study.parent / "bench_nx64"
        study.rename(stale)
        study.mkdir()
        stale.rename(study / "bench_nx64")
    return corrupt


CORRUPT_STUDY = [  # (id, command, corruption of a copy of the study)
    ("truncated-json", "offline", _manifest_text('{"runs": [')),
    ("truncated-json", "predict", _manifest_text('{"runs": [')),
    ("json-list", "offline", _manifest_text("[1, 2]")),
    ("json-string", "compare", _manifest_text('"offline"')),
    ("run-without-path", "offline", _edit_manifest(lambda m, s: m["runs"][0].pop("path"))),
    ("run-without-hash", "offline", _edit_manifest(lambda m, s: m["runs"][0].pop("sha256"))),
    ("run-outside", "compare", _outside(lambda m: m["runs"][-1], absolute=False)),
    ("archive-without-bases", "predict", _edit_archive(lambda a: a.pop("bases"))),
    ("archive-ics-shape", "predict", _edit_archive(lambda a: a.update(ics=a["ics"][:, :-1]))),
    ("archive-eigenvalues-shape", "predict",
     _edit_archive(lambda a: a.update(eigenvalues=a["eigenvalues"][:-1]))),
    ("pre-archive-layout", "predict", _edit_manifest(_pre_archive_layout)),
    ("mean-in-sibling", "predict", _outside(lambda m: m["mean"], absolute=False)),
    ("mean-absolute", "predict", _outside(lambda m: m["mean"], absolute=True)),
    ("mean-short", "predict", _edit_manifest(_short_mean)),
    ("archive-without-F_conv", "predict", _edit_archive(lambda a: a.pop("F_conv"))),
    ("archive-C-shape", "predict", _edit_archive(lambda a: a.update(C=a["C"][..., :-1]))),
    ("archive-M-shape", "predict", _edit_archive(lambda a: a.update(M=a["M"][:-1, :-1]))),
    ("archive-block-layout", "predict", _edit_archive(_block_layout)),
    ("empty-object", "offline", _manifest_text("{}")),
    ("run-without-role", "offline", _edit_manifest(lambda m, s: m["runs"][0].pop("role"))),
    ("run-without-t0", "compare", _edit_manifest(lambda m, s: m["runs"][-1].pop("t0"))),
    ("offline-without-archive", "predict",
     _edit_manifest(lambda m, s: m["offline"].pop("archive"))),
    ("trained-run-short", "offline", _rewritten_run(0, lambda v: v[1:])),
    ("test-run-short", "compare", _rewritten_run(-1, lambda v: v[1:])),
    ("test-run-short", "predict-truth", _rewritten_run(-1, lambda v: v[1:])),
    ("test-run-short", "predict-itsgm-truth", _rewritten_run(-1, lambda v: v[1:])),
    ("test-run-column-short", "compare", _rewritten_run(-1, lambda v: v[:, :-1])),
    ("test-run-t0-moved", "compare", _edit_manifest(_moved_t0)),
    ("config-list", "offline", _edit_manifest(lambda m, s: m.update(config=[1]))),
    ("runs-number", "compare", _edit_manifest(lambda m, s: m.update(runs=5))),
    ("t0-string", "offline", _edit_manifest(lambda m, s: m["runs"][0].update(t0="x"))),
    ("mean-entry-missing", "offline", _edit_manifest(lambda m, s: m.pop("mean"))),
    ("mean-entry-missing", "compare", _edit_manifest(lambda m, s: m.pop("mean"))),
    ("stale-runs-number", "bench", _stale_bench(lambda m: m.update(runs=5))),
]
COMMANDS = {"offline": ["offline"], "predict": ["predict", "--nu", "0.08"],
            "predict-truth": ["predict", "--nu", "0.08", "--ic", "truth"],
            "predict-itsgm-truth": ["predict", "--nu", "0.08", "--ic", "truth",
                                    "--method", "itsgm"],
            "compare": ["compare"],
            "bench": ["bench", "--config", str(Path(__file__).resolve().parent.parent
                                               / "configs" / "burgers.json"),
                      "--sizes", "64", "--reps", "1"]}


@pytest.mark.parametrize("command, corrupt", [pytest.param(*case[1:], id=f"{case[1]}-{case[0]}")
                                              for case in CORRUPT_STUDY])
def test_corrupt_study_exits_4_with_one_line(workdir, tmp_path, capsys, command, corrupt):
    _, _, out = workdir
    study = tmp_path / "study"
    shutil.copytree(out, study)
    corrupt(study)
    capsys.readouterr()
    assert main([*COMMANDS[command], "--out", str(study)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("data error:")


def test_bench_rebuilds_a_stale_study_whatever_its_offline_section(workdir, tmp_path):
    # of a study built from another config, bench reads only the runs
    _, _, out = workdir
    study = tmp_path / "study"
    shutil.copytree(out, study)
    _stale_bench(lambda m: m.update(offline=[1]))(study)
    assert main([*COMMANDS["bench"], "--out", str(study)]) == 0
    cfg = pipeline.load_config(COMMANDS["bench"][2]).replace(grid_n=64)
    assert pipeline.load_study(study / "bench_nx64").cfg == cfg


def _predict_calls(monkeypatch):
    """The list that each later call to pipeline.predict appends its arguments to."""
    calls, predict = [], pipeline.predict
    monkeypatch.setattr(pipeline, "predict",
                        lambda *args, **kwargs: calls.append(args) or predict(*args, **kwargs))
    return calls


def test_compare_on_a_run_with_a_zero_norm_instant_exits_3(workdir, tmp_path, capsys,
                                                           monkeypatch):
    # the zero-norm truth is found as soon as it is read, before any model is built
    _, _, out = workdir
    study = tmp_path / "study"
    shutil.copytree(out, study)
    (study / "compare.csv").unlink(missing_ok=True)
    _rewritten_run(-1, lambda v: np.where(np.arange(v.shape[1]) == 3, 0.0, v))(study)
    predicts = _predict_calls(monkeypatch)
    capsys.readouterr()
    assert main(["compare", "--out", str(study)]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["numerical failure: reference field has zero norm at some "
                                "instant"]
    assert not (study / "compare.csv").exists()
    assert predicts == []


def test_compare_finds_a_missing_target_run_before_it_scores_any_target(workdir, capsys,
                                                                       monkeypatch):
    _, _, out = workdir
    predicts = _predict_calls(monkeypatch)
    capsys.readouterr()
    assert main(["compare", "--targets", "0.08,0.5", "--out", str(out)]) == 4
    assert capsys.readouterr().err.splitlines() == ["data error: no stored run for nu=0.5"]
    assert predicts == []


def _offline_mean_layout(manifest, study):
    """The layout of a study whose mean entry lives in its offline section."""
    manifest["offline"]["mean"] = manifest.pop("mean")


@pytest.mark.parametrize("command", ["compare", "offline", "predict"])
def test_study_with_an_offline_mean_entry_names_generate(workdir, tmp_path, capsys,
                                                         command):
    _, _, out = workdir
    study = tmp_path / "study"
    shutil.copytree(out, study)
    _edit_manifest(_offline_mean_layout)(study)
    capsys.readouterr()
    assert main([*COMMANDS[command], "--out", str(study)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "generate" in err


@pytest.mark.parametrize("command", ["compare", "predict"])
def test_study_with_a_block_layout_archive_names_offline(workdir, tmp_path, capsys,
                                                         command):
    _, _, out = workdir
    study = tmp_path / "study"
    shutil.copytree(out, study)
    _edit_archive(_block_layout)(study)
    capsys.readouterr()
    assert main([*COMMANDS[command], "--out", str(study)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "run offline again" in err


@pytest.mark.parametrize("command", ["compare", "predict", "bench"])
def test_study_from_before_the_one_archive_names_offline_until_it_runs(workdir, tmp_path,
                                                                     capsys, command):
    _, cfg_path, out = workdir
    study = tmp_path / "bench" / "bench_nx64"  # where bench caches the nx=64 study
    shutil.copytree(out, study)
    _edit_manifest(_pre_archive_layout)(study)
    argv = ([*COMMANDS[command], "--out", str(study)] if command != "bench" else
            ["bench", "--config", str(cfg_path), "--out", str(study.parent), "--sizes", "64",
             "--reps", "1"])
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "run offline again" in err
    assert main(["offline", "--out", str(study)]) == 0
    assert list(read_manifest(study / "manifest.json")["offline"]) == ["archive"]
    assert main(argv) == 0


def test_offline_deletes_no_file_its_old_offline_section_names(workdir, tmp_path):
    # an offline section pointing at a stored run and listing the mean: offline
    # writes its own archive and every run and the mean stay as generate wrote them
    _, _, out = workdir
    study = tmp_path / "study"
    shutil.copytree(out, study)

    def point_at_the_data(manifest, study):
        manifest["offline"]["archive"] = dict(manifest["runs"][0])
        manifest["offline"]["pod"] = [dict(manifest["mean"])]

    _edit_manifest(point_at_the_data)(study)
    assert main(["offline", "--out", str(study)]) == 0
    manifest = read_manifest(study / "manifest.json")
    for entry in [*manifest["runs"], manifest["mean"]]:
        assert sha256_file(study / entry["path"]) == entry["sha256"]
    nu = manifest["runs"][0]["nu"]
    assert main(["compare", "--out", str(study), "--targets", str(nu)]) == 0


def test_non_finite_weights_exit_2_with_one_line(workdir, capsys):
    # Lagrange weights far outside the trained range overflow to +-inf
    _, _, out = workdir
    capsys.readouterr()
    assert main(["predict", "--out", str(out), "--nu", "1e200"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: interpolation weights at viscosity 1e+200 are not finite "
        "(trained range [0.05, 0.11])"]
    assert not (out / "predict_nu1e+200_barycentric").exists()


@pytest.mark.parametrize("key, value", [("kind", "lagrange"), ("power", 2.0)])
def test_a_retired_weights_key_exits_2_naming_it(workdir, tmp_path, capsys, key, value):
    # one weight rule is left, so a config file or a stored manifest that
    # still names a key of the retired schemes is refused, not read and ignored
    _, _, out = workdir
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**SMALL_CONFIG, "weights": {key: value, "neighbors": 3}}))
    study = tmp_path / "study"
    shutil.copytree(out, study)
    _edit_manifest(lambda m, s: m["config"]["weights"].update({key: value}))(study)
    for argv in (["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")],
                 ["predict", "--out", str(study), "--nu", "0.08"]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: unknown config keys: 'weights.{key}'"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["predict", "--nu", "0.08"], ["compare"]])
def test_the_weights_flag_is_a_usage_error(workdir, capsys, command):
    _, _, out = workdir
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*command, "--out", str(out), "--weights", "lagrange"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "unrecognized arguments: --weights lagrange" in err[0]


@pytest.mark.parametrize("field, step, message", [("steps", 4, "has shape"),
                                                  ("grid_n", 8, "has shape"),
                                                  ("transient", 1, "starts at t0=")])
def test_load_snapshots_checks_a_run_against_the_config_it_is_given(workdir, field, step,
                                                                   message):
    _, _, out = workdir
    study = pipeline.load_study(out)
    cfg = study.cfg.replace(**{field: getattr(study.cfg, field) + step})
    with pytest.raises(pipeline.DataIntegrityError, match=rf"^run nu=0\.08 {message}"):
        pipeline.load_snapshots(out, study.manifest, cfg, 0.08)


def _older_run_fields(manifest, study):
    """Run entries as older versions wrote them, with the unhashed and
    unread ``n_snapshots`` and ``save_dt`` fields."""
    config = manifest["config"]
    for entry in manifest["runs"]:
        entry["n_snapshots"] = read_matrix(study / entry["path"], entry["sha256"]).shape[1]
        entry["save_dt"] = config["save_every"] * config["dt"]


def _written_outputs(study):
    """Every file under study but the manifest, a report without its timings."""
    files = {}
    for p in sorted(study.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            doc = json.loads(p.read_text()) if p.name == "report.json" else None
            files[p.relative_to(study).as_posix()] = (
                p.read_bytes() if doc is None else {k: v for k, v in doc.items()
                                                    if k != "timings"})
    return files


def test_run_entries_with_fields_older_versions_wrote_give_the_same_outputs(workdir,
                                                                             tmp_path):
    _, _, out = workdir
    assert not any({"n_snapshots", "save_dt"} & set(entry)
                   for entry in read_manifest(out / "manifest.json")["runs"])
    outputs = []
    for edit in (None, _older_run_fields):
        study = tmp_path / ("older" if edit else "fresh")
        shutil.copytree(out, study)
        if edit:
            _edit_manifest(edit)(study)
        for argv in (["compare"], ["predict", "--nu", "0.08", "--ic", "truth"]):
            assert main([*argv, "--out", str(study)]) == 0
        outputs.append(_written_outputs(study))
    assert "compare.csv" in outputs[0]
    assert "predict_nu0.08_barycentric_truth/lift.mat" in outputs[0]
    assert outputs[0] == outputs[1]


def _file_at(path):
    """``path`` made a plain file, whatever was there."""
    shutil.rmtree(path, ignore_errors=True)
    path.write_text("not a directory\n")
    return path


def _directory_at(path):
    """``path`` made an empty directory, whatever was there."""
    if path.is_file():
        path.unlink()
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path


# (id, argv before --out with None standing for the config, the maker of the
# blocking file or directory, and its name in the study copy, or None when the
# blocked path is --out itself)
UNWRITABLE = [
    ("generate-out-is-a-file", ["generate", "--config", None], _file_at, None),
    ("offline-archive-is-a-directory", ["offline"], _directory_at, "tensors.arc"),
    ("compare-csv-is-a-directory", ["compare"], _directory_at, "compare.csv"),
    ("predict-directory-is-a-file", ["predict", "--nu", "0.08"], _file_at,
     "predict_nu0.08_barycentric"),
    ("bench-out-is-a-file", ["bench", "--config", None, "--sizes", "64", "--reps", "1"],
     _file_at, None),
]


@pytest.mark.parametrize("argv, block, name", [pytest.param(*case[1:], id=case[0])
                                               for case in UNWRITABLE])
def test_an_output_that_cannot_be_written_exits_4_with_one_line(workdir, tmp_path, capsys,
                                                                monkeypatch, argv, block, name):
    _, cfg_path, out = workdir
    study = tmp_path / "study"
    shutil.copytree(out, study)
    blocked = block(study / name if name else tmp_path / "taken")
    predicts = _predict_calls(monkeypatch)
    capsys.readouterr()
    argv = [str(cfg_path) if a is None else a for a in argv]
    assert main([*argv, "--out", str(study if name else blocked)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("data error: cannot write ")
    assert str(blocked) in err and "Traceback" not in err
    if argv[0] in ("predict", "compare"):  # the blocked output is found before any model
        assert predicts == []


def _tree(root):
    """Each path under root with its size and modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in Path(root).rglob("*")}


def _generated_only(tmp_path):
    """A study directory that generate wrote and offline has not."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    return tmp_path / "o"


def _json_array_config(tmp_path):
    (tmp_path / "config.json").write_text("[1, 2]")
    return tmp_path / "o"


def _directory_config(tmp_path):
    (tmp_path / "config.json").mkdir()
    return tmp_path / "o"


def _undecodable_config(tmp_path):
    (tmp_path / "config.json").write_bytes(b"\xff{}")
    return tmp_path / "o"


FAILURE_PATHS = [  # (id, study maker or None for the default study, argv, exit code)
    ("predict-before-offline", _generated_only, ["predict", "--nu", "0.08"], 4),
    ("offline-without-manifest", lambda tmp_path: tmp_path, ["offline"], 4),
    ("config-json-array", _json_array_config, ["generate", "--config", "{cfg}"], 2),
    ("config-missing", lambda tmp_path: tmp_path / "o", ["generate", "--config", "{cfg}"], 2),
    ("config-is-a-directory", _directory_config, ["generate", "--config", "{cfg}"], 2),
    ("config-not-utf8", _undecodable_config, ["generate", "--config", "{cfg}"], 2),
    ("predict-truth-without-run", None, ["predict", "--ic", "truth", "--nu", "0.083"], 4),
    ("compare-without-run", None, ["compare", "--targets", "0.083"], 4),
]


@pytest.mark.parametrize("make, argv, code",
                         [pytest.param(*case[1:], id=case[0]) for case in FAILURE_PATHS])
def test_failure_exits_with_one_line_and_writes_nothing(study, tmp_path, capsys, make,
                                                        argv, code):
    out = study.outdir if make is None else make(tmp_path)
    before = _tree(tmp_path), _tree(out)
    capsys.readouterr()
    argv = [a.format(cfg=tmp_path / "config.json") for a in argv]
    assert main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert (_tree(tmp_path), _tree(out)) == before


def test_bench_on_a_study_with_an_offline_mean_entry_names_generate(workdir, tmp_path,
                                                                  capsys):
    _, cfg_path, _ = workdir
    out = tmp_path / "bench"
    cfg_small = tmp_path / "bench.json"
    cfg_small.write_text(json.dumps({**json.loads(cfg_path.read_text()), "steps": 40,
                                     "transient": 10, "test_nu": []}))
    argv = ["bench", "--config", str(cfg_small), "--out", str(out), "--sizes", "64",
            "--reps", "2"]
    assert main(argv) == 0
    study = out / "bench_nx64"
    _edit_manifest(_offline_mean_layout)(study)
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "generate" in err


NU_EDGES = [0.0, -0.0, -0.05, -np.inf, np.inf, np.nan, 1e300, -1e300, 5e-324,
            0.05, 0.08, 0.11, 3.0, 1e60, 1e70, 1e75, 1e100]


def with_edge_examples(test):
    """Always run every edge viscosity, with and without --allow-nonconverged."""
    for nu in NU_EDGES:
        for allow in (False, True):
            test = example(nu=nu, allow_nonconverged=allow)(test)
    return test


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@with_edge_examples
@given(nu=st.one_of(st.floats(0.05, 0.11), st.floats(allow_nan=True, allow_infinity=True)),
       allow_nonconverged=st.booleans())
def test_predict_exit_code_is_documented_for_any_viscosity(workdir, nu,
                                                          allow_nonconverged):
    _, _, out = workdir
    argv = ["predict", "--out", str(out), f"--nu={nu!r}"]  # "=": "-1e-05" is no flag
    if allow_nonconverged:
        argv.append("--allow-nonconverged")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) in {0, 2, 3, 4}
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ------------------------------------------------ the q-sized online path

def test_predict_reports_barycenter_health_at_a_trained_node(workdir):
    _, _, out = workdir
    assert main(["predict", "--out", str(out), "--nu", "0.07"]) == 0
    report = json.loads((out / "predict_nu0.07_barycentric" / "report.json").read_text())
    health = report["barycenter"]
    assert health["iterations"] == 1
    assert health["gradient_norms"] == [pytest.approx(0.0, abs=1e-10)]
    assert health["min_overlap_ratio"] == pytest.approx(1.0, abs=1e-10)


def assert_same_representative(oracle, fast, modes, frame):
    """The mesh and Gram-coordinate representatives have the same inner
    products with every trained basis, so they are the same barycenter."""
    want = np.hstack(modes).T @ oracle.representative
    got = np.hstack(frame).T @ fast.representative
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("nu", [0.06, 0.08, 0.1, 0.045, 0.12])
def test_study_barycenter_matches_karcher_oracle(workdir, nu):
    _, _, out = workdir
    study = pipeline.load_study(out)
    modes = [b.modes for b in study.bases]
    w = pipeline.study_weights(study, nu)
    init = pipeline.nearest_index(study.params, nu)
    oracle = karcher_barycenter(modes, w.values, tol=1e-12, init=init)
    fast = karcher_barycenter(study.frame, w.values, tol=1e-12, init=init)
    assert fast.iterations == oracle.iterations
    for a, b in zip(oracle.rotations, fast.rotations):
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-10)
    assert_same_representative(oracle, fast, modes, study.frame)


def test_study_barycenter_far_extrapolation_matches_oracle_sweep_by_sweep(workdir):
    _, _, out = workdir
    study = pipeline.load_study(out)
    modes = [b.modes for b in study.bases]
    w = pipeline.study_weights(study, 0.5)
    for sweeps in (1, 3):
        results = []
        for bases in (modes, study.frame):
            with pytest.raises(NotConvergedError) as info:
                karcher_barycenter(bases, w.values, tol=0.0, max_iter=sweeps, init=3)
            results.append(info.value.result)
        oracle, fast = results
        for a, b in zip(oracle.rotations, fast.rotations):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-10)
        assert_same_representative(oracle, fast, modes, study.frame)
        assert fast.final_gradient_norm == pytest.approx(oracle.final_gradient_norm,
                                                         rel=1e-10)


@pytest.mark.parametrize("ic_mode", pipeline.IC_MODES)
def test_predict_initial_state_matches_projection_oracle(workdir, ic_mode):
    _, _, out = workdir
    study = pipeline.load_study(out)
    for nu in (0.08, 0.07) if ic_mode == "truth" else (0.08, 0.06, 0.115):  # stored runs
        traj, _, _ = pipeline.predict(study, nu, ic_mode=ic_mode)
        w = pipeline.study_weights(study, nu)
        bary = karcher_barycenter([b.modes for b in study.bases], w.values,
                                  init=pipeline.nearest_index(study.params, nu))
        basis = combined_basis([b.modes for b in study.bases], w, bary.rotations)
        u0 = (pipeline.load_snapshots(out, study.manifest, study.cfg, nu).values[:, 0]
              if ic_mode == "truth" else sum(wk * ic for wk, ic in zip(w.values, study.ics)))
        oracle = initial_condition(basis, study.mean, study.ip, u0)
        assert np.linalg.norm(traj.alphas[0] - oracle) <= 1e-10 * np.linalg.norm(oracle)


@pytest.mark.parametrize("ic_mode", pipeline.IC_MODES)
def test_predict_starts_at_the_stored_runs_start_time(workdir, ic_mode):
    _, _, out = workdir
    study = pipeline.load_study(out)
    t0 = study.manifest["runs"][0]["t0"]
    for method in pipeline.METHODS:
        assert pipeline.predict(study, 0.08, method=method, ic_mode=ic_mode)[0].times[0] == t0
    if ic_mode == "weighted":  # needs no stored run
        study.manifest["runs"] = []
        assert pipeline.predict(study, 0.08, ic_mode=ic_mode)[0].times[0] == t0


class _Untouchable:
    """Stands in for a mesh-sized array; any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"predict touched a mesh-sized array ({name})")

    def __array__(self, *args, **kwargs):
        raise AssertionError("predict touched a mesh-sized array")

    def __getitem__(self, key):
        raise AssertionError("predict touched a mesh-sized array")

    def __iter__(self):
        raise AssertionError("predict touched a mesh-sized array")


class _Reached(Exception):
    pass


def test_predict_reaches_the_reduced_solve_without_mesh_sized_arrays(workdir, monkeypatch):
    _, _, out = workdir
    study = pipeline.load_study(out)
    meshless = dataclasses.replace(
        study, mean=_Untouchable(), ics=_Untouchable(),
        bases=[dataclasses.replace(b, modes=_Untouchable()) for b in study.bases])

    def sentinel(model, alpha0, *args, **kwargs):
        assert np.asarray(alpha0).shape == (study.cfg.q,)
        raise _Reached

    monkeypatch.setattr(pipeline, "integrate_rom", sentinel)
    for nu in (0.08, 0.05, 0.12):
        with pytest.raises(_Reached):
            pipeline.predict(meshless, nu)


def test_predictions_and_the_floor_march_at_the_sampling_interval(workdir, monkeypatch):
    # predict, either method from either initial state, and the truth-POD
    # floor take steps // save_every RK4 steps of h = save_every dt and
    # record every state; the report names that step and the trajectory's
    # mass condition
    _, _, out = workdir
    study = pipeline.load_study(out)
    cfg = study.cfg
    integrate, calls = pipeline.integrate_rom, []

    def sentinel(model, alpha0, dt, steps, t0=0.0):
        calls.append((dt, steps, t0))
        return integrate(model, alpha0, dt, steps, t0=t0)

    monkeypatch.setattr(pipeline, "integrate_rom", sentinel)
    truth = pipeline.load_snapshots(out, study.manifest, study.cfg, 0.08)
    for method in pipeline.METHODS:
        for ic_mode in pipeline.IC_MODES:
            traj, _, report = pipeline.predict(study, 0.08, method=method, ic_mode=ic_mode,
                                               truth=truth, lift=False)
            assert (report["reduced_step"], report["reduced_steps"]) == (4 * 1e-3, 30)
            assert report["mass_condition"] == traj.mass_condition
            np.testing.assert_array_equal(traj.times, truth.times)
    pipeline.truth_pod_baseline(study, truth)
    assert calls == [(cfg.save_every * cfg.dt, cfg.steps // cfg.save_every,
                      cfg.transient * cfg.dt)] * 5


def test_compare_reads_each_truth_run_once(workdir, monkeypatch):
    _, _, out = workdir
    study = pipeline.load_study(out)
    reads = []
    load = pipeline.load_snapshots

    def counted(*args, **kwargs):
        reads.append(args[3])
        return load(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_snapshots", counted)
    pipeline.compare(study, targets=[0.08, 0.09])
    assert reads == [0.08, 0.09]
    truth = load(out, study.manifest, study.cfg, 0.08)
    reads.clear()
    for method in pipeline.METHODS:
        given = pipeline.predict(study, 0.08, method=method, ic_mode="truth", truth=truth)
        assert reads == []
        read = pipeline.predict(study, 0.08, method=method, ic_mode="truth")
        assert reads == [0.08]
        reads.clear()
        np.testing.assert_array_equal(given[0].alphas, read[0].alphas)


@pytest.mark.parametrize("jobs", [1, 3])
def test_fan_out_runs_in_the_calling_thread_only_for_one_job(workdir, tmp_path,
                                                             monkeypatch, jobs):
    import threading

    _, cfg_path, _ = workdir
    threads = set()
    batch, pod = pipeline.run_batch, pipeline.compute_pod

    def record(fn):
        def call(*args, **kwargs):
            threads.add(threading.get_ident())
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(pipeline, "run_batch", record(batch))
    monkeypatch.setattr(pipeline, "compute_pod", record(pod))
    out = tmp_path / "o"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out),
                 "--jobs", str(jobs)]) == 0
    assert main(["offline", "--out", str(out), "--jobs", str(jobs)]) == 0
    assert (threads == {threading.get_ident()}) == (jobs == 1)


def test_compare_rejects_repeated_targets_before_reading_a_run(workdir, monkeypatch,
                                                               capsys):
    _, _, out = workdir
    reads = []
    monkeypatch.setattr(pipeline, "load_snapshots", lambda *a, **k: reads.append(a))
    assert main(["compare", "--out", str(out), "--targets", "0.08,0.09,0.08"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "distinct" in err
    assert reads == []


SEVEN_NU = {**SMALL_CONFIG, "trained_nu": [0.05, 0.07, 0.09, 0.11],
            "test_nu": [0.06, 0.08, 0.1]}


def _generate_in_chunks(tmp_path, monkeypatch, name, members, jobs):
    """generate SEVEN_NU with a byte budget of ``members`` runs per chunk;
    returns the output directory and the chunk sizes run_batch saw."""
    run_bytes = 8 * SEVEN_NU["grid"]["n"] * (SEVEN_NU["steps"] // SEVEN_NU["save_every"] + 1)
    monkeypatch.setattr(pipeline, "GENERATE_BATCH_BYTES", members * run_bytes + run_bytes // 2)
    sizes = []
    batch = pipeline.run_batch

    def recording(cfgs, grid):
        sizes.append(len(cfgs))
        return batch(cfgs, grid)

    monkeypatch.setattr(pipeline, "run_batch", recording)
    cfg_path = tmp_path / "seven.json"
    cfg_path.write_text(json.dumps(SEVEN_NU))
    out = tmp_path / name
    assert main(["generate", "--config", str(cfg_path), "--out", str(out),
                 "--jobs", str(jobs)]) == 0
    monkeypatch.setattr(pipeline, "run_batch", batch)
    return out, sorted(sizes, reverse=True)


def test_generate_chunking_changes_no_output_byte(tmp_path, monkeypatch):
    whole, sizes = _generate_in_chunks(tmp_path, monkeypatch, "whole", 7, 1)
    assert sizes == [7]
    files = sorted(p.name for p in whole.iterdir())
    assert len(files) == 9 and {"manifest.json", "mean.mat"} <= set(files)
    for members, expected in [(1, [1] * 7), (2, [2, 2, 2, 1]), (7, [7])]:
        for jobs in (1, 2):
            out, sizes = _generate_in_chunks(tmp_path, monkeypatch,
                                             f"m{members}j{jobs}", members, jobs)
            assert sizes == expected
            assert sorted(p.name for p in out.iterdir()) == files
            for name in files:
                assert (out / name).read_bytes() == (whole / name).read_bytes(), name
            runs = read_manifest(out / "manifest.json")["runs"]
            assert [r["sha256"] for r in runs] \
                == [sha256_file(out / r["path"]) for r in runs]


def test_generate_names_the_one_diverging_viscosity(tmp_path, capsys):
    # at dt=0.03 only nu=0.001 of the batch blows up, at substep 191
    cfg = {**SMALL_CONFIG, "dt": 0.03, "steps": 400, "transient": 40,
           "trained_nu": [0.05, 0.001, 0.09], "test_nu": [0.08]}
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert re.search(r"at substep 191 \(nu=0\.001,", err)
    assert not out.exists()


@pytest.mark.parametrize("existed", [False, True], ids=["new out", "existing out"])
def test_a_failed_generate_removes_the_out_it_made_with_what_earlier_chunks_wrote(
        tmp_path, monkeypatch, capsys, existed):
    # one run per chunk, so the two trained runs before nu=0.001 are written
    # before it blows up, at substep 191
    monkeypatch.setattr(pipeline, "GENERATE_BATCH_BYTES", 1)
    written = []
    write = pipeline.write_matrix
    monkeypatch.setattr(pipeline, "write_matrix",
                        lambda path, arr: written.append(path.name) or write(path, arr))
    cfg = {**SMALL_CONFIG, "dt": 0.03, "steps": 400, "transient": 40,
           "trained_nu": [0.05, 0.09, 0.001], "test_nu": [0.08]}
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    if existed:
        out.mkdir()
        (out / "notes.txt").write_text("kept")
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "nu=0.001" in capsys.readouterr().err
    assert written == ["snap_nu0.05.mat", "snap_nu0.09.mat"]
    if existed:
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", *written]
    else:
        assert not out.exists()


# ------------------------------------------------------ config documents

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3000), st.text(max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["sine", "two_mode", "lagrange", "idw", "inverse_distance", "1e3"]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)
_CONFIG_KEYS = list(pipeline.StudyConfig().to_dict()) + ["n", "length", "kind", "power",
                                                         "neighbors", "extra"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(doc={"grid": {"n": 1e300}})
@example(doc={"save_every": 0, "trained_nu": [], "test_nu": []})
@example(doc={"weights": {"neighbors": float("inf")}})
@example(doc={"dt": float("nan")})
@example(doc={"dt": float("inf")})
@example(doc={"trained_nu": [float("nan")]})
@example(doc={"trained_nu": [0.05, float("inf")]})
@example(doc={"test_nu": [float("inf")]})
@example(doc={"initial": [1.0] * 255 + [float("nan")]})
@example(doc={"grid": {"length": float("nan")}})
@example(doc={"grid": {"length": float("inf")}})
@example(doc={"grid": {"length": 1e-200}})
@example(doc={"grid": {"length": 1e160}})
@example(doc={"grid": {"length": 1e-158}})
@given(doc=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _JSON_VALUES, max_size=5)
       | st.fixed_dictionaries({}, optional={
           "grid": st.dictionaries(st.sampled_from(["n", "length"]), _JSON_SCALARS),
           "weights": st.dictionaries(st.sampled_from(["kind", "power", "neighbors"]),
                                      _JSON_SCALARS),
           "steps": _JSON_SCALARS, "save_every": _JSON_SCALARS, "q": _JSON_SCALARS,
           "dt": _JSON_SCALARS, "transient": _JSON_SCALARS, "max_iter": _JSON_SCALARS,
           "trained_nu": st.lists(_JSON_SCALARS, max_size=4),
           "test_nu": st.lists(_JSON_SCALARS, max_size=3),
       }))
def test_config_documents_parse_or_exit_2(tmp_path_factory, doc):
    try:
        cfg = pipeline.config_from_dict(doc)
    except pipeline.ConfigError:
        cfg = None
    if cfg is not None:
        assert isinstance(cfg, pipeline.StudyConfig)
        for value in [cfg.dt, cfg.grid_length, *cfg.trained_nu, *cfg.test_nu]:
            assert np.isfinite(value) and value > 0
        if not isinstance(cfg.initial, str):
            assert np.isfinite(np.asarray(cfg.initial, dtype=float)).all()
        # an accepted config sets up the solver: the square of the cell size
        # and the implicit step's symbol for every viscosity
        grid = cfg.grid()
        grid.dx ** 2
        with np.errstate(all="raise"):
            inv = solver._inverse_symbols(
                [cfg.solver_config(nu) for nu in cfg.trained_nu + cfg.test_nu], grid)
        assert np.isfinite(inv).all()
        return
    root = tmp_path_factory.mktemp("cfg")
    path = root / "config.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["generate", "--config", str(path), "--out", str(root / "o")])
    assert code == 2
    assert len(err.getvalue().splitlines()) == 1 and "Traceback" not in err.getvalue()
