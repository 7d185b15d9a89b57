import argparse
import contextlib
import io
import json
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from baryrom import (
    InnerProduct,
    NotConvergedError,
    NumericalError,
    SnapshotMatrix,
    combined_basis,
    compute_pod,
    initial_condition,
    itsgm_interpolate,
    karcher_barycenter,
    mean_error,
    orthonormalize,
)
from baryrom.cli import build_parser, main
from baryrom.io import (
    read_archive,
    read_manifest,
    read_matrix,
    sha256_file,
    write_archive,
    write_manifest,
    write_matrix,
)
from baryrom import pipeline

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
    "weights": {"kind": "lagrange", "power": 2.0, "neighbors": 3},
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
        values = read_matrix(out / entry["path"])
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


def test_offline_archive_reload_bit_identical(workdir):
    _, _, out = workdir
    arrays1, meta1 = read_archive(out / "tensors.arc")
    arrays2, meta2 = read_archive(out / "tensors.arc")
    assert meta1 == meta2
    for name in arrays1:
        assert arrays1[name].tobytes() == arrays2[name].tobytes()
    # weighted orthonormality: each diagonal mass block is the identity
    q = meta1["q"]
    for k in range(arrays1["M"].shape[0]):
        assert np.max(np.abs(arrays1["M"][k, k] - np.eye(q))) < 1e-10


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
    arrays, meta = read_archive(old / "tensors.arc")
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
    field = read_matrix(pdir / "field.mat")
    assert field.shape == (64, 31)
    assert np.all(np.isfinite(field))
    lines = (pdir / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,alpha1,alpha2,alpha3,alpha4"
    assert len(lines) == 32


def test_predict_trained_node_matches_truth_pod(workdir):
    _, _, out = workdir
    study = pipeline.load_study(out)
    nu = 0.07
    truth = pipeline.load_snapshots(out, study.manifest, nu)
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
    report = json.loads(
        (out / "predict_nu0.08_itsgm_truth" / "report.json").read_text())
    assert report["method"] == "itsgm"
    assert set(report["timings"]) == {"interpolation_s", "projection_s",
                                      "initial_condition_s", "integrate_s", "lift_s"}
    assert 1.0 <= report["mass_condition"] < 1e3


def test_itsgm_predict_follows_weight_kind(workdir):
    _, _, out = workdir
    study = pipeline.load_study(out)
    nu = 0.08
    # the truth IC keeps the weights out of the initial state
    lag = pipeline.predict(study, nu, method="itsgm", ic_mode="truth")[1].values
    field = pipeline.predict(study, nu, method="itsgm", ic_mode="truth", kind="idw")[1].values
    assert np.max(np.abs(field - lag)) > 1e-6 * np.max(np.abs(lag))
    # the predicted field lies in the subspace interpolated with the IDW weights
    w = pipeline.study_weights(study, nu, kind="idw")
    sel = np.flatnonzero(w.values)
    ref = int(np.argmin(np.abs(study.params[sel] - nu)))
    basis = itsgm_interpolate([orthonormalize(study.bases[k].modes) for k in sel],
                              w.values[sel], ref_index=ref)
    fluct = field - study.mean[:, None]
    assert np.linalg.norm(fluct - basis @ (basis.T @ fluct)) < 1e-10 * np.linalg.norm(fluct)


def test_predict_deterministic_csv(workdir):
    _, _, out = workdir
    pdir = out / "predict_nu0.08_barycentric_truth"
    main(["predict", "--out", str(out), "--nu", "0.08", "--ic", "truth"])
    first = (pdir / "trajectory.csv").read_bytes()
    field1 = (pdir / "field.mat").read_bytes()
    main(["predict", "--out", str(out), "--nu", "0.08", "--ic", "truth"])
    assert (pdir / "trajectory.csv").read_bytes() == first
    assert (pdir / "field.mat").read_bytes() == field1


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
    arrays, meta = read_archive(out / "tensors.arc")
    assert arrays["M"].shape == (1, 1, 3, 3)
    assert np.max(np.abs(arrays["M"][0, 0] - np.eye(3))) < 1e-10
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
        cfg_small.write_text(json.dumps({**cfg, "steps": steps}))
        assert main(["bench", "--config", str(cfg_small), "--out", str(out),
                     "--sizes", "64", "--reps", "2", "--q", str(q)]) == 0
        study = pipeline.load_study(out / "bench_nx64")
        assert (study.cfg.steps, study.cfg.q) == (steps, q)
        assert study.bases[0].modes.shape == (64, q)
        snaps = read_matrix(out / "bench_nx64" / "snap_nu0.05.mat")
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
    listed = {e["path"] for e in manifest["runs"] + off["pod"] + off["ics"]}
    listed |= {manifest["mean"]["path"], off["archive"]["path"], "manifest.json"}
    assert {p.name for p in (out / "bench_nx64").iterdir()} == listed
    assert "snap_nu0.07.mat" not in listed and "snap_nu0.08.mat" in listed


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
])
def test_flag_a_command_does_not_honour_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"weights": {"power": 0.0}}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"weights": {"power": -2.0}}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"max_iter": 0}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"tol": -1e-10}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"tol": float("nan")}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", "64", "--nu", "nan"], {}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", "64", "--nu", "inf"], {}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", "64", "--nu", "1e300"], {}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", "64", "--nu=-0.05"], {}),
    (["bench", "--config", "{cfg}", "--out", "{out}", "--sizes", ","], {}),
    (["compare", "--out", "{out}", "--targets", "nan"], {}),
    (["compare", "--out", "{out}", "--targets=-0.06"], {}),
    (["predict", "--out", "{out}", "--nu", "1e200", "--weights", "idw"], {}),
    (["compare", "--out", "{out}", "--targets", ","], {}),
    (["compare", "--out", "{out}", "--targets", ""], {}),
    (["compare", "--out", "{out}", "--targets", "0.08,0.08"], {}),
    (["generate", "--config", "{cfg}", "--out", "{out}"], {"test_nu": [0.08, 0.08]}),
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
        arrays, meta = read_archive(study / "tensors.arc")
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
    manifest["mean"]["sha256"] = write_matrix(path, read_matrix(path)[1:])


def _short_trained_run(manifest, study):
    entry = manifest["runs"][0]
    path = study / entry["path"]
    entry["sha256"] = write_matrix(path, read_matrix(path)[1:])


CORRUPT_STUDY = [  # (id, command, corruption of a copy of the study)
    ("truncated-json", "offline", _manifest_text('{"runs": [')),
    ("truncated-json", "predict", _manifest_text('{"runs": [')),
    ("json-list", "offline", _manifest_text("[1, 2]")),
    ("json-string", "compare", _manifest_text('"offline"')),
    ("run-without-path", "offline", _edit_manifest(lambda m, s: m["runs"][0].pop("path"))),
    ("run-without-hash", "offline", _edit_manifest(lambda m, s: m["runs"][0].pop("sha256"))),
    ("run-outside", "compare", _outside(lambda m: m["runs"][-1], absolute=False)),
    ("pod-without-hash", "predict",
     _edit_manifest(lambda m, s: m["offline"]["pod"][1].pop("sha256"))),
    ("ic-missing", "predict", _edit_manifest(lambda m, s: m["offline"]["ics"].pop())),
    ("mean-in-sibling", "predict", _outside(lambda m: m["mean"], absolute=False)),
    ("mean-absolute", "predict", _outside(lambda m: m["mean"], absolute=True)),
    ("mean-short", "predict", _edit_manifest(_short_mean)),
    ("archive-without-F_conv", "predict", _edit_archive(lambda a: a.pop("F_conv"))),
    ("archive-C-shape", "predict", _edit_archive(lambda a: a.update(C=a["C"][..., :-1]))),
    ("archive-M-shape", "predict", _edit_archive(lambda a: a.update(M=a["M"][:-1, :-1]))),
    ("empty-object", "offline", _manifest_text("{}")),
    ("run-without-role", "offline", _edit_manifest(lambda m, s: m["runs"][0].pop("role"))),
    ("run-without-t0", "compare", _edit_manifest(lambda m, s: m["runs"][-1].pop("t0"))),
    ("offline-without-archive", "predict",
     _edit_manifest(lambda m, s: m["offline"].pop("archive"))),
    ("trained-run-short", "offline", _edit_manifest(_short_trained_run)),
    ("config-list", "offline", _edit_manifest(lambda m, s: m.update(config=[1]))),
    ("runs-number", "compare", _edit_manifest(lambda m, s: m.update(runs=5))),
    ("t0-string", "offline", _edit_manifest(lambda m, s: m["runs"][0].update(t0="x"))),
    ("mean-entry-missing", "offline", _edit_manifest(lambda m, s: m.pop("mean"))),
    ("mean-entry-missing", "compare", _edit_manifest(lambda m, s: m.pop("mean"))),
]
COMMANDS = {"offline": ["offline"], "predict": ["predict", "--nu", "0.08"],
            "compare": ["compare"]}


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


def _offline_mean_layout(manifest, study):
    """The layout of a study whose mean entry lives in its offline section."""
    manifest["offline"]["mean"] = manifest.pop("mean")


@pytest.mark.parametrize("command", sorted(COMMANDS))
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


def test_bench_regenerates_a_study_with_an_offline_mean_entry(workdir, tmp_path):
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
    assert main(argv) == 0
    manifest = read_manifest(study / "manifest.json")
    assert "mean" in manifest and "mean" not in manifest["offline"]
    assert pipeline.load_study(study).mean.shape == (64,)


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
        u0 = (pipeline.load_snapshots(out, study.manifest, nu).values[:, 0]
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
    import dataclasses

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


def test_compare_reads_each_truth_run_once(workdir, monkeypatch):
    _, _, out = workdir
    study = pipeline.load_study(out)
    reads = []
    load = pipeline.load_snapshots

    def counted(*args, **kwargs):
        reads.append(args[2])
        return load(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_snapshots", counted)
    pipeline.compare(study, targets=[0.08, 0.09])
    assert reads == [0.08, 0.09]
    truth = load(out, study.manifest, 0.08)
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
    assert not (out / "manifest.json").exists()


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
        return
    root = tmp_path_factory.mktemp("cfg")
    path = root / "config.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["generate", "--config", str(path), "--out", str(root / "o")])
    assert code == 2
    assert len(err.getvalue().splitlines()) == 1 and "Traceback" not in err.getvalue()
