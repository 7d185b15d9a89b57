import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from baryrom import InnerProduct, SnapshotMatrix, compute_pod, mean_error
from baryrom.cli import main
from baryrom.io import (
    read_archive,
    read_manifest,
    read_matrix,
    sha256_file,
    write_archive,
    write_manifest,
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
    # archives written before F_body was dropped carry it as an extra array
    _, _, out = workdir
    old = tmp_path / "old"
    shutil.copytree(out, old)
    arrays, meta = read_archive(old / "tensors.arc")
    write_archive(old / "tensors.arc",
                  {**arrays, "F_body": np.zeros_like(arrays["F_diff"])}, meta)
    manifest = read_manifest(old / "manifest.json")
    manifest["offline"]["archive"]["sha256"] = sha256_file(old / "tensors.arc")
    write_manifest(old / "manifest.json", manifest)
    assert main(["predict", "--out", str(old), "--nu", "0.08"]) == 0


def test_predict_untrained_smoke(workdir):
    _, _, out = workdir
    assert main(["predict", "--out", str(out), "--nu", "0.08", "--ic", "truth"]) == 0
    pdir = out / "predict_nu0.08_barycentric"
    report = json.loads((pdir / "report.json").read_text())
    assert report["barycenter"]["converged"]
    assert report["barycenter"]["final_gradient_norm"] <= 1e-10
    assert set(report["timings"]) == {"barycenter_s", "update_s", "combined_basis_s",
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
    rec_t = pipeline.truth_pod_baseline(study, nu)
    e_pred = mean_error(truth, rec, study.ip)
    e_pod = mean_error(truth, rec_t, study.ip)
    assert abs(e_pred - e_pod) < 1e-6


def test_predict_itsgm_dispatch(workdir):
    _, _, out = workdir
    assert main(["predict", "--out", str(out), "--nu", "0.08", "--ic", "truth",
                 "--method", "itsgm"]) == 0
    report = json.loads(
        (out / "predict_nu0.08_itsgm" / "report.json").read_text())
    assert report["method"] == "itsgm"
    assert set(report["timings"]) == {"interpolation_s", "projection_s",
                                      "initial_condition_s", "integrate_s", "lift_s"}
    assert 1.0 <= report["mass_condition"] < 1e3


def test_predict_deterministic_csv(workdir):
    _, _, out = workdir
    pdir = out / "predict_nu0.08_barycentric"
    main(["predict", "--out", str(out), "--nu", "0.08", "--ic", "truth"])
    first = (pdir / "trajectory.csv").read_bytes()
    field1 = (pdir / "field.mat").read_bytes()
    main(["predict", "--out", str(out), "--nu", "0.08", "--ic", "truth"])
    assert (pdir / "trajectory.csv").read_bytes() == first
    assert (pdir / "field.mat").read_bytes() == field1


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


NU_EDGES = [0.0, -0.0, -0.05, -np.inf, np.inf, np.nan, 1e300, -1e300, 5e-324,
            0.05, 0.08, 0.11, 3.0, 1e60, 1e100]


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
    assert main(argv) in {0, 2, 3, 4}
