"""Peak traced memory of the mesh-sized stages, in snapshot-matrix units.

A unit is the bytes of one run's snapshot matrix.  The study is the
default one at nx=2000 with one held-out viscosity, so generate marches
its 5 runs in one chunk.  Offline reads its 4 trained runs one at a time
and holds one of them; the POD makes no weighted copy.  Compare at an
untrained target holds the truth run, the fluctuations its truth-POD floor
is built from and two row blocks of ``rom.BLOCK_BYTES``, with no model's
field formed.  At a trained target the floor's basis is the offline one,
so compare holds the truth and no fluctuations: the rest is the N-by-q^2
pair products of the direct projection that ITSGM and the floor make.
Both bounds are taken on a second call, so the first call's one-off
allocations (a third of a unit) do not count, and with 64 kB blocks, so
the runs it must hold are nearly the whole of it.  CLI predict, bounded
the same way, holds the loaded study and forms no field: it writes
lift.mat, the N-by-(q+1) factor [Phi | mean]; ITSGM adds the N-by-q^2
pair products of its direct projection.  Each bound leaves half a unit or
less above what the stage holds: its outputs in generate and load, two
row blocks in the error sums, and the measured peak in offline (1.68
units), compare (2.26 units untrained, 1.44 trained) and CLI predict
(0.34 barycentric, 0.68 ITSGM).
"""

import tracemalloc

import pytest

from baryrom import cli, metrics, pipeline, rom


def _peak(fn):
    """(result, peak bytes traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    out = tmp_path_factory.mktemp("memory")
    cfg = pipeline.StudyConfig(grid_n=2000, test_nu=[0.08])
    unit = 8 * cfg.grid_n * (cfg.steps // cfg.save_every + 1)
    assert pipeline.GENERATE_BATCH_BYTES >= 5 * unit  # one chunk
    manifest, generate = _peak(lambda: pipeline.run_generate(cfg, out))
    _, offline = _peak(lambda: pipeline.run_offline(out))
    snap, load = _peak(lambda: pipeline.load_snapshots(out, manifest, cfg, 0.08))
    assert snap.values.nbytes == unit
    approx = pipeline.SnapshotMatrix(snap.values * 1.01, snap.times, snap.param)
    ip = cfg.grid().dx
    _, errors = _peak(lambda: metrics.error_report(snap, approx, ip,
                                                   metrics.reference_sq(snap, ip)))
    del snap, approx
    study = pipeline.load_study(out)
    predicts = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rom, "BLOCK_BYTES", 64 * 2**10)
        first = pipeline.compare(study)
        second, compare = _peak(lambda: pipeline.compare(study))
        pipeline.compare(study, targets=[0.07])
        _, compare_trained = _peak(lambda: pipeline.compare(study, targets=[0.07]))
        for method in pipeline.METHODS:
            argv = ["predict", "--out", str(out), "--nu", "0.075", "--method", method]
            assert cli.main(argv) == 0
            code, predicts[method] = _peak(lambda: cli.main(argv))
            assert code == 0
    assert second[0] == first[0]
    return {"runs": len(manifest["runs"]), "np": len(cfg.trained_nu), "unit": unit,
            "generate": generate / unit, "offline": offline / unit, "load": load / unit,
            "errors": errors / unit, "compare": compare / unit,
            "compare_trained": compare_trained / unit,
            **{f"predict_{m}": peak / unit for m, peak in predicts.items()}}


def test_load_snapshots_holds_only_the_matrix_it_returns(peaks):
    assert peaks["load"] <= 1.1


def test_offline_holds_one_trained_run_and_no_weighted_copy(peaks):
    assert peaks["offline"] <= 2.0


def test_compare_holds_the_truth_and_its_fluctuations_and_forms_no_field(peaks):
    assert peaks["compare"] <= 2.5


def test_compare_at_a_trained_target_holds_the_truth_and_no_fluctuations(peaks):
    assert peaks["compare_trained"] <= 1.6


def test_cli_predict_holds_the_study_and_row_blocks_and_forms_no_field(peaks):
    assert peaks["predict_barycentric"] <= 0.6
    assert peaks["predict_itsgm"] <= 1.0


def test_error_report_holds_two_row_blocks_and_no_snapshot_sized_temporary(peaks):
    assert peaks["errors"] <= 2 * rom.BLOCK_BYTES / peaks["unit"] + 0.1


def test_generate_holds_only_its_snapshot_matrices(peaks):
    assert peaks["runs"] == 5
    assert peaks["generate"] <= peaks["runs"] + 0.5
