"""Peak traced memory of the mesh-sized stages, in snapshot-matrix units.

A unit is the bytes of one run's snapshot matrix.  The study is the
default one at nx=2000 with one held-out viscosity, so generate marches
its 5 runs in one chunk.  Offline reads its 4 trained runs one at a time
and holds one of them; the POD makes no weighted copy.  Compare holds the
truth run, the fluctuations its truth-POD floor is built from and two row
blocks of ``metrics.BLOCK_BYTES``, with no model's field formed; its
bound is taken on a second call, so the first call's one-off allocations
(a third of a unit) do not count, and with 64 kB blocks, so the two runs
it must hold are nearly the whole of it.  Each bound leaves half a unit or
less above what the stage holds: its outputs in generate and load, two
row blocks in the error sums, and the measured peak in offline (1.68
units) and compare (2.30 units).
"""

import tracemalloc

import pytest

from baryrom import metrics, pipeline


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
    snap, load = _peak(lambda: pipeline.load_snapshots(out, manifest, 0.08))
    assert snap.values.nbytes == unit
    approx = pipeline.SnapshotMatrix(snap.values * 1.01, snap.times, snap.param)
    ip = pipeline.InnerProduct(cfg.grid().dx)
    _, errors = _peak(lambda: metrics.error_report(snap, approx, ip))
    del snap, approx
    study = pipeline.load_study(out)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "BLOCK_BYTES", 64 * 2**10)
        first = pipeline.compare(study)
        second, compare = _peak(lambda: pipeline.compare(study))
    assert second[0] == first[0]
    return {"runs": len(manifest["runs"]), "np": len(cfg.trained_nu), "unit": unit,
            "generate": generate / unit, "offline": offline / unit, "load": load / unit,
            "errors": errors / unit, "compare": compare / unit}


def test_load_snapshots_holds_only_the_matrix_it_returns(peaks):
    assert peaks["load"] <= 1.1


def test_offline_holds_one_trained_run_and_no_weighted_copy(peaks):
    assert peaks["offline"] <= 2.0


def test_compare_holds_the_truth_and_its_fluctuations_and_forms_no_field(peaks):
    assert peaks["compare"] <= 2.5


def test_error_report_holds_two_row_blocks_and_no_snapshot_sized_temporary(peaks):
    assert peaks["errors"] <= 2 * metrics.BLOCK_BYTES / peaks["unit"] + 0.1


def test_generate_holds_only_its_snapshot_matrices(peaks):
    assert peaks["runs"] == 5
    assert peaks["generate"] <= peaks["runs"] + 0.5
