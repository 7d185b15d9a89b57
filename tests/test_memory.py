"""Peak traced memory of the mesh-sized stages, in snapshot-matrix units.

A unit is the bytes of one run's snapshot matrix.  The study is the
default one at nx=2000 with one held-out viscosity, so generate marches
its 5 runs in one chunk and offline holds the 4 trained runs.  Each bound
leaves half a unit or less above what the stage must hold: its outputs
and, in offline, one weighted copy inside the POD.
"""

import tracemalloc

import pytest

from baryrom import pipeline


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
    return {"runs": len(manifest["runs"]), "np": len(cfg.trained_nu),
            "generate": generate / unit, "offline": offline / unit, "load": load / unit}


def test_load_snapshots_holds_only_the_matrix_it_returns(peaks):
    assert peaks["load"] <= 1.1


def test_offline_holds_the_trained_runs_and_one_weighted_copy(peaks):
    assert peaks["offline"] <= peaks["np"] + 1.5


def test_generate_holds_only_its_snapshot_matrices(peaks):
    assert peaks["runs"] == 5
    assert peaks["generate"] <= peaks["runs"] + 0.5
