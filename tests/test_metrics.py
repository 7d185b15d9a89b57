import numpy as np
import pytest

from baryrom import (
    ReducedTrajectory,
    ShapeMismatchError,
    SnapshotMatrix,
    ZeroReferenceError,
    factored_field,
    mean_error,
    reconstruct_field,
)
from baryrom import pipeline, rom
from baryrom.metrics import _square_sums, error_report, format_float, reference_sq, write_csv
from baryrom.rom import BLOCK_BYTES

UNIT = 1.0


def traj(values, t0=0.0, dt=1.0, param=0.1):
    values = np.asarray(values, dtype=float)
    times = t0 + dt * np.arange(values.shape[1])
    return SnapshotMatrix(values=values, times=times, param=param)


# ------------------------------------------------------------ single field

def single_field_error(ref, approx):
    """The one per-instant error of a one-column error_report."""
    ref = traj(np.c_[ref])
    rep = error_report(ref, traj(np.c_[approx]), UNIT, reference_sq(ref, UNIT))
    (_, percent), = rep.per_time
    return percent


def test_error_identical_fields_is_zero():
    u = np.array([1.0, 2.0, 3.0])
    assert single_field_error(u, u) == 0.0


def test_error_zero_approx_is_hundred():
    u = np.array([1.0, -2.0])
    assert single_field_error(u, np.zeros(2)) == pytest.approx(100.0)


def test_error_hand_value():
    assert single_field_error([3.0, 4.0], [3.0, 0.0]) == pytest.approx(80.0)


def test_error_scale_covariance(rng):
    ref = rng.standard_normal(10)
    approx = rng.standard_normal(10)
    base = single_field_error(ref, approx)
    for c in (2.0, -0.3, 1e6):
        assert single_field_error(c * ref, c * approx) == pytest.approx(base, rel=1e-12)


def test_error_zero_reference_raises():
    with pytest.raises(ZeroReferenceError):
        single_field_error(np.zeros(3), np.ones(3))


# -------------------------------------------------------------- mean error

def test_mean_error_identical_trajectories():
    a = traj(np.arange(12.0).reshape(3, 4) + 1.0)
    assert mean_error(a, a, UNIT) == 0.0


def test_mean_error_uniform_scaling():
    ref = traj(np.arange(12.0).reshape(3, 4) + 1.0)
    eps = 1e-3
    approx = traj((1 + eps) * ref.values)
    assert mean_error(ref, approx, UNIT) == pytest.approx(100 * eps, rel=1e-10)


def test_mean_error_constant_per_time_error():
    # every column off by the same relative amount -> mean equals it
    cols = [np.array([3.0, 4.0]) * s for s in (1.0, 2.0, 5.0)]
    ref = traj(np.column_stack(cols))
    approx = traj(np.column_stack([c * 0.98 for c in cols]))
    assert mean_error(ref, approx, UNIT) == pytest.approx(2.0, rel=1e-12)


def test_mean_error_formula_recomputation(rng):
    # independent loop over instants, no shared code path
    ref = traj(rng.standard_normal((6, 5)) + 3.0)
    approx = traj(ref.values + 0.1 * rng.standard_normal((6, 5)))
    ip = 0.7
    num = den = 0.0
    for j in range(5):
        d = ref.values[:, j] - approx.values[:, j]
        num += float(np.sum(ip * d * d))
        den += float(np.sum(ip * ref.values[:, j] * ref.values[:, j]))
    expected = 100.0 * np.sqrt(num / den)
    assert mean_error(ref, approx, ip) == pytest.approx(expected, rel=1e-12)


def test_mean_error_shape_and_time_checks():
    a = traj(np.ones((3, 4)))
    with pytest.raises(ShapeMismatchError):
        mean_error(a, traj(np.ones((3, 5))), UNIT)
    shifted = traj(np.ones((3, 4)), t0=0.5)
    with pytest.raises(ShapeMismatchError):
        mean_error(a, shifted, UNIT)


def test_error_report_structure(rng):
    ref = traj(rng.standard_normal((4, 3)) + 2.0, param=0.08)
    approx = traj(ref.values * 1.01, param=0.08)
    rep = error_report(ref, approx, UNIT, reference_sq(ref, UNIT))
    assert len(rep.per_time) == 3
    assert rep.mean == pytest.approx(1.0, rel=1e-10)
    assert all(e >= 0 for _, e in rep.per_time)


def test_error_report_per_time_matches_column_loop(rng):
    ref = traj(rng.standard_normal((6, 5)) + 3.0)
    approx = traj(ref.values + 0.1 * rng.standard_normal((6, 5)))
    ip = 0.7
    rep = error_report(ref, approx, ip, reference_sq(ref, ip))
    d = ref.values - approx.values
    expected = [100.0 * np.sqrt(float(np.sum(ip * d[:, j] * d[:, j])))
                / np.sqrt(float(np.sum(ip * ref.values[:, j] * ref.values[:, j])))
                for j in range(5)]
    np.testing.assert_allclose([e for _, e in rep.per_time], expected, rtol=1e-12)
    assert [t for t, _ in rep.per_time] == list(ref.times)
    assert rep.mean == pytest.approx(mean_error(ref, approx, ip), rel=1e-12)


def test_error_report_zero_reference_column_raises():
    ref = traj(np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0]]))
    with pytest.raises(ZeroReferenceError):
        error_report(ref, traj(ref.values + 1.0), UNIT, _square_sums(ref, UNIT))


NS = 201  # columns of a default study's snapshot matrix
# the block size the field sizes below sit at the edges of; the sums are
# bitwise the same at any block size, the default among them (see below)
EDGE_BLOCK_BYTES = 2 * 2**20
BLOCK = EDGE_BLOCK_BYTES // (8 * NS)  # rows of one such block of the error sums


@pytest.fixture
def edge_blocks(monkeypatch):
    monkeypatch.setattr(rom, "BLOCK_BYTES", EDGE_BLOCK_BYTES)


def _full_column_sums(ref, approx, ip):
    """The sums as one expression over whole snapshot-sized arrays: the oracle."""
    d = ref.values - approx.values
    return (np.sum(ip * d * d, axis=0),
            np.sum(ip * ref.values * ref.values, axis=0))


@pytest.mark.usefixtures("edge_blocks")
@pytest.mark.parametrize("nx, ns", [(n, NS) for n in (1, BLOCK - 1, BLOCK, BLOCK + 1,
                                                      3 * BLOCK + 17)]
                         + [(1, 1), (5000, 1), (7, 2)])
def test_blocked_column_sums_are_bitwise_the_full_sums(rng, nx, ns):
    ref = traj(rng.standard_normal((nx, ns)) * 3.0 + 1.0)
    approx = traj(ref.values + 1e-3 * rng.standard_normal((nx, ns)))
    ip = 2.0 * np.pi / 2000
    sums = _square_sums(ref, ip, approx), _square_sums(ref, ip)
    for got, want in zip(sums, _full_column_sums(ref, approx, ip)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.usefixtures("edge_blocks")
@pytest.mark.parametrize("nx, ns", [(3 * BLOCK + 17, NS), (BLOCK - 1, NS), (BLOCK + 1, NS),
                                    (7, NS), (5000, 1), (1, 1)])
def test_blocked_lift_and_score_is_bitwise_the_reconstruction_score(rng, nx, ns):
    # the same ref scored against the field reconstruct_field forms and
    # against its factors, lifted a block of rows at a time
    q, ip = 7, 2.0 * np.pi / 2000
    rtraj = ReducedTrajectory(times=0.3 + 0.005 * np.arange(ns),
                              alphas=rng.standard_normal((ns, q)))
    basis, mean = rng.standard_normal((nx, q)), 1.0 + rng.standard_normal(nx)
    ref = traj(rng.standard_normal((nx, ns)) + mean[:, None], t0=0.3, dt=0.005)
    ref_sq = reference_sq(ref, ip)
    want = error_report(ref, reconstruct_field(basis, mean, rtraj, ref.param), ip, ref_sq)
    field = factored_field(basis, mean, rtraj, ref.param)
    got = error_report(ref, field, ip, ref_sq)
    assert got.per_time == want.per_time
    assert got.mean == want.mean
    assert mean_error(ref, field, ip) == mean_error(
        ref, reconstruct_field(basis, mean, rtraj), ip)


def test_error_report_rejects_ref_sums_of_another_length(rng):
    ref = traj(rng.standard_normal((4, 3)) + 2.0)
    with pytest.raises(ShapeMismatchError):
        error_report(ref, ref, UNIT, ref_sq=np.ones(4))


def test_error_report_rejects_given_ref_sums_with_a_zero_instant(rng):
    ref = traj(rng.standard_normal((4, 3)) + 2.0)
    ref_sq = reference_sq(ref, UNIT)
    ref_sq[1] = 0.0
    with pytest.raises(ZeroReferenceError):
        error_report(ref, ref, UNIT, ref_sq=ref_sq)


def test_mean_error_raises_on_one_zero_norm_instant_of_a_nonzero_ref():
    # one rule for every score: a zero-norm instant raises, even when the
    # trajectory's total norm is not zero
    values = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0]])
    with pytest.raises(ZeroReferenceError):
        mean_error(traj(values), traj(values + 1.0), UNIT)


@pytest.mark.usefixtures("edge_blocks")
def test_blocked_error_report_raises_on_an_instant_of_zero_reference_norm(rng):
    values = rng.standard_normal((3 * BLOCK + 5, NS))
    values[:, 17] = 0.0
    ref = traj(values)
    with pytest.raises(ZeroReferenceError):
        error_report(ref, traj(values + 1.0), UNIT, _square_sums(ref, UNIT))
    with pytest.raises(ZeroReferenceError):
        reference_sq(ref, UNIT)


# 16 B makes blocks of two rows; 2**40 B is more than any field here
BLOCK_SIZES = [16, 64 * 2**10, BLOCK_BYTES, EDGE_BLOCK_BYTES, 2**40]


def _report_bits(rep):
    return np.array(rep.per_time).tobytes(), rep.mean


def test_block_size_changes_no_bit_of_a_lift_or_an_error_report(rng, monkeypatch):
    # a field of more than 2 MiB, so every size but the last splits it
    nx, ns, q, ip = 6000, 60, 7, 2.0 * np.pi / 6000
    assert EDGE_BLOCK_BYTES < 8 * nx * ns < 2**40
    rtraj = ReducedTrajectory(times=0.3 + 0.005 * np.arange(ns),
                              alphas=rng.standard_normal((ns, q)))
    basis, mean = rng.standard_normal((nx, q)), 1.0 + rng.standard_normal(nx)
    ref = traj(rng.standard_normal((nx, ns)) + mean[:, None], t0=0.3, dt=0.005)
    runs = []
    for block_bytes in BLOCK_SIZES:
        monkeypatch.setattr(rom, "BLOCK_BYTES", block_bytes)
        lift = reconstruct_field(basis, mean, rtraj, ref.param)
        field = factored_field(basis, mean, rtraj, ref.param)
        ref_sq = reference_sq(ref, ip)
        reports = [_report_bits(error_report(ref, approx, ip, ref_sq))
                   for approx in (field, lift)]
        # the factors and the lift score the same
        assert reports[1] == reports[0]
        runs.append((lift.values.tobytes(), ref_sq.tobytes(), reports[0]))
    assert all(run == runs[0] for run in runs[1:])


def test_block_size_changes_no_bit_of_compare(study, monkeypatch):
    runs = []
    for block_bytes in BLOCK_SIZES:
        monkeypatch.setattr(rom, "BLOCK_BYTES", block_bytes)
        rows, reports = pipeline.compare(study)
        truths = [pipeline.load_snapshots(study.outdir, study.manifest, study.cfg, nu)
                  for nu in reports]
        runs.append((np.array(rows).tobytes(),
                     [_report_bits(rep) for reps in reports.values() for rep in reps.values()],
                     [reference_sq(truth, study.ip).tobytes() for truth in truths]))
    assert all(run == runs[0] for run in runs[1:])


# --------------------------------------------------------------------- csv

def test_csv_format_and_determinism(tmp_path, rng):
    table = rng.standard_normal((3, 2))
    rows = [[float(t)] + [float(v) for v in row] for t, row in enumerate(table)]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, ["t", "value1", "value2"], rows)
    write_csv(p2, ["t", "value1", "value2"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    assert lines[0] == "t,value1,value2"
    assert len(lines) == 4
    # 17 significant digits round-trip float64 exactly
    v = float(lines[1].split(",")[1])
    assert v == table[0, 0]


def test_format_float_17_digits():
    x = 1.0 / 3.0
    assert float(format_float(x)) == x


def test_write_csv_mixed_types(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["name", "v"], [["row", 0.5]])
    assert p.read_text() == "name,v\nrow,0.5\n"
