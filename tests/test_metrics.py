import numpy as np
import pytest

from baryrom import (
    InnerProduct,
    ReducedTrajectory,
    ShapeMismatchError,
    SnapshotMatrix,
    ZeroReferenceError,
    error_at_time,
    factored_field,
    mean_error,
    reconstruct_field,
)
from baryrom.metrics import BLOCK_BYTES, _column_sums, error_report, format_float, write_csv

UNIT = InnerProduct(1.0)


def traj(values, t0=0.0, dt=1.0, param=0.1):
    values = np.asarray(values, dtype=float)
    times = t0 + dt * np.arange(values.shape[1])
    return SnapshotMatrix(values=values, times=times, param=param)


# ------------------------------------------------------------ single field

def test_error_identical_fields_is_zero():
    u = np.array([1.0, 2.0, 3.0])
    assert error_at_time(u, u, UNIT) == 0.0


def test_error_zero_approx_is_hundred():
    u = np.array([1.0, -2.0])
    assert error_at_time(u, np.zeros(2), UNIT) == pytest.approx(100.0)


def test_error_hand_value():
    assert error_at_time(np.array([3.0, 4.0]), np.array([3.0, 0.0]), UNIT) \
        == pytest.approx(80.0)


def test_error_scale_covariance(rng):
    ref = rng.standard_normal(10)
    approx = rng.standard_normal(10)
    base = error_at_time(ref, approx, UNIT)
    for c in (2.0, -0.3, 1e6):
        assert error_at_time(c * ref, c * approx, UNIT) == pytest.approx(base,
                                                                         rel=1e-12)


def test_error_zero_reference_raises():
    with pytest.raises(ZeroReferenceError):
        error_at_time(np.zeros(3), np.ones(3), UNIT)


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
    ip = InnerProduct(0.7)
    num = den = 0.0
    for j in range(5):
        d = ref.values[:, j] - approx.values[:, j]
        num += ip.dot(d, d)
        den += ip.dot(ref.values[:, j], ref.values[:, j])
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
    rep = error_report(ref, approx, UNIT, method="barycentric")
    assert rep.method == "barycentric"
    assert rep.param == 0.08
    assert len(rep.per_time) == 3
    assert rep.mean == pytest.approx(1.0, rel=1e-10)
    assert all(e >= 0 for _, e in rep.per_time)


def test_error_report_per_time_matches_column_loop(rng):
    ref = traj(rng.standard_normal((6, 5)) + 3.0)
    approx = traj(ref.values + 0.1 * rng.standard_normal((6, 5)))
    ip = InnerProduct(0.7)
    rep = error_report(ref, approx, ip)
    expected = [error_at_time(ref.values[:, j], approx.values[:, j], ip) for j in range(5)]
    np.testing.assert_allclose([e for _, e in rep.per_time], expected, rtol=1e-12)
    assert [t for t, _ in rep.per_time] == list(ref.times)
    assert rep.mean == pytest.approx(mean_error(ref, approx, ip), rel=1e-12)


def test_error_report_zero_reference_column_raises():
    values = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0]])
    with pytest.raises(ZeroReferenceError):
        error_report(traj(values), traj(values + 1.0), UNIT)


NS = 201  # columns of a default study's snapshot matrix
BLOCK = BLOCK_BYTES // (8 * NS)  # rows of one block of the error sums


def _full_column_sums(ref, approx, ip):
    """The sums as one expression over whole snapshot-sized arrays: the oracle."""
    d = ref.values - approx.values
    return (np.sum(ip.apply(d) * d, axis=0),
            np.sum(ip.apply(ref.values) * ref.values, axis=0))


@pytest.mark.parametrize("nx, ns", [(n, NS) for n in (1, BLOCK - 1, BLOCK, BLOCK + 1,
                                                      3 * BLOCK + 17)]
                         + [(1, 1), (5000, 1), (7, 2)])
def test_blocked_column_sums_are_bitwise_the_full_sums(rng, nx, ns):
    ref = traj(rng.standard_normal((nx, ns)) * 3.0 + 1.0)
    approx = traj(ref.values + 1e-3 * rng.standard_normal((nx, ns)))
    ip = InnerProduct(2.0 * np.pi / 2000)
    for got, want in zip(_column_sums(ref, approx, ip), _full_column_sums(ref, approx, ip)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("nx, ns", [(3 * BLOCK + 17, NS), (BLOCK - 1, NS), (7, NS),
                                    (5000, 1), (1, 1)])
def test_blocked_lift_and_score_is_bitwise_the_reconstruction_score(rng, nx, ns):
    # the same ref scored against the field reconstruct_field forms and
    # against its factors, lifted a block of rows at a time; then again with
    # the ref sums of the first report
    q, ip = 7, InnerProduct(2.0 * np.pi / 2000)
    rtraj = ReducedTrajectory(times=0.3 + 0.005 * np.arange(ns),
                              alphas=rng.standard_normal((ns, q)))
    basis, mean = rng.standard_normal((nx, q)), 1.0 + rng.standard_normal(nx)
    ref = traj(rng.standard_normal((nx, ns)) + mean[:, None], t0=0.3, dt=0.005)
    want = error_report(ref, reconstruct_field(basis, mean, rtraj, ref.param), ip, "m")
    field = factored_field(basis, mean, rtraj, ref.param)
    got = error_report(ref, field, ip, "m")
    again = error_report(ref, field, ip, "m", ref_sq=got.ref_sq)
    for rep in (got, again):
        assert rep.per_time == want.per_time
        assert rep.mean == want.mean
        np.testing.assert_array_equal(rep.ref_sq, want.ref_sq)
    assert mean_error(ref, field, ip) == mean_error(ref, reconstruct_field(basis, mean, rtraj),
                                                    ip)


def test_error_report_rejects_ref_sums_of_another_length(rng):
    ref = traj(rng.standard_normal((4, 3)) + 2.0)
    with pytest.raises(ShapeMismatchError):
        error_report(ref, ref, UNIT, ref_sq=np.ones(4))


def test_blocked_error_report_raises_on_an_instant_of_zero_reference_norm(rng):
    values = rng.standard_normal((3 * BLOCK + 5, NS))
    values[:, 17] = 0.0
    with pytest.raises(ZeroReferenceError):
        error_report(traj(values), traj(values + 1.0), UNIT)


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
