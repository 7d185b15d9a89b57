import numpy as np
import pytest
import scipy.linalg

from baryrom import (
    RankTooSmallError,
    ShapeMismatchError,
    SnapshotMatrix,
    compute_pod,
    global_mean,
    pipeline,
)


def snaps(values, param=0.1):
    values = np.asarray(values, dtype=float)
    return SnapshotMatrix(values=values, times=np.arange(values.shape[1], dtype=float),
                          param=param)


def pod_spectrum_oracle(values, ip):
    """Squared singular values of the weight-scaled snapshot matrix."""
    s = np.linalg.svd(np.sqrt(ip) * values, compute_uv=False)
    return s**2


# -------------------------------------------------------------- global mean

def test_global_mean_identical_columns():
    c = np.array([2.0, -1.0, 3.0])
    s = snaps(np.column_stack([c, c, c]))
    np.testing.assert_array_equal(global_mean([s]), c)


def test_global_mean_hand_example():
    s1 = snaps(np.array([[1.0, 3.0], [1.0, 3.0]]))
    s2 = snaps(np.array([[0.0, 4.0], [0.0, 4.0]]))
    np.testing.assert_allclose(global_mean([s1, s2]), [2.0, 2.0])


def test_global_mean_centering_identity(rng):
    sets = [snaps(rng.standard_normal((12, 5))) for _ in range(3)]
    mean = global_mean(sets)
    fluct = [s.values - mean[:, None] for s in sets]
    np.testing.assert_allclose(sum(f.sum(axis=1) for f in fluct) / 15.0, 0.0,
                               atol=1e-12)


def test_global_mean_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        global_mean([snaps(np.ones((4, 2))), snaps(np.ones((5, 2)))])
    with pytest.raises(ShapeMismatchError):
        global_mean([snaps(np.ones((4, 2))), snaps(np.ones((4, 3)))])


# --------------------------------------------------------------------- pod

def test_pod_axis_snapshots():
    u = np.zeros((3, 2))
    u[0, 0] = 2.0  # 2*e1
    u[1, 1] = 1.0  # e2
    basis = compute_pod(u, 1.0, q=2)
    np.testing.assert_allclose(basis.eigenvalues, [4.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(basis.modes[:, 0], [1.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(basis.modes[:, 1], [0.0, 1.0, 0.0], atol=1e-14)


def test_pod_rank_one_snapshots(rng):
    v = rng.standard_normal(20)
    coeffs = np.array([1.0, -2.0, 0.5])
    u = np.outer(v, coeffs)
    ip = 0.25
    basis = compute_pod(u, ip, q=1)
    vnorm = np.sqrt(float(np.sum(ip * v * v)))
    lam = float(np.sum(coeffs**2)) * vnorm**2
    assert basis.eigenvalues[0] == pytest.approx(lam, rel=1e-12)
    np.testing.assert_allclose(basis.eigenvalues[1:], 0.0, atol=1e-10 * lam)
    mode = basis.modes[:, 0]
    unit = v / vnorm
    if np.dot(mode, unit) < 0:
        unit = -unit
    np.testing.assert_allclose(mode, unit, atol=1e-12)


def test_pod_full_rank_reproduces_snapshots(rng):
    u = rng.standard_normal((40, 6))
    ip = 0.1
    basis = compute_pod(u, ip, q=6)
    proj = basis.modes @ (basis.modes.T @ (ip * u))
    assert np.linalg.norm(u - proj) < 1e-10
    np.testing.assert_allclose(pod_spectrum_oracle(u, ip)[:6],
                               basis.eigenvalues[:6], rtol=1e-10)


def test_pod_weighted_orthonormality(rng):
    ip = 1.7
    u = rng.standard_normal((30, 8))
    basis = compute_pod(u, ip, q=5)
    gram = basis.modes.T @ (ip * basis.modes)
    assert np.max(np.abs(gram - np.eye(5))) < 1e-10


def test_pod_spectrum_matches_svd_oracle(rng):
    ip = 0.37
    u = rng.standard_normal((50, 7))
    basis = compute_pod(u, ip, q=3)
    np.testing.assert_allclose(basis.eigenvalues, pod_spectrum_oracle(u, ip),
                               rtol=1e-10)


def test_pod_eigenpairs_match_scipy_eigh_on_the_study(study):
    # np.linalg.eigh against scipy's driver on the correlation matrix of
    # each trained run.  Bounds, ns = 200 snapshots: every eigenvalue within
    # ns eps lambda_1 (measured: 12 eps lambda_1), and each leading mode
    # within ns eps (lambda_1 / gap_k) sqrt(lambda_1 / lambda_k) in the
    # W-norm, the eigenvector perturbation over its eigenvalue gap carried
    # through modes = u v / sqrt(lambda) (measured: at most 4 % of it)
    eps, q = np.finfo(float).eps, study.cfg.q
    for nu in study.cfg.trained_nu:
        u = pipeline.load_snapshots(study.outdir, study.manifest, study.cfg, nu).values
        u -= study.mean[:, None]
        basis = compute_pod(u, study.ip, q)
        corr = u.T @ (study.ip * u)
        evals, evecs = scipy.linalg.eigh(0.5 * (corr + corr.T))
        evals, evecs = evals[::-1], evecs[:, ::-1]
        ns, lam1 = evals.size, evals[0]
        assert np.abs(basis.eigenvalues - np.clip(evals, 0.0, None)).max() <= ns * eps * lam1
        for k in range(q):
            gap = np.delete(np.abs(evals - evals[k]), k).min()
            mode = u @ evecs[:, k] / np.sqrt(evals[k])
            mode *= np.sign(mode[np.argmax(np.abs(mode))])  # compute_pod's sign
            bound = ns * eps * (lam1 / gap) * np.sqrt(lam1 / evals[k])
            d = basis.modes[:, k] - mode
            assert np.sqrt(float(np.sum(study.ip * d * d))) <= bound


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_pod_correlation_matches_the_weighted_copy_and_scipy_eigh(rng, layout, monkeypatch):
    # the correlation compute_pod factors against u.T @ W u of a weighted
    # copy, entrywise within the dot-product bound nx eps (|u|^T |u|) w; then
    # the eigenpairs against scipy's eigh of that copy's correlation, with
    # the bounds of the study test above
    nx, ns, q, eps = 300, 40, 6, np.finfo(float).eps
    ip = 0.37
    base = np.cumsum(rng.standard_normal((nx, 2 * ns)), axis=1)
    u = {"C": np.ascontiguousarray(base[:, :ns]), "F": np.asfortranarray(base[:, :ns]),
         "strided": base[:, ::2]}[layout]
    factored, eigh = [], np.linalg.eigh

    def spy(a):
        factored.append(a.copy())
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    basis = compute_pod(u, ip, q)
    corr, = factored
    np.testing.assert_array_equal(corr, corr.T)
    oracle = u.T @ (ip * u)
    assert np.all(np.abs(corr - oracle) <= nx * eps * ip * (np.abs(u).T @ np.abs(u)))
    evals, evecs = scipy.linalg.eigh(0.5 * (oracle + oracle.T))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    lam1 = evals[0]
    assert np.abs(basis.eigenvalues - np.clip(evals, 0.0, None)).max() <= ns * eps * lam1
    for k in range(q):
        gap = np.delete(np.abs(evals - evals[k]), k).min()
        mode = u @ evecs[:, k] / np.sqrt(evals[k])
        mode *= np.sign(mode[np.argmax(np.abs(mode))])
        d = basis.modes[:, k] - mode
        assert np.sqrt(float(np.sum(ip * d * d))) <= (
            ns * eps * (lam1 / gap) * np.sqrt(lam1 / evals[k]))


def test_pod_residual_energy_is_tail_sum(rng):
    ip = 0.2
    u = rng.standard_normal((25, 6))
    for q in range(1, 6):
        basis = compute_pod(u, ip, q=q)
        resid = u - basis.modes @ (basis.modes.T @ (ip * u))
        energy = float(np.sum(ip * resid * resid))
        tail = float(basis.eigenvalues[q:].sum())
        assert energy == pytest.approx(tail, rel=1e-10, abs=1e-12)


def test_pod_rank_too_small():
    u = np.outer(np.arange(1.0, 9.0), [1.0, 2.0, 3.0])  # rank one
    with pytest.raises(RankTooSmallError):
        compute_pod(u, 1.0, q=2)


def test_pod_rejects_non_matrix_fluctuations():
    with pytest.raises(ShapeMismatchError):
        compute_pod(np.arange(1.0, 9.0), 1.0, q=1)


def test_pod_sign_convention(rng):
    u = rng.standard_normal((15, 4))
    basis = compute_pod(u, 1.0, q=4)
    for k in range(4):
        col = basis.modes[:, k]
        assert col[np.argmax(np.abs(col))] > 0
