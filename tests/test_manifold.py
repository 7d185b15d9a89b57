import numpy as np
import pytest
import scipy.optimize
from scipy.spatial.transform import Rotation

from baryrom import (
    BarycenterResult,
    NotConvergedError,
    RankDeficientError,
    ShapeMismatchError,
    SingularOverlapError,
    distance,
    exp_map,
    gram_coordinates,
    itsgm_interpolate,
    karcher_barycenter,
    lagrange_weights,
    log_map,
    orthonormalize,
    procrustes_rotation,
    subspace_distance,
)
from conftest import close_family


def col(*vals):
    return np.array(vals, dtype=float)[:, None]


# ---------------------------------------------------------------- oracles

def min_alignment_distance(phi, psi, q):
    """Smallest ||psi Q - phi||_F over orthogonal Q, found without any SVD.

    q=1: both signs.  q=2: dense angle sweep over the rotation and
    reflection branches plus scalar refinement.  q=3: random rotation
    starts refined with Nelder-Mead on the rotation-vector chart, both
    determinant branches.
    """
    def cost_of(qmat):
        return np.linalg.norm(psi @ qmat - phi)

    if q == 1:
        return min(cost_of(np.array([[1.0]])), cost_of(np.array([[-1.0]])))

    if q == 2:
        def rot(theta):
            c, s = np.cos(theta), np.sin(theta)
            return np.array([[c, -s], [s, c]])

        refl = np.diag([1.0, -1.0])
        best = np.inf
        for branch in (lambda t: rot(t), lambda t: rot(t) @ refl):
            thetas = np.linspace(0.0, 2.0 * np.pi, 2001)
            coarse = min(thetas, key=lambda t: cost_of(branch(t)))
            res = scipy.optimize.minimize_scalar(
                lambda t: cost_of(branch(t)),
                bracket=(coarse - 0.01, coarse, coarse + 0.01),
                method="brent", options={"xtol": 1e-14},
            )
            best = min(best, res.fun)
        return best

    assert q == 3
    rng = np.random.default_rng(7)
    refl = np.diag([1.0, 1.0, -1.0])
    best = np.inf
    for branch in (np.eye(3), refl):
        starts = [Rotation.random(random_state=rng).as_rotvec() for _ in range(60)]
        starts.sort(key=lambda v: cost_of(Rotation.from_rotvec(v).as_matrix() @ branch))
        for v0 in starts[:5]:
            res = scipy.optimize.minimize(
                lambda v: cost_of(Rotation.from_rotvec(v).as_matrix() @ branch),
                v0, method="Nelder-Mead",
                options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 4000},
            )
            best = min(best, res.fun)
    return best


# ---------------------------------------------------------------- exp map

def test_exp_zero_tangent_is_identity():
    phi = col(1.0, 0.0, 0.0)
    np.testing.assert_array_equal(exp_map(phi, np.zeros_like(phi)), phi)


def test_exp_hand_example():
    phi = col(1.0, 0.0, 0.0)
    xi = col(-0.4, 0.8, 0.0)
    np.testing.assert_allclose(exp_map(phi, xi), col(0.6, 0.8, 0.0), atol=1e-15)


def test_exp_rejects_rank_loss_at_endpoint():
    phi = col(1.0, 0.0, 0.0)
    with pytest.raises(RankDeficientError):
        exp_map(phi, -phi)


def test_exp_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        exp_map(col(1.0, 0.0, 0.0), np.zeros((4, 1)))


# ---------------------------------------------------------------- log map

def test_log_of_self_is_zero():
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((6, 2))
    xi, q = log_map(phi, phi)
    np.testing.assert_allclose(xi, 0.0, atol=1e-13)
    np.testing.assert_allclose(q, np.eye(2), atol=1e-13)


def test_log_same_class_returns_rotation_transpose():
    rng = np.random.default_rng(1)
    phi = rng.standard_normal((8, 3))
    q0 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    xi, q = log_map(phi, phi @ q0)
    np.testing.assert_allclose(xi, 0.0, atol=1e-12)
    np.testing.assert_allclose(q, q0.T, atol=1e-12)


def test_log_hand_example_matches_sign_oracle():
    phi = col(1.0, 0.0, 0.0)
    psi = col(0.6, 0.8, 0.0)
    xi, q = log_map(phi, psi)
    # brute force over the two elements of O(1)
    best = min([1.0, -1.0], key=lambda s: np.linalg.norm(psi * s - phi))
    assert q.shape == (1, 1) and q[0, 0] == pytest.approx(best)
    np.testing.assert_allclose(xi, col(-0.4, 0.8, 0.0), atol=1e-15)


def test_log_singular_overlap():
    with pytest.raises(SingularOverlapError):
        log_map(col(1.0, 0.0, 0.0), col(0.0, 1.0, 0.0))


def test_rotation_invariant_to_svd_sign_conventions():
    # Q = V U^T is unchanged when singular-vector pairs flip sign together
    rng = np.random.default_rng(5)
    for _ in range(10):
        phi = rng.standard_normal((12, 4))
        psi = rng.standard_normal((12, 4))
        _, q = log_map(phi, psi)
        u, s, vt = np.linalg.svd(phi.T @ psi)
        signs = rng.choice([-1.0, 1.0], size=4)
        u2 = u * signs
        vt2 = signs[:, None] * vt
        np.testing.assert_allclose(u2 @ np.diag(s) @ vt2, phi.T @ psi, atol=1e-12)
        np.testing.assert_allclose(vt2.T @ u2.T, q, atol=1e-12)


# --------------------------------------------------------------- distance

def test_distance_zero_on_self():
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((9, 2))
    assert distance(phi, phi) == pytest.approx(0.0, abs=1e-13)


def test_distance_hand_value():
    d = distance(col(1.0, 0.0, 0.0), col(0.6, 0.8, 0.0))
    assert d == pytest.approx(np.sqrt(0.8), abs=1e-12)


def test_distance_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((50, 5))
        b = rng.standard_normal((50, 5))
        assert abs(distance(a, b) - distance(b, a)) < 1e-12


def test_distance_class_invariance():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.standard_normal((20, 3))
        b = rng.standard_normal((20, 3))
        q1 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        q2 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert abs(distance(a @ q1, b @ q2) - distance(a, b)) < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3])
def test_distance_matches_rotation_search_oracle(q):
    rng = np.random.default_rng(10 + q)
    for _ in range(3):
        phi = rng.standard_normal((7, q))
        psi = rng.standard_normal((7, q))
        assert distance(phi, psi) == pytest.approx(
            min_alignment_distance(phi, psi, q), abs=1e-8
        )


def test_exp_log_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(25):
        phi = rng.standard_normal((50, 5))
        psi = rng.standard_normal((50, 5))
        xi, _ = log_map(phi, psi)
        assert subspace_distance(exp_map(phi, xi), psi) < 1e-10


# -------------------------------------------------------------- barycenter

def test_barycenter_delta_weights_reproduce_node(rng):
    bases = close_family(rng, 40, 4, 3)
    w = np.array([0.0, 1.0, 0.0])
    res = karcher_barycenter(bases, w, init=0)
    assert res.converged
    assert res.iterations <= 2
    assert subspace_distance(res.representative, bases[1]) < 1e-10


def test_barycenter_of_one_equivalence_class(rng):
    phi = rng.standard_normal((15, 3))
    q1 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    q2 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    res = karcher_barycenter([phi @ q1, phi @ q2], [0.5, 0.5], init=0)
    assert res.converged
    assert subspace_distance(res.representative, phi) < 1e-10


def test_barycenter_hand_fixed_point():
    phi1 = col(1.0, 0.0)
    phi2 = col(0.6, 0.8)
    res = karcher_barycenter([phi1, phi2], [0.5, 0.5], init=0)
    assert res.converged
    assert res.iterations == 2
    assert res.final_gradient_norm == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(res.representative, col(0.8, 0.4), atol=1e-15)


def test_barycenter_stationarity_recomputed(rng):
    bases = close_family(rng, 60, 5, 4)
    w = np.array([0.1, 0.4, 0.3, 0.2])
    res = karcher_barycenter(bases, w, tol=1e-12, init=1)
    # recompute the gradient norm from scratch, not the loop bookkeeping
    fresh = np.zeros_like(res.representative)
    for wk, b in zip(w, bases):
        fresh += wk * (b @ procrustes_rotation(res.representative, b))
    assert np.linalg.norm(res.representative - fresh) <= 1e-12


def test_barycenter_class_invariance(rng):
    bases = close_family(rng, 30, 3, 3)
    w = np.array([0.25, 0.5, 0.25])
    ref = karcher_barycenter(bases, w, init=0).representative
    q0 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    perturbed = [bases[0], bases[1] @ q0, bases[2]]
    alt = karcher_barycenter(perturbed, w, init=0).representative
    assert subspace_distance(ref, alt) < 1e-10


def test_barycenter_accepts_negative_extrapolation_weights(rng):
    bases = close_family(rng, 40, 4, 3, spread=0.05)
    w = np.array([0.6, 0.55, -0.15])
    res = karcher_barycenter(bases, w, init=0)
    assert res.converged


def test_barycenter_not_converged_carries_iterate(rng):
    # nearly orthogonal random subspaces do not contract in one sweep
    a = rng.standard_normal((50, 4))
    b = rng.standard_normal((50, 4))
    c = rng.standard_normal((50, 4))
    with pytest.raises(NotConvergedError) as info:
        karcher_barycenter([a, b, c], [0.4, 0.3, 0.3], tol=1e-14, max_iter=2)
    res = info.value.result
    assert res is not None and not res.converged
    assert res.representative.shape == (50, 4)
    assert res.final_gradient_norm > 1e-14


def stacked_gram(bases):
    """Gram matrix of the stacked bases [Phi_1 ... Phi_Np]."""
    phi = np.hstack(bases)
    return phi.T @ phi


def on_gram(bases, w, **kw):
    """karcher_barycenter on the gram_coordinates of ``bases``, with its
    representative R S lifted back to [Phi_1 ... Phi_Np] S (R is invertible
    for these full-rank stacks)."""
    frame = gram_coordinates(stacked_gram(bases), bases[0].shape[1])

    def lifted(res):
        res.representative = np.hstack(bases) @ np.linalg.solve(np.hstack(frame),
                                                                res.representative)
        return res

    try:
        return lifted(karcher_barycenter(frame, w, **kw))
    except NotConvergedError as exc:
        lifted(exc.result)
        raise


def check_weight_validation(barycenter, bases):
    with pytest.raises(ValueError):
        barycenter(bases, [0.5, 0.6], init=0)
    # sums that are nan, or that overflow although each weight is finite
    for overflowed in ([np.inf, -np.inf], [np.nan, 1.0], [1e308, -1e308]):
        with pytest.raises(ValueError, match="must sum to 1"):
            barycenter(bases, overflowed, init=0)
    with pytest.raises(ShapeMismatchError):
        barycenter(bases, [1.0], init=0)


def test_barycenter_validates_weights(rng):
    check_weight_validation(karcher_barycenter, close_family(rng, 20, 2, 2))


def test_gram_barycenter_validates_weights(rng):
    check_weight_validation(on_gram, close_family(rng, 20, 2, 2))


@pytest.mark.parametrize("barycenter", [karcher_barycenter, on_gram], ids=["karcher", "gram"])
def test_barycenter_singular_overlap(barycenter):
    # the second input is orthogonal to the starting iterate
    with pytest.raises(SingularOverlapError):
        barycenter([col(1.0, 0.0, 0.0), col(0.0, 1.0, 0.0)], [0.5, 0.5], init=0)


def karcher_reference(bases, w, tol, max_iter=100, init=0):
    """The fixed-point sweep written out basis by basis, one Procrustes
    rotation at a time: the oracle for the stacked sweep."""
    phi = bases[init].copy()
    rotations = [np.eye(phi.shape[1]) for _ in bases]
    for sweep in range(1, max_iter + 1):
        candidate = np.zeros_like(phi)
        for k, b in enumerate(bases):
            if w[k] != 0.0:
                rotations[k] = procrustes_rotation(phi, b)
                candidate += w[k] * (b @ rotations[k])
        gnorm = float(np.linalg.norm(phi - candidate))
        if gnorm <= tol:
            return BarycenterResult(phi, rotations, sweep, gnorm, True)
        phi = candidate
    return BarycenterResult(phi, rotations, max_iter, gnorm, False)


def assert_same_barycenter(oracle, res, bases):
    assert res.iterations == oracle.iterations
    assert res.converged == oracle.converged
    assert len(res.gradient_norms) == res.iterations
    assert res.gradient_norms[-1] == res.final_gradient_norm
    for a, b in zip(oracle.rotations, res.rotations):
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-10)
    scale = np.linalg.norm(oracle.representative)
    assert np.linalg.norm(res.representative - oracle.representative) <= 1e-10 * scale
    assert abs(res.final_gradient_norm - oracle.final_gradient_norm) <= 1e-10 * max(1.0, scale)


GRAM_CASES = {  # name -> (bases from rng, weights, init)
    "interpolation": (lambda rng: close_family(rng, 60, 5, 4), [0.1, 0.4, 0.3, 0.2], 1),
    "delta": (lambda rng: close_family(rng, 40, 4, 3), [0.0, 1.0, 0.0], 0),
    "zero-weight-init": (lambda rng: close_family(rng, 40, 4, 3), [0.0, 0.5, 0.5], 0),
    "extrapolation": (lambda rng: close_family(rng, 50, 3, 4), [2.4, -2.1, 1.0, -0.3], 0),
    "scaled": (lambda rng: close_family(rng, 30, 3, 3, scale=7.0), [0.6, 0.55, -0.15], 2),
    "random": (lambda rng: [rng.standard_normal((30, 3)) for _ in range(3)],
               [0.5, 0.3, 0.2], 0),
}


@pytest.mark.parametrize("case", list(GRAM_CASES))
def test_gram_barycenter_matches_karcher_oracle(rng, case):
    make, w, init = GRAM_CASES[case]
    bases = make(rng)
    oracle = karcher_reference(bases, w, tol=1e-12, init=init)
    assert_same_barycenter(oracle, karcher_barycenter(bases, w, tol=1e-12, init=init), bases)
    assert_same_barycenter(oracle, on_gram(bases, w, tol=1e-12, init=init), bases)


def test_gram_barycenter_far_extrapolation_matches_oracle_sweep_by_sweep(rng):
    # Lagrange weights far outside the nodes: the fixed point does not
    # settle, so both are stopped after the same number of sweeps
    bases = close_family(rng, 50, 4, 3, spread=0.05)
    w = lagrange_weights([0.05, 0.07, 0.09], 0.4)
    for sweeps in (1, 2, 4):
        oracle = karcher_reference(bases, w, tol=0.0, max_iter=sweeps, init=2)
        for barycenter in (karcher_barycenter, on_gram):
            with pytest.raises(NotConvergedError) as info:
                barycenter(bases, w, tol=0.0, max_iter=sweeps, init=2)
            assert_same_barycenter(oracle, info.value.result, bases)


def test_gram_coordinates_keep_inner_products(rng):
    # a stack whose span is smaller than its width (a repeated basis), and one basis
    b = close_family(rng, 30, 3, 2)
    for bases in ([b[0], b[1], b[0]], [b[1]]):
        gram = stacked_gram(bases)
        frame = gram_coordinates(gram, 3)
        assert [r.shape for r in frame] == [(3 * len(bases), 3)] * len(bases)
        np.testing.assert_allclose(np.hstack(frame).T @ np.hstack(frame), gram,
                                   rtol=0, atol=1e-13 * np.linalg.norm(gram))
    with pytest.raises(ShapeMismatchError):
        gram_coordinates(np.eye(6), 4)


def test_gram_barycenter_health_at_a_node(rng):
    bases = [orthonormalize(b) for b in close_family(rng, 40, 4, 3)]
    frame = gram_coordinates(stacked_gram(bases), 4)
    res = karcher_barycenter(frame, [0.0, 1.0, 0.0], init=1)
    assert res.iterations == 1
    assert res.gradient_norms == [pytest.approx(0.0, abs=1e-10)]
    assert res.min_overlap_ratio == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(res.representative, frame[1], rtol=0, atol=0)


# ------------------------------------------------------------------ itsgm

def test_itsgm_target_at_reference(rng):
    bases = [orthonormalize(b) for b in close_family(rng, 40, 4, 3)]
    params = [0.1, 0.2, 0.3]
    out = itsgm_interpolate(bases, lagrange_weights(params, 0.2), ref_index=1)
    assert subspace_distance(out, bases[1]) < 1e-10
    np.testing.assert_allclose(out.T @ out, np.eye(4), atol=1e-10)


def test_itsgm_node_reproduction(rng):
    bases = [orthonormalize(b) for b in close_family(rng, 50, 5, 4)]
    params = [0.05, 0.07, 0.09, 0.11]
    for k in range(4):
        out = itsgm_interpolate(bases, lagrange_weights(params, params[k]), ref_index=0)
        assert subspace_distance(out, bases[k]) < 1e-8


def test_itsgm_single_basis_constant(rng):
    basis = orthonormalize(rng.standard_normal((30, 3)))
    for target in (0.0, 0.5, 2.0):
        out = itsgm_interpolate([basis], lagrange_weights([1.0], target), ref_index=0)
        assert subspace_distance(out, basis) < 1e-10


def test_itsgm_interpolates_the_spans_of_its_inputs(rng):
    # scaled, rotated representatives of orthonormal bases span the same subspaces
    ortho = close_family(rng, 20, 3, 3)
    w = lagrange_weights([0.1, 0.2, 0.3], 0.17)
    expected = itsgm_interpolate(ortho, w, ref_index=1)
    rotated = [3.0 * b @ np.linalg.qr(rng.standard_normal((3, 3)))[0] for b in ortho]
    out = itsgm_interpolate(rotated, w, ref_index=1)
    assert subspace_distance(out, expected) < 1e-10
    np.testing.assert_allclose(out.T @ out, np.eye(3), atol=1e-10)


def test_itsgm_skips_zero_weight_inputs(rng):
    # inputs in the first 10 rows, and one in the last 10, whose overlap with
    # each of them is exactly zero: it has no alignment, but weighs nothing
    bases = [np.vstack([b, np.zeros((10, 3))]) for b in close_family(rng, 10, 3, 3)]
    orthogonal = np.vstack([np.zeros((10, 3)), rng.standard_normal((10, 3))])
    w = lagrange_weights([0.1, 0.2, 0.3], 0.17)
    expected = itsgm_interpolate(bases, w, ref_index=1)
    out = itsgm_interpolate([orthogonal, *bases], [0.0, *w], ref_index=2)
    assert out.tobytes() == expected.tobytes()
    with pytest.raises(SingularOverlapError):
        itsgm_interpolate([orthogonal, *bases], [1e-3, w[0] - 1e-3, *w[1:]], ref_index=2)


def test_itsgm_rejects_a_rank_deficient_input(rng):
    good = rng.standard_normal((20, 3))
    bad = good.copy()
    bad[:, 2] = bad[:, 1]
    with pytest.raises(RankDeficientError):
        itsgm_interpolate([good, bad], [0.5, 0.5], ref_index=0)


def textbook_itsgm(bases, w, ref_index):
    """The tangent-space map written out: with Pi the reference and Y_k the
    inputs QR-orthonormalized, Gamma_k = (I - Pi Pi^T) Y_k (Pi^T Y_k)^-1 =
    U_k S_k V_k^T, T = sum_k w_k U_k atan(S_k) V_k^T = U S V^T, and the
    result is Pi V cos(S) + U sin(S)."""
    ys = [np.linalg.qr(b)[0] for b in bases]
    pi = ys[ref_index]
    tangent = np.zeros(pi.shape)
    for wk, y in zip(w, ys):
        gamma = (y - pi @ (pi.T @ y)) @ np.linalg.inv(pi.T @ y)
        u, s, vt = np.linalg.svd(gamma, full_matrices=False)
        tangent += wk * (u @ np.diag(np.arctan(s)) @ vt)
    u, s, vt = np.linalg.svd(tangent, full_matrices=False)
    return pi @ vt.T @ np.diag(np.cos(s)) + u @ np.diag(np.sin(s))


@pytest.mark.parametrize("target, ref_index", [(0.17, 1), (0.26, 2), (0.45, 0), (0.02, 3)])
def test_itsgm_matches_the_textbook_tangent_map(rng, target, ref_index):
    # full-rank inputs, columns scaled over six decades and mixed by an
    # invertible q-by-q matrix; 0.45 and 0.02 extrapolate, and cubic
    # Lagrange weights have negative entries at every target here
    params = [0.1, 0.2, 0.3, 0.4]
    scales = np.logspace(-3.0, 3.0, 5)
    bases = [b * scales @ (np.eye(5) + 0.5 * rng.standard_normal((5, 5)))
             for b in close_family(rng, 60, 5, 4, spread=0.3)]
    w = lagrange_weights(params, target)
    assert (w < 0).any()
    out = itsgm_interpolate(bases, w, ref_index)
    want = textbook_itsgm(bases, w, ref_index)
    assert np.linalg.norm(out @ out.T - want @ want.T) < 1e-10
    np.testing.assert_allclose(out.T @ out, np.eye(5), atol=1e-10)
