import re
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from baryrom import (
    DivergedSolutionError,
    Grid1D,
    ReducedModel,
    ReducedTrajectory,
    ShapeMismatchError,
    SingularMassError,
    WeightVector,
    assemble_cross_tensors,
    combined_basis,
    compute_pod,
    direct_project,
    factored_field,
    initial_condition,
    integrate_rom,
    karcher_barycenter,
    reconstruct_field,
    update_reduced_model,
)
from baryrom import pipeline, rom
from baryrom.pod import sample_times
from conftest import close_family


def make_setup(rng, nx=24, q=2, count=2, length=2 * np.pi):
    grid = Grid1D(nx, length)
    ip = grid.dx
    mean = 1.0 + 0.4 * np.sin(grid.x) + 0.1 * np.cos(2 * grid.x)
    bases = close_family(rng, nx, q, count, spread=0.2, scale=1.0 / np.sqrt(grid.dx))
    return grid, ip, mean, bases


# --------------------------------------------------- brute-force quadrature

def naive_blocks(bases, mean, weight, grad):
    """Entrywise double/triple loops over grid points; no BLAS, no einsum.
    The arrays come in the archive's stacked layout, index h*q + i for mode
    i of basis h."""
    np_ = len(bases)
    nx, q = bases[0].shape
    n = np_ * q
    d = [grad(b) for b in bases]
    dmean = grad(mean)
    M = np.zeros((n, n))
    R = np.zeros((n, n))
    Cb = np.zeros((n, n))
    C = np.zeros((n, n * n))
    Fc = np.zeros((np_, q))
    Fd = np.zeros((np_, q))
    for h in range(np_):
        for k in range(np_):
            for i in range(q):
                for j in range(q):
                    m = r = cb = 0.0
                    for x in range(nx):
                        m += weight * bases[k][x, j] * bases[h][x, i]
                        r += weight * d[k][x, j] * d[h][x, i]
                        cb += weight * (mean[x] * d[k][x, j]
                                        + bases[k][x, j] * dmean[x]) * bases[h][x, i]
                    M[h * q + i, k * q + j] = m
                    R[h * q + i, k * q + j] = r
                    Cb[h * q + i, k * q + j] = cb
            for e in range(np_):
                for s in range(q):
                    for i in range(q):
                        for j in range(q):
                            acc = 0.0
                            for x in range(nx):
                                acc += weight * bases[k][x, j] * d[e][x, s] * bases[h][x, i]
                            C[e * q + s, (h * q + i) * n + k * q + j] = acc
    for k in range(np_):
        for i in range(q):
            fd = fc = 0.0
            for x in range(nx):
                fd -= weight * dmean[x] * d[k][x, i]
                fc -= weight * mean[x] * dmean[x] * bases[k][x, i]
            Fd[k, i] = fd
            Fc[k, i] = fc
    return M, R, Cb, C, Fc, Fd


@pytest.mark.parametrize("count, q", [(2, 2), (3, 2), (2, 3), (1, 3)])
def test_assembly_matches_quadrature_oracle(rng, count, q):
    grid, ip, mean, bases = make_setup(rng, q=q, count=count)
    ct = assemble_cross_tensors(bases, mean, ip, grid.gradient)
    M, R, Cb, C, Fc, Fd = naive_blocks(bases, mean, grid.dx, grid.gradient)
    np.testing.assert_allclose(ct.M, M, atol=1e-12)
    np.testing.assert_allclose(ct.R, R, atol=1e-12)
    np.testing.assert_allclose(ct.Cbar, Cb, atol=1e-12)
    np.testing.assert_allclose(ct.C, C, atol=1e-12)
    np.testing.assert_allclose(ct.F_conv, Fc, atol=1e-12)
    np.testing.assert_allclose(ct.F_diff, Fd, atol=1e-12)


def test_direct_project_matches_quadrature_oracle(rng):
    # the one-basis archive evaluated at nu: F = F_conv + nu F_diff, C as q slices
    grid, ip, mean, bases = make_setup(rng, q=3, count=1)
    model = direct_project(bases[0], mean, ip, grid.gradient, nu=0.07)
    M, R, Cb, C, Fc, Fd = naive_blocks(bases, mean, grid.dx, grid.gradient)
    for got, want in ((model.M, M), (model.R, R), (model.Cbar, Cb),
                      (model.C, C.reshape(3, 3, 3)), (model.F, (Fc + 0.07 * Fd).ravel())):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_single_basis_mass_is_identity(rng):
    grid = Grid1D(40, 2 * np.pi)
    ip = grid.dx
    basis = compute_pod(np.cumsum(rng.standard_normal((40, 8)), axis=1), ip, q=3)
    ct = assemble_cross_tensors([basis.modes], np.zeros(40), ip, grid.gradient)
    assert np.max(np.abs(ct.M - np.eye(3))) < 1e-10


def test_constant_mean_kills_gradient_half_of_cbar(rng):
    grid, ip, _, bases = make_setup(rng)
    c = 2.5
    ct = assemble_cross_tensors(bases, np.full(grid.n, c), ip, grid.gradient)
    # with grad(mean) = 0 only the mean-advection half survives
    q = bases[0].shape[1]
    for h in range(len(bases)):
        for k in range(len(bases)):
            expected = bases[h].T @ (ip * (c * grid.gradient(bases[k])))
            np.testing.assert_allclose(ct.Cbar[h * q:(h + 1) * q, k * q:(k + 1) * q],
                                       expected, atol=1e-12)


def test_mass_grid_symmetry(rng):
    grid, ip, mean, bases = make_setup(rng, count=3)
    ct = assemble_cross_tensors(bases, mean, ip, grid.gradient)
    # block [h, k] is the transpose of block [k, h]: the stacked mass is symmetric
    np.testing.assert_allclose(ct.M, ct.M.T, atol=1e-12)


# ------------------------------------------------------- update vs direct

def relative_gap(a, b):
    scale = max(np.linalg.norm(b), 1e-14)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / scale


def bounded_weight_vector(rng, n):
    """Sum-to-one weights with mild negative entries, the shape nearest-
    neighbor Lagrange interpolation produces; near-cancelling draws are
    rejected so normalization cannot blow the entries up."""
    while True:
        w = rng.uniform(-0.2, 1.0, size=n)
        if w.sum() >= 0.5:
            return w / w.sum()


def test_update_exact_against_direct_projection(rng):
    grid, ip, mean, bases = make_setup(rng, nx=64, q=4, count=3)
    ct = assemble_cross_tensors(bases, mean, ip, grid.gradient)
    for trial in range(5):
        w = bounded_weight_vector(rng, 3)
        res = karcher_barycenter(bases, w, init=int(np.argmax(w)))
        model = update_reduced_model(ct, WeightVector(w), res.rotations, nu=0.07)
        phi = combined_basis(bases, WeightVector(w), res.rotations)
        oracle = direct_project(phi, mean, ip, grid.gradient, nu=0.07)
        for name in ("M", "R", "Cbar", "C", "F"):
            assert relative_gap(getattr(model, name), getattr(oracle, name)) < 1e-10


def test_update_delta_weights_give_identity_mass(rng):
    grid, ip, mean, bases = make_setup(rng, nx=48, q=3, count=3)
    # replace by proper POD bases so M^{hh} = I
    pods = [compute_pod(b + 0.01 * rng.standard_normal(b.shape), ip, q=3) for b in bases]
    ct = assemble_cross_tensors([p.modes for p in pods], mean, ip, grid.gradient)
    w = np.array([0.0, 0.0, 1.0])
    res = karcher_barycenter([p.modes for p in pods], w, init=2)
    model = update_reduced_model(ct, WeightVector(w), res.rotations, nu=0.05)
    assert np.max(np.abs(model.M - np.eye(3))) < 1e-10


def test_update_touches_no_mesh_sized_array(rng):
    grid, ip, mean, bases = make_setup(rng, nx=200, q=3, count=3)
    ct = assemble_cross_tensors(bases, mean, ip, grid.gradient)
    n = len(bases) * 3
    shapes = {"M": (n, n), "R": (n, n), "Cbar": (n, n), "C": (n, n * n),
              "F_conv": (len(bases), 3), "F_diff": (len(bases), 3)}
    for name, shape in shapes.items():
        arr = getattr(ct, name)
        assert arr.shape == shape, f"{name} leaks mesh-sized data: {arr.shape}"


def test_update_copies_no_archive_array(study):
    # the archive is multiplied as stored: the largest temporary is S^T C,
    # q/(Np q) of C, where a re-laid-out copy of C would be all of it
    nu = 0.083
    w = pipeline.study_weights(study, nu)
    rotations = pipeline.online_model(study, w, nu)[0].rotations
    update_reduced_model(study.tensors, w, rotations, nu)  # one-off allocations
    tracemalloc.start()
    try:
        update_reduced_model(study.tensors, w, rotations, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * study.tensors.C.nbytes


def test_direct_project_orthonormal_mass(rng):
    grid, ip, mean, _ = make_setup(rng)
    basis = compute_pod(rng.standard_normal((24, 6)), ip, q=4)
    model = direct_project(basis.modes, mean, ip, grid.gradient, nu=0.1)
    assert np.max(np.abs(model.M - np.eye(4))) < 1e-10


@pytest.mark.parametrize("nx", [8, 256, 2000])
@pytest.mark.parametrize("q", [1, 3, 7])
def test_direct_project_quadratic_block_matches_einsum_oracle(rng, nx, q):
    # C[e][i, j] = sum_x w phi_i phi_j (d phi_e), as the three-operand einsum
    grid, ip, mean, bases = make_setup(rng, nx=nx, q=q, count=1)
    phi = bases[0]
    C = direct_project(phi, mean, ip, grid.gradient, nu=0.07).C
    oracle = np.einsum("xi,xj,xe->eij", ip * phi, phi, grid.gradient(phi),
                       optimize=True)
    assert C.shape == (q, q, q)
    assert np.max(np.abs(C - oracle)) <= 1e-13 * np.max(np.abs(oracle))


# ------------------------------------------------------------- integration

def zero_model(q, nu=1.0):
    return ReducedModel(M=np.eye(q), R=np.zeros((q, q)), Cbar=np.zeros((q, q)),
                        C=np.zeros((q, q, q)), F=np.zeros(q), nu=nu)


def test_integrate_zero_dynamics_is_constant():
    model = zero_model(3)
    traj = integrate_rom(model, np.array([1.0, -2.0, 0.5]), dt=0.1, steps=20)
    np.testing.assert_array_equal(traj.alphas[-1], [1.0, -2.0, 0.5])
    assert traj.times.shape == (21,)


def test_integrate_linear_decay_matches_exponential():
    model = zero_model(2)
    model.R = np.eye(2)
    traj = integrate_rom(model, np.array([1.0, 0.0]), dt=0.01, steps=100)
    assert traj.alphas[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)
    assert traj.alphas[-1, 1] == pytest.approx(0.0, abs=1e-12)


def test_integrate_quadratic_term_matches_analytic():
    model = zero_model(1)
    model.C = np.ones((1, 1, 1))  # da/dt = -a^2
    traj = integrate_rom(model, np.array([1.0]), dt=0.01, steps=100)
    assert traj.alphas[-1, 0] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("dt, steps, match", [(0.0, 1, "dt must be positive"),
                                               (-0.1, 1, "dt must be positive"),
                                               (0.1, -1, "steps must be >= 0")])
def test_integrate_rejects_a_nonpositive_step_or_a_negative_step_count(dt, steps, match):
    with pytest.raises(ValueError, match=match):
        integrate_rom(zero_model(2), np.zeros(2), dt=dt, steps=steps)


def test_integrate_singular_mass():
    model = zero_model(2)
    model.M = np.zeros((2, 2))
    with pytest.raises(SingularMassError):
        integrate_rom(model, np.zeros(2), dt=0.1, steps=1)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_integrate_non_finite_mass_is_singular(bad):
    # the eigenvalue check cannot judge an inf or nan entry
    model = zero_model(2)
    model.M[0, 0] = bad
    with pytest.raises(SingularMassError, match="not finite"):
        integrate_rom(model, np.zeros(2), dt=0.1, steps=1)


def test_integrate_reports_the_mass_condition_and_refuses_an_indefinite_mass(rng):
    model = zero_model(5)
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    model.M = (Q * np.logspace(0, -4, 5)) @ Q.T
    traj = integrate_rom(model, np.zeros(5), dt=0.1, steps=1)
    assert traj.mass_condition == pytest.approx(np.linalg.cond(model.M), rel=1e-8)
    model.M = np.diag([1.0, 2.0, -1e-3, 3.0, 1.0])
    with pytest.raises(SingularMassError, match="not SPD"):
        integrate_rom(model, np.zeros(5), dt=0.1, steps=1)


def test_integrate_failed_fold_is_singular(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularMassError, match="Singular matrix"):
        integrate_rom(zero_model(2), np.zeros(2), dt=0.1, steps=1)


def test_integrate_negative_diffusion_diverges():
    model = zero_model(2)
    model.R = -100.0 * np.eye(2)  # anti-diffusion: every step multiplies a by ~640
    # the stage outer product overflows after ~55 steps; the march goes on
    # to its last step and names the first non-finite state
    with pytest.raises(DivergedSolutionError, match=r"by step \d+$") as exc:
        integrate_rom(model, np.array([1.0, -1.0]), dt=0.1, steps=1000)
    step = int(re.search(r"by step (\d+)", str(exc.value)).group(1))
    assert step <= 200


def test_integrate_checks_each_recorded_state_once_for_finiteness():
    # near-overflow entries pass; the check must not itself overflow
    for a0 in ([1e308, -1.7e308, 5e-324], [-1.7976931348623157e308, 0.0, -0.0]):
        traj = integrate_rom(zero_model(3), np.array(a0), dt=0.1, steps=0)
        np.testing.assert_array_equal(traj.alphas, [a0])
    for bad in (np.inf, -np.inf, np.nan):
        for i in range(3):
            a0 = np.array([1e308, -1e308, 1.0])
            a0[i] = bad
            with pytest.raises(DivergedSolutionError, match=r"by step 0$"):
                integrate_rom(zero_model(3), a0, dt=0.1, steps=10)
            model = zero_model(3)
            model.F[i] = bad  # a finite start that turns non-finite in step 1
            with pytest.raises(DivergedSolutionError, match=r"by step 1$"):
                integrate_rom(model, np.ones(3), dt=0.1, steps=10)


def rk4_reference(model, a0, dt, steps):
    """Textbook RK4 that solves M k = F - nu R a - Cbar a - sum_e a_e C[e] a
    at every stage; the oracle for the folded operators."""
    def rhs(a):
        quad = sum(a[e] * (model.C[e] @ a) for e in range(a.size))
        return np.linalg.solve(model.M, model.F - model.nu * (model.R @ a)
                               - model.Cbar @ a - quad)

    a = np.array(a0, dtype=float)
    out = [a]
    for _ in range(steps):
        k1 = rhs(a)
        k2 = rhs(a + 0.5 * dt * k1)
        k3 = rhs(a + 0.5 * dt * k2)
        k4 = rhs(a + dt * k3)
        a = a + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(a)
    return np.array(out)


def test_integrate_folded_operators_match_solve_oracle(rng):
    # M far from identity, R and Cbar non-symmetric and C not symmetric in
    # (e, j): a transposed or unfolded operator shows up in the trajectory
    q = 5
    g = rng.standard_normal((q, q))
    M = g @ g.T + 0.5 * np.eye(q)
    C = 0.3 * rng.standard_normal((q, q, q))
    assert np.abs(C - C.transpose(2, 1, 0)).max() > 0.1
    model = ReducedModel(M=M, R=rng.standard_normal((q, q)),
                         Cbar=rng.standard_normal((q, q)), C=C,
                         F=rng.standard_normal(q), nu=0.3)
    a0 = rng.standard_normal(q)
    traj = integrate_rom(model, a0, dt=1e-3, steps=200)
    ref = rk4_reference(model, a0, dt=1e-3, steps=200)
    assert np.abs(traj.alphas - ref).max() <= 1e-12 * np.abs(ref).max()
    # the oracle must see all three operators move the state
    assert np.abs(ref[-1] - a0).max() > 1e-2


def weighted_model(study, nu):
    """(model, alpha0) of a barycentric prediction at nu from the weighted
    initial state."""
    w = pipeline.study_weights(study, nu)
    bary, model = pipeline.online_model(study, w, nu)
    return model, pipeline.weighted_initial_condition(study, w, bary.rotations, model.M)


@pytest.mark.parametrize("nu", [0.052, 0.083, 0.108])
def test_integrate_matches_solve_oracle_on_default_study(study, nu):
    # the stacked stage operators against textbook stages with a solve in
    # each, on the barycentric operators of the default nx=256, q=7 study
    model, a0 = weighted_model(study, nu)
    cfg = study.cfg
    assert a0.shape == (7,)
    traj = integrate_rom(model, a0, cfg.dt, cfg.steps)
    ref = rk4_reference(model, a0, cfg.dt, cfg.steps)
    assert np.abs(traj.alphas - ref).max() <= 1e-12 * np.abs(ref).max()


def cholesky_fold(model):
    """G = [f | -L | -Chat] from a Cholesky factorization of M and three
    triangular solves: the fold oracle for integrate_rom's one solve."""
    q = model.M.shape[0]
    factor = scipy.linalg.cho_factor(model.M)
    f, L, Chat = (scipy.linalg.cho_solve(factor, op) for op in (
        model.F, model.nu * model.R + model.Cbar, model.C.transpose(1, 0, 2).reshape(q, q * q)))
    return np.hstack([f[:, None], -L, -Chat])


def folded_run(model, a0, dt, steps, fold=None):
    """(G, trajectory) of integrate_rom, G caught from its one
    np.linalg.solve; with ``fold``, that solve returns fold(model) instead."""
    solve, seen = np.linalg.solve, []

    def spy(a, b):
        seen.append(solve(a, b) if fold is None else fold(model))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", spy)
        traj = integrate_rom(model, a0, dt, steps)
    (G,) = seen
    return G, traj


FOLD_NU = np.round(np.random.default_rng(16).uniform(0.045, 0.12, 12), 4)


def test_integrate_folds_the_mass_matrix_as_the_cholesky_oracle(study, rng):
    # a backward-stable solve errs by at most about q eps cond(M) relative
    # to the largest entry; the bound allows 8 times that.  Measured: at
    # most 1.6 eps on the study (cond(M) <= 1.08), and a random M of
    # condition 1e4 first
    eps = np.finfo(float).eps
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    models = [ReducedModel(M=(Q * np.logspace(0, -4, 5)) @ Q.T, R=rng.standard_normal((5, 5)),
                           Cbar=rng.standard_normal((5, 5)),
                           C=rng.standard_normal((5, 5, 5)), F=rng.standard_normal(5),
                           nu=0.3)]
    models += [pipeline.online_model(study, pipeline.study_weights(study, nu), nu)[1]
               for nu in FOLD_NU]
    for model in models:
        q = model.M.shape[0]
        G, _ = folded_run(model, np.zeros(q), dt=1e-3, steps=0)
        ref = cholesky_fold(model)
        assert G.shape == (q, 1 + q + q * q)
        bound = 8 * q * eps * np.linalg.cond(model.M)
        assert np.abs(G - ref).max() <= bound * np.abs(ref).max()


@pytest.mark.parametrize("nu", FOLD_NU[:4])
def test_integrate_matches_cholesky_fold_trajectory(study, nu):
    # the same RK4 loop run with the oracle fold: the two trajectories of
    # 995 steps agree to 64 eps of the largest coordinate (measured: at
    # most 2.9 eps over the twelve FOLD_NU)
    model, a0 = weighted_model(study, nu)
    cfg = study.cfg
    traj = integrate_rom(model, a0, cfg.dt, cfg.steps)
    ref = folded_run(model, a0, cfg.dt, cfg.steps, fold=cholesky_fold)[1].alphas
    assert np.abs(traj.alphas - ref).max() <= 64 * np.finfo(float).eps * np.abs(ref).max()


def test_integrate_records_copies_at_exact_times(study):
    model, a0 = weighted_model(study, 0.083)
    a0_before = a0.copy()
    dt, steps, t0 = study.cfg.dt, 203, 0.37
    traj = integrate_rom(model, a0, dt, steps, t0=t0)
    np.testing.assert_array_equal(a0, a0_before)
    np.testing.assert_array_equal(traj.times, [t0 + s * dt for s in range(steps + 1)])
    ref = rk4_reference(model, a0, dt, steps)
    assert np.abs(traj.alphas - ref).max() <= 1e-12 * np.abs(ref).max()
    # a second call, from another state, leaves the first result alone
    first = traj.alphas.copy()
    other = integrate_rom(model, 0.5 * a0, dt, steps, t0=t0)
    np.testing.assert_array_equal(traj.alphas, first)
    assert not np.shares_memory(traj.alphas, other.alphas)
    assert np.abs(other.alphas - first).max() > 1e-3 * np.abs(first).max()


def test_integrate_records_every_state_at_the_sample_times():
    for steps in (0, 1, 31, 32, 33, 203):
        traj = integrate_rom(zero_model(1), np.array([2.0]), dt=0.7, steps=steps, t0=1.3)
        assert traj.alphas.shape == (steps + 1, 1)
        np.testing.assert_array_equal(traj.times, sample_times(1.3, 0.7, 1, steps + 1))


def unbound_integrate(model, alpha0, dt, steps, t0=0.0):
    """Classical RK4 with staged slopes: each stage fills its z = [1; a;
    vec(a outer a)] and one product of (dt/2) G or dt G gives its scaled
    slope K_i, the step adds [1/3, 2/3, 1/3, 1/6] K to the state, every
    state is recorded and all ``steps`` are marched.  The roundoff oracle
    of integrate_rom's folded stage operators."""
    q = model.M.shape[0]
    Z = np.empty((4, 1 + q + q * q))
    Z[:, 0] = 1.0
    K = np.empty((4, q))
    dK = np.empty(q)
    wts = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
    z, k = list(Z), list(K)
    a = [z_i[1:1 + q] for z_i in z]
    col = [a_i[:, None] for a_i in a]
    row = [a_i[None, :] for a_i in a]
    zz = [z_i[1 + q:].reshape(q, q) for z_i in z]
    state = a[0]
    state[:] = alpha0
    alphas, times = [np.array(alpha0, dtype=float)], [t0]
    G = np.linalg.solve(model.M, np.hstack([
        np.reshape(model.F, (q, 1)), -(model.nu * model.R + model.Cbar),
        -model.C.transpose(1, 0, 2).reshape(q, q * q)]))
    half, full = (0.5 * dt) * G, dt * G
    for s in range(1, steps + 1):
        col[0].dot(row[0], zz[0])
        half.dot(z[0], k[0])
        np.add(state, k[0], a[1])
        col[1].dot(row[1], zz[1])
        half.dot(z[1], k[1])
        np.add(state, k[1], a[2])
        col[2].dot(row[2], zz[2])
        full.dot(z[2], k[2])
        np.add(state, k[2], a[3])
        col[3].dot(row[3], zz[3])
        full.dot(z[3], k[3])
        wts.dot(K, dK)
        np.add(state, dK, state)
        alphas.append(state.copy())
        times.append(t0 + s * dt)
    return ReducedTrajectory(times=np.array(times), alphas=np.array(alphas))


def random_stable_model(rng, q=5):
    """M far from identity, R and Cbar non-symmetric, C not symmetric in (e, j)."""
    g = rng.standard_normal((q, q))
    return ReducedModel(M=g @ g.T + 0.5 * np.eye(q), R=rng.standard_normal((q, q)),
                        Cbar=rng.standard_normal((q, q)),
                        C=0.3 * rng.standard_normal((q, q, q)),
                        F=rng.standard_normal(q), nu=0.3)


def test_integrate_matches_the_parent_step_loop_to_roundoff(study, rng):
    # integrate_rom writes each stage state with one stage operator [c G | 0
    # | I] that adds the state last, so its sums differ from the staged
    # slopes in the last bits: alphas agree to 64 eps of the largest
    # coordinate (measured: at most 12.4 eps on the study and 11.5 eps on
    # 20 random models), times bitwise
    model, a0 = weighted_model(study, 0.083)
    cfg = study.cfg
    cases = [(model, a0, cfg.dt, cfg.steps),
             (random_stable_model(rng), rng.standard_normal(5), 1e-3, 200)]
    for model, a0, dt, steps in cases:
        got = integrate_rom(model, a0, dt, steps, t0=0.37)
        want = unbound_integrate(model, a0, dt, steps, t0=0.37)
        assert got.alphas.shape == want.alphas.shape
        bound = 64 * np.finfo(float).eps * np.abs(want.alphas).max()
        assert np.abs(got.alphas - want.alphas).max() <= bound
        np.testing.assert_array_equal(got.times, want.times)


def longdouble_rk4(G, a0, dt, steps):
    """Textbook RK4 on a' = G [1; a; vec(a outer a)] in np.longdouble, every
    state of ``steps`` steps."""
    G, a, dt = G.astype(np.longdouble), a0.astype(np.longdouble), np.longdouble(dt)
    one = np.ones(1, dtype=np.longdouble)

    def rhs(a):
        return G @ np.concatenate([one, a, np.outer(a, a).ravel()])

    out = [a]
    for _ in range(steps):
        k1 = rhs(a)
        k2 = rhs(a + dt / 2 * k1)
        k3 = rhs(a + dt / 2 * k2)
        k4 = rhs(a + dt * k3)
        a = a + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(a)
    return np.array(out)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 on this platform")
def test_integrate_roundoff_against_extended_precision_rk4(study):
    # the same folded G, marched in extended precision: integrate_rom's
    # roundoff over 995 steps stays within 32 eps of the largest coordinate
    # (measured: 4.7-11.0 eps over the twelve FOLD_NU; the staged slopes of
    # unbound_integrate read 2.2-8.4 eps, and stage operators that add the
    # state through an identity on G's linear columns, coefficient 1 + c g,
    # read 5.8-50.6 eps).  RK4's own truncation error here, against the
    # same march at dt/8, is 5.1e3-2.0e4 eps
    eps = np.finfo(float).eps
    cfg = study.cfg
    for nu in FOLD_NU:
        model, a0 = weighted_model(study, nu)
        G, traj = folded_run(model, a0, cfg.dt, cfg.steps)
        ref = longdouble_rk4(G, a0, cfg.dt, cfg.steps)
        assert traj.alphas.shape == ref.shape
        assert np.abs(traj.alphas - ref).max() <= 32 * eps * np.abs(ref).max()


@pytest.mark.parametrize("nu", [0.06, 0.08, 0.10, 0.03, 0.13])
def test_predict_march_at_the_sampling_interval_matches_the_dt_march(study, nu):
    # predict marches steps // save_every steps of h = save_every dt; the
    # oracle is every save_every-th state of the same model marched at dt.
    # The instants agree bitwise, and the states differ by RK4's truncation
    # at h (measured: 0.6-4.7e-9 of the largest coordinate, the most at
    # nu = 0.03)
    cfg = study.cfg
    model, a0 = weighted_model(study, nu)
    got = pipeline.predict(study, nu, lift=False)[0]
    fine = integrate_rom(model, a0, cfg.dt, cfg.steps, t0=cfg.transient * cfg.dt)
    want = fine.alphas[::cfg.save_every]
    np.testing.assert_array_equal(got.times, fine.times[::cfg.save_every])
    assert got.alphas.shape == want.shape
    assert np.abs(got.alphas - want).max() <= 1e-8 * np.abs(want).max()


def _c_calls(fn):
    """(fn(), number of calls fn made to functions implemented in C)."""
    calls = [0]

    def count(frame, event, arg):
        calls[0] += event == "c_call"

    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls[0]


def test_integrate_runs_at_the_call_floor(study):
    # a step is the 8 products of the four outer products, the three stages
    # and the step, which writes the new state into its row of the
    # trajectory; the copy back into the buffer calls no function, and the
    # trajectory is checked for finiteness once, after the last step
    model, a0 = weighted_model(study, 0.083)
    h = study.cfg.save_every * study.cfg.dt
    short, long = (_c_calls(lambda s=s: integrate_rom(model, a0, h, s))[1] for s in (200, 400))
    assert (long - short) / 200 <= 8.25


def test_barycenter_runs_at_the_call_floor(study):
    # the default study's barycenter at nu = 0.083 takes 6 sweeps; each
    # reuses its overlap, rotation and gradient buffers, and the rotations
    # are scattered among the inputs once, for the result
    nu = 0.083
    w = pipeline.study_weights(study, nu)
    init = pipeline.nearest_index(study.params, nu)
    res, calls = _c_calls(lambda: karcher_barycenter(
        study.frame, w.values, tol=study.cfg.tol, max_iter=study.cfg.max_iter, init=init))
    assert res.iterations == 6
    assert calls <= 216


FIRST_BAD_RECORDS = [1, 32, 33, 64, 65, 67, 70]  # of 70: the first, the last and between


@pytest.mark.parametrize("rec", FIRST_BAD_RECORDS)
def test_integrate_names_the_first_non_finite_record_of_its_block(rec):
    # a' = a at dt = 1 grows the state by r = 1 + 1 + 1/2 + 1/6 + 1/24 a
    # step, and the outer product of the last stage state, 2.75 a, overflows
    # (into nan, through the zero quadratic columns) in the first step that
    # starts above sqrt(max) / 2.75.  a0 puts that step half a step of
    # growth past the start of step ``rec``; the oracle marches every step
    # and checks every state.  A march of ``rec`` steps ends on that state,
    # so the check after the march must see the last recorded state too
    model = zero_model(2)
    model.R = -np.eye(2)
    steps = max(FIRST_BAD_RECORDS)
    r = 1 + 1 + 1 / 2 + 1 / 6 + 1 / 24
    a0 = np.sqrt(np.finfo(float).max) / 2.75 * np.sqrt(r) / r ** (rec - 1) * np.array([1.0, -0.5])
    with np.errstate(over="ignore", invalid="ignore"):
        want = unbound_integrate(model, a0, 1.0, steps)
    first_bad = np.flatnonzero(~np.isfinite(want.alphas).all(axis=1))[0]
    assert first_bad == rec
    with pytest.raises(DivergedSolutionError, match=rf"by step {first_bad}$"):
        integrate_rom(model, a0, 1.0, steps)
    with pytest.raises(DivergedSolutionError, match=rf"by step {rec}$"):
        integrate_rom(model, a0, 1.0, rec)


def test_integrate_peak_memory_grows_only_by_the_recorded_states(rng):
    model, q = random_stable_model(rng), 5
    a0 = 0.1 * rng.standard_normal(q)

    def peak(steps):
        integrate_rom(model, a0, 1e-4, steps)  # one-off allocations
        tracemalloc.start()
        try:
            integrate_rom(model, a0, 1e-4, steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grown = peak(1000) - peak(400)
    # 600 more recorded states and times, (q + 1) floats each
    assert grown <= 600 * (q + 1) * 8 + 1024


def test_linear_energy_nonincreasing(rng):
    q = 5
    a = rng.standard_normal((q, q))
    R = a @ a.T  # SPSD
    lam_max = np.linalg.eigvalsh(R).max()
    nu = 0.8
    dt = 2.0 / (nu * lam_max)  # inside the real-axis stability bound
    model = zero_model(q, nu=nu)
    model.R = R
    traj = integrate_rom(model, rng.standard_normal(q), dt=dt, steps=50)
    norms = np.linalg.norm(traj.alphas, axis=1)
    assert np.all(np.diff(norms) <= 1e-14)


# ------------------------------------------------- reconstruction and ICs

def test_reconstruct_zero_alphas_gives_mean(rng):
    grid, ip, mean, bases = make_setup(rng)
    traj = ReducedTrajectory(times=np.arange(4.0), alphas=np.zeros((4, 2)))
    rec = reconstruct_field(bases[0], mean, traj)
    for j in range(4):
        np.testing.assert_array_equal(rec.values[:, j], mean)


def test_reconstruct_single_mode(rng):
    grid, ip, mean, bases = make_setup(rng, q=1)
    traj = ReducedTrajectory(times=np.array([0.0]), alphas=np.array([[1.0]]))
    rec = reconstruct_field(bases[0], mean, traj)
    np.testing.assert_allclose(rec.values[:, 0], mean + bases[0][:, 0], atol=1e-14)


def test_reconstruct_projection_identity(rng):
    # projecting the truth onto a POD basis then lifting reproduces the
    # truth up to exactly the truncation residual
    grid = Grid1D(48, 2 * np.pi)
    ip = grid.dx
    truth = np.cumsum(rng.standard_normal((48, 10)), axis=1)
    mean = truth.mean(axis=1)
    fluct = truth - mean[:, None]
    basis = compute_pod(fluct, ip, q=4)
    alphas = (basis.modes.T @ (ip * fluct)).T
    rec = reconstruct_field(basis.modes, mean,
                            ReducedTrajectory(times=np.arange(10.0), alphas=alphas))
    err_sq = float(np.sum(ip * (truth - rec.values) * (truth - rec.values)))
    assert err_sq == pytest.approx(float(basis.eigenvalues[4:].sum()),
                                   rel=1e-10, abs=1e-12)


def test_initial_condition_of_mean_is_zero(rng):
    grid, ip, mean, bases = make_setup(rng)
    np.testing.assert_allclose(initial_condition(bases[0], mean, ip, mean), 0.0,
                               atol=1e-12)


def test_initial_condition_exact_representation(rng):
    grid, ip, mean, bases = make_setup(rng, q=3)
    c = np.array([0.3, -1.2, 0.7])
    u0 = mean + bases[0] @ c
    np.testing.assert_allclose(initial_condition(bases[0], mean, ip, u0), c,
                               atol=1e-12)


def test_initial_condition_least_squares_residual_orthogonal(rng):
    grid, ip, mean, bases = make_setup(rng, q=3)
    u0 = mean + rng.standard_normal(grid.n)
    alpha = initial_condition(bases[0], mean, ip, u0)
    resid = (u0 - mean) - bases[0] @ alpha
    assert np.max(np.abs(bases[0].T @ (ip * resid))) < 1e-10


def test_reconstruct_matches_mean_plus_modes(rng):
    grid, ip, mean, bases = make_setup(rng, nx=500, q=5)
    traj = ReducedTrajectory(times=np.arange(40.0), alphas=rng.standard_normal((40, 5)))
    rec = reconstruct_field(bases[0], mean, traj, param=0.3)
    expected = mean[:, None] + bases[0] @ traj.alphas.T
    assert np.max(np.abs(rec.values - expected)) <= 1e-14 * np.max(np.abs(expected))
    assert rec.param == 0.3 and rec.times is not traj.times


def whole_mix(bases, w, rotations):
    """Phi = sum_h w_h Phi_h Q_h over the nonzero weights as one N-by-q sum:
    the bitwise oracle of ``combined_basis``."""
    phi = np.zeros_like(bases[0])
    for wk, m, r in zip(w, bases, rotations):
        if wk != 0.0:
            phi += wk * (m @ r)
    return phi


def whole_lift(phi, mean, alphas):
    """The lift formed whole, [Phi | mean] @ [alphas^T; 1]: the bitwise
    oracle of ``reconstruct_field``."""
    return np.hstack([phi, mean[:, None]]) @ np.vstack([alphas.T, np.ones(len(alphas))])


# the block size the field sizes below sit at the edges of; a lift is bitwise
# the same at any block size, the default among them (test_metrics)
EDGE_BLOCK_BYTES = 2 * 2**20
ROWS = EDGE_BLOCK_BYTES // (8 * 200)  # rows of one such block of a 200-column field


@pytest.fixture
def edge_blocks(monkeypatch):
    monkeypatch.setattr(rom, "BLOCK_BYTES", EDGE_BLOCK_BYTES)


@pytest.mark.usefixtures("edge_blocks")
@pytest.mark.parametrize("nx, ns", [(2000, 200), (3 * ROWS + 1, 200), (ROWS + 17, 200),
                                    (41, 200), (2, 200), (1, 200), (5000, 1), (7, 3)])
def test_lift_is_bitwise_the_whole_product(rng, nx, ns):
    q = 7
    bases = [rng.standard_normal((nx, q)) for _ in range(4)]
    rotations = [np.linalg.qr(rng.standard_normal((q, q)))[0] for _ in range(4)]
    w = np.array([0.35, 0.0, 0.9, -0.25])  # the zero weight's basis is not mixed
    mean = 1.0 + rng.standard_normal(nx)
    traj = ReducedTrajectory(times=0.3 + 0.005 * np.arange(ns),
                             alphas=rng.standard_normal((ns, q)))
    phi = whole_mix(bases, w, rotations)
    basis = combined_basis(bases, WeightVector(w), rotations)
    np.testing.assert_array_equal(basis, phi)
    got = reconstruct_field(basis, mean, traj, 0.07)
    np.testing.assert_array_equal(got.values, whole_lift(phi, mean, traj.alphas))
    assert got.param == 0.07 and got.times is not traj.times
    field = factored_field(basis, mean, traj)
    np.testing.assert_array_equal(field.factor, np.hstack([phi, mean[:, None]]))
    # an explicit basis (ITSGM, truth-POD) is lifted as it is
    explicit = reconstruct_field(bases[2], mean, traj)
    np.testing.assert_array_equal(explicit.values, whole_lift(bases[2], mean, traj.alphas))


def test_factored_field_forms_each_factor_once_on_first_use(rng):
    phi, mean = rng.standard_normal((50, 3)), rng.standard_normal(50)
    traj = ReducedTrajectory(times=np.arange(4.0), alphas=rng.standard_normal((4, 3)))
    field = factored_field(phi, mean, traj)
    assert not {"factor", "coeffs"} & set(vars(field)) and field.shape == (50, 4)
    factor, coeffs = field.factor, field.coeffs
    assert field.factor is factor and field.coeffs is coeffs
    np.testing.assert_array_equal(factor, np.column_stack([phi, mean]))
    np.testing.assert_array_equal(coeffs, np.vstack([traj.alphas.T, np.ones(4)]))


@pytest.mark.parametrize("nx, ns, block_bytes", [
    (2000, 200, 64 * 2**10), (2000, 200, rom.BLOCK_BYTES), (2000, 200, EDGE_BLOCK_BYTES),
    (3 * ROWS + 1, 200, EDGE_BLOCK_BYTES), (ROWS + 17, 200, EDGE_BLOCK_BYTES),
    (41, 200, 64 * 2**10), (2, 200, 16), (1, 200, 16), (5000, 1, 16), (7, 3, 16)])
def test_blocked_lift_is_bitwise_the_whole_product(rng, monkeypatch, nx, ns, block_bytes):
    """The lift the error sums of ``metrics`` take, ``FactoredField.rows``
    over ``row_blocks`` into one reused buffer, is bitwise the whole
    product at any block size."""
    monkeypatch.setattr(rom, "BLOCK_BYTES", block_bytes)
    q = 7
    phi = rng.standard_normal((nx, q))
    mean = 1.0 + rng.standard_normal(nx)
    traj = ReducedTrajectory(times=0.3 + 0.005 * np.arange(ns),
                             alphas=rng.standard_normal((ns, q)))
    field = factored_field(phi, mean, traj)
    bounds = rom.row_blocks(nx, ns)
    block = np.empty((max(j - i for i, j in bounds), ns))
    got = np.vstack([field.rows(i, j, out=block[:j - i]).copy() for i, j in bounds])
    np.testing.assert_array_equal(got, whole_lift(phi, mean, traj.alphas))


@pytest.mark.usefixtures("edge_blocks")
@pytest.mark.parametrize("nx, ns", [(1, 1), (1, 200), (2, 200), (3 * ROWS + 1, 200),
                                    (3 * ROWS + 2, 200), (5000, 1), (0, 5)])
def test_row_blocks_cover_the_rows_with_no_single_row_block(nx, ns):
    bounds = rom.row_blocks(nx, ns)
    assert [i for i, _ in bounds[1:]] == [j for _, j in bounds[:-1]]
    assert (bounds[0][0], bounds[-1][1]) == (0, nx) if nx else bounds == []
    assert all(j - i >= 2 for i, j in bounds) or bounds == [(0, 1)]
    assert max((j - i for i, j in bounds), default=0) <= max(ROWS + 1, nx if ns == 1 else 0)


def test_combined_basis_checks_one_weight_and_rotation_per_basis(rng):
    bases = [rng.standard_normal((10, 2)) for _ in range(3)]
    for w, rotations in (([1.0, 0.0], [np.eye(2)] * 3), ([1.0, 0.0, 0.0], [np.eye(2)] * 2),
                         ([1.0, 0.0, 0.0], [np.eye(2), np.eye(2), np.eye(3)])):
        with pytest.raises(ShapeMismatchError):
            combined_basis(bases, WeightVector(np.array(w)), rotations)


def test_block_initial_condition_matches_projection_oracle(rng):
    grid, ip, mean, bases = make_setup(rng, nx=80, q=3, count=3)
    ct = assemble_cross_tensors(bases, mean, ip, grid.gradient)
    phi = np.hstack(bases)
    ics = mean[:, None] + rng.standard_normal((grid.n, 3))
    for w in ([0.2, 0.5, 0.3], [0.0, 1.0, 0.0], [1.6, -0.9, 0.3]):
        res = karcher_barycenter(bases, w, init=int(np.argmax(w)))
        model = update_reduced_model(ct, WeightVector(np.array(w)), res.rotations, 0.07)
        S = np.vstack([wk * r for wk, r in zip(w, res.rotations)])
        oracle_basis = combined_basis(bases, WeightVector(np.array(w)), res.rotations)
        for u0 in (ics @ w, ics[:, 0]):
            coords = phi.T @ (ip * (u0 - mean))
            oracle = initial_condition(oracle_basis, mean, ip, u0)
            alpha0 = np.linalg.solve(model.M, S.T @ coords)
            assert relative_gap(alpha0, oracle) < 1e-10


def test_reconstruct_shape_mismatch(rng):
    grid, ip, mean, bases = make_setup(rng, q=2)
    traj = ReducedTrajectory(times=np.array([0.0]), alphas=np.zeros((1, 3)))
    with pytest.raises(ShapeMismatchError):
        reconstruct_field(bases[0], mean, traj)


# ------------------------------------------------ trained-point consistency

def test_delta_weights_reproduce_single_basis_trajectory(rng):
    grid, ip, mean, _ = make_setup(rng, nx=64, q=3, count=3)
    snaps = [np.cumsum(rng.standard_normal((64, 12)), axis=1) for _ in range(3)]
    pods = [compute_pod(s, ip, q=3) for s in snaps]
    ct = assemble_cross_tensors([p.modes for p in pods], mean, ip, grid.gradient)
    h = 1
    w = np.zeros(3)
    w[h] = 1.0
    res = karcher_barycenter([p.modes for p in pods], w, init=0)
    rot = res.rotations[h]

    u0 = mean + snaps[h][:, 0] * 0.05
    nu, dt, steps = 0.08, 1e-3, 400

    single = direct_project(pods[h].modes, mean, ip, grid.gradient, nu)
    a0 = initial_condition(pods[h].modes, mean, ip, u0)
    traj_single = integrate_rom(single, a0, dt, steps)

    model = update_reduced_model(ct, WeightVector(w), res.rotations, nu)
    phi = combined_basis([p.modes for p in pods], WeightVector(w), res.rotations)
    a0b = initial_condition(phi, mean, ip, u0)
    traj_bary = integrate_rom(model, a0b, dt, steps)

    aligned = traj_single.alphas @ rot  # Q^T a per time, transposed layout
    assert np.max(np.abs(traj_bary.alphas - aligned)) < 1e-8
