import re

import numpy as np
import pytest
import scipy.linalg

from baryrom import (
    DivergedSolutionError,
    Grid1D,
    InnerProduct,
    ReducedModel,
    ReducedTrajectory,
    ShapeMismatchError,
    SingularMassError,
    WeightVector,
    assemble_cross_tensors,
    combined_basis,
    compute_pod,
    direct_project,
    initial_condition,
    integrate_rom,
    karcher_barycenter,
    reconstruct_field,
    update_reduced_model,
)
from baryrom import pipeline
from conftest import close_family


def make_setup(rng, nx=24, q=2, count=2, length=2 * np.pi):
    grid = Grid1D(nx, length)
    ip = InnerProduct(grid.dx)
    mean = 1.0 + 0.4 * np.sin(grid.x) + 0.1 * np.cos(2 * grid.x)
    bases = close_family(rng, nx, q, count, spread=0.2, scale=1.0 / np.sqrt(grid.dx))
    return grid, ip, mean, bases


# --------------------------------------------------- brute-force quadrature

def naive_blocks(bases, mean, weight, grad):
    """Entrywise double/triple loops over grid points; no BLAS, no einsum."""
    np_ = len(bases)
    nx, q = bases[0].shape
    d = [grad(b) for b in bases]
    dmean = grad(mean)
    M = np.zeros((np_, np_, q, q))
    R = np.zeros((np_, np_, q, q))
    Cb = np.zeros((np_, np_, q, q))
    C = np.zeros((np_, np_, np_, q, q, q))
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
                    M[h, k, i, j] = m
                    R[h, k, i, j] = r
                    Cb[h, k, i, j] = cb
            for n in range(np_):
                for s in range(q):
                    for i in range(q):
                        for j in range(q):
                            acc = 0.0
                            for x in range(nx):
                                acc += weight * bases[k][x, j] * d[n][x, s] * bases[h][x, i]
                            C[h, k, n, s, i, j] = acc
    for k in range(np_):
        for i in range(q):
            fd = fc = 0.0
            for x in range(nx):
                fd -= weight * dmean[x] * d[k][x, i]
                fc -= weight * mean[x] * dmean[x] * bases[k][x, i]
            Fd[k, i] = fd
            Fc[k, i] = fc
    return M, R, Cb, C, Fc, Fd


@pytest.mark.parametrize("count, q", [(2, 2), (3, 2), (2, 3)])
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


def test_single_basis_mass_is_identity(rng):
    grid = Grid1D(40, 2 * np.pi)
    ip = InnerProduct(grid.dx)
    basis = compute_pod(np.cumsum(rng.standard_normal((40, 8)), axis=1), ip, q=3)
    ct = assemble_cross_tensors([basis.modes], np.zeros(40), ip, grid.gradient)
    assert np.max(np.abs(ct.M[0, 0] - np.eye(3))) < 1e-10


def test_constant_mean_kills_gradient_half_of_cbar(rng):
    grid, ip, _, bases = make_setup(rng)
    c = 2.5
    ct = assemble_cross_tensors(bases, np.full(grid.n, c), ip, grid.gradient)
    # with grad(mean) = 0 only the mean-advection half survives
    for h in range(len(bases)):
        for k in range(len(bases)):
            expected = bases[h].T @ ip.apply(c * grid.gradient(bases[k]))
            np.testing.assert_allclose(ct.Cbar[h, k], expected, atol=1e-12)


def test_mass_grid_symmetry(rng):
    grid, ip, mean, bases = make_setup(rng, count=3)
    ct = assemble_cross_tensors(bases, mean, ip, grid.gradient)
    for h in range(3):
        for k in range(3):
            np.testing.assert_allclose(ct.M[h, k], ct.M[k, h].T, atol=1e-12)


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
        model = update_reduced_model(ct, WeightVector(w, 0.0), res.rotations, nu=0.07)
        phi = combined_basis(bases, w, res.rotations)
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
    model = update_reduced_model(ct, WeightVector(w, 0.0), res.rotations, nu=0.05)
    assert np.max(np.abs(model.M - np.eye(3))) < 1e-10


def test_update_touches_no_mesh_sized_array(rng):
    grid, ip, mean, bases = make_setup(rng, nx=200, q=3, count=3)
    ct = assemble_cross_tensors(bases, mean, ip, grid.gradient)
    small = {len(bases), 3}
    for name in ("M", "R", "Cbar", "C", "F_conv", "F_diff"):
        arr = getattr(ct, name)
        assert set(arr.shape) <= small, f"{name} leaks mesh-sized data: {arr.shape}"


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
    oracle = np.einsum("xi,xj,xe->eij", ip.apply(phi), phi, grid.gradient(phi),
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


def test_integrate_singular_mass():
    model = zero_model(2)
    model.M = np.zeros((2, 2))
    with pytest.raises(SingularMassError):
        integrate_rom(model, np.zeros(2), dt=0.1, steps=1)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_integrate_non_finite_mass_is_singular(bad):
    # np.linalg.cholesky factors an inf or nan diagonal without an error
    model = zero_model(2)
    model.M[0, 0] = bad
    with pytest.raises(SingularMassError, match="not finite"):
        integrate_rom(model, np.zeros(2), dt=0.1, steps=1)


def test_integrate_failed_fold_is_singular(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularMassError, match="Singular matrix"):
        integrate_rom(zero_model(2), np.zeros(2), dt=0.1, steps=1)


def test_integrate_negative_diffusion_diverges():
    model = zero_model(2)
    model.R = -100.0 * np.eye(2)  # anti-diffusion: every step multiplies a by ~640
    with pytest.raises(DivergedSolutionError):
        integrate_rom(model, np.array([1.0, -1.0]), dt=0.1, steps=1000,
                      record_every=10)
    # overflow past float64 takes ~110 steps: the run stops at the first
    # recorded state after that instead of stepping on to the end
    with pytest.raises(DivergedSolutionError, match=r"by step \d+") as exc:
        integrate_rom(model, np.array([1.0, -1.0]), dt=0.1, steps=10**6,
                      record_every=10)
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
            with pytest.raises(DivergedSolutionError, match=r"at step 0$"):
                integrate_rom(zero_model(3), a0, dt=0.1, steps=10, record_every=5)
            model = zero_model(3)
            model.F[i] = bad  # a finite start that turns non-finite in step 1
            with pytest.raises(DivergedSolutionError, match=r"by step 5$"):
                integrate_rom(model, np.ones(3), dt=0.1, steps=10, record_every=5)


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


@pytest.mark.parametrize("nu", [0.052, 0.083, 0.108])
def test_integrate_matches_solve_oracle_on_default_study(study, nu):
    # the stacked stage operators against textbook stages with a solve in
    # each, on the barycentric operators of the default nx=256, q=7 study
    _, model, a0 = pipeline.online_model(study, pipeline.study_weights(study, nu), nu)
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
    _, model, a0 = pipeline.online_model(study, pipeline.study_weights(study, nu), nu)
    cfg = study.cfg
    traj = integrate_rom(model, a0, cfg.dt, cfg.steps)
    ref = folded_run(model, a0, cfg.dt, cfg.steps, fold=cholesky_fold)[1].alphas
    assert np.abs(traj.alphas - ref).max() <= 64 * np.finfo(float).eps * np.abs(ref).max()


def test_integrate_records_copies_at_exact_times(study):
    _, model, a0 = pipeline.online_model(study, pipeline.study_weights(study, 0.083), 0.083)
    a0_before = a0.copy()
    dt, steps, t0 = study.cfg.dt, 203, 0.37
    traj = integrate_rom(model, a0, dt, steps, record_every=5, t0=t0)
    np.testing.assert_array_equal(a0, a0_before)
    np.testing.assert_array_equal(traj.times,
                                  [t0 + s * dt for s in range(0, steps + 1, 5)])
    ref = rk4_reference(model, a0, dt, steps)[::5]
    assert np.abs(traj.alphas - ref).max() <= 1e-12 * np.abs(ref).max()
    # a second call, from another state, leaves the first result alone
    first = traj.alphas.copy()
    other = integrate_rom(model, 0.5 * a0, dt, steps, record_every=5, t0=t0)
    np.testing.assert_array_equal(traj.alphas, first)
    assert not np.shares_memory(traj.alphas, other.alphas)
    assert np.abs(other.alphas - first).max() > 1e-3 * np.abs(first).max()


def test_integrate_record_every():
    model = zero_model(1)
    traj = integrate_rom(model, np.array([2.0]), dt=0.5, steps=10, record_every=5,
                         t0=1.0)
    np.testing.assert_allclose(traj.times, [1.0, 3.5, 6.0])


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
    ip = InnerProduct(grid.dx)
    truth = np.cumsum(rng.standard_normal((48, 10)), axis=1)
    mean = truth.mean(axis=1)
    fluct = truth - mean[:, None]
    basis = compute_pod(fluct, ip, q=4)
    alphas = (basis.modes.T @ ip.apply(fluct)).T
    rec = reconstruct_field(basis.modes, mean,
                            ReducedTrajectory(times=np.arange(10.0), alphas=alphas))
    err_sq = float(np.sum(ip.apply(truth - rec.values) * (truth - rec.values)))
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
    assert np.max(np.abs(bases[0].T @ ip.apply(resid))) < 1e-10


def test_reconstruct_matches_mean_plus_modes(rng):
    grid, ip, mean, bases = make_setup(rng, nx=500, q=5)
    traj = ReducedTrajectory(times=np.arange(40.0), alphas=rng.standard_normal((40, 5)))
    rec = reconstruct_field(bases[0], mean, traj, param=0.3)
    expected = mean[:, None] + bases[0] @ traj.alphas.T
    assert np.max(np.abs(rec.values - expected)) <= 1e-14 * np.max(np.abs(expected))
    assert rec.param == 0.3 and rec.times is not traj.times


def test_block_initial_condition_matches_projection_oracle(rng):
    grid, ip, mean, bases = make_setup(rng, nx=80, q=3, count=3)
    ct = assemble_cross_tensors(bases, mean, ip, grid.gradient)
    phi = np.hstack(bases)
    ics = mean[:, None] + rng.standard_normal((grid.n, 3))
    for w in ([0.2, 0.5, 0.3], [0.0, 1.0, 0.0], [1.6, -0.9, 0.3]):
        res = karcher_barycenter(bases, w, init=int(np.argmax(w)))
        model = update_reduced_model(ct, WeightVector(np.array(w), 0.0), res.rotations, 0.07)
        S = np.vstack([wk * r for wk, r in zip(w, res.rotations)])
        oracle_basis = combined_basis(bases, w, res.rotations)
        for u0 in (ics @ w, ics[:, 0]):
            coords = phi.T @ ip.apply(u0 - mean)
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

    model = update_reduced_model(ct, WeightVector(w, 0.0), res.rotations, nu)
    phi = combined_basis([p.modes for p in pods], w, res.rotations)
    a0b = initial_condition(phi, mean, ip, u0)
    traj_bary = integrate_rom(model, a0b, dt, steps)

    aligned = traj_single.alphas @ rot  # Q^T a per time, transposed layout
    assert np.max(np.abs(traj_bary.alphas - aligned)) < 1e-8
