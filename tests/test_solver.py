import re

import numpy as np
import pytest

from baryrom import (
    DivergedSolutionError,
    Grid1D,
    ShapeMismatchError,
    SolverConfig,
    initial_profile,
    run,
    run_batch,
    step,
)
from baryrom import solver
from baryrom.solver import diffusion_symbol


def periodic_laplacian_dense(n, dx):
    L = np.zeros((n, n))
    for i in range(n):
        L[i, i] = -2.0
        L[i, (i + 1) % n] = 1.0
        L[i, (i - 1) % n] = 1.0
    return L / dx**2


def step_reference(u, up, cfg, grid):
    """The plain step, two convections with np.roll shifts; the bitwise
    oracle for the buffered one-convection loop in solver.run."""
    inv2dx = 1.0 / (2.0 * grid.dx)

    def conv(v):
        vp = np.roll(v, -1)
        vm = np.roll(v, 1)
        return (0.5 * v * (vp - vm) + 0.25 * (vp * vp - vm * vm)) * inv2dx

    if cfg.convection:
        rhs = u - cfg.dt * (1.5 * conv(u) - 0.5 * conv(up))
    else:
        rhs = u.copy()
    ahat = diffusion_symbol(grid.n, cfg.nu * cfg.dt / grid.dx**2)
    return np.fft.irfft(np.fft.rfft(rhs) / ahat, n=grid.n)


def run_reference(cfg, grid):
    u = initial_profile(cfg, grid)
    up = u.copy()
    for _ in range(cfg.transient):
        u, up = step_reference(u, up, cfg, grid), u
    saved = [u]
    for s in range(1, cfg.steps + 1):
        u, up = step_reference(u, up, cfg, grid), u
        if s % cfg.save_every == 0:
            saved.append(u)
    return np.column_stack(saved)


# ------------------------------------------------------------- single step

def test_constant_state_is_fixed_point():
    grid = Grid1D(32, 1.0)
    cfg = SolverConfig(nu=0.2, dt=0.01, steps=1)
    u = np.full(32, 3.7)
    out = step(u, u, cfg, grid)
    np.testing.assert_allclose(out, u, atol=1e-13)


def test_implicit_solve_matches_dense_oracle():
    # diffusion only: one step must solve (I - nu dt L) u = u_old exactly
    n, nu, dt = 16, 0.3, 0.01
    grid = Grid1D(n, 1.0)
    cfg = SolverConfig(nu=nu, dt=dt, steps=1, convection=False)
    A = np.eye(n) - nu * dt * periodic_laplacian_dense(n, grid.dx)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(n)
        np.testing.assert_allclose(step(u, u, cfg, grid),
                                   np.linalg.solve(A, u), atol=1e-13)


def test_full_step_matches_dense_oracle():
    # with convection: rhs = u - dt*(1.5 N(u1) - 0.5 N(u2)), skew form
    n, nu, dt = 24, 0.05, 0.002
    grid = Grid1D(n, 2 * np.pi)
    cfg = SolverConfig(nu=nu, dt=dt, steps=1)
    A = np.eye(n) - nu * dt * periodic_laplacian_dense(n, grid.dx)
    rng = np.random.default_rng(1)
    u1 = 1.0 + 0.3 * rng.standard_normal(n)
    u2 = 1.0 + 0.3 * rng.standard_normal(n)

    def conv(v):
        vp = np.roll(v, -1)
        vm = np.roll(v, 1)
        return (0.5 * v * (vp - vm) + 0.25 * (vp**2 - vm**2)) / (2 * grid.dx)

    rhs = u1 - dt * (1.5 * conv(u1) - 0.5 * conv(u2))
    np.testing.assert_allclose(step(u1, u2, cfg, grid),
                               np.linalg.solve(A, rhs), atol=1e-13)


@pytest.mark.parametrize("convection", [True, False])
@pytest.mark.parametrize("n", [8, 40, 256])
def test_step_is_bitwise_the_reference_step(n, convection):
    grid = Grid1D(n, 2 * np.pi)
    cfg = SolverConfig(nu=0.05, dt=2e-3, steps=1, convection=convection)
    rng = np.random.default_rng(n)
    u1 = 1.0 + 0.3 * rng.standard_normal(n)
    u2 = 1.0 + 0.3 * rng.standard_normal(n)
    assert step(u1, u2, cfg, grid).tobytes() == step_reference(u1, u2, cfg, grid).tobytes()


def test_step_validates_shapes():
    grid = Grid1D(16, 1.0)
    cfg = SolverConfig(nu=0.1, dt=0.01, steps=1)
    with pytest.raises(ShapeMismatchError):
        step(np.zeros(8), np.zeros(8), cfg, grid)


# ------------------------------------------------------------- convergence

def test_heat_limit_temporal_first_order():
    # convection off, compare against the exact semi-discrete decay of the
    # grid eigenmode sin(x): error must halve when dt halves
    grid = Grid1D(64, 2 * np.pi)
    nu, t_end = 0.5, 0.5
    u0 = np.sin(grid.x)
    # sin(x) is an exact eigenvector of the 3-point Laplacian
    lam = -nu * (2.0 - 2.0 * np.cos(2 * np.pi / grid.n)) / grid.dx**2
    exact = np.exp(lam * t_end) * u0
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        steps = round(t_end / dt)
        cfg = SolverConfig(nu=nu, dt=dt, steps=steps, initial=u0,
                           save_every=steps, convection=False)
        snap = run(cfg, grid)
        errs.append(np.max(np.abs(snap.values[:, -1] - exact)))
    for a, b in zip(errs, errs[1:]):
        assert 1.7 < a / b < 2.3


def test_heat_limit_tracks_continuum_solution():
    grid = Grid1D(256, 2 * np.pi)
    nu, t_end, dt = 0.3, 0.4, 1e-3
    steps = round(t_end / dt)
    cfg = SolverConfig(nu=nu, dt=dt, steps=steps, initial=np.sin(grid.x),
                       save_every=steps, convection=False)
    snap = run(cfg, grid)
    exact = np.exp(-nu * t_end) * np.sin(grid.x)
    assert np.max(np.abs(snap.values[:, -1] - exact)) < 5e-4  # O(dt) + O(dx^2)


def test_spatial_second_order():
    # full nonlinear scheme vs a fine-grid reference at matching points
    nu, dt, t_end = 0.1, 1e-4, 0.25
    steps = round(t_end / dt)
    length = 2 * np.pi

    def final_state(n):
        grid = Grid1D(n, length)
        cfg = SolverConfig(nu=nu, dt=dt, steps=steps, initial="two_mode",
                           save_every=steps)
        return run(cfg, grid).values[:, -1]

    ref = final_state(512)
    errs = []
    for n in (32, 64, 128):
        coarse = final_state(n)
        stride = 512 // n
        errs.append(np.max(np.abs(coarse - ref[::stride])))
    for a, b in zip(errs, errs[1:]):
        assert 3.0 < a / b < 5.2


# --------------------------------------------------------------- invariants

def test_momentum_conservation():
    grid = Grid1D(128, 2 * np.pi)
    cfg = SolverConfig(nu=0.05, dt=1e-3, steps=200, save_every=1)
    snap = run(cfg, grid)
    means = snap.values.mean(axis=0)
    assert np.max(np.abs(np.diff(means))) < 1e-12


def test_diffusion_never_amplifies():
    grid = Grid1D(64, 1.0)
    cfg = SolverConfig(nu=0.4, dt=0.05, steps=1, convection=False)
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.standard_normal(64)
        out = step(u, u, cfg, grid)
        assert np.linalg.norm(out) <= np.linalg.norm(u) * (1 + 1e-14)


# --------------------------------------------------------------------- run

def test_run_zero_steps_returns_initial():
    grid = Grid1D(32, 2 * np.pi)
    cfg = SolverConfig(nu=0.1, dt=1e-3, steps=0)
    snap = run(cfg, grid)
    np.testing.assert_array_equal(snap.values[:, 0], initial_profile(cfg, grid))
    assert snap.values.shape == (32, 1)
    assert snap.times[0] == 0.0


def test_run_strong_damping_reaches_uniform_state():
    grid = Grid1D(64, 2 * np.pi)
    cfg = SolverConfig(nu=2.0, dt=1e-3, steps=8000, save_every=8000)
    final = run(cfg, grid).values[:, -1]
    assert np.max(np.abs(final - final.mean())) < 1e-6


def test_run_is_deterministic():
    grid = Grid1D(48, 2 * np.pi)
    cfg = SolverConfig(nu=0.07, dt=1e-3, steps=60, save_every=10, transient=15)
    a = run(cfg, grid)
    b = run(cfg, grid)
    assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("transient, save_every", [(0, 1), (25, 1), (0, 4), (13, 5)])
@pytest.mark.parametrize("convection", [True, False])
@pytest.mark.parametrize("n", [8, 40, 256])
def test_run_is_bitwise_the_reference_loop(n, convection, transient, save_every):
    grid = Grid1D(n, 2 * np.pi)
    cfg = SolverConfig(nu=0.07, dt=1e-3, steps=42, save_every=save_every,
                       transient=transient, convection=convection)
    snap = run(cfg, grid)
    ref = run_reference(cfg, grid)
    assert snap.values.shape == ref.shape
    assert snap.values.tobytes() == ref.tobytes()


def test_one_convection_per_step(monkeypatch):
    # N(u_prev) once per run, then one N(u) per step: 1 + 13 + 8*5
    kernel = solver._convection_kernel
    calls = []

    def counting_kernel(n, inv2dx):
        convection = kernel(n, inv2dx)

        def counted(v):
            calls.append(1)
            return convection(v)
        return counted

    monkeypatch.setattr(solver, "_convection_kernel", counting_kernel)
    cfg = SolverConfig(nu=0.07, dt=1e-3, steps=42, save_every=5, transient=13)
    run(cfg, Grid1D(40, 2 * np.pi))
    assert len(calls) == 1 + 13 + 40


def test_divergence_detected():
    grid = Grid1D(32, 2 * np.pi)
    cfg = SolverConfig(nu=0.01, dt=1e-3, steps=10,
                       initial=1e7 * np.sin(Grid1D(32, 2 * np.pi).x))
    with pytest.raises(DivergedSolutionError):
        run(cfg, grid)


@pytest.mark.parametrize("convection", [True, False])
def test_nan_state_is_detected_at_its_substep(convection):
    grid = Grid1D(32, 2 * np.pi)
    u0 = np.ones(32)
    u0[5] = np.nan
    cfg = SolverConfig(nu=0.1, dt=1e-3, steps=10, initial=u0, convection=convection)
    with pytest.raises(DivergedSolutionError, match=r"substep 1 \("):
        run(cfg, grid)


def test_divergence_names_the_step_counted_from_the_run_start():
    # the same blow-up, whatever the transient and sampling interval
    grid = Grid1D(64, 2 * np.pi)
    substeps = set()
    for transient, save_every in [(0, 1), (0, 5), (7, 5)]:
        cfg = SolverConfig(nu=1e-4, dt=0.05, steps=2000, save_every=save_every,
                           transient=transient)
        with pytest.raises(DivergedSolutionError) as exc:
            run(cfg, grid)
        substeps.add(re.search(r"at substep (\d+) \(", str(exc.value)).group(1))
    assert len(substeps) == 1


@pytest.mark.parametrize("field, value", [("nu", np.nan), ("nu", np.inf),
                                          ("dt", np.nan), ("dt", np.inf)])
def test_nonfinite_solver_settings_rejected(field, value):
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(**{"nu": 0.1, "dt": 1e-3, "steps": 1, field: value})


@pytest.mark.parametrize("length", [np.nan, np.inf, 0.0, -1.0])
def test_grid_length_must_be_positive_and_finite(length):
    with pytest.raises(ValueError, match="finite"):
        Grid1D(32, length)


def test_unknown_profile_rejected():
    grid = Grid1D(32, 2 * np.pi)
    with pytest.raises(ValueError):
        initial_profile(SolverConfig(nu=0.1, dt=1e-3, steps=1, initial="sawtooth"),
                        grid)


def test_custom_initial_vector():
    grid = Grid1D(32, 2 * np.pi)
    u0 = np.cos(3 * grid.x)
    cfg = SolverConfig(nu=0.1, dt=1e-3, steps=0, initial=u0)
    np.testing.assert_array_equal(run(cfg, grid).values[:, 0], u0)


# ------------------------------------------------------------------- batch

@pytest.mark.parametrize("transient, save_every", [(0, 1), (13, 1), (0, 5), (13, 5)])
@pytest.mark.parametrize("convection", [True, False])
@pytest.mark.parametrize("n", [8, 40, 256])
@pytest.mark.parametrize("members", [1, 3, 7])
def test_run_batch_is_bitwise_the_reference_loop(members, n, convection, transient,
                                                 save_every):
    grid = Grid1D(n, 2 * np.pi)
    cfgs = [SolverConfig(nu=0.03 + 0.015 * b, dt=1e-3, steps=42, save_every=save_every,
                         transient=transient, convection=convection)
            for b in range(members)]
    snaps = run_batch(cfgs, grid)
    assert len(snaps) == members
    for cfg, snap in zip(cfgs, snaps):
        ref = run_reference(cfg, grid)
        assert snap.param == cfg.nu
        assert snap.values.shape == ref.shape
        assert snap.values.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(snap.times, run(cfg, grid).times)


def test_run_batch_marches_one_run_as_a_1d_state(monkeypatch):
    shapes = []
    march = solver._march

    def recording(u, *args, **kwargs):
        shapes.append(u.shape)
        return march(u, *args, **kwargs)

    monkeypatch.setattr(solver, "_march", recording)
    grid = Grid1D(40, 2 * np.pi)
    run(SolverConfig(nu=0.07, dt=1e-3, steps=10), grid)
    run_batch([SolverConfig(nu=nu, dt=1e-3, steps=10) for nu in (0.05, 0.07)], grid)
    assert shapes == [(40,), (2, 40)]


def test_run_batch_rejects_configs_that_differ_beyond_nu():
    grid = Grid1D(16, 2 * np.pi)
    with pytest.raises(ValueError, match="differ only"):
        run_batch([SolverConfig(nu=0.05, dt=1e-3, steps=10),
                   SolverConfig(nu=0.07, dt=2e-3, steps=10)], grid)


def test_batch_divergence_names_the_diverging_member_and_its_substep():
    # only nu=1e-3 blows up; the batch names it at the substep its own run does
    grid = Grid1D(64, 2 * np.pi)
    cfgs = [SolverConfig(nu=nu, dt=0.03, steps=400, save_every=4, transient=40)
            for nu in (0.05, 1e-3, 0.09)]
    with pytest.raises(DivergedSolutionError) as alone:
        run(cfgs[1], grid)
    for cfg in (cfgs[0], cfgs[2]):
        run(cfg, grid)
    with pytest.raises(DivergedSolutionError) as batch:
        run_batch(cfgs, grid)
    assert str(batch.value) == str(alone.value)
    assert "(nu=0.001," in str(batch.value)
