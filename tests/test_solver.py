import re
import tracemalloc

import numpy as np
import pytest

from baryrom import (
    DivergedSolutionError,
    Grid1D,
    SolverConfig,
    initial_profile,
    run,
    run_batch,
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


# ------------------------------------------------------------ single steps

def first_states(grid, u0, **cfg):
    """States 0, 1 and 2 of a two-step run from u0, saving every step."""
    values = run(SolverConfig(**cfg, steps=2, initial=u0, save_every=1), grid).values
    return values[:, 0], values[:, 1], values[:, 2]


def test_constant_state_is_fixed_point():
    grid = Grid1D(32, 1.0)
    u = np.full(32, 3.7)
    for out in first_states(grid, u, nu=0.2, dt=0.01)[1:]:
        np.testing.assert_allclose(out, u, atol=1e-13)


def test_implicit_solve_matches_dense_oracle():
    # diffusion only: each step must solve (I - nu dt L) u = u_old exactly
    n, nu, dt = 16, 0.3, 0.01
    grid = Grid1D(n, 1.0)
    A = np.eye(n) - nu * dt * periodic_laplacian_dense(n, grid.dx)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u0, u1, u2 = first_states(grid, rng.standard_normal(n), nu=nu, dt=dt,
                                  convection=False)
        np.testing.assert_allclose(u1, np.linalg.solve(A, u0), atol=1e-13)
        np.testing.assert_allclose(u2, np.linalg.solve(A, u1), atol=1e-13)


def test_full_step_matches_dense_oracle():
    # with convection, step 2: rhs = u1 - dt*(1.5 N(u1) - 0.5 N(u0)), skew form
    n, nu, dt = 24, 0.05, 0.002
    grid = Grid1D(n, 2 * np.pi)
    A = np.eye(n) - nu * dt * periodic_laplacian_dense(n, grid.dx)
    rng = np.random.default_rng(1)
    u0, u1, u2 = first_states(grid, 1.0 + 0.3 * rng.standard_normal(n), nu=nu, dt=dt)
    assert np.max(np.abs(u1 - u0)) > 1e-3  # the two states step 2 combines differ

    def conv(v):
        vp = np.roll(v, -1)
        vm = np.roll(v, 1)
        return (0.5 * v * (vp - vm) + 0.25 * (vp**2 - vm**2)) / (2 * grid.dx)

    rhs = u1 - dt * (1.5 * conv(u1) - 0.5 * conv(u0))
    np.testing.assert_allclose(u2, np.linalg.solve(A, rhs), atol=1e-13)


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
    rng = np.random.default_rng(3)
    for _ in range(10):
        u0, u1, u2 = first_states(grid, rng.standard_normal(64), nu=0.4, dt=0.05,
                                  convection=False)
        assert np.linalg.norm(u1) <= np.linalg.norm(u0) * (1 + 1e-14)
        assert np.linalg.norm(u2) <= np.linalg.norm(u1) * (1 + 1e-14)


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
    convection = solver._convection
    calls = []

    def counted(*args):
        calls.append(1)
        return convection(*args)

    monkeypatch.setattr(solver, "_convection", counted)
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


@pytest.mark.parametrize("n", [8, 256])
def test_grid_cell_size_has_a_finite_nonzero_square(n):
    # the cell size is the quadrature weight, and the solver divides by its square
    for length in (1e-200, 1e160):
        with pytest.raises(ValueError, match="finite and nonzero"):
            Grid1D(n, length)
    for length in (1e-150, 1e150):
        assert 0.0 < Grid1D(n, length).dx ** 2 < np.inf


def test_a_diffusion_number_that_overflows_is_a_value_error():
    # dx**2 is subnormal here, so nu dt / dx**2 overflows and the symbol is not finite
    with pytest.raises(ValueError, match=r"nu=0\.05 overflows the implicit step"):
        run(SolverConfig(nu=0.05, dt=1e-3, steps=1), Grid1D(256, 1e-158))


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
    # members of a batch may start from different profiles: every other one is the sine
    grid = Grid1D(n, 2 * np.pi)
    cfgs = [SolverConfig(nu=0.03 + 0.015 * b, dt=1e-3, steps=42, save_every=save_every,
                         transient=transient, convection=convection,
                         initial=("two_mode", "sine")[b % 2])
            for b in range(members)]
    snaps = run_batch(cfgs, grid)
    assert len(snaps) == members
    for cfg, snap in zip(cfgs, snaps):
        ref = run_reference(cfg, grid)
        assert snap.param == cfg.nu
        assert snap.values.shape == ref.shape
        assert snap.values.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(snap.times, run(cfg, grid).times)


def test_run_batch_is_bitwise_the_reference_loop_at_a_large_grid():
    # at n=20000 numpy's FFT takes another path than at n <= 256, and the
    # irfft writes into the strided body of the padded (B, n+2) buffer
    grid = Grid1D(20000, 2 * np.pi)
    cfgs = [SolverConfig(nu=nu, dt=1e-3, steps=24, save_every=4, transient=7,
                         initial=initial)
            for nu, initial in [(0.05, "two_mode"), (0.09, "sine")]]
    for cfg, snap in zip(cfgs, run_batch(cfgs, grid)):
        assert snap.values.tobytes() == run_reference(cfg, grid).tobytes()


def test_run_batch_is_bitwise_the_reference_loop_at_the_study_shape():
    # the default study: 7 viscosities at n=2000 in one batch, past a transient
    grid = Grid1D(2000, 2 * np.pi)
    cfgs = [SolverConfig(nu=nu, dt=1e-3, steps=995, save_every=5, transient=300)
            for nu in (0.05, 0.07, 0.09, 0.11, 0.06, 0.08, 0.10)]
    for cfg, snap in zip(cfgs, run_batch(cfgs, grid)):
        assert snap.values.tobytes() == run_reference(cfg, grid).tobytes()


def test_run_batch_is_bitwise_the_reference_loop_across_amplitudes():
    # the loop's power-of-two folds, (v*d + 0.5*s)*(0.5*inv2dx) for the
    # reference's (0.5*v*d + 0.25*s)*inv2dx and (3c - c')*(dt/2) for
    # dt*(1.5c - 0.5c'), are exact at every scale without subnormal products
    grid = Grid1D(256, 2 * np.pi)
    base = initial_profile(SolverConfig(nu=0.07, dt=1e-3, steps=1), grid)
    cfgs = [SolverConfig(nu=0.07, dt=1e-3, steps=42, save_every=5, transient=13,
                         initial=amplitude * base)
            for amplitude in np.logspace(-6, 0, 7)]
    for cfg, snap in zip(cfgs, run_batch(cfgs, grid)):
        assert snap.values.tobytes() == run_reference(cfg, grid).tobytes()


@pytest.mark.parametrize("convection", [True, False])
@pytest.mark.parametrize("B, n", [(2, 20000), (7, 2000)])
def test_step_loop_allocates_no_array(B, n, convection):
    # Beyond the snapshot array, the traced peak is the loop's fixed buffers:
    # the padded state, its squares and rhs (each B*(n+2)), N(u) and N(up)
    # (each B*(n+2) - 2, aligned with the state's inner cells), the spectrum
    # and the complex symbol reciprocal (without convection: the padded
    # state and the two spectra).  An rfft, product or irfft result made on
    # each step would add a state-sized array or more, and so would a ufunc
    # that buffers a strided operand (numpy does below n = 8192 for B >= 2).
    grid = Grid1D(n, 2 * np.pi)
    cfgs = [SolverConfig(nu=0.05 + 0.01 * b, dt=1e-3, steps=20, save_every=10,
                         transient=5, convection=convection) for b in range(B)]
    run_batch(cfgs, grid)  # numpy's one-off FFT set-up
    tracemalloc.start()
    try:
        snaps = run_batch(cfgs, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded, flat = 8 * B * (n + 2), 8 * (B * (n + 2) - 2)
    state, spectrum = 8 * B * n, 16 * B * (n // 2 + 1)
    fixed = (3 * padded + 2 * flat if convection else padded) + 2 * spectrum
    assert peak - snaps[0].values.base.nbytes <= fixed + state // 20


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


@pytest.mark.parametrize("convection", [True, False])
@pytest.mark.parametrize("cell, value", [(0, 4e6), (-1, 4e6), (5, -4e6)])
def test_divergence_at_the_row_ends_and_below_the_cap(cell, value, convection):
    # a state above the cap only in its first or last cell, whose copies
    # are the wrap cells, or below -cap: named at the substep of its own run
    grid = Grid1D(32, 2 * np.pi)
    u0 = np.ones(32)
    u0[cell] = value
    cfgs = [SolverConfig(nu=nu, dt=1e-3, steps=10, initial=initial, convection=convection)
            for nu, initial in [(0.05, "two_mode"), (0.01, u0), (0.09, "sine")]]
    with pytest.raises(DivergedSolutionError, match=r"at substep 1 \(nu=0.01,") as alone:
        run(cfgs[1], grid)
    with pytest.raises(DivergedSolutionError) as batch:
        run_batch(cfgs, grid)
    assert str(batch.value) == str(alone.value)
