"""Desk-scale high-fidelity generator: 1D periodic viscous Burgers.

du/dt - nu d2u/dx2 + u du/dx = 0 on a uniform periodic grid, advanced
with backward-Euler time differencing, fully implicit diffusion and
two-step extrapolated (Adams-Bashforth) convection:

    (I - nu*dt*L) u^n = u^{n-1} - (3dt/2) N(u^{n-1}) + (dt/2) N(u^{n-2})

L is the standard 3-point periodic Laplacian.  Convection uses the split
skew form 0.5*u*u_x + 0.25*(u^2)_x with central differences, which keeps
the discrete mean of u exactly constant.  The very first step has no
u^{n-2}; it reuses u^{n-1}, degrading that one step to explicit Euler
convection.

The implicit system is circulant, so it is solved exactly by
diagonalization in Fourier space: one rfft, a division by the symbol of
I - nu*dt*L and one irfft per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergedSolutionError, ShapeMismatchError
from .pod import SnapshotMatrix

INITIAL_PROFILES = ("sine", "two_mode")
DIVERGENCE_CAP = 1e6


@dataclass
class Grid1D:
    """Uniform periodic grid without a duplicated endpoint."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid needs n >= 8, got {self.n}")
        if self.length <= 0:
            raise ValueError("length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def gradient(self, f):
        """Central-difference d/dx along axis 0, periodic wrap."""
        f = np.asarray(f, dtype=float)
        return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * self.dx)


@dataclass
class SolverConfig:
    nu: float
    dt: float
    steps: int
    initial: object = "two_mode"
    save_every: int = 1
    transient: int = 0
    convection: bool = True

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 0 or self.transient < 0:
            raise ValueError("step counts must be nonnegative")
        if self.save_every < 1:
            raise ValueError("save_every must be >= 1")


def initial_profile(cfg: SolverConfig, grid: Grid1D) -> np.ndarray:
    if isinstance(cfg.initial, str):
        x = grid.x
        k = 2.0 * np.pi / grid.length
        if cfg.initial == "sine":
            return 1.0 + 0.5 * np.sin(k * x)
        if cfg.initial == "two_mode":
            return 1.0 + 0.5 * np.sin(k * x) + 0.25 * np.sin(2.0 * k * x)
        raise ValueError(f"unknown initial profile {cfg.initial!r}; "
                         f"use one of {INITIAL_PROFILES} or an explicit vector")
    u0 = np.asarray(cfg.initial, dtype=float)
    if u0.shape != (grid.n,):
        raise ShapeMismatchError(f"initial vector length {u0.shape} != grid n {grid.n}")
    return u0.copy()


def resolve_backend() -> str:
    """Name of the one solver implementation, the numpy FFT loop.

    Kept so that benchmark reports can record the backend in their
    environment line (``perfbench/run.py`` imports it).
    """
    return "numpy"


def diffusion_symbol(n, r):
    """Fourier symbol of I - r*(shift - 2 + shift^-1) on rfft frequencies."""
    k = np.arange(n // 2 + 1)
    return 1.0 + 4.0 * r * np.sin(np.pi * k / n) ** 2


def _convection(v, inv2dx):
    # split skew form: 0.5*v*dv/dx + 0.25*d(v*v)/dx, central differences
    vp = np.roll(v, -1)
    vm = np.roll(v, 1)
    return (0.5 * v * (vp - vm) + 0.25 * (vp * vp - vm * vm)) * inv2dx


class Stepper:
    """Holds the per-(grid, nu, dt) solver precomputation."""

    def __init__(self, cfg: SolverConfig, grid: Grid1D):
        self.cfg = cfg
        self.grid = grid
        self._symbol = diffusion_symbol(grid.n, cfg.nu * cfg.dt / grid.dx**2)

    def advance(self, u, u_prev, nsteps):
        """Advance nsteps; returns (u, u_prev). Chunked calls compose
        exactly: advance(a)+advance(b) equals advance(a+b) bitwise."""
        cfg = self.cfg
        dt, ahat, conv_on = cfg.dt, self._symbol, cfg.convection
        u = u.copy()
        up = u_prev.copy()
        n = u.size
        inv2dx = 1.0 / (2.0 * self.grid.dx)
        for step in range(nsteps):
            if conv_on:
                rhs = u - dt * (1.5 * _convection(u, inv2dx) - 0.5 * _convection(up, inv2dx))
            else:
                rhs = u.copy()
            unew = np.fft.irfft(np.fft.rfft(rhs) / ahat, n=n)
            up = u
            u = unew
            if np.max(np.abs(u)) > DIVERGENCE_CAP:
                raise DivergedSolutionError(
                    f"solution exceeded {DIVERGENCE_CAP:.0e} at substep "
                    f"{step + 1} (nu={cfg.nu}, dt={cfg.dt})"
                )
        return u, up


def step(u_nm1, u_nm2, cfg: SolverConfig, grid: Grid1D) -> np.ndarray:
    """One time step from states at n-1 and n-2 (pass u_nm2 = u_nm1 to boot)."""
    u_nm1 = np.asarray(u_nm1, dtype=float)
    u_nm2 = np.asarray(u_nm2, dtype=float)
    if u_nm1.shape != (grid.n,) or u_nm2.shape != (grid.n,):
        raise ShapeMismatchError("state length does not match the grid")
    u, _ = Stepper(cfg, grid).advance(u_nm1, u_nm2, 1)
    return u


def run(cfg: SolverConfig, grid: Grid1D) -> SnapshotMatrix:
    """Integrate from the initial profile and collect snapshots.

    The first ``transient`` steps are discarded; the state entering the
    sampling window is stored immediately, then every ``save_every``-th
    state up to ``steps`` further steps.  Deterministic: identical
    configurations produce bitwise-identical snapshot matrices.
    """
    stepper = Stepper(cfg, grid)
    u = initial_profile(cfg, grid)
    up = u.copy()
    if cfg.transient:
        u, up = stepper.advance(u, up, cfg.transient)
    n_saves = cfg.steps // cfg.save_every
    values = np.empty((grid.n, n_saves + 1))
    times = np.empty(n_saves + 1)
    values[:, 0] = u
    times[0] = cfg.transient * cfg.dt
    for j in range(1, n_saves + 1):
        u, up = stepper.advance(u, up, cfg.save_every)
        values[:, j] = u
        times[j] = (cfg.transient + j * cfg.save_every) * cfg.dt
    return SnapshotMatrix(values=values, times=times, param=cfg.nu)
