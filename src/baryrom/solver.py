"""Desk-scale high-fidelity generator: 1D periodic viscous Burgers.

du/dt - nu d2u/dx2 + u du/dx = 0 on a uniform periodic grid, stepped
with backward-Euler time differencing, fully implicit diffusion and
two-step extrapolated (Adams-Bashforth) convection:

    (I - nu*dt*L) u^n = u^{n-1} - (3dt/2) N(u^{n-1}) + (dt/2) N(u^{n-2})

L is the standard 3-point periodic Laplacian.  Convection uses the split
skew form 0.5*u*u_x + 0.25*(u^2)_x with central differences, which keeps
the discrete mean of u exactly constant.  The very first step has no
u^{n-2}; it reuses u^{n-1}, degrading that one step to explicit Euler
convection.

The implicit system is circulant, so it is solved exactly by
diagonalization in Fourier space: one rfft, a product with the reciprocal
of the symbol of I - nu*dt*L and one irfft per step.

Each run is one loop, set up once: the symbol's reciprocal, N(u^{n-2}),
the padded and right-hand-side buffers.  Each step evaluates one convection;
N(u^{n-1}) is carried, halved, into the next step as its N(u^{n-2}) term.
The +-1 shifts are views of one padded (n+2) copy of the state whose two
end cells hold the periodic wrap.  Saved states are written into the
snapshot matrix from inside the loop, and steps are counted from the
run's first step.  The floating-point operations and their order are
those of the plain expression above (numpy divides a complex by a real
as a product with the real's reciprocal), so the snapshots are bitwise
the same as evaluating it term by term.

``run_batch`` marches B runs that differ only in nu (and the initial
state) through the same loop on a (B, n) state: every operation acts
along the last axis, the symbol's reciprocal is (B, n/2+1), and each
numpy call serves all B runs.  Each member's snapshots are bitwise those
of its own ``run``, which marches a 1-D state (a (1, n) one costs more
per call).  The divergence check is
one max over the whole batch per step; only when it fails is the first
offending member located, and the error names its nu and the substep.
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
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError(f"length must be positive and finite, got {self.length!r}")

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
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be positive and finite, got {self.nu!r}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
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


def _convection_kernel(shape, inv2dx):
    """N(v) = (0.5*v*(v+ - v-) + 0.25*(v+*v+ - v-*v-)) * inv2dx, the split
    skew form with central differences along the last axis of a state of
    ``shape``, written into one reused buffer.

    v+ and v- (the periodic +-1 shifts) are views of one padded copy of v.
    Returns the buffer; the next call overwrites it.
    """
    *lead, n = shape
    pad = np.empty((*lead, n + 2))
    body, vp, vm = pad[..., 1:-1], pad[..., 2:], pad[..., :-2]
    ends = pad[..., ::n + 1]  # cells 0 and n+1, the periodic wrap
    out, t1, t2 = np.empty(shape), np.empty(shape), np.empty(shape)

    def convection(v):
        body[...] = v
        ends[...] = v[..., ::1 - n]  # cells n-1 and 0
        np.subtract(vp, vm, out=t1)
        np.multiply(v, 0.5, out=out)
        np.multiply(out, t1, out=out)
        np.multiply(vp, vp, out=t1)
        np.multiply(vm, vm, out=t2)
        np.subtract(t1, t2, out=t1)
        np.multiply(t1, 0.25, out=t1)
        np.add(out, t1, out=out)
        np.multiply(out, inv2dx, out=out)
        return out

    return convection


def _march(u, up, cfgs, grid: Grid1D, nsteps, values=None):
    """Advance nsteps steps from the states u (step n-1) and up (n-2) and
    return the last state.  A state is (n,) for one config or (B, n) for
    B configs, which differ only in nu and the initial state; every
    operation acts along the last axis.  Steps count from 1; with
    ``values``, (n, S) or (B, n, S), the state after step k goes into
    column (k - transient) / save_every whenever that is a whole number
    >= 0.

    rhs = u - dt*(1.5*N(u) - 0.5*N(up)) with one convection per step:
    0.5*N(u) is kept as the next step's 0.5*N(up).
    """
    cfg = cfgs[0]
    dt, n = cfg.dt, grid.n
    inv = 1.0 / np.array([diffusion_symbol(n, c.nu * dt / grid.dx**2)
                          for c in cfgs]).reshape(*u.shape[:-1], -1)
    mag = np.empty(u.shape)
    if cfg.convection:
        convection = _convection_kernel(u.shape, 1.0 / (2.0 * grid.dx))
        rhs = np.empty(u.shape)
        half_prev = 0.5 * convection(up)
    for k in range(1, nsteps + 1):
        if cfg.convection:
            conv = convection(u)
            np.multiply(conv, 1.5, out=rhs)
            rhs -= half_prev
            rhs *= dt
            np.subtract(u, rhs, out=rhs)
            np.multiply(conv, 0.5, out=half_prev)
        else:
            rhs = u
        u = np.fft.irfft(np.fft.rfft(rhs) * inv, n=n)
        np.abs(u, out=mag)
        if not (mag.max() <= DIVERGENCE_CAP):  # true for nan too
            bad = cfgs[np.flatnonzero(~(mag.max(axis=-1) <= DIVERGENCE_CAP))[0]]
            raise DivergedSolutionError(
                f"solution exceeded {DIVERGENCE_CAP:.0e} or is not finite at substep "
                f"{k} (nu={bad.nu}, dt={bad.dt})"
            )
        if values is not None:
            j, r = divmod(k - cfg.transient, cfg.save_every)
            if r == 0 and j >= 0:
                values[..., j] = u
    return u


def step(u_nm1, u_nm2, cfg: SolverConfig, grid: Grid1D) -> np.ndarray:
    """One time step from states at n-1 and n-2 (pass u_nm2 = u_nm1 to boot)."""
    u_nm1 = np.asarray(u_nm1, dtype=float)
    u_nm2 = np.asarray(u_nm2, dtype=float)
    if u_nm1.shape != (grid.n,) or u_nm2.shape != (grid.n,):
        raise ShapeMismatchError("state length does not match the grid")
    return _march(u_nm1, u_nm2, [cfg], grid, 1)


def run(cfg: SolverConfig, grid: Grid1D) -> SnapshotMatrix:
    """Integrate from the initial profile and collect snapshots.

    The first ``transient`` steps are discarded; the state entering the
    sampling window is stored immediately, then every ``save_every``-th
    state up to ``steps`` further steps.  Deterministic: identical
    configurations produce bitwise-identical snapshot matrices.
    """
    return run_batch([cfg], grid)[0]


def run_batch(cfgs, grid: Grid1D) -> list:
    """``[run(cfg, grid) for cfg in cfgs]``, bitwise, from one step loop
    over a (B, n) state.  The configs may differ in nu and the initial
    state only; the snapshot matrices are views of one (B, n, S) array.
    """
    cfg = cfgs[0]
    if len({(c.dt, c.steps, c.save_every, c.transient, c.convection) for c in cfgs}) > 1:
        raise ValueError("the configs of one batch may differ only in nu and initial")
    u = np.stack([initial_profile(c, grid) for c in cfgs])
    n_saves = cfg.steps // cfg.save_every
    values = np.empty((*u.shape, n_saves + 1))
    values[..., 0] = u  # replaced at the last transient step, if there is one
    one = 0 if len(cfgs) == 1 else slice(None)  # one run marches a 1-D state
    _march(u[one], u[one], cfgs, grid, cfg.transient + n_saves * cfg.save_every,
           values[one])
    times = (cfg.transient + cfg.save_every * np.arange(n_saves + 1)) * cfg.dt
    return [SnapshotMatrix(values=v, times=times, param=c.nu) for c, v in zip(cfgs, values)]
