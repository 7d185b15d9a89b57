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

Each run is one loop, set up once (the symbol's reciprocal, the buffers
and N(u^{n-2})), with one convection per step: the N(u^{n-1}) buffer
becomes the next step's N(u^{n-2}) by a swap.  The state lives in one
flat buffer P of B*(n+2) cells, each row's body between its two periodic
wrap cells; the convection, rhs and scratch buffers are flat too and
line up with P[1:-1], so the +-1 shifts are P[2:] and P[:-2] and every
elementwise pass runs over contiguous memory.  The cells between rows
hold finite values that nothing reads.  The FFTs write into the run's
own buffers, irfft straight into the body; rfft reads the rhs through a
(B, n) row view.  The wrap cells are refreshed once per step, right
after the irfft, which serves both the next convection and the
divergence check, a max and a min over P.  The step loop makes no array.
Saved states are written into the snapshot matrix from inside the loop,
and steps are counted from the run's first step.

The snapshots are bitwise those of the plain expression above, evaluated
term by term (numpy divides a complex by a real as a product with the
real's reciprocal).  Two of its products are folded by powers of two,
which are exact whenever no product is subnormal, since scaling by 2^k
commutes with rounding:

    (0.5*v*(v+ - v-) + 0.25*s)*inv2dx  =  (v*(v+ - v-) + 0.5*s)*(0.5*inv2dx)
    dt*(1.5*c - 0.5*c')                =  (3*c - c')*(dt/2)

with s = v+*v+ - v-*v- and c, c' the two convections: each rounded
intermediate on the left is exactly half of the one on the right, and
both sides round the same exact product last.

Every run marches a (B, n) state through that loop, B runs that differ
only in nu (and the initial state) at once: the FFTs act along the last
axis, the symbol's reciprocal is (B, n/2+1), and each numpy call serves
all B runs.  ``run`` is the case B = 1, and each member of a
``run_batch`` is bitwise its own ``run``.  The divergence check is one
max and one min over the whole batch per step; only when it fails is the
first offending member located, and the error names its nu and the
substep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergedSolutionError, ShapeMismatchError
from .pod import SnapshotMatrix, sample_times

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
        dx = float(self.dx)  # the quadrature weight; the solver divides by its square
        if not (self.length > 0 and 0.0 < dx * dx < np.inf):
            raise ValueError(f"length must be > 0 with (length/n)**2 finite and nonzero, "
                             f"got {self.length!r}")

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


def _inverse_symbols(cfgs, grid: Grid1D) -> np.ndarray:
    """1 / diffusion_symbol of each run's nu dt / dx^2, (B, n/2+1); a
    ValueError if a symbol is not finite, which the largest nu's is first."""
    with np.errstate(all="ignore"):  # a symbol that overflows is caught below
        symbols = np.array([diffusion_symbol(grid.n, c.nu * c.dt / grid.dx**2) for c in cfgs])
    if not np.isfinite(symbols).all():
        raise ValueError(f"nu*dt/dx^2 of nu={max(c.nu for c in cfgs)!r} overflows the implicit "
                         f"step on cells of {grid.dx!r}")
    return 1.0 / symbols


def _convection(flat, squares, out, tmp, scale):
    """N(v) = (v*(v+ - v-) + 0.5*(v+*v+ - v-*v-)) * scale into ``out``,
    the split skew form with central differences; ``scale`` is 0.5*(1/(2 dx)).

    ``flat`` is the flat padded state P with current wrap cells; ``out``
    and ``tmp`` line up with P[1:-1], so v, v+ and v- are P[1:-1], P[2:]
    and P[:-2].  One P*P pass into ``squares`` gives both squares through
    the same shifts.  ``tmp`` is scratch.
    """
    np.subtract(flat[2:], flat[:-2], out=tmp)
    np.multiply(flat[1:-1], tmp, out=out)
    np.multiply(flat, flat, out=squares)
    np.subtract(squares[2:], squares[:-2], out=tmp)
    tmp *= 0.5
    out += tmp
    out *= scale


def _march(u0, cfgs, grid: Grid1D, nsteps, values):
    """Advance nsteps steps from the (B, n) initial state u0, which also
    stands in for the state before it, and write the state after step k
    into column (k - transient) / save_every of the (B, n, S) ``values``
    whenever that is a whole number >= 0.  Row b is run cfgs[b].

    rhs = u - (3*N(u) - N(up))*(dt/2) with one convection per step: the
    N(u) buffer becomes the next step's N(up) by a swap.  The rhs buffer
    is shaped like the padded state and doubles as convection scratch.
    """
    cfg = cfgs[0]
    dt, n = cfg.dt, grid.n
    # cast once, as spec *= inv would on every step
    inv = _inverse_symbols(cfgs, grid).astype(complex)
    spec, pad = np.empty(inv.shape, dtype=complex), np.empty((len(cfgs), n + 2))
    flat, u = pad.reshape(-1), pad[:, 1:-1]
    ends, wrap = pad[:, ::n + 1], u[:, ::1 - n]  # cells 0 and n+1 <- cells n-1 and 0 of u
    u[...] = u0
    ends[...] = wrap
    if cfg.convection:
        scale, half_dt = 0.5 * (1.0 / (2.0 * grid.dx)), 0.5 * dt
        rhs_pad, sq = np.empty(pad.shape), np.empty(flat.shape)
        # rhs lines up with flat[1:-1], so rows[b, j] lines up with u[b, j]
        rhs, rows = rhs_pad.reshape(-1)[:-2], rhs_pad[:, :n]
        conv, prev = np.empty(rhs.shape), np.empty(rhs.shape)
        _convection(flat, sq, prev, rhs, scale)
    for k in range(1, nsteps + 1):
        if cfg.convection:
            _convection(flat, sq, conv, rhs, scale)
            np.multiply(conv, 3.0, out=rhs)
            rhs -= prev
            rhs *= half_dt
            np.subtract(flat[1:-1], rhs, out=rhs)
            conv, prev = prev, conv
            np.fft.rfft(rows, out=spec)
        else:
            np.fft.rfft(u, out=spec)
        spec *= inv
        np.fft.irfft(spec, n=n, out=u)
        ends[...] = wrap
        # true for nan too; the wrap cells are copies of body cells
        if not (flat.max() <= DIVERGENCE_CAP and -flat.min() <= DIVERGENCE_CAP):
            bad = cfgs[np.flatnonzero(~(np.abs(u).max(axis=-1) <= DIVERGENCE_CAP))[0]]
            raise DivergedSolutionError(
                f"solution exceeded {DIVERGENCE_CAP:.0e} or is not finite at substep "
                f"{k} (nu={bad.nu}, dt={bad.dt})"
            )
        j, r = divmod(k - cfg.transient, cfg.save_every)
        if r == 0 and j >= 0:
            values[..., j] = u


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
    n_saves = cfg.steps // cfg.save_every
    values = np.empty((len(cfgs), grid.n, n_saves + 1))
    for v, c in zip(values, cfgs):
        v[:, 0] = initial_profile(c, grid)  # replaced at the last transient step, if any
    _march(values[..., 0], cfgs, grid, cfg.transient + n_saves * cfg.save_every, values)
    times = sample_times(cfg.transient * cfg.dt, cfg.dt, cfg.save_every, n_saves + 1)
    return [SnapshotMatrix(values=v, times=times, param=c.nu) for c, v in zip(cfgs, values)]
