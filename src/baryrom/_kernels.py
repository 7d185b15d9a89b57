"""Hot time-stepping kernels for the periodic Burgers solver.

Two interchangeable backends advance the same scheme:

* ``advance_nb`` -- numba-jitted loops; the implicit diffusion system is
  solved exactly with a cyclic Thomas factorization (Sherman-Morrison
  corner correction) precomputed once per run.
* ``advance_np`` -- pure numpy; the same circulant system is solved
  exactly by diagonalization in Fourier space.

The jitted path is used when numba imports and the environment variable
``BARYROM_NO_NUMBA`` is unset (or set to a falsy string); see
``benchmarks/bench_solver_kernels.py`` for a head-to-head timing.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is the optional "fast" extra
    HAVE_NUMBA = False

_FALSY = ("", "0", "false", "no", "off")

DIVERGENCE_CAP = 1e6


def numba_enabled() -> bool:
    if not HAVE_NUMBA:
        return False
    return os.environ.get("BARYROM_NO_NUMBA", "").strip().lower() in _FALSY


def thomas_factor(n, r):
    """Factor the cyclic tridiagonal matrix I - r*(shift - 2 + shift^-1).

    The periodic corners are split off as a rank-one update; the returned
    arrays let each solve run in O(n): ``w``/``m`` are the eliminated
    diagonal and multipliers of the tridiagonal core, ``z`` the
    presolved correction column, ``denom`` its Sherman-Morrison scalar
    and ``rb`` the corner coupling ratio.
    """
    b = 1.0 + 2.0 * r
    diag = np.full(n, b)
    diag[0] = 2.0 * b
    diag[-1] = b + r * r / b
    w = np.empty(n)
    m = np.empty(n)
    w[0] = diag[0]
    m[0] = 0.0
    for i in range(1, n):
        m[i] = -r / w[i - 1]
        w[i] = diag[i] - r * r / w[i - 1]
    rhs = np.zeros(n)
    rhs[0] = -b
    rhs[-1] = -r
    z = _thomas_solve(w, m, r, rhs)
    rb = r / b
    denom = 1.0 + z[0] + rb * z[-1]
    return w, m, z, denom, rb


def _thomas_solve(w, m, r, rhs):
    n = rhs.size
    y = np.empty(n)
    y[0] = rhs[0]
    for i in range(1, n):
        y[i] = rhs[i] - m[i] * y[i - 1]
    x = np.empty(n)
    x[-1] = y[-1] / w[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (y[i] + r * x[i + 1]) / w[i]
    return x


def diffusion_symbol(n, r):
    """Fourier symbol of I - r*(shift - 2 + shift^-1) on rfft frequencies."""
    k = np.arange(n // 2 + 1)
    return 1.0 + 4.0 * r * np.sin(np.pi * k / n) ** 2


def _convection_np(v, inv2dx):
    # split skew form: 0.5*v*dv/dx + 0.25*d(v*v)/dx, central differences
    vp = np.roll(v, -1)
    vm = np.roll(v, 1)
    return (0.5 * v * (vp - vm) + 0.25 * (vp * vp - vm * vm)) * inv2dx


def advance_np(u0, up0, nsteps, dt, dx, ahat, conv_on, cap=DIVERGENCE_CAP):
    """Vectorized backend. Returns (u, u_prev, status); status is 0 on
    success or the 1-based step index at which the cap was exceeded."""
    u = u0.copy()
    up = up0.copy()
    n = u.size
    inv2dx = 1.0 / (2.0 * dx)
    for step in range(nsteps):
        if conv_on:
            rhs = u - dt * (1.5 * _convection_np(u, inv2dx) - 0.5 * _convection_np(up, inv2dx))
        else:
            rhs = u.copy()
        unew = np.fft.irfft(np.fft.rfft(rhs) / ahat, n=n)
        up = u
        u = unew
        if np.max(np.abs(u)) > cap:
            return u, up, step + 1
    return u, up, 0


if HAVE_NUMBA:

    @njit(cache=True)
    def advance_nb(u0, up0, nsteps, dt, dx, r, w, m, z, denom, rb, conv_on, cap):
        n = u0.shape[0]
        u = u0.copy()
        up = up0.copy()
        rhs = np.empty(n)
        y = np.empty(n)
        x = np.empty(n)
        inv2dx = 1.0 / (2.0 * dx)
        for step in range(nsteps):
            if conv_on:
                for i in range(n):
                    ip1 = i + 1 if i + 1 < n else 0
                    im1 = i - 1 if i > 0 else n - 1
                    c1 = (0.5 * u[i] * (u[ip1] - u[im1])
                          + 0.25 * (u[ip1] * u[ip1] - u[im1] * u[im1])) * inv2dx
                    c2 = (0.5 * up[i] * (up[ip1] - up[im1])
                          + 0.25 * (up[ip1] * up[ip1] - up[im1] * up[im1])) * inv2dx
                    rhs[i] = u[i] - dt * (1.5 * c1 - 0.5 * c2)
            else:
                for i in range(n):
                    rhs[i] = u[i]
            y[0] = rhs[0]
            for i in range(1, n):
                y[i] = rhs[i] - m[i] * y[i - 1]
            x[n - 1] = y[n - 1] / w[n - 1]
            for i in range(n - 2, -1, -1):
                x[i] = (y[i] + r * x[i + 1]) / w[i]
            corr = (x[0] + rb * x[n - 1]) / denom
            amax = 0.0
            for i in range(n):
                xi = x[i] - corr * z[i]
                up[i] = u[i]
                u[i] = xi
                a = abs(xi)
                if a > amax:
                    amax = a
            if amax > cap:
                return u, up, step + 1
        return u, up, 0

else:  # pragma: no cover

    def advance_nb(*args, **kwargs):
        raise RuntimeError("numba backend requested but numba is not installed")
