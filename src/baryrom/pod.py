"""Truncated POD bases via the snapshot correlation matrix.

The correlation route solves an N_s-by-N_s eigenproblem (``np.linalg.eigh``)
instead of factoring the N_x-by-N_s snapshot matrix directly, which is the
cheap side whenever snapshots are far fewer than spatial degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankTooSmallError, ShapeMismatchError


@dataclass
class SnapshotMatrix:
    """Stored states of one run: one column per saved instant."""

    values: np.ndarray
    times: np.ndarray
    param: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        if self.values.ndim != 2:
            raise ShapeMismatchError("values must be 2-D (space x time)")
        if self.times.shape != (self.values.shape[1],):
            raise ShapeMismatchError("one time stamp per column required")
        if self.times.size >= 2 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.param = float(self.param)


def sample_times(t0: float, dt: float, every: int, count: int) -> np.ndarray:
    """The ``count`` instants t0 + k (every dt) of a run sampled every
    ``every`` steps of dt from t0.  The solver, the stored runs and the
    reduced trajectories all take their instants from here, so their
    instants agree bit for bit: a march of steps h = every dt that records
    every state, ``sample_times(t0, h, 1, count)``, has the same instants
    as one of steps dt that records every ``every``-th, since 1 h is h.
    The one array is worked in place."""
    times = np.arange(count, dtype=float)
    times *= every * dt
    times += t0
    return times


@dataclass
class PODBasis:
    """Leading modes (weighted-orthonormal columns) plus the full spectrum.

    ``eigenvalues`` keeps every correlation eigenvalue, clipped at zero
    and sorted descending, so truncation energy can be judged after the
    fact; ``modes`` holds only the first q of them.
    """

    modes: np.ndarray
    eigenvalues: np.ndarray


def global_mean(snapshot_sets):
    """Entrywise average over every column of every set."""
    if not snapshot_sets:
        raise ValueError("need at least one snapshot set")
    nx = snapshot_sets[0].values.shape[0]
    ns = snapshot_sets[0].values.shape[1]
    for s in snapshot_sets:
        if s.values.shape[0] != nx:
            raise ShapeMismatchError("snapshot sets differ in spatial size")
        if s.values.shape[1] != ns:
            raise ShapeMismatchError("snapshot sets differ in sample count")
    return mean_of_row_sums([s.values.sum(axis=1) for s in snapshot_sets], ns)


def mean_of_row_sums(row_sums, ns: int) -> np.ndarray:
    """``global_mean`` of sets of ns columns each, from each set's row sums
    ``values.sum(axis=1)``, added in the order given.  A caller that sees
    the sets one at a time keeps only these sums."""
    total = np.zeros_like(row_sums[0])
    for row_sum in row_sums:
        total += row_sum
    return total / (len(row_sums) * ns)


def compute_pod(fluct, ip: float, q: int) -> PODBasis:
    """POD of mean-subtracted snapshots through the correlation matrix.

    Builds C_ij = ip u_i . u_j (``ip`` the cell size) from the (N, Ns)
    fluctuations ``fluct``, eigendecomposes it, and assembles the q leading
    modes as eigenvalue-normalized snapshot combinations, ip-orthonormal.
    Mean subtraction is the caller's job.

    Raises RankTooSmallError when the q-th eigenvalue falls below
    1e-14 times the leading one.
    """
    u = np.asarray(fluct, dtype=float)
    if u.ndim != 2:
        raise ShapeMismatchError("fluctuations must be 2-D (space x time)")
    ns = u.shape[1]
    if not 1 <= q <= ns:
        raise ValueError(f"q must lie in 1..{ns}, got {q}")
    # u.T @ u runs as one symmetric rank-k update (syrk), which fills both
    # triangles alike and makes no weighted copy of u
    corr = u.T @ u
    corr *= ip
    evals, evecs = np.linalg.eigh(corr)
    evals = evals[::-1].copy()
    evecs = evecs[:, ::-1]
    if evals[0] <= 0.0 or evals[q - 1] <= 1e-14 * evals[0]:
        raise RankTooSmallError(
            f"snapshot data supports fewer than q={q} modes "
            f"(lambda_q/lambda_1 = {evals[q - 1] / max(evals[0], 1e-300):.3e})"
        )
    modes = u @ (evecs[:, :q] / np.sqrt(evals[:q]))
    # deterministic sign: largest-magnitude entry of each mode is positive
    for k in range(q):
        if modes[np.argmax(np.abs(modes[:, k])), k] < 0:
            modes[:, k] = -modes[:, k]
    return PODBasis(modes=modes, eigenvalues=np.clip(evals, 0.0, None))
