"""Truncated POD bases via the snapshot correlation matrix.

The correlation route solves an N_s-by-N_s eigenproblem (``np.linalg.eigh``)
instead of factoring the N_x-by-N_s snapshot matrix directly, which is the
cheap side whenever snapshots are far fewer than spatial degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankTooSmallError, ShapeMismatchError


class InnerProduct:
    """Discrete weighted L2 inner product with a scalar weight, the uniform
    quadrature cell size.  The weight must be positive and finite."""

    def __init__(self, weight):
        self.weight = float(weight)
        if not 0.0 < self.weight < np.inf:
            raise ValueError(f"weight must be positive and finite, got {self.weight}")

    def apply(self, a):
        """Multiply a field (N,) or stacked fields (N, k) by the weight."""
        return self.weight * np.asarray(a, dtype=float)

    def dot(self, a, b):
        return float(np.sum(self.apply(a) * np.asarray(b, dtype=float)))

    def norm(self, a):
        return float(np.sqrt(max(self.dot(a, a), 0.0)))


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


def compute_pod(fluct, ip: InnerProduct, q: int) -> PODBasis:
    """POD of mean-subtracted snapshots through the correlation matrix.

    Builds C_ij = <u_i, u_j>_W from the (N, Ns) fluctuations ``fluct``,
    eigendecomposes it, and assembles the q leading modes as eigenvalue-
    normalized snapshot combinations.  The modes come out W-orthonormal.
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
    corr *= ip.weight
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


def energy_fraction(basis: PODBasis, q: int) -> float:
    """Fraction of total correlation energy captured by the first q modes."""
    evals = basis.eigenvalues
    if not 0 <= q <= evals.size:
        raise ValueError(f"q must lie in 0..{evals.size}, got {q}")
    total = float(evals.sum())
    if total == 0.0:
        return 1.0
    return float(evals[:q].sum() / total)
