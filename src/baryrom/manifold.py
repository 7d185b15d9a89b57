"""Geometry of full-rank N-by-q matrices up to right orthogonal factors.

A point of the quotient space is the equivalence class of a full-rank
matrix under right multiplication by q-by-q orthogonal matrices, i.e. a
q-dimensional subspace carrying a distinguished scale.  Travel between
points is matrix addition of a horizontal tangent (the exponential), and
the inverse map aligns the target onto the base with the orthogonal
Procrustes rotation of their overlap.  The weighted Karcher barycenter of
several points is found with a plain fixed-point sweep on that alignment.

Every iterate of that sweep is a combination Phi = [Phi_1 ... Phi_Np] S
of the inputs with an (Np q)-by-q coefficient matrix S, so the sweep can
also run on the Gram matrix G = [Phi_1 ... Phi_Np]^T [Phi_1 ... Phi_Np]
of the stacked inputs alone: the overlap with input k is Phi^T Phi_k =
S^T G_k for the k-th column block G_k of G, and ||Phi||_F^2 = tr(S^T G S).
``gram_barycenter`` does that, touching no array the size of the mesh;
``karcher_barycenter`` runs on the N-by-q inputs and is its oracle.

A Grassmann tangent-space interpolation (the classical ITSGM baseline,
operating on orthonormal representatives with arctan/cos/sin of principal
angles) is provided for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NotConvergedError,
    RankDeficientError,
    ShapeMismatchError,
    SingularOverlapError,
)

RANK_TOL = 1e-12
OVERLAP_TOL = 1e-12


def _as_representative(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got ndim={m.ndim}")
    n, q = m.shape
    if not (n > q >= 1):
        raise ShapeMismatchError(f"{name} must be tall (N > q >= 1), got {m.shape}")
    return m


def _check_full_rank(m, name="matrix", rank_tol=RANK_TOL):
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= rank_tol * s[0]:
        raise RankDeficientError(
            f"{name} is rank deficient (sigma_min/sigma_max = "
            f"{0.0 if s[0] == 0 else s[-1] / s[0]:.3e})"
        )


def procrustes_rotation(base, target):
    """Orthogonal Q = V U^T minimizing ||target Q - base||_F.

    U, V come from the thin SVD of the overlap base^T target.  Raises
    SingularOverlapError when the overlap is numerically singular, in
    which case the alignment is not unique.
    """
    overlap = base.T @ target
    u, s, vt = np.linalg.svd(overlap)
    if s[0] == 0.0 or s[-1] <= OVERLAP_TOL * s[0]:
        raise SingularOverlapError(
            "overlap of representatives is numerically singular"
        )
    return vt.T @ u.T


def exp_map(base, tangent, rank_tol=RANK_TOL):
    """Exponential map: the class of base + tangent.

    The full-rank condition is checked at the endpoint only; rank loss
    strictly inside the segment is not detected.
    """
    base = _as_representative(base, "base")
    tangent = np.asarray(tangent, dtype=float)
    if tangent.shape != base.shape:
        raise ShapeMismatchError(
            f"tangent shape {tangent.shape} != base shape {base.shape}"
        )
    _check_full_rank(base, "base", rank_tol)
    endpoint = base + tangent
    _check_full_rank(endpoint, "base + tangent", rank_tol)
    return endpoint


def log_map(base, target):
    """Inverse of exp_map: tangent = target Q - base with Q = V U^T.

    Returns (tangent, rotation).  exp_map(base, tangent) represents the
    same point as target, re-aligned onto base.
    """
    base = _as_representative(base, "base")
    target = _as_representative(target, "target")
    if target.shape != base.shape:
        raise ShapeMismatchError(
            f"target shape {target.shape} != base shape {base.shape}"
        )
    rotation = procrustes_rotation(base, target)
    return target @ rotation - base, rotation


def distance(a, b):
    """Quotient distance ||b Q - a||_F with Q the Procrustes alignment."""
    tangent, _ = log_map(a, b)
    return float(np.linalg.norm(tangent))


def orthonormalize(m):
    """Thin QR factor with positive-diagonal convention (deterministic)."""
    m = _as_representative(m)
    qmat, rmat = np.linalg.qr(m)
    signs = np.sign(np.diag(rmat))
    signs[signs == 0.0] = 1.0
    return qmat * signs


def subspace_distance(a, b):
    """Quotient distance between the orthonormalized representatives.

    Insensitive to column scaling and right orthogonal factors of either
    argument; zero iff the two span the same subspace.
    """
    return distance(orthonormalize(a), orthonormalize(b))


@dataclass
class BarycenterResult:
    """Outcome of the fixed-point barycenter iteration.

    representative : the iterate at which the gradient norm was certified,
                     an (N, q) matrix from ``karcher_barycenter`` and its
                     (Np q, q) coefficients S from ``gram_barycenter``, the
                     iterate being [Phi_1 ... Phi_Np] S;
    rotations      : alignments of each input onto the representative
                     (identity for zero-weight inputs);
    iterations     : number of fixed-point sweeps performed, counting the
                     sweep that certified convergence;
    final_gradient_norm : ||phi - sum_k w_k phi_k Q_k||_F at the result;
    gradient_norms : that norm after every sweep (``gram_barycenter`` only);
    min_overlap_ratio : smallest sigma_min / sigma_max over every overlap
                     the sweeps factored; near 0, an alignment is close to
                     not being unique (``gram_barycenter`` only).
    """

    representative: np.ndarray
    rotations: list = field(default_factory=list)
    iterations: int = 0
    final_gradient_norm: float = np.inf
    converged: bool = False
    gradient_norms: list = field(default_factory=list)
    min_overlap_ratio: float = np.nan


def _checked_weights(weights, count):
    w = np.asarray(weights, dtype=float)
    if w.shape != (count,):
        raise ShapeMismatchError("one weight per basis required")
    with np.errstate(over="ignore"):  # an overflowed scale is rejected below
        scale = np.abs(w).sum()
    # a finite scale rules out nan/inf weights before the signed sum, which would warn
    if not (scale < np.inf and abs(w.sum() - 1.0) <= 1e-12 * max(1.0, scale)):
        raise ValueError(f"weights must sum to 1, got {w.tolist()}")
    return w


def _stalled(result, tol):
    return NotConvergedError(
        f"barycenter fixed point stalled at gradient norm {result.final_gradient_norm:.3e} "
        f"after {result.iterations} sweeps (tol {tol:.1e})",
        result,
    )


def karcher_barycenter(bases, weights, tol=1e-10, max_iter=100, init=0):
    """Weighted Karcher barycenter by fixed-point iteration.

    Each sweep aligns every (nonzero-weight) input onto the current
    iterate with its Procrustes rotation and replaces the iterate by the
    weighted sum of the aligned inputs; the gradient norm of the
    underlying weighted squared-distance objective is exactly the
    Frobenius distance between iterate and that weighted sum.

    Parameters
    ----------
    bases : sequence of (N, q) full-rank arrays
    weights : sequence of reals summing to 1, to roundoff relative to
        sum |w_k| (entries may be negative, as polynomial extrapolation
        produces; zero-weight inputs are skipped and reported with
        identity rotations)
    init : index into ``bases`` of the starting iterate

    Raises
    ------
    NotConvergedError
        after ``max_iter`` sweeps above ``tol``; carries the last iterate
        in its ``result`` attribute.
    """
    mats = [_as_representative(b, f"bases[{i}]") for i, b in enumerate(bases)]
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ShapeMismatchError(f"bases[{i}] shape {m.shape} != {shape}")
    w = _checked_weights(weights, len(mats))
    phi = mats[int(init)].copy()

    q = shape[1]
    active = [k for k in range(len(mats)) if w[k] != 0.0]
    rotations = [np.eye(q) for _ in mats]
    gnorm = np.inf
    # an iterate overflowed by far extrapolation fails the tolerance below
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(1, max_iter + 1):
            for k in active:
                rotations[k] = procrustes_rotation(phi, mats[k])
            candidate = np.zeros(shape)
            for k in active:
                candidate += w[k] * (mats[k] @ rotations[k])
            gnorm = float(np.linalg.norm(phi - candidate))
            if gnorm <= tol:
                return BarycenterResult(phi, rotations, sweep, gnorm, True)
            phi = candidate

    raise _stalled(BarycenterResult(phi, rotations, max_iter, gnorm, False), tol)


def gram_barycenter(gram, weights, q, tol=1e-10, max_iter=100, init=0):
    """``karcher_barycenter`` run on the inputs' Gram matrix alone.

    ``gram`` is the (Np q)-by-(Np q) Gram matrix of the stacked inputs
    [Phi_1 ... Phi_Np], each q columns wide.  The iterate is held as its
    coefficients S, Phi = [Phi_1 ... Phi_Np] S: it starts with the identity
    in block row ``init`` (all else zero) and each sweep sets block row k
    to w_k Q_k.  The overlaps of one sweep are one product, S^T G_k for
    every active k, and one stacked SVD.  The gradient norm is the Gram
    quadratic form of the difference D = S_old - S_new, sqrt(tr(D^T G D)),
    so it keeps its accuracy as it approaches zero.  Sweeps, rotations,
    stopping rule and errors are those of ``karcher_barycenter``; the
    result's ``representative`` is the certified iterate's S.
    """
    G = np.asarray(gram, dtype=float)
    n = G.shape[0] if G.ndim == 2 else -1
    if G.shape != (n, n) or q < 1 or n % q:
        raise ShapeMismatchError(f"Gram matrix must be square in blocks of {q}, got {G.shape}")
    np_ = n // q
    w = _checked_weights(weights, np_)
    active = np.flatnonzero(w)
    w_active = w[active, None, None]
    cols = G.reshape(n, np_, q)[:, active].transpose(1, 0, 2)  # G_k, active k
    S = np.zeros((n, q))
    S[int(init) * q:(int(init) + 1) * q] = np.eye(q)
    rotations = np.tile(np.eye(q), (np_, 1, 1))
    norms = []
    ratio = np.inf
    gnorm = np.inf
    # far extrapolation can overflow the overlaps; that fails the tolerance below
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(1, max_iter + 1):
            u, s, vt = np.linalg.svd(S.T @ cols)
            worst = float(np.min(s[:, -1] / s[:, 0]))  # nan for a zero overlap
            if not worst > OVERLAP_TOL:
                raise SingularOverlapError(
                    "overlap of representatives is numerically singular"
                )
            ratio = min(ratio, worst)
            rotations[active] = (u @ vt).transpose(0, 2, 1)
            candidate = np.zeros_like(S)
            candidate.reshape(np_, q, q)[active] = w_active * rotations[active]
            d = S - candidate
            quad = float(np.vdot(d, G @ d))  # nan only from inf - inf
            gnorm = math.inf if math.isnan(quad) else math.sqrt(max(quad, 0.0))
            norms.append(gnorm)
            if gnorm <= tol:
                return BarycenterResult(S, list(rotations), sweep, gnorm, True, norms, ratio)
            S = candidate

    result = BarycenterResult(S, list(rotations), max_iter, gnorm, False, norms, ratio)
    raise _stalled(result, tol)


def itsgm_interpolate(bases, weights, ref_index):
    """Grassmann tangent-space interpolation of orthonormal bases.

    Each subspace is lifted to the tangent space at the reference with
    the arctan of the principal-angle singular values, the lifted
    velocities are combined entrywise with ``weights`` (one per basis),
    and the combination is mapped back through the cos/sin geodesic
    formula.  Returns a matrix with orthonormal columns.
    """
    mats = [_as_representative(b, f"bases[{i}]") for i, b in enumerate(bases)]
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(mats),):
        raise ShapeMismatchError("one weight per basis required")
    shape = mats[0].shape
    q = shape[1]
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ShapeMismatchError(f"bases[{i}] shape {m.shape} != {shape}")
        if np.linalg.norm(m.T @ m - np.eye(q)) > 1e-8:
            raise ValueError(f"bases[{i}] does not have orthonormal columns")
    if not 0 <= ref_index < len(mats):
        raise IndexError(f"ref_index {ref_index} out of range")

    ref = mats[ref_index]
    gram = ref.T @ ref
    evals, evecs = np.linalg.eigh(gram)
    if evals[0] <= 1e-12 * evals[-1]:
        raise RankDeficientError("reference basis Gram matrix is singular")
    gram_isqrt = (evecs / np.sqrt(evals)) @ evecs.T

    velocities = []
    for m in mats:
        overlap = ref.T @ m
        sv = np.linalg.svd(overlap, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= OVERLAP_TOL * sv[0]:
            raise SingularOverlapError(
                "overlap with the reference basis is numerically singular"
            )
        lifted = m @ np.linalg.solve(overlap, gram_isqrt)
        lifted -= ref @ (ref.T @ lifted)
        u, s, vt = np.linalg.svd(lifted, full_matrices=False)
        velocities.append((u * np.arctan(s)) @ vt)

    combined = np.zeros(shape)
    for wk, xi in zip(w, velocities):
        combined += wk * xi
    u, s, vt = np.linalg.svd(combined, full_matrices=False)
    return ref @ gram_isqrt @ (vt.T * np.cos(s)) + u * np.sin(s)
