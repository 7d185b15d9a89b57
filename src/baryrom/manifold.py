"""Geometry of full-rank N-by-q matrices up to right orthogonal factors.

A point of the quotient space is the equivalence class of a full-rank
matrix under right multiplication by q-by-q orthogonal matrices, i.e. a
q-dimensional subspace carrying a distinguished scale.  Travel between
points is matrix addition of a horizontal tangent (the exponential), and
the inverse map aligns the target onto the base with the orthogonal
Procrustes rotation of their overlap.  The weighted Karcher barycenter of
several points is found with a plain fixed-point sweep on that alignment.

The sweep reads the inputs only through their inner products, so it runs
as well on any coordinates that keep those: ``gram_coordinates`` builds
such coordinates from the Gram matrix G = [Phi_1 ... Phi_Np]^T [Phi_1 ...
Phi_Np] of the stacked inputs alone, (Np q)-by-q each, and the online
stage runs ``karcher_barycenter`` on them without touching an array the
size of the mesh.

A Grassmann tangent-space interpolation (the classical ITSGM baseline,
which orthonormalizes its inputs and works with arctan/cos/sin of
principal angles) is provided for comparison runs.
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
    if not (n >= q >= 1):
        raise ShapeMismatchError(f"{name} must have N >= q >= 1, got {m.shape}")
    return m


def _representatives(bases):
    """The inputs as representatives, each of the shape of the first."""
    mats = [_as_representative(b, f"bases[{i}]") for i, b in enumerate(bases)]
    for i, m in enumerate(mats):
        if m.shape != mats[0].shape:
            raise ShapeMismatchError(f"bases[{i}] shape {m.shape} != {mats[0].shape}")
    return mats


def _check_full_rank(m, name="matrix"):
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        raise RankDeficientError(
            f"{name} is rank deficient (sigma_min/sigma_max = "
            f"{0.0 if s[0] == 0 else s[-1] / s[0]:.3e})"
        )


def _alignments(overlaps, out=None):
    """Procrustes rotations Q_k = V_k U_k^T of a stack of q-by-q overlaps
    U_k S_k V_k^T, shape (m, q, q), and the worst sigma_min/sigma_max among
    them; the products U_k V_k^T are written into ``out`` when given, and
    the rotations are their transposed view.  Raises SingularOverlapError
    when an overlap is numerically singular, in which case its alignment is
    not unique.
    """
    u, s, vt = np.linalg.svd(overlaps)
    with np.errstate(invalid="ignore"):  # nan for a zero overlap
        worst = float(np.minimum.reduce(s[:, -1] / s[:, 0]))
    if not worst > OVERLAP_TOL:
        raise SingularOverlapError("overlap of representatives is numerically singular")
    return np.matmul(u, vt, out=out).transpose(0, 2, 1), worst


def procrustes_rotation(base, target):
    """Orthogonal Q = V U^T minimizing ||target Q - base||_F.

    U, V come from the thin SVD of the overlap base^T target.  Raises
    SingularOverlapError when the overlap is numerically singular, in
    which case the alignment is not unique.
    """
    return _alignments((base.T @ target)[None])[0][0]


def exp_map(base, tangent):
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
    _check_full_rank(base, "base")
    endpoint = base + tangent
    _check_full_rank(endpoint, "base + tangent")
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
    if not np.abs(np.diag(rmat)).min() > RANK_TOL * np.abs(np.diag(rmat)).max():
        raise RankDeficientError("matrix is rank deficient (QR diagonal)")
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
                     in the coordinates of the inputs;
    rotations      : alignments of each input onto the representative
                     (identity for zero-weight inputs);
    iterations     : number of fixed-point sweeps performed, counting the
                     sweep that certified convergence;
    final_gradient_norm : ||phi - sum_k w_k phi_k Q_k||_F at the result;
    gradient_norms : that norm after every sweep;
    min_overlap_ratio : smallest sigma_min / sigma_max over every overlap
                     the sweeps factored; near 0, an alignment is close to
                     not being unique.
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


def karcher_barycenter(bases, weights, tol=1e-10, max_iter=100, init=0):
    """Weighted Karcher barycenter by fixed-point iteration.

    Each sweep aligns every (nonzero-weight) input onto the current
    iterate with its Procrustes rotation and replaces the iterate by the
    weighted sum of the aligned inputs; the gradient norm of the
    underlying weighted squared-distance objective is exactly the
    Frobenius distance between iterate and that weighted sum.  The
    overlaps of one sweep are one stacked product and one stacked SVD; the
    overlaps, the active inputs' rotations and the gradient live in buffers
    reused from sweep to sweep, and the rotations are placed among the
    identities of the zero-weight inputs once, for the result.

    Parameters
    ----------
    bases : sequence of (n, q) full-rank arrays, n >= q: the inputs on
        the mesh, or their ``gram_coordinates``
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
    mats = _representatives(bases)
    w = _checked_weights(weights, len(mats))
    active = np.flatnonzero(w)
    k, q = active.size, mats[0].shape[1]
    stack = np.hstack([mats[i] for i in active])  # [Phi_k], active k
    w_active = w[active, None, None]
    phi = mats[int(init)].copy()
    # reused per sweep: the overlaps phi^T Phi_k, the products U_k V_k^T whose
    # transposes are the active rotations, the weighted rotations and the
    # gradient phi - candidate
    overlaps = np.empty((q, k * q))
    per_input = overlaps.reshape(q, k, q).transpose(1, 0, 2)
    products, weighted = np.empty((2, k, q, q))
    stacked = weighted.reshape(-1, q)
    gradient = np.empty(phi.shape)
    flat = gradient.reshape(-1)
    norms = []
    ratio = np.inf
    gnorm = np.inf

    def result(sweep, converged):
        rotations = np.tile(np.eye(q), (len(mats), 1, 1))
        if norms:  # a sweep ran
            rotations[active] = products.transpose(0, 2, 1)
        return BarycenterResult(phi, list(rotations), sweep, gnorm, converged, norms, ratio)

    # far extrapolation can overflow the iterate; that fails the tolerance below
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(1, max_iter + 1):
            np.matmul(phi.T, stack, out=overlaps)
            rotations, worst = _alignments(per_input, out=products)
            ratio = min(ratio, worst)
            np.multiply(w_active, rotations, out=weighted)
            candidate = stack @ stacked
            np.subtract(phi, candidate, out=gradient)
            gnorm = math.sqrt(flat.dot(flat))  # np.linalg.norm's own formula
            gnorm = math.inf if math.isnan(gnorm) else gnorm  # nan from an overflowed iterate
            norms.append(gnorm)
            if gnorm <= tol:
                return result(sweep, True)
            phi = candidate

    raise NotConvergedError(
        f"barycenter fixed point stalled at gradient norm {gnorm:.3e} "
        f"after {max_iter} sweeps (tol {tol:.1e})", result(max_iter, False))


def gram_coordinates(gram, q):
    """Coordinates R_1 ... R_Np of inputs known only by their Gram matrix.

    ``gram`` is the (Np q)-by-(Np q) Gram matrix G of the stacked inputs
    [Phi_1 ... Phi_Np], each q columns wide.  With G = V diag(lam) V^T,
    R = diag(sqrt(lam)) V^T has R^T R = G (eigenvalues that roundoff makes
    negative count as zero), so its q-column blocks R_k have R_h^T R_k =
    Phi_h^T Phi_k: they are the inputs in an orthonormal frame of their
    joint span.  ``karcher_barycenter`` on them sweeps, rotates and
    measures gradient norms as on the inputs, with (Np q)-row arrays in
    place of N-row ones; its representative is R S for the iterate
    [Phi_1 ... Phi_Np] S.
    """
    G = np.asarray(gram, dtype=float)
    n = G.shape[0] if G.ndim == 2 else -1
    if G.shape != (n, n) or q < 1 or n % q:
        raise ShapeMismatchError(f"Gram matrix must be square in blocks of {q}, got {G.shape}")
    lam, vecs = np.linalg.eigh(G)
    frame = np.sqrt(np.clip(lam, 0.0, None))[:, None] * vecs.T
    return [frame[:, k:k + q] for k in range(0, n, q)]


def itsgm_interpolate(bases, weights, ref_index):
    """Grassmann tangent-space interpolation of the spans of full-rank bases.

    The inputs are orthonormalized first, Y_k, so only their spans matter.
    Each is lifted to the tangent space at the reference Pi as T_k = U_k
    arctan(S_k) V_k^T, U_k S_k V_k^T = (I - Pi Pi^T) Y_k (Pi^T Y_k)^-1; the
    sum T = sum_k w_k T_k = U S V^T (one weight per basis) is mapped back
    as Pi V cos(S) + U sin(S).  The Gram factor (Pi^T Pi)^(-1/2) of the
    general map is the identity on orthonormal inputs.  Zero-weight inputs
    are skipped, bar the reference, which is the tangent base whatever its
    weight.  Returns a matrix with orthonormal columns.
    """
    mats = _representatives(bases)
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(mats),):
        raise ShapeMismatchError("one weight per basis required")
    if not 0 <= ref_index < len(mats):
        raise IndexError(f"ref_index {ref_index} out of range")
    used = [k for k in range(len(mats)) if w[k] != 0.0 or k == ref_index]
    ortho = {k: orthonormalize(mats[k]) for k in used}

    ref = ortho[ref_index]
    overlaps = [ref.T @ ortho[k] for k in used]
    _alignments(np.array(overlaps))
    combined = np.zeros(ref.shape)
    for k, overlap in zip(used, overlaps):
        lifted = ortho[k] @ np.linalg.inv(overlap)
        lifted -= ref @ (ref.T @ lifted)
        u, s, vt = np.linalg.svd(lifted, full_matrices=False)
        combined += w[k] * ((u * np.arctan(s)) @ vt)
    u, s, vt = np.linalg.svd(combined, full_matrices=False)
    return ref @ (vt.T * np.cos(s)) + u * np.sin(s)
