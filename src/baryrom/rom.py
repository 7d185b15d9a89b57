"""Reduced-order model assembly, update and integration.

The offline stage projects the governing operators onto every ordered
pair (and triple, for the quadratic term) of trained bases once.  The
online stage then rebuilds the reduced operators for any interpolation
weights and alignment rotations purely from those q-by-q blocks -- no
array the size of the mesh is touched -- which is what makes parameter
sweeps cheap.  ``direct_project`` assembles the same operators by
straight quadrature against an explicit basis and exists as the oracle
the cheap update is checked against.

Index conventions (fixed by requiring update == direct projection):
block B^{hk} has rows from basis h and columns from basis k, so the
online conjugation is Q_h^T B^{hk} Q_k; the quadratic blocks C^{hkn}
carry their derivative-side index s from basis n, contracted online with
column e of Q_n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DivergedSolutionError, ShapeMismatchError, SingularMassError
from .pod import InnerProduct, PODBasis, SnapshotMatrix
from .weights import WeightVector


@dataclass
class CrossGalerkinTensors:
    """All cross-basis reduced blocks of the Burgers operators.

    Shapes: M, R, Cbar are (Np, Np, q, q); C is (Np, Np, Np, q, q, q)
    indexed [h, k, n, s, i, j]; the forcing pieces are (Np, q).  F_diff
    is the part multiplied by the online viscosity, F_conv the
    mean-convection part.
    """

    M: np.ndarray
    R: np.ndarray
    Cbar: np.ndarray
    C: np.ndarray
    F_conv: np.ndarray
    F_diff: np.ndarray

    @property
    def n_bases(self) -> int:
        return self.M.shape[0]

    @property
    def q(self) -> int:
        return self.M.shape[-1]


@dataclass
class ReducedModel:
    """Reduced operators at one parameter value: M a' = F - nu R a - Cbar a - sum_e a_e C[e] a."""

    M: np.ndarray
    R: np.ndarray
    Cbar: np.ndarray
    C: np.ndarray
    F: np.ndarray
    nu: float


@dataclass
class ReducedTrajectory:
    times: np.ndarray
    alphas: np.ndarray  # (n_times, q)


def _mode_matrices(bases):
    mats = [b.modes if isinstance(b, PODBasis) else np.asarray(b, float) for b in bases]
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ShapeMismatchError(f"basis {i} shape {m.shape} != {shape}")
    return mats


def assemble_cross_tensors(bases, mean, ip: InnerProduct, grad_op) -> CrossGalerkinTensors:
    """Offline projection of mass, diffusion, convection and forcing blocks.

    ``grad_op`` maps stacked fields (N, k) to their spatial derivative.
    Diffusion blocks are the gradient-gradient inner products (the
    integrated-by-parts form, exact on a periodic domain); convection
    blocks use the advective form against the shared mean field.  Each
    block family is one product of the stacked bases Phi = [Phi_1 ...
    Phi_Np] (column h*q + i is mode i of basis h); the quadratic blocks
    take one product per h, so only one basis's pair products are held.
    """
    mats = _mode_matrices(bases)
    np_, (nx, q) = len(mats), mats[0].shape
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (nx,):
        raise ShapeMismatchError(f"mean length {mean.shape} != basis rows {nx}")

    phi = np.hstack(mats)
    dphi = grad_op(phi)
    wphi = ip.apply(phi)
    dmean = grad_op(mean)

    def block_grid(a, b):  # a.T @ b of stacked bases -> blocks [h, k, i, j]
        return (a.T @ b).reshape(np_, q, np_, q).transpose(0, 2, 1, 3)

    M = block_grid(phi, wphi)
    R = block_grid(dphi, ip.apply(dphi))
    Cbar = block_grid(phi, ip.apply(mean[:, None] * dphi + dmean[:, None] * phi))

    # C[h,k,n][s,i,j] = sum_x w phi^h_i phi^k_j (d phi^n_s)
    C = np.empty((np_, np_, np_, q, q, q))
    pairs = np.empty((nx, q, np_ * q))  # reused, so one h's products are held at a time
    for h in range(np_):
        np.multiply(wphi[:, h * q:(h + 1) * q, None], phi[:, None, :], out=pairs)
        C[h] = np.moveaxis((dphi.T @ pairs.reshape(nx, -1)).reshape(np_, q, q, np_, q), 3, 0)

    F_diff = -(dphi.T @ ip.apply(dmean)).reshape(np_, q)
    F_conv = -(phi.T @ ip.apply(mean * dmean)).reshape(np_, q)
    return CrossGalerkinTensors(M, R, Cbar, C, F_conv, F_diff)


def update_reduced_model(
    ct: CrossGalerkinTensors, w: WeightVector, rotations, nu: float
) -> ReducedModel:
    """Rebuild the reduced operators for new weights/rotations/viscosity.

    Implements the weighted conjugation sums over the stored blocks; the
    cost depends only on q and the number of trained bases, never on the
    mesh.  ``rotations`` must be the alignments returned by the
    barycenter run for the same weights.
    """
    wv = np.asarray(w.values if isinstance(w, WeightVector) else w, dtype=float)
    np_, q = ct.n_bases, ct.q
    if wv.shape != (np_,):
        raise ShapeMismatchError(f"{np_} weights required, got {wv.shape}")
    Q = [np.asarray(r, dtype=float) for r in rotations]
    if len(Q) != np_ or any(r.shape != (q, q) for r in Q):
        raise ShapeMismatchError(f"{np_} rotations of shape ({q},{q}) required")
    a = np.flatnonzero(wv)
    P = wv[a, None, None] * np.stack(Q)[a]  # P_k = w_k Q_k over the active bases
    pair = np.ix_(a, a)

    def conjugate(blocks):
        return np.einsum("hai,hkab,kbj->ij", P, blocks[pair], P, optimize=True)

    # far extrapolation can overflow the operators; integrate_rom reports it
    with np.errstate(over="ignore", invalid="ignore"):
        C = np.einsum("nse,hai,kbj,hknsab->eij", P, P, P, ct.C[np.ix_(a, a, a)],
                      optimize=True)
        F = np.einsum("kai,ka->i", P, ct.F_conv[a] + nu * ct.F_diff[a])
        return ReducedModel(M=conjugate(ct.M), R=conjugate(ct.R),
                            Cbar=conjugate(ct.Cbar), C=C, F=F, nu=float(nu))


def direct_project(basis, mean, ip: InnerProduct, grad_op, nu: float) -> ReducedModel:
    """Galerkin projection onto an explicit basis by straight quadrature.

    This is the mesh-sized computation the cheap update replaces; it is
    kept as the exactness oracle and as the assembly path for baselines
    built around a single interpolated or truth basis.
    """
    phi = basis.modes if isinstance(basis, PODBasis) else np.asarray(basis, float)
    if phi.ndim != 2:
        raise ShapeMismatchError("basis must be 2-D")
    nx, q = phi.shape
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (nx,):
        raise ShapeMismatchError(f"mean length {mean.shape} != basis rows {nx}")
    dphi = grad_op(phi)
    wphi = ip.apply(phi)
    dmean = grad_op(mean)

    M = phi.T @ wphi
    R = dphi.T @ ip.apply(dphi)
    Cbar = phi.T @ ip.apply(mean[:, None] * dphi + dmean[:, None] * phi)
    C = np.einsum("xi,xj,xe->eij", wphi, phi, dphi, optimize=True)
    F = -nu * (dphi.T @ ip.apply(dmean)) - phi.T @ ip.apply(mean * dmean)
    return ReducedModel(M=M, R=R, Cbar=Cbar, C=C, F=F, nu=float(nu))


def integrate_rom(model: ReducedModel, alpha0, dt: float, steps: int,
                  record_every: int = 1, t0: float = 0.0) -> ReducedTrajectory:
    """Advance the reduced system with classical 4th-order Runge-Kutta.

    The mass matrix is Cholesky-factored once and folded into the
    operators before the step loop: f = M^-1 F, L = M^-1 (nu R + Cbar) and
    Chat = M^-1 C laid out as a q-by-q^2 matrix, Chat[i, e*q + j] =
    (M^-1 C[e])[i, j].  Every stage is then f - L a - Chat (a outer a),
    with no solve.  States are recorded at step multiples of
    ``record_every`` (step 0 included).  Each recorded state is checked
    for finiteness, so a run that overflows raises DivergedSolutionError
    at the first recorded step past the blow-up, not after ``steps``.
    """
    alpha0 = np.asarray(alpha0, dtype=float)
    q = model.M.shape[0]
    if alpha0.shape != (q,):
        raise ShapeMismatchError(f"alpha0 must have length {q}, got {alpha0.shape}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    try:
        factor = scipy.linalg.cho_factor(model.M)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMassError(f"reduced mass matrix not SPD: {exc}") from exc

    def fold(op):  # a non-finite R, Cbar, C or F shows up in the states, checked below
        return scipy.linalg.cho_solve(factor, op, check_finite=False)

    f = fold(model.F)
    L = fold(model.nu * model.R + model.Cbar)
    Chat = fold(model.C.transpose(1, 0, 2).reshape(q, q * q))

    def rhs(a):
        return f - L @ a - Chat @ (a[:, None] * a).ravel()  # (a outer a)[e*q + j]

    n_rec = steps // record_every
    alphas = np.empty((n_rec + 1, q))
    times = np.empty(n_rec + 1)
    alphas[0] = alpha0
    times[0] = t0
    a = alpha0.copy()
    rec = 0
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        for s in range(1, steps + 1):
            k1 = rhs(a)
            k2 = rhs(a + 0.5 * dt * k1)
            k3 = rhs(a + 0.5 * dt * k2)
            k4 = rhs(a + dt * k3)
            a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if s % record_every == 0:
                if not np.isfinite(a).all():
                    raise DivergedSolutionError(
                        f"reduced state diverged to a non-finite value by step {s}")
                rec += 1
                alphas[rec] = a
                times[rec] = t0 + s * dt
    if not np.isfinite(alphas).all():
        raise DivergedSolutionError("reduced state diverged to a non-finite value")
    return ReducedTrajectory(times=times, alphas=alphas)


def reconstruct_field(basis, mean, traj: ReducedTrajectory, param=np.nan) -> SnapshotMatrix:
    """Lift reduced states back to the full field: u(t) = mean + basis a(t)."""
    phi = basis.modes if isinstance(basis, PODBasis) else np.asarray(basis, float)
    mean = np.asarray(mean, dtype=float)
    if phi.shape[1] != traj.alphas.shape[1]:
        raise ShapeMismatchError(
            f"basis has {phi.shape[1]} columns but trajectory carries "
            f"{traj.alphas.shape[1]} coordinates"
        )
    if mean.shape != (phi.shape[0],):
        raise ShapeMismatchError("mean length does not match basis rows")
    values = mean[:, None] + phi @ traj.alphas.T
    return SnapshotMatrix(values=values, times=traj.times.copy(), param=param)


def initial_condition(basis, mean, ip: InnerProduct, u0) -> np.ndarray:
    """Weighted least-squares coordinates of u0 - mean in the basis span."""
    phi = basis.modes if isinstance(basis, PODBasis) else np.asarray(basis, float)
    u0 = np.asarray(u0, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if u0.shape != (phi.shape[0],) or mean.shape != (phi.shape[0],):
        raise ShapeMismatchError("field length does not match basis rows")
    gram = phi.T @ ip.apply(phi)
    return np.linalg.solve(gram, phi.T @ ip.apply(u0 - mean))


def combined_basis(bases, weights, rotations) -> np.ndarray:
    """Weighted sum of rotated bases: the representative the updated
    reduced operators are exact for."""
    mats = _mode_matrices(bases)
    wv = np.asarray(weights.values if isinstance(weights, WeightVector) else weights,
                    dtype=float)
    out = np.zeros_like(mats[0])
    for k, m in enumerate(mats):
        if wv[k] != 0.0:
            out += wv[k] * (m @ np.asarray(rotations[k], dtype=float))
    return out
