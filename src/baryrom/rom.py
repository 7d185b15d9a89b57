"""Reduced-order model assembly, update and integration.

The offline stage projects the governing operators onto every ordered
pair (and triple, for the quadratic term) of trained bases once.  The
online stage then rebuilds the reduced operators for any interpolation
weights and alignment rotations purely from those q-by-q blocks -- no
array the size of the mesh is touched -- which is what makes parameter
sweeps cheap.  ``direct_project`` assembles the same operators by
straight quadrature against an explicit basis and exists as the oracle
the cheap update is checked against.  Every basis argument is a plain
N-by-q array of modes.

Index conventions (fixed by requiring update == direct projection): the
archive's block B^{hk} has rows from basis h and columns from basis k;
``stacked`` lays the blocks out as the (Np q)-by-(Np q) operator of the
stacked bases [Phi_1 ... Phi_Np], row h*q + i being mode i of basis h.
The quadratic blocks C^{hkn} carry their derivative-side index from n.

Online, the interpolated basis is never formed: it is [Phi_1 ... Phi_Np] S
with S = [w_1 Q_1; ...; w_Np Q_Np] (``weighted_rotations``), and every
reduced operator is S^T A S for a stacked operator A.  On the uniform grid
the stacked bases' Gram matrix, which the barycenter needs, is the stacked
mass matrix over the cell size, and the initial coordinates solve M alpha0
= S^T c with c = [Phi_1 ... Phi_Np]^T W (u0 - mean) (``online_model`` in
pipeline).  Only the lift to the mesh (``reconstruct_field``) forms Phi.

The reduced solve (``integrate_rom``) folds M^-1 into one stacked
q-by-(1 + q + q^2) operator G = [f | -L | -Chat] by one solve, pre-scaled
by dt/2 and dt, so every RK4 stage is one product of a stage operator
with a preallocated z = [1; a; vec(a outer a)].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergedSolutionError, ShapeMismatchError, SingularMassError
from .pod import InnerProduct, SnapshotMatrix
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
    mats = [np.asarray(b, float) for b in bases]
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


def stacked(blocks) -> np.ndarray:
    """(Np, Np, q, q) blocks [h, k] as the (Np q)-by-(Np q) operator of the
    stacked bases [Phi_1 ... Phi_Np]."""
    np_, q = blocks.shape[0], blocks.shape[-1]
    return blocks.transpose(0, 2, 1, 3).reshape(np_ * q, np_ * q)


def weighted_rotations(w, rotations) -> np.ndarray:
    """S = [w_1 Q_1; ...; w_Np Q_Np], (Np q)-by-q: the interpolated basis
    sum_h w_h Phi_h Q_h is [Phi_1 ... Phi_Np] S."""
    wv = np.asarray(w.values if isinstance(w, WeightVector) else w, dtype=float)
    Q = np.asarray(rotations, dtype=float)
    if Q.ndim != 3 or Q.shape[1] != Q.shape[2] or wv.shape != Q.shape[:1]:
        raise ShapeMismatchError("one weight and one q-by-q rotation per basis required")
    return (wv[:, None, None] * Q).reshape(-1, Q.shape[2])


def update_reduced_model(
    ct: CrossGalerkinTensors, w: WeightVector, rotations, nu: float
) -> ReducedModel:
    """Rebuild the reduced operators for new weights/rotations/viscosity.

    Each operator is the stacked archive operator conjugated by S =
    ``weighted_rotations(w, rotations)``; the quadratic term contracts S on
    its derivative side first.  The cost depends only on q and the number
    of trained bases, never on the mesh.  ``rotations`` must be the
    alignments returned by the barycenter run for the same weights.
    """
    np_, q = ct.n_bases, ct.q
    n = np_ * q
    S = weighted_rotations(w, rotations)
    if S.shape != (n, q):
        raise ShapeMismatchError(f"{np_} weights and rotations of shape ({q},{q}) required")
    # rows (n, s) on the derivative side, columns the pair (h, a), (k, b)
    Ct = ct.C.transpose(2, 3, 0, 4, 1, 5).reshape(n, n * n)
    # far extrapolation can overflow the operators; integrate_rom reports it
    with np.errstate(over="ignore", invalid="ignore"):
        return ReducedModel(
            M=S.T @ stacked(ct.M) @ S, R=S.T @ stacked(ct.R) @ S,
            Cbar=S.T @ stacked(ct.Cbar) @ S,
            C=S.T @ (S.T @ Ct).reshape(q, n, n) @ S,
            F=S.T @ (ct.F_conv + nu * ct.F_diff).ravel(), nu=float(nu))


def direct_project(basis, mean, ip: InnerProduct, grad_op, nu: float) -> ReducedModel:
    """Galerkin projection onto an explicit basis by straight quadrature.

    This is the mesh-sized computation the cheap update replaces; it is
    kept as the exactness oracle and as the assembly path for baselines
    built around a single interpolated or truth basis.
    """
    phi = np.asarray(basis, float)
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

    M must be finite and SPD (it has a Cholesky factor), else
    SingularMassError.  Before the step loop one solve folds M^-1 into the
    operators: G = M^-1 [F | -(nu R + Cbar) | -C'] = [f | -L | -Chat], C'
    the q-by-q^2 layout of C, C'[i, e*q + j] = C[e][i, j].  The right-hand
    side at a state a is the single product G z with z = [1; a; vec(a outer
    a)], vec index e*q + j holding a_e a_j.  G is scaled once into the
    stage operators (dt/2) G and dt G, and each stage writes its scaled
    slope K_i into a preallocated (4, q) array: the stage state a + K_{i-1}
    and its outer product go into one of four preallocated z vectors, then
    one product fills K_i (K_1, K_2 with (dt/2) G; K_3, K_4 with dt G).  A
    step ends with a += [1/3, 2/3, 1/3, 1/6] K, the classical weights dt/6
    [1, 2, 2, 1] over those scalings.  No array is allocated inside the
    step loop, so a step is about a dozen small numpy calls.

    States are recorded (as copies) at step multiples of ``record_every``,
    step 0 included, at times t0 + s*dt.  Each recorded state is checked
    once for finiteness, as a . 0 == 0 (a finite entry times 0 is +-0, an
    infinite or nan one gives nan), so a run that overflows raises
    DivergedSolutionError at the first recorded step past the blow-up, not
    after ``steps``.
    """
    alpha0 = np.asarray(alpha0, dtype=float)
    q = model.M.shape[0]
    if alpha0.shape != (q,):
        raise ShapeMismatchError(f"alpha0 must have length {q}, got {alpha0.shape}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    # z_i = [1; a_i; vec(a_i outer a_i)] is row i of Z; a[i] and zz[i] are views
    # into it, and a[0] is the state itself, updated in place.  The outer
    # product is the (q,1)(1,q) product of a[i]'s column and row views: one
    # term per entry, so the same values as a[i][:, None] * a[i] from a cheaper
    # call.  The views are made once, here, not in the step loop.
    Z = np.empty((4, 1 + q + q * q))
    Z[:, 0] = 1.0
    K = np.empty((4, q))
    dK = np.empty(q)
    zero = np.zeros(q)
    wts = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
    z, k = list(Z), list(K)
    a = [z_i[1:1 + q] for z_i in z]
    col = [a_i[:, None] for a_i in a]
    row = [a_i[None, :] for a_i in a]
    zz = [z_i[1 + q:].reshape(q, q) for z_i in z]
    state = a[0]
    state[:] = alpha0

    n_rec = steps // record_every
    alphas = np.empty((n_rec + 1, q))
    times = np.empty(n_rec + 1)
    alphas[0] = alpha0
    times[0] = t0
    rec = 0
    # M is checked finite first, as np.linalg.cholesky passes an inf or nan
    # diagonal.  A non-finite or overflowing R, Cbar, C, F or nu passes into
    # G and shows up in the states, which are checked instead
    if not np.isfinite(model.M).all():
        raise SingularMassError("reduced mass matrix is not finite")
    try:
        np.linalg.cholesky(model.M)
        with np.errstate(over="ignore", invalid="ignore"):
            G = np.linalg.solve(model.M, np.hstack([
                np.reshape(model.F, (q, 1)), -(model.nu * model.R + model.Cbar),
                -model.C.transpose(1, 0, 2).reshape(q, q * q)]))
    except np.linalg.LinAlgError as exc:
        raise SingularMassError(f"reduced mass matrix not SPD: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        if alpha0.dot(zero) != 0.0:
            raise DivergedSolutionError("reduced state is non-finite at step 0")
        half, full = (0.5 * dt) * G, dt * G
        for s in range(1, steps + 1):
            col[0].dot(row[0], zz[0])
            half.dot(z[0], k[0])
            np.add(state, k[0], a[1])
            col[1].dot(row[1], zz[1])
            half.dot(z[1], k[1])
            np.add(state, k[1], a[2])
            col[2].dot(row[2], zz[2])
            full.dot(z[2], k[2])
            np.add(state, k[2], a[3])
            col[3].dot(row[3], zz[3])
            full.dot(z[3], k[3])
            wts.dot(K, dK)
            np.add(state, dK, state)
            if s % record_every == 0:
                if state.dot(zero) != 0.0:
                    raise DivergedSolutionError(
                        f"reduced state diverged to a non-finite value by step {s}")
                rec += 1
                alphas[rec] = state
                times[rec] = t0 + s * dt
    return ReducedTrajectory(times=times, alphas=alphas)


def reconstruct_field(basis, mean, traj: ReducedTrajectory, param=np.nan) -> SnapshotMatrix:
    """Lift reduced states back to the full field: u(t) = mean + basis a(t)."""
    phi = np.asarray(basis, float)
    mean = np.asarray(mean, dtype=float)
    if phi.shape[1] != traj.alphas.shape[1]:
        raise ShapeMismatchError(
            f"basis has {phi.shape[1]} columns but trajectory carries "
            f"{traj.alphas.shape[1]} coordinates"
        )
    if mean.shape != (phi.shape[0],):
        raise ShapeMismatchError("mean length does not match basis rows")
    # one GEMM, [phi | mean] @ [alphas^T; 1], so the field is the only mesh-sized result
    alphas = np.vstack([traj.alphas.T, np.ones(traj.alphas.shape[0])])
    values = np.hstack([phi, mean[:, None]]) @ alphas
    return SnapshotMatrix(values=values, times=traj.times.copy(), param=param)


def initial_condition(basis, mean, ip: InnerProduct, u0) -> np.ndarray:
    """Weighted least-squares coordinates of u0 - mean in the basis span."""
    phi = np.asarray(basis, float)
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
