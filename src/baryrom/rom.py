"""Reduced-order model assembly, update and integration.

The offline stage projects the governing operators onto every ordered
pair (and triple, for the quadratic term) of trained bases once.  The
online stage then rebuilds the reduced operators for any interpolation
weights and alignment rotations purely from those q-by-q blocks -- no
array the size of the mesh is touched -- which is what makes parameter
sweeps cheap.  An explicit basis is the one-basis case of the same
archive: ``direct_project`` is the ``assemble_cross_tensors`` of that
basis alone, evaluated at nu, and is the oracle the cheap update is
checked against.  Every basis argument is a plain N-by-q array of modes.

Index conventions (fixed by requiring update == direct projection): the
archive holds each operator of the stacked bases [Phi_1 ... Phi_Np] as it
is multiplied online, index h*q + i being mode i of basis h.  M, R and
Cbar are (Np q)-by-(Np q); C is (Np q)-by-(Np q)^2, its row e*q + s on
the derivative side and its column (h*q + i)*Np*q + k*q + j the pair.

Up to the lift, the interpolated basis is never formed: it is [Phi_1 ...
Phi_Np] S with S = [w_1 Q_1; ...; w_Np Q_Np] (``weighted_rotations``),
and every reduced operator is S^T A S for a stacked operator A.  On the
uniform grid the stacked bases' Gram matrix, which the barycenter needs,
is the stacked mass matrix over the cell size, and the coordinates of
the weighted initial state solve M alpha0 = S^T c with c = dx [Phi_1
... Phi_Np]^T (u0 - mean) (``weighted_initial_condition`` in pipeline).
Only the lift to the mesh, and a truth initial state, need Phi:
``combined_basis`` forms it once, Phi = sum_h w_h Phi_h Q_h, and a
``FactoredField`` holds Phi, the mean and the coordinates alpha: the
field is [Phi | mean] @ [alpha^T; 1], each factor formed on first use.
Every mesh-sized pass walks the field in the ``row_blocks`` of about
BLOCK_BYTES, 256 KiB, so three blocks fit in one core's L2:
``reconstruct_field`` (the lift of ``pipeline.predict``) fills the field
one row block at a time, and the error sums of ``metrics`` lift and
score one row block at a time through reused buffers.

The reduced solve (``integrate_rom``) folds M^-1 into one stacked
q-by-(1 + q + q^2) operator G = [f | -L | -Chat] by one solve, and builds
from it four stage operators over one flat buffer [z3 | z2 | z1 | z0 | s]
of the stage vectors z_i = [1; vec(a_i outer a_i); a_i] and a copy s of
the state.  Each RK4 stage is one outer product and one product that
writes the next stage state, s added last by an identity block, and the
step's product writes the new state straight into its row of the
trajectory, so a step is eight small numpy products and one copy back
into the buffer, with roundoff far below RK4's truncation.  Every state is
recorded, and the trajectory is checked for finiteness once, after the
last step.  A prediction takes one step per sampling interval, h =
save_every dt, so its states fall at the instants of the stored runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergedSolutionError, ShapeMismatchError, SingularMassError
from .pod import SnapshotMatrix, sample_times
from .weights import WeightVector

# bytes of one row block of a mesh-sized field, lifted by ``reconstruct_field``
# and scored by ``metrics``.  The error sums hold three blocks (truth,
# difference, squares), which fit in one core's 2 MiB L2 at this size and not
# at 2 MiB: at nx=20000, ns=200 (one BLAS thread, Xeon with 2 MiB of L2 per
# core) one scored report took 7.9 ms here and 13.3 ms at 2 MiB, and the lift
# 3.2 ms and 4.1 ms.  Lifts and sums are bitwise the same at any block size
BLOCK_BYTES = 256 * 2**10


@dataclass
class CrossGalerkinTensors:
    """All cross-basis reduced blocks of the Burgers operators.

    Each is laid out as the online update multiplies it, n = Np q: M, R
    and Cbar are the (n, n) operators of the stacked bases; C is (n, n^2),
    C[e*q + s, (h*q + i)*n + k*q + j] = sum_x w phi^h_i phi^k_j (d
    phi^e_s); the forcing pieces are (Np, q).  F_diff is the part
    multiplied by the online viscosity, F_conv the mean-convection part.
    """

    M: np.ndarray
    R: np.ndarray
    Cbar: np.ndarray
    C: np.ndarray
    F_conv: np.ndarray
    F_diff: np.ndarray


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
    # lambda_max / lambda_min of the mass matrix the integrator folded
    mass_condition: float = np.nan


def _mode_matrices(bases):
    mats = [np.asarray(b, float) for b in bases]
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.ndim != 2 or m.shape != shape:
            raise ShapeMismatchError(f"basis {i} has shape {m.shape}; every basis must "
                                     f"be 2-D, of the shape {shape} of the first")
    return mats


def assemble_cross_tensors(bases, mean, ip: float, grad_op) -> CrossGalerkinTensors:
    """Offline projection of mass, diffusion, convection and forcing blocks.

    ``grad_op`` maps stacked fields (N, k) to their spatial derivative.
    Diffusion blocks are the gradient-gradient inner products (the
    integrated-by-parts form, exact on a periodic domain); convection
    blocks use the advective form against the shared mean field.  Each
    operator is one product of the stacked bases Phi = [Phi_1 ... Phi_Np]
    (column h*q + i is mode i of basis h); the quadratic one takes one
    product per h, its column band, so only one basis's pair products are
    held.
    """
    mats = _mode_matrices(bases)
    np_, (nx, q) = len(mats), mats[0].shape
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (nx,):
        raise ShapeMismatchError(f"mean length {mean.shape} != basis rows {nx}")

    phi = np.hstack(mats)
    dphi = grad_op(phi)
    wphi = ip * phi
    dmean = grad_op(mean)

    M = phi.T @ wphi
    R = dphi.T @ (ip * dphi)
    Cbar = phi.T @ (ip * (mean[:, None] * dphi + dmean[:, None] * phi))

    # band h of C: column i*n + k*q + j of row e*q + s is sum_x w phi^h_i phi^k_j (d phi^e_s)
    n = np_ * q
    C = np.empty((n, n * n))
    pairs = np.empty((nx, q, n))  # reused, so one h's products are held at a time
    for h in range(np_):
        np.multiply(wphi[:, h * q:(h + 1) * q, None], phi[:, None, :], out=pairs)
        C[:, h * q * n:(h + 1) * q * n] = dphi.T @ pairs.reshape(nx, -1)

    F_diff = -(dphi.T @ (ip * dmean)).reshape(np_, q)
    F_conv = -(phi.T @ (ip * (mean * dmean))).reshape(np_, q)
    return CrossGalerkinTensors(M, R, Cbar, C, F_conv, F_diff)


def weighted_rotations(w: WeightVector, rotations) -> np.ndarray:
    """S = [w_1 Q_1; ...; w_Np Q_Np], (Np q)-by-q, w the values of a WeightVector:
    the interpolated basis sum_h w_h Phi_h Q_h is [Phi_1 ... Phi_Np] S."""
    wv = np.asarray(w.values, dtype=float)
    Q = np.asarray(rotations, dtype=float)
    if Q.ndim != 3 or Q.shape[1] != Q.shape[2] or wv.shape != Q.shape[:1]:
        raise ShapeMismatchError("one weight and one q-by-q rotation per basis required")
    return (wv[:, None, None] * Q).reshape(-1, Q.shape[2])


def update_reduced_model(
    ct: CrossGalerkinTensors, w: WeightVector, rotations, nu: float
) -> ReducedModel:
    """Rebuild the reduced operators for new weights/rotations/viscosity.

    Each operator is the archive operator conjugated by S =
    ``weighted_rotations(w, rotations)``; the quadratic term contracts S on
    its derivative side first.  The archive arrays are multiplied as they
    are stored, with no copy.  The cost depends only on q and the number
    of trained bases, never on the mesh.  ``rotations`` must be the
    alignments returned by the barycenter run for the same weights.
    """
    np_, q = ct.F_diff.shape
    n = np_ * q
    S = weighted_rotations(w, rotations)
    if S.shape != (n, q):
        raise ShapeMismatchError(f"{np_} weights and rotations of shape ({q},{q}) required")
    # far extrapolation can overflow the operators; integrate_rom reports it
    with np.errstate(over="ignore", invalid="ignore"):
        return ReducedModel(
            M=S.T @ ct.M @ S, R=S.T @ ct.R @ S, Cbar=S.T @ ct.Cbar @ S,
            C=S.T @ (S.T @ ct.C).reshape(q, n, n) @ S,
            F=S.T @ (ct.F_conv + nu * ct.F_diff).ravel(), nu=float(nu))


def direct_project(basis, mean, ip: float, grad_op, nu: float) -> ReducedModel:
    """Galerkin projection onto one explicit N-by-q basis by straight
    quadrature: its one-basis ``assemble_cross_tensors`` at viscosity nu,
    C the (q, q^2) archive block as q-by-q slices and F = F_conv + nu
    F_diff.

    This is the mesh-sized computation the cheap update replaces; it is
    kept as the exactness oracle and as the assembly path for baselines
    built around a single interpolated or truth basis.
    """
    ct = assemble_cross_tensors([basis], mean, ip, grad_op)
    q = ct.M.shape[0]
    return ReducedModel(M=ct.M, R=ct.R, Cbar=ct.Cbar, C=ct.C.reshape(q, q, q),
                        F=(ct.F_conv + nu * ct.F_diff).ravel(), nu=float(nu))


def integrate_rom(model: ReducedModel, alpha0, dt: float, steps: int,
                  t0: float = 0.0) -> ReducedTrajectory:
    """Advance the reduced system with classical 4th-order Runge-Kutta.

    M must be finite and SPD (its smallest eigenvalue positive), else
    SingularMassError; the trajectory carries its condition number
    lambda_max / lambda_min, which bounds how much roundoff the fold of
    M^-1 can amplify.  Before the step loop one solve folds M^-1 into the
    operators: G = M^-1 [F | -(nu R + Cbar) | -C'] = [f | -L | -Chat], C'
    the q-by-q^2 layout of C, C'[i, e*q + j] = C[e][i, j].  The right-hand
    side at a state a is the single product G z with z = [1; a; vec(a outer
    a)], vec index e*q + j holding a_e a_j.

    The march keeps one flat buffer Z = [z3 | z2 | z1 | z0 | s]: z_i is the
    z of stage state a_i (a_0 the state), stored as [1; vec(a_i outer a_i);
    a_i] with G's columns reordered to match, and s is a second copy of the
    state.  G is built once into four stage operators that end in an
    identity block on s.  Stage i = 1, 2, 3 writes a_i = s + c_i G z_{i-1},
    c = dt/2, dt/2, dt, as one product of [c_i G | 0 | I] with the
    contiguous tail of Z from z_{i-1}.  The new state s + dt/6 G (z0 + 2 z1
    + 2 z2 + z3) is one product of [(dt/6) G | (dt/3) G | (dt/3) G | (dt/6)
    G | I] with all of Z, written straight into the state's row of the
    trajectory and copied from there by one broadcast copy into a_0 and s,
    which are adjacent.  With the four outer products a step is eight small
    numpy products, all bound before the loop, and that copy; no array is
    allocated in it, and no product writes over its own input, which would
    make numpy copy through a hidden temporary.

    The state is added last, from its own copy: an identity folded into
    G's linear columns instead, coefficient 1 + c g, rounds worse.  On the
    default study, against the same march in extended precision, the
    roundoff over 995 steps is 4.7-11.0 eps of the largest coordinate
    (5.8-50.6 eps with the folded identity), while RK4's own truncation
    error at dt = 1e-3 is 5.1e3-2.0e4 eps.

    The reduced system does not need the solver's step: predictions march
    at the sampling interval h = save_every dt.  On the default study, for
    nu from 0.03 to 0.13, rho(M^-1 J) h along the trajectories is at most
    0.050, far inside RK4's real-axis stability bound of about 2.8, and
    the states differ from every save_every-th state of the march at dt by
    at most 6.1e-9 of the largest coordinate.  That is truncation at h,
    3.2e6-1.2e7 eps against the same march at h/8; the roundoff of the 199
    steps is 1.3-6.1 eps.

    Every state is recorded, step 0 included, at the ``sample_times`` t0 +
    k dt.  After the last step the trajectory is checked for finiteness
    once, and DivergedSolutionError names the step of its first non-finite
    state; a diverging march runs on to ``steps`` before it raises.
    """
    alpha0 = np.asarray(alpha0, dtype=float)
    q = model.M.shape[0]
    if alpha0.shape != (q,):
        raise ShapeMismatchError(f"alpha0 must have length {q}, got {alpha0.shape}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    # a_i, zz_i = vec(a_i outer a_i) and the state s are views into Z, and
    # ``pair`` is the adjacent a_0 and s.  The outer product is the
    # (q,1)(1,q) product of a_i's column and row views: one term per entry,
    # so the same values as a_i[:, None] * a_i from a cheaper call.  The
    # views are made once, here, not in the step loop.
    p = 1 + q + q * q
    Z = np.empty(4 * p + q)
    z3, z2, z1, z0 = (Z[i * p:(i + 1) * p] for i in range(4))
    (outer0, row0), (outer1, row1), (outer2, row2), (outer3, row3) = (
        (z_i[p - q:, None].dot, z_i[None, p - q:]) for z_i in (z0, z1, z2, z3))
    zz0, zz1, zz2, zz3 = (z_i[1:p - q].reshape(q, q) for z_i in (z0, z1, z2, z3))
    a1, a2, a3 = (z_i[p - q:] for z_i in (z1, z2, z3))
    pair = Z[4 * p - q:].reshape(2, q)
    Z[0:4 * p:p] = 1.0
    pair[:] = alpha0

    alphas = np.empty((steps + 1, q))
    alphas[0] = alpha0
    # M is checked finite first, as the eigenvalue check cannot judge an inf
    # or nan entry.  A non-finite or overflowing R, Cbar, C, F or nu passes
    # into G and shows up in the states, which are checked instead
    if not np.isfinite(model.M).all():
        raise SingularMassError("reduced mass matrix is not finite")
    try:
        lam = np.linalg.eigvalsh(model.M)
        if not lam[0] > 0.0:
            raise np.linalg.LinAlgError(f"smallest eigenvalue {lam[0]:.3e}")
        with np.errstate(over="ignore", invalid="ignore"):
            G = np.linalg.solve(model.M, np.hstack([
                np.reshape(model.F, (q, 1)), -(model.nu * model.R + model.Cbar),
                -model.C.transpose(1, 0, 2).reshape(q, q * q)]))
    except np.linalg.LinAlgError as exc:
        raise SingularMassError(f"reduced mass matrix not SPD: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        # G's columns in z's order [1 | pairs | linear]
        Gz = np.concatenate([G[:, :1], G[:, 1 + q:], G[:, 1:1 + q]], axis=1)
        half, full, third, sixth = (c * Gz for c in (0.5 * dt, dt, dt / 3.0, dt / 6.0))
        O, I = np.zeros((q, p)), np.eye(q)
        stage1, stage2, stage3, step = (np.concatenate(blocks, axis=1).dot for blocks in (
            [half, I], [half, O, I], [full, O, O, I], [sixth, third, third, sixth, I]))
        tail1, tail2, tail3 = Z[3 * p:], Z[2 * p:], Z[p:]
        for row in alphas[1:]:
            outer0(row0, zz0)
            stage1(tail1, a1)
            outer1(row1, zz1)
            stage2(tail2, a2)
            outer2(row2, zz2)
            stage3(tail3, a3)
            outer3(row3, zz3)
            step(Z, row)
            pair[:] = row
    finite = np.isfinite(alphas).all(axis=1)
    if not finite.all():
        raise DivergedSolutionError(f"reduced state diverged to a non-finite value "
                                    f"by step {int(np.argmin(finite))}")
    return ReducedTrajectory(times=sample_times(t0, dt, 1, steps + 1),
                             alphas=alphas, mass_condition=float(lam[-1] / lam[0]))


def row_blocks(nx: int, ns: int) -> list:
    """(start, stop) of the row blocks in which ``reconstruct_field`` lifts
    and ``metrics`` scores a field of nx rows and ns columns: about
    BLOCK_BYTES of the field each, and one block for a single column.  No
    block is a single row unless nx is 1, because numpy multiplies a
    single row by gemv, whose sums can differ in the last bit from the
    GEMM of all rows, so a one-row tail joins the block before it.  A lift
    in these blocks is bitwise the whole product."""
    starts = list(range(0, nx, max(2, nx if ns <= 1 else BLOCK_BYTES // (8 * ns))))
    if len(starts) > 1 and nx - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [nx]))


def combined_basis(bases, weights: WeightVector, rotations) -> np.ndarray:
    """Weighted sum of rotated bases, Phi = sum_h w_h Phi_h Q_h, w the values
    of a WeightVector, one weight and one q-by-q rotation per basis: the
    interpolated basis the updated reduced operators are exact for, and
    the one a barycentric prediction lifts with.  The terms of the
    nonzero weights are added in basis order, each one product, one
    scaling and one add."""
    mats = _mode_matrices(bases)
    wv = np.asarray(weights.values, dtype=float)
    rots = [np.asarray(r, dtype=float) for r in rotations]
    q = mats[0].shape[1]
    if wv.shape != (len(mats),) or [r.shape for r in rots] != [(q, q)] * len(mats):
        raise ShapeMismatchError("one weight and one q-by-q rotation per basis required")
    phi = np.zeros_like(mats[0])
    term = np.empty(phi.shape)
    for w, m, r in zip(wv, mats, rots):
        if w != 0.0:
            np.matmul(m, r, out=term)
            term *= w
            phi += term
    return phi


@dataclass
class FactoredField:
    """A lifted trajectory kept as its two factors: the values are
    ``factor @ coeffs``, with factor = [Phi | mean], N-by-(q + 1), and
    coeffs = [alphas^T; 1], (q + 1)-by-n_times.  Each factor is formed from
    the ``basis`` Phi, the ``mean`` and the ``alphas`` on its first use and
    kept, so a field that is never lifted or written makes no mesh-sized
    copy.  ``rows`` forms one block of rows of the field, so a caller that
    walks the rows never holds the field whole."""

    basis: np.ndarray
    mean: np.ndarray
    alphas: np.ndarray
    times: np.ndarray
    param: float

    @cached_property
    def factor(self) -> np.ndarray:
        return np.column_stack([self.basis, self.mean])

    @cached_property
    def coeffs(self) -> np.ndarray:
        return np.vstack([self.alphas.T, np.ones(self.alphas.shape[0])])

    @property
    def shape(self) -> tuple:
        return self.basis.shape[0], self.alphas.shape[0]

    def rows(self, start: int, stop: int, out=None) -> np.ndarray:
        """Rows start:stop of the field, written into ``out`` when given."""
        return np.matmul(self.factor[start:stop], self.coeffs, out=out)


def factored_field(basis, mean, traj: ReducedTrajectory, param=np.nan) -> FactoredField:
    """The lift u(t) = mean + Phi a(t) of a trajectory onto the N-by-q
    ``basis`` Phi, unformed: the basis, mean and coordinates its factors
    [Phi | mean] and [alphas^T; 1] are formed from."""
    (phi,) = _mode_matrices([basis])
    nx, q = phi.shape
    mean = np.asarray(mean, dtype=float)
    if q != traj.alphas.shape[1]:
        raise ShapeMismatchError(
            f"basis has {q} columns but trajectory carries "
            f"{traj.alphas.shape[1]} coordinates"
        )
    if mean.shape != (nx,):
        raise ShapeMismatchError("mean length does not match basis rows")
    return FactoredField(phi, mean, traj.alphas, traj.times.copy(), float(param))


def reconstruct_field(basis, mean, traj: ReducedTrajectory, param=np.nan) -> SnapshotMatrix:
    """Lift reduced states back to the full field, u(t) = mean + Phi a(t):
    the ``factored_field`` of the same arguments, allocated once and filled
    by ``FactoredField.rows`` one ``row_blocks`` block of about 256 KiB at a
    time, three blocks to one core's L2.  It is bitwise the one product
    [Phi | mean] @ [alphas^T; 1]."""
    field = factored_field(basis, mean, traj, param)
    values = np.empty(field.shape)
    for i, j in row_blocks(*field.shape):
        field.rows(i, j, out=values[i:j])
    return SnapshotMatrix(values=values, times=field.times, param=field.param)


def initial_condition(basis, mean, ip: float, u0) -> np.ndarray:
    """Weighted least-squares coordinates of u0 - mean in the basis span."""
    phi = np.asarray(basis, float)
    u0 = np.asarray(u0, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if u0.shape != (phi.shape[0],) or mean.shape != (phi.shape[0],):
        raise ShapeMismatchError("field length does not match basis rows")
    gram = phi.T @ (ip * phi)
    return np.linalg.solve(gram, phi.T @ (ip * (u0 - mean)))
