"""End-to-end acceptance gate.

Each test covers one numbered criterion at its stated tolerance (and
runtime budget where one is stated) and prints a single PASS/FAIL line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import time

import numpy as np
import pytest

from baryrom import (
    Grid1D,
    InnerProduct,
    SnapshotMatrix,
    SolverConfig,
    WeightScheme,
    WeightVector,
    combined_basis,
    compute_pod,
    direct_project,
    evaluate_weights,
    exp_map,
    initial_condition,
    integrate_rom,
    itsgm_interpolate,
    karcher_barycenter,
    log_map,
    orthonormalize,
    run,
    subspace_distance,
    update_reduced_model,
)
from baryrom import pipeline


def report(num, name, ok, detail):
    print(f"[ACCEPTANCE] C{num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def study(tmp_path_factory):
    """Default Burgers study: 4 trained viscosities, 3 untrained targets."""
    out = tmp_path_factory.mktemp("acceptance")
    cfg = pipeline.StudyConfig()
    pipeline.run_generate(cfg, out)
    pipeline.run_offline(out)
    return pipeline.load_study(out)


def test_c1_geometry_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        phi = rng.standard_normal((50, 5))
        psi = rng.standard_normal((50, 5))
        tangent, _ = log_map(phi, psi)
        worst = max(worst, subspace_distance(exp_map(phi, tangent), psi))
    elapsed = time.perf_counter() - t0
    report(1, "geometry-roundtrip", worst < 1e-10 and elapsed < 5.0,
           f"max subspace distance {worst:.3e}, {elapsed:.2f}s")


def test_c2_barycenter_node_reproduction(study):
    params = study.params
    scheme = WeightScheme("lagrange", params)
    worst_d, worst_g, worst_it = 0.0, 0.0, 0
    for h, nu in enumerate(params):
        w = evaluate_weights(scheme, nu)
        res = karcher_barycenter([b.modes for b in study.bases], w.values,
                                 tol=1e-10, init=pipeline.nearest_index(params, nu))
        d = subspace_distance(res.representative, study.bases[h].modes)
        worst_d = max(worst_d, d)
        worst_g = max(worst_g, res.final_gradient_norm)
        worst_it = max(worst_it, res.iterations)
    ok = worst_d < 1e-8 and worst_g <= 1e-10 and worst_it <= 5
    report(2, "barycenter-node-reproduction", ok,
           f"max distance {worst_d:.3e}, max grad {worst_g:.3e}, "
           f"max iterations {worst_it}")


def test_c3_update_exactness(study):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    params = study.params
    mats = [b.modes for b in study.bases]
    grad = study.grid.gradient
    scheme = WeightScheme("lagrange", params)

    vectors = []
    for _ in range(10):  # weights as produced at random targets (extrapolation incl.)
        target = rng.uniform(0.04, 0.12)
        vectors.append(evaluate_weights(scheme, target).values)
    while len(vectors) < 20:  # plus generic sum-to-one vectors
        w = rng.uniform(-0.2, 1.0, size=params.size)
        if w.sum() >= 0.5:
            vectors.append(w / w.sum())

    worst = 0.0
    for w in vectors:
        res = karcher_barycenter(mats, w, tol=1e-12, init=int(np.argmax(np.abs(w))))
        nu = rng.uniform(0.05, 0.11)
        model = update_reduced_model(study.tensors, WeightVector(w, 0.0),
                                     res.rotations, nu)
        phi = combined_basis(mats, w, res.rotations)
        oracle = direct_project(phi, study.mean, study.ip, grad, nu)
        for name in ("M", "R", "Cbar", "C", "F"):
            a = getattr(model, name)
            b = getattr(oracle, name)
            worst = max(worst, np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-14))
    elapsed = time.perf_counter() - t0
    report(3, "barycentric-update-exactness", worst < 1e-10 and elapsed < 30.0,
           f"20 weight vectors, max relative gap {worst:.3e}, {elapsed:.2f}s")


def test_c4_parametric_accuracy(study):
    t0 = time.perf_counter()
    rows, _ = pipeline.compare(study)
    details = []
    ok = True
    for nu, e_b, e_i, e_t, _ in rows:
        ok_row = e_b <= max(2.0 * e_t, 1.0) and e_b <= 2.0 * e_i
        ok = ok and ok_row
        details.append(f"nu={nu:g}: bary {e_b:.4f}% itsgm {e_i:.4f}% floor {e_t:.4f}%")
    elapsed = time.perf_counter() - t0
    report(4, "parametric-accuracy", ok and elapsed < 300.0,
           "; ".join(details) + f"; {elapsed:.1f}s")


def test_c5_trained_point_consistency(study):
    cfg = study.cfg
    worst = 0.0
    for h, nu in enumerate(study.params):
        w = pipeline.study_weights(study, nu)
        mats = [b.modes for b in study.bases]
        res = karcher_barycenter(mats, w.values, tol=cfg.tol,
                                 init=pipeline.nearest_index(study.params, nu))
        truth = pipeline.load_snapshots(study.outdir, study.manifest, nu)
        u0 = truth.values[:, 0]

        single = direct_project(study.bases[h].modes, study.mean, study.ip,
                                study.grid.gradient, nu)
        a0 = initial_condition(study.bases[h].modes, study.mean, study.ip, u0)
        traj_single = integrate_rom(single, a0, cfg.dt, cfg.steps,
                                    record_every=cfg.save_every)

        model = update_reduced_model(study.tensors, w, res.rotations, nu)
        phi = combined_basis(mats, w, res.rotations)
        a0b = initial_condition(phi, study.mean, study.ip, u0)
        traj_bary = integrate_rom(model, a0b, cfg.dt, cfg.steps,
                                  record_every=cfg.save_every)

        aligned = traj_single.alphas @ res.rotations[h]
        worst = max(worst, float(np.max(np.abs(traj_bary.alphas - aligned))))
    report(5, "trained-point-consistency", worst < 1e-8,
           f"max reduced-coordinate deviation {worst:.3e}")


def test_c6_online_update_scaling(tmp_path_factory):
    # the two mesh sizes are timed in alternation rep by rep, so a drift in
    # machine speed on a shared box hits both medians alike
    t0 = time.perf_counter()
    out_root = tmp_path_factory.mktemp("bench")
    base = pipeline.StudyConfig().to_dict()
    base.update({"steps": 200, "transient": 100, "save_every": 5, "test_nu": []})
    studies = []
    for nx in (2000, 20000):
        cfg = pipeline.config_from_dict({**base, "grid": {"n": nx,
                                                          "length": base["grid"]["length"]}})
        out = out_root / f"nx{nx}"
        pipeline.run_generate(cfg, out)
        pipeline.run_offline(out)
        studies.append(pipeline.load_study(out))
    t_update, t_direct = pipeline.bench_update(studies, nu=0.08, reps=100)
    med_u, med_d = np.median(t_update, axis=0), np.median(t_direct, axis=0)
    iqr_u, iqr_d = (np.subtract(*np.percentile(t, [75, 25], axis=0))
                    for t in (t_update, t_direct))
    ratio_update = med_u[1] / med_u[0]
    ratio_direct = med_d[1] / med_d[0]
    elapsed = time.perf_counter() - t0
    ok = ratio_update < 1.5 and ratio_direct > 5.0 and elapsed < 120.0
    report(6, "online-update-scaling", ok,
           f"update ratio {ratio_update:.2f} (<1.5), direct ratio "
           f"{ratio_direct:.2f} (>5), {elapsed:.1f}s; median (IQR) update "
           f"{med_u[0]:.2e} ({iqr_u[0]:.1e}) / {med_u[1]:.2e} ({iqr_u[1]:.1e}) s, "
           f"direct {med_d[0]:.2e} ({iqr_d[0]:.1e}) / {med_d[1]:.2e} ({iqr_d[1]:.1e}) s")


def test_c7_solver_verification():
    # temporal order: heat limit against the exact semi-discrete decay
    grid = Grid1D(64, 2 * np.pi)
    nu, t_end = 0.5, 0.5
    u0 = np.sin(grid.x)
    lam = -nu * (2.0 - 2.0 * np.cos(2 * np.pi / grid.n)) / grid.dx**2
    exact = np.exp(lam * t_end) * u0
    errs = []
    for dt in (1e-2, 5e-3):
        steps = round(t_end / dt)
        cfg = SolverConfig(nu=nu, dt=dt, steps=steps, initial=u0,
                           save_every=steps, convection=False)
        errs.append(np.max(np.abs(run(cfg, grid).values[:, -1] - exact)))
    temporal_ratio = errs[0] / errs[1]

    # spatial order: full scheme against a fine-grid reference
    def final_state(n):
        g = Grid1D(n, 2 * np.pi)
        cfg = SolverConfig(nu=0.1, dt=1e-4, steps=2500, initial="two_mode",
                           save_every=2500)
        return run(cfg, g).values[:, -1]

    ref = final_state(512)
    e_coarse = np.max(np.abs(final_state(64) - ref[::8]))
    e_fine = np.max(np.abs(final_state(128) - ref[::4]))
    spatial_ratio = e_coarse / e_fine

    # momentum conservation per step
    cfg = SolverConfig(nu=0.05, dt=1e-3, steps=300, save_every=1)
    snap = run(cfg, Grid1D(256, 2 * np.pi))
    drift = float(np.max(np.abs(np.diff(snap.values.mean(axis=0)))))

    ok = 1.7 < temporal_ratio < 2.3 and 3.0 < spatial_ratio < 5.2 and drift < 1e-12
    report(7, "solver-verification", ok,
           f"dt-halving error ratio {temporal_ratio:.2f} (~2), dx-halving "
           f"ratio {spatial_ratio:.2f} (~4), momentum drift {drift:.2e}/step")


def test_c8_pod_oracle(study):
    worst_spec, worst_orth = 0.0, 0.0
    for nu in study.params:
        truth = pipeline.load_snapshots(study.outdir, study.manifest, nu)
        fluct = truth.values - study.mean[:, None]
        basis = compute_pod(
            SnapshotMatrix(values=fluct, times=truth.times, param=nu),
            study.ip, study.cfg.q,
        )
        w = study.ip.weight
        singular = np.linalg.svd(np.sqrt(w) * fluct, compute_uv=False) ** 2
        k = min(singular.size, basis.eigenvalues.size)
        gap = np.abs(basis.eigenvalues[:k] - singular[:k]) / singular[0]
        worst_spec = max(worst_spec, float(gap.max()))
        gram = basis.modes.T @ study.ip.apply(basis.modes)
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(study.cfg.q)))))
    ok = worst_spec < 1e-10 and worst_orth < 1e-10
    report(8, "pod-oracle", ok,
           f"max spectrum gap {worst_spec:.3e}, max orthonormality defect "
           f"{worst_orth:.3e}")


def test_c9_itsgm_node_reproduction(study):
    mats = [orthonormalize(b.modes) for b in study.bases]
    params = study.params
    worst = 0.0
    scheme = WeightScheme("lagrange", params)
    for k, nu in enumerate(params):
        out = itsgm_interpolate(mats, evaluate_weights(scheme, nu).values, ref_index=0)
        worst = max(worst, subspace_distance(out, mats[k]))
    report(9, "itsgm-node-reproduction", worst < 1e-8,
           f"max subspace distance {worst:.3e}")
