"""Acceptance checklist for the whole package.

Seven end-to-end checks, one per test, each printing a single PASS/FAIL
line directly to the terminal (past pytest's capture) so a full run reads
as a checklist.  Every gate is also asserted, so a FAIL line is a red test.

The accuracy gates compare freshly run benchmarks against the frozen
reference means tabulated below; a run must land within a factor of two.
The remaining gates are algebraic or geometric identities with explicit
tolerances, checked on freshly drawn random instances.
"""

import time

import numpy as np

from lfrect.bench import BenchSpec, noise_sweep_pose, noise_sweep_spec, pose_grid_presets, pose_grid_spec, run_bench
from lfrect.cli import main as cli_main
from lfrect.geometry import (
    RelativePose,
    angular_error_rotation,
    angular_error_translation,
    so3_exp,
)
from lfrect.pose import (
    _jacobian,
    _translation_system,
    build_dlt_system,
    constraint_matrix,
    estimate_pose,
    normalize_points,
    refine_pose,
    solve_linear,
)
from lfrect.rectify import build_rectified_setup, rectifying_rotation, warp_rays
from lfrect.resample import sample_rays
from lfrect.simulate import make_sim_config, simulate_correspondences

from oracles import warp_ray_geometric
from test_pose import fd_jacobian, true_w_prime, vec_gap
from test_rectify import random_pose, random_rays, warp_one
from test_resample import (
    affine_field,
    affine_lf,
    affine_queries,
    measure_corner_scan_alignment,
    measure_epi_trace,
    node_rays,
    random_lf,
)

# Reference mean errors (degrees) for the stock benchmark scenarios with
# 100 trials; rotation first, direction-of-translation second.
REF_SWEEP = {
    0.1: (0.0275, 0.1355),
    0.2: (0.0789, 0.2997),
    0.3: (0.1264, 0.4502),
    0.4: (0.1571, 0.5578),
    0.5: (0.2024, 0.7511),
}
REF_GRID = {
    "r15_t50": (0.0713, 0.5083),
    "r15_t100": (0.1340, 0.4649),
    "r30_t50": (0.0628, 0.5162),
    "r30_t100": (0.1237, 0.4730),
}


def _report(capsys, ok: bool, tag: str, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {tag} - {detail}", flush=True)
    assert ok, f"{tag}: {detail}"


def _within_factor_2(measured: float, reference: float) -> bool:
    return 0.5 * reference <= measured <= 2.0 * reference


def test_01_noise_free_recovery(capsys):
    presets = [("sweep", noise_sweep_pose())] + pose_grid_presets()
    worst_R = worst_T = slowest = 0.0
    for _name, pose in presets:
        cfg = make_sim_config(pose, sigma_px=0.0, trials=1, seed=0)
        t0 = time.perf_counter()
        corr = simulate_correspondences(cfg, np.random.default_rng(0))
        result = estimate_pose(corr)
        slowest = max(slowest, time.perf_counter() - t0)
        worst_R = max(worst_R, angular_error_rotation(pose.R, result.pose.R))
        worst_T = max(worst_T, angular_error_translation(pose.T, result.pose.T))
    ok = worst_R <= 1e-6 and worst_T <= 1e-6 and slowest <= 1.0
    _report(
        capsys,
        ok,
        "[1/7] noise-free recovery",
        f"{len(presets)} presets: max errR {worst_R:.3g} deg, "
        f"max errT {worst_T:.3g} deg (gate 1e-06), slowest {slowest:.3g} s (gate 1 s)",
    )


def test_02_noise_sweep_accuracy(capsys):
    rows = noise_sweep_spec().rows[:5]
    means_R, means_T, times = [], [], []
    for idx, row in enumerate(rows):
        # per-row seed matches the full sweep: spec seed + 1000 * row index
        spec = BenchSpec(name="noise-sweep", rows=[row], trials=100, seed=1000 * idx)
        t0 = time.perf_counter()
        rep = run_bench(spec).reports[0]
        times.append(time.perf_counter() - t0)
        means_R.append(rep.mean_err_R)
        means_T.append(rep.mean_err_T)
    monotone = all(b >= a for a, b in zip(means_R, means_R[1:]))
    monotone &= all(b >= a for a, b in zip(means_T, means_T[1:]))
    gates = True
    for pos, sigma in ((0, 0.1), (4, 0.5)):
        ref_R, ref_T = REF_SWEEP[sigma]
        gates &= _within_factor_2(means_R[pos], ref_R)
        gates &= _within_factor_2(means_T[pos], ref_T)
    ok = monotone and gates and max(times) <= 120.0
    _report(
        capsys,
        ok,
        "[2/7] noise sweep",
        f"monotone={monotone}; sigma 0.1: {means_R[0]:.4f}/{means_T[0]:.4f} "
        f"(ref {REF_SWEEP[0.1][0]}/{REF_SWEEP[0.1][1]}), "
        f"sigma 0.5: {means_R[4]:.4f}/{means_T[4]:.4f} "
        f"(ref {REF_SWEEP[0.5][0]}/{REF_SWEEP[0.5][1]}), "
        f"slowest row {max(times):.3g} s (gate 120 s)",
    )


def test_03_pose_grid_accuracy(capsys):
    result = run_bench(pose_grid_spec(trials=100, seed=0))
    by = {row.label: rep for row, rep in zip(result.spec.rows, result.reports)}
    gates = True
    for label, (ref_R, ref_T) in REF_GRID.items():
        gates &= _within_factor_2(by[label].mean_err_R, ref_R)
        gates &= _within_factor_2(by[label].mean_err_T, ref_T)
    ordering = (
        by["r15_t50"].mean_err_R < by["r15_t100"].mean_err_R
        and by["r30_t50"].mean_err_R < by["r30_t100"].mean_err_R
    )
    ok = gates and ordering
    measured = ", ".join(
        f"{label} {by[label].mean_err_R:.4f}/{by[label].mean_err_T:.4f}" for label in REF_GRID
    )
    _report(
        capsys,
        ok,
        "[3/7] pose grid",
        f"within 2x of reference={gates}, longer baseline raises errR={ordering}; {measured}",
    )


def test_04_solver_algebra(capsys, corr_exact, corr_noisy, sweep_pose):
    Pn1, N1 = normalize_points(corr_exact.first)
    Pn2, N2 = normalize_points(corr_exact.second)
    w = true_w_prime(corr_exact, sweep_pose, N1, N2)

    A = build_dlt_system(Pn1, Pn2)
    dlt_resid = float(np.abs(A @ w).max())

    Q = constraint_matrix(corr_exact.k1, corr_exact.k2, N1, N2)
    x, *_ = np.linalg.lstsq(Q, w, rcond=None)
    lift_resid = float(np.linalg.norm(Q @ x - w))

    sol = solve_linear(corr_exact)
    recovery_gap = vec_gap(sol.W_prime.reshape(-1), w)

    A_R, A_T = _translation_system(corr_exact)
    resid = A_R @ sweep_pose.R.reshape(-1, order="F") + A_T @ sweep_pose.T
    row_norm = np.linalg.norm(np.hstack([A_R, A_T]), axis=1)
    trans_resid = float((np.abs(resid) / row_norm).max())

    rng = np.random.default_rng(42)
    jac_err = 0.0
    for _ in range(20):
        R = sweep_pose.R @ so3_exp(rng.normal(0, 0.05, 3))
        T = sweep_pose.T + rng.normal(0, 10.0, 3)
        J = _jacobian(corr_exact, R, T)
        J_fd = fd_jacobian(corr_exact, R, T)
        jac_err = max(jac_err, np.abs(J - J_fd).max() / max(1.0, np.abs(J).max()))

    init = RelativePose(
        sweep_pose.R @ so3_exp(np.array([0.02, -0.03, 0.01])),
        sweep_pose.T + np.array([8.0, -6.0, 4.0]),
    )
    _, trace, _ = refine_pose(corr_noisy, init)
    lm_monotone = len(trace) >= 3 and all(b < a for a, b in zip(trace, trace[1:]))

    ok = (
        dlt_resid <= 1e-10
        and lift_resid <= 1e-10
        and trans_resid <= 1e-10
        and jac_err <= 1e-5
        and lm_monotone
    )
    _report(
        capsys,
        ok,
        "[4/7] solver algebra",
        f"system residual {dlt_resid:.3g}, lift residual {lift_resid:.3g}, "
        f"rotation/translation rows {trans_resid:.3g} (gates 1e-10; linear gap "
        f"{recovery_gap:.3g}), Jacobian vs finite differences {jac_err:.3g} "
        f"(gate 1e-05), refinement monotone={lm_monotone}",
    )


def test_05_rectification_geometry(capsys):
    rng = np.random.default_rng(0)
    closed_vs_geom = 0.0
    for _ in range(1000):
        pose = random_pose(rng)
        ray = random_rays(rng, 1)[0]
        a = warp_one(ray, pose)
        b = warp_ray_geometric(ray, pose.R, pose.T)
        closed_vs_geom = max(closed_vs_geom, np.abs(a - b).max() / max(1.0, np.abs(a).max()))

    rng = np.random.default_rng(1)
    round_trip = 0.0
    for _ in range(1000):
        pose = random_pose(rng)
        ray = random_rays(rng, 1)[0]
        back = warp_one(warp_one(ray, pose), pose.inverse())
        round_trip = max(round_trip, np.abs(back - ray).max())

    rng = np.random.default_rng(4)
    rot_props = 0.0
    for _ in range(200):
        pose = random_pose(rng, max_angle_deg=25.0, t_scale=40.0)
        if np.linalg.norm(pose.T) < 1.0:
            continue
        R_rect = rectifying_rotation(pose)
        rot_props = max(rot_props, np.abs(R_rect @ R_rect.T - np.eye(3)).max())
        rot_props = max(rot_props, abs(np.linalg.det(R_rect) - 1.0))
        mapped = R_rect @ pose.T
        rot_props = max(rot_props, np.abs(mapped[1:]).max() / np.linalg.norm(pose.T))

    rng = np.random.default_rng(6)
    triangulation = 0.0
    for _ in range(50):
        pose_2to1 = random_pose(rng, max_angle_deg=15.0, t_scale=50.0)
        if np.linalg.norm(pose_2to1.T) < 5.0:
            continue
        setup = build_rectified_setup(pose_2to1)
        P1 = rng.uniform([-200, -150, 400], [200, 150, 1500])
        P2 = pose_2to1.inverse().apply(P1)
        P_common = setup.R_rect @ P1
        for P_src, R, T in ((P1, setup.R_l, setup.T_l), (P2, setup.R_r, setup.T_r)):
            rays = []
            for _ in range(6):
                u, v = rng.uniform(-0.3, 0.3, 2)
                rays.append([P_src[0] - u * P_src[2], P_src[1] - v * P_src[2], u, v])
            warped, valid = warp_rays(np.array(rays), R, T)
            assert valid.all()
            n = warped.shape[0]
            A = np.zeros((2 * n, 3))
            b = np.empty(2 * n)
            A[:n, 0] = 1.0
            A[:n, 2] = -warped[:, 2]
            b[:n] = warped[:, 0]
            A[n:, 1] = 1.0
            A[n:, 2] = -warped[:, 3]
            b[n:] = warped[:, 1]
            X, *_ = np.linalg.lstsq(A, b, rcond=None)
            triangulation = max(triangulation, np.abs(X - P_common).max())

    ok = (
        closed_vs_geom <= 1e-10
        and round_trip <= 1e-9
        and rot_props <= 1e-9
        and triangulation <= 1e-8
    )
    _report(
        capsys,
        ok,
        "[5/7] rectification geometry",
        f"closed vs geometric {closed_vs_geom:.3g} (gate 1e-10), "
        f"round trip {round_trip:.3g} (gate 1e-09), rotation properties "
        f"{rot_props:.3g} (gate 1e-09), triangulation {triangulation:.3g} mm (gate 1e-08)",
    )


def test_06_resampling_fidelity(capsys, checker_rectified, blob_rectified, blob_world):
    lf = random_lf()
    rays, stored = node_rays(lf)
    values, node_ok = sample_rays(lf, rays)
    node_err = float(np.abs(values - stored).max()) if node_ok.all() else np.inf

    c = np.array([0.3, 0.01, -0.02, 0.5, -0.4])
    rays = affine_queries(np.random.default_rng(5), 500)
    values, affine_ok = sample_rays(affine_lf(c), rays)
    affine_err = (
        float(np.abs(values - affine_field(c)(*rays.T)).max()) if affine_ok.all() else np.inf
    )

    k, out, grid, setup = checker_rectified
    pairs = measure_corner_scan_alignment(k, out, grid, setup)
    scan_err = max(abs(m[1][1] - m[2][1]) for m in pairs) if pairs else np.inf

    k, out, grid, setup = blob_rectified
    s_used, _, slope, slope_pred, epi_resid = measure_epi_trace(k, out, grid, setup, blob_world)
    slope_rel = abs(slope - slope_pred) / abs(slope_pred)

    ok = (
        node_err == 0.0
        and affine_err <= 1e-12
        and len(pairs) >= 3
        and scan_err <= 0.1
        and s_used.size >= 8
        and epi_resid <= 0.5
        and slope_rel <= 0.02
    )
    _report(
        capsys,
        ok,
        "[6/7] resampling fidelity",
        f"node error {node_err:.3g} (exact), affine error {affine_err:.3g} "
        f"(gate 1e-12), scan-line split {scan_err:.3g} px over {len(pairs)} corner "
        f"pairs (gate 0.1), EPI residual {epi_resid:.3g} px (gate 0.5), "
        f"slope error {100 * slope_rel:.3g}% (gate 2%)",
    )


def test_07_benchmark_reproducibility(capsys, tmp_path):
    def run(name, *extra):
        out = tmp_path / name
        rc = cli_main(
            ["bench", "--scenario", "noise-sweep", "--trials", "3", "--seed", "0",
             "--out", str(out), *extra]
        )
        assert rc == 0
        return out.read_bytes(), out.with_suffix(".dat").read_bytes()

    a = run("a.csv")
    b = run("b.csv")
    c = run("c.csv", "--jobs", "2")
    reruns = a == b
    jobs = a == c
    ok = reruns and jobs
    _report(
        capsys,
        ok,
        "[7/7] benchmark reproducibility",
        f"byte-identical across reruns={reruns}, across worker counts={jobs} "
        f"({len(a[0])} CSV bytes)",
    )
