"""Pose solver internals, verified against independently constructed truths.

The central oracle: for noise-free correspondences generated from a known
pose, the true projective map W' = N2 H2 [R T; 0 1] H1^-1 N1^-1 is built
directly from its factors.  The DLT design matrix must annihilate it, the
constraint matrix must span it, and the full pipeline must return the exact
pose.  The constraint matrix built with its two scalars exchanged must NOT
span it, which pins down which normalization each scalar belongs to.
"""

import numpy as np
import pytest

from lfrect import pose as lfpose
from lfrect.bench import NOISE_SWEEP_SIGMAS, noise_sweep_pose
from lfrect.errors import (
    CoplanarDegeneracy,
    DegenerateDisparity,
    DegenerateSpread,
    IllConditioned,
    NonPositiveDepth,
    NumericalFailure,
    RankDeficient,
    SingularInput,
)
from lfrect.geometry import (
    LFIntrinsics,
    RelativePose,
    angular_error_rotation,
    angular_error_translation,
    euler_xyz_intrinsic,
    so3_exp,
)
from lfrect.pose import (
    CorrespondenceSet,
    _jacobian,
    _normalization_inverse,
    _residuals,
    _translation_system,
    build_dlt_system,
    constraint_matrix,
    detect_degeneracy,
    estimate_pose,
    normalize_points,
    project_to_SO3,
    refine_pose,
    solve_linear,
    solve_translation,
)
from lfrect.simulate import (
    BoardPose,
    make_sim_config,
    simulate_correspondences,
)

from oracles import refine_pose_nested, solve_linear_full_svd


def true_w_prime(corr, pose, N1, N2):
    """The projective map between normalized homogeneous LF-points, built
    from its factors, as a unit row-major 16-vector.  N1, N2 are the
    normalization matrices from ``normalize_points``."""
    M = pose.matrix()
    W = corr.k2.matrix_H() @ M @ corr.k1.matrix_H_inverse()
    Wp = N2 @ W @ _normalization_inverse(N1)
    w = Wp.reshape(-1)
    return w / np.linalg.norm(w)


def vec_gap(a, b):
    """Distance between unit vectors up to sign."""
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


@pytest.fixture(scope="module")
def norms(corr_exact):
    """(Pn1, N1, Pn2, N2): both normalized point sets and their matrices."""
    return (*normalize_points(corr_exact.first), *normalize_points(corr_exact.second))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_points_centers_and_scales(corr_noisy):
    Pn, N = normalize_points(corr_noisy.first)
    assert np.abs(Pn.mean(axis=0)).max() < 1e-10
    assert np.abs(np.sqrt((Pn**2).mean(axis=0)) - 1.0).max() < 1e-10
    # the matrix reproduces the array it returned, on homogeneous points
    homogeneous = np.column_stack([corr_noisy.first, np.ones(len(corr_noisy))])
    assert np.allclose(homogeneous @ N.T, np.column_stack([Pn, np.ones(len(Pn))]), atol=1e-12)
    assert np.abs(N @ _normalization_inverse(N) - np.eye(4)).max() < 1e-12


def test_normalize_points_zero_spread_raises():
    P = np.column_stack([np.arange(6.0), np.arange(6.0), np.full(6, -0.2)])
    with pytest.raises(DegenerateSpread):
        normalize_points(P)


# ---------------------------------------------------------------------------
# linear system oracles
# ---------------------------------------------------------------------------


def test_dlt_annihilates_true_solution(corr_exact, sweep_pose, norms):
    Pn1, N1, Pn2, N2 = norms
    A = build_dlt_system(Pn1, Pn2)
    w = true_w_prime(corr_exact, sweep_pose, N1, N2)
    assert np.abs(A @ w).max() <= 1e-10


def test_true_solution_in_constraint_column_space(corr_exact, sweep_pose, norms):
    _, N1, _, N2 = norms
    Q = constraint_matrix(corr_exact.k1, corr_exact.k2, N1, N2)
    w = true_w_prime(corr_exact, sweep_pose, N1, N2)
    x, *_ = np.linalg.lstsq(Q, w, rcond=None)
    assert np.linalg.norm(Q @ x - w) <= 1e-10


def test_swapped_scalars_do_not_span_true_solution(corr_exact, sweep_pose, norms):
    # Exchanging the two per-camera scalars gives a structurally different
    # lift; the true map must fall visibly outside its column space.  This
    # is what fixes which camera each scalar is computed from.
    _, N1, _, N2 = norms
    Q_bad = constraint_matrix(corr_exact.k2, corr_exact.k1, N2, N1)
    w = true_w_prime(corr_exact, sweep_pose, N1, N2)
    x, *_ = np.linalg.lstsq(Q_bad, w, rcond=None)
    assert np.linalg.norm(Q_bad @ x - w) > 1e-4


def test_constraint_matrix_shape_and_rank(corr_exact, norms):
    _, N1, _, N2 = norms
    Q = constraint_matrix(corr_exact.k1, corr_exact.k2, N1, N2)
    assert Q.shape == (16, 13)
    assert np.linalg.matrix_rank(Q) == 13


def test_solve_linear_recovers_true_map(corr_exact, sweep_pose, norms):
    _, N1, _, N2 = norms
    sol = solve_linear(corr_exact)
    w_true = true_w_prime(corr_exact, sweep_pose, N1, N2)
    assert vec_gap(sol.W_prime.reshape(-1), w_true) <= 1e-8
    assert sol.singular_values.shape == (13,)
    assert np.all(np.diff(sol.singular_values) <= 0)  # descending
    # smallest singular value is tiny on exact data, the next one is not
    assert sol.singular_values[-1] <= 1e-8 * sol.singular_values[0]
    assert sol.singular_values[-2] > 1e-6 * sol.singular_values[0]
    assert sol.mu == pytest.approx(1.0 / sol.c)


def test_solve_linear_matches_full_svd_bit_for_bit(sweep_pose, corr_dense):
    # QR then the SVD of the 13x13 triangle must give what the SVD of the
    # whole reduced system gives, to the bit: the benchmark digests and the
    # bench CSVs depend on it.
    draws = [
        simulate_correspondences(
            make_sim_config(sweep_pose, sigma_px=sigma), np.random.default_rng(1000 * row + trial)
        )
        for row, sigma in enumerate(NOISE_SWEEP_SIGMAS)
        for trial in range(3)
    ]
    for corr in [*draws, corr_dense]:
        s, W_prime = solve_linear_full_svd(corr)
        sol = solve_linear(corr)
        assert sol.singular_values.tobytes() == s.tobytes()
        assert sol.W_prime.tobytes() == W_prime.tobytes()


def test_solve_linear_coplanar_is_rank_deficient(k_pair, sweep_pose):
    # One board only: every point on one plane.  The linear system then has
    # a whole family of solutions and the null-gap test must refuse.
    cfg = make_sim_config(
        sweep_pose,
        board_poses=(
            BoardPose(euler_xyz_intrinsic(-20.0, 15.0, 0.0), np.array([-320.0, 0.0, 1100.0])),
        ),
    )
    corr = simulate_correspondences(cfg, np.random.default_rng(0))
    with pytest.raises(RankDeficient):
        solve_linear(corr)


# ---------------------------------------------------------------------------
# rotation projection
# ---------------------------------------------------------------------------


class TestProjectToSO3:
    def test_fixes_rotations(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            R = so3_exp(rng.normal(0, 1, 3))
            assert np.abs(project_to_SO3(R) - R).max() < 1e-12
            assert np.abs(project_to_SO3(3.7 * R) - R).max() < 1e-12  # scale invariant

    def test_closest_rotation(self):
        # Procrustes optimality: no small rotation offset improves the fit.
        rng = np.random.default_rng(1)
        for _ in range(10):
            M = rng.normal(0, 1, (3, 3)) + 2 * np.eye(3)
            R = project_to_SO3(M)
            assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
            assert np.linalg.det(R) > 0
            base = np.linalg.norm(M - R)
            for _ in range(20):
                R2 = R @ so3_exp(rng.normal(0, 0.05, 3))
                assert np.linalg.norm(M - R2) >= base - 1e-12

    def test_negative_determinant_input(self):
        M = np.diag([2.0, 1.5, -1.0])
        R = project_to_SO3(M)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularInput):
            project_to_SO3(np.diag([1.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------


def test_translation_system_residual_at_truth(corr_exact, sweep_pose):
    # Rows carry pixel-times-focal products of order 1e5, so "zero" is
    # judged relative to the row scale.
    A_R, A_T = _translation_system(corr_exact)
    resid = A_R @ sweep_pose.R.reshape(-1, order="F") + A_T @ sweep_pose.T
    row_norm = np.linalg.norm(np.hstack([A_R, A_T]), axis=1)
    assert (np.abs(resid) / row_norm).max() <= 1e-10


def test_solve_translation_recovers_truth(corr_exact, sweep_pose):
    T = solve_translation(corr_exact, sweep_pose.R)
    assert np.abs(T - sweep_pose.T).max() <= 1e-8


# ---------------------------------------------------------------------------
# degeneracy detection
# ---------------------------------------------------------------------------


class TestDegeneracy:
    def test_single_board_is_coplanar(self, sweep_pose):
        cfg = make_sim_config(
            sweep_pose,
            board_poses=(
                BoardPose(euler_xyz_intrinsic(-20.0, 15.0, 0.0), np.array([-320.0, 0.0, 1100.0])),
            ),
        )
        corr = simulate_correspondences(cfg, np.random.default_rng(0))
        report = detect_degeneracy(corr)
        assert report.coplanar
        assert abs(np.linalg.norm(report.normal) - 1.0) < 1e-9
        assert report.residual_rms < 1e-3 * report.scene_diameter
        with pytest.raises(CoplanarDegeneracy) as exc_info:
            estimate_pose(corr)
        assert exc_info.value.report is not None
        assert exc_info.value.report.coplanar

    def test_two_tilted_boards_are_not_coplanar(self, sweep_pose):
        cfg = make_sim_config(
            sweep_pose,
            board_poses=(
                BoardPose(euler_xyz_intrinsic(-10.0, 15.0, 0.0), np.array([-320.0, 0.0, 1100.0])),
                BoardPose(euler_xyz_intrinsic(10.0, 15.0, 0.0), np.array([-300.0, 10.0, 1250.0])),
            ),
        )
        corr = simulate_correspondences(cfg, np.random.default_rng(0))
        assert not detect_degeneracy(corr).coplanar

    def test_default_layout_is_not_coplanar(self, corr_exact):
        report = detect_degeneracy(corr_exact)
        assert not report.coplanar
        assert report.residual_rms > 0.01 * report.scene_diameter

    def test_outlier_depths_do_not_flip_the_verdict(self, corr_exact):
        # A few corrupted disparities put points at absurd depths; the fit
        # must ignore them instead of raising or tripping the plane test.
        first = np.array(corr_exact.first)
        first[0, 2] = -corr_exact.k1.K1 - 1e-7   # Z around 1.6e9 mm
        first[1, 2] = -corr_exact.k1.K1 + 0.05   # Z negative
        corr = CorrespondenceSet(
            first=first, second=corr_exact.second, k1=corr_exact.k1, k2=corr_exact.k2
        )
        assert not detect_degeneracy(corr).coplanar

    def test_report_counts_excluded_points(self, corr_exact):
        assert detect_degeneracy(corr_exact).excluded == 0
        first = np.array(corr_exact.first)
        first[5, 2] = -corr_exact.k1.K1 - 1e-7   # one point at Z around 1.6e9 mm
        corr = CorrespondenceSet(
            first=first, second=corr_exact.second, k1=corr_exact.k1, k2=corr_exact.k2
        )
        report = detect_degeneracy(corr)
        assert report.excluded == 1
        assert not report.coplanar

    def test_all_disparities_at_pole_raises(self, k_pair):
        k1, k2 = k_pair
        n = 8
        first = np.column_stack(
            [np.linspace(100, 400, n), np.linspace(80, 300, n), np.full(n, -k1.K1)]
        )
        second = np.column_stack(
            [np.linspace(120, 420, n), np.linspace(90, 310, n), np.full(n, -0.2)]
        )
        corr = CorrespondenceSet(first=first, second=second, k1=k1, k2=k2)
        with pytest.raises(DegenerateDisparity):
            detect_degeneracy(corr)

    def test_all_depths_behind_raises(self, k_pair):
        k1, k2 = k_pair
        n = 8
        first = np.column_stack(
            [np.linspace(100, 400, n), np.linspace(80, 300, n), np.full(n, -k1.K1 + 0.3)]
        )
        second = np.column_stack(
            [np.linspace(120, 420, n), np.linspace(90, 310, n), np.full(n, -0.2)]
        )
        corr = CorrespondenceSet(first=first, second=second, k1=k1, k2=k2)
        with pytest.raises(NonPositiveDepth):
            detect_degeneracy(corr)


def test_correspondence_set_validation(k_pair):
    k1, k2 = k_pair
    good = np.column_stack([np.arange(5.0), np.arange(5.0) * 2, -0.1 - np.arange(5.0) / 10])
    with pytest.raises(ValueError, match="at least 4"):
        CorrespondenceSet(first=good[:3], second=good[:3], k1=k1, k2=k2)
    with pytest.raises(ValueError, match="matching"):
        CorrespondenceSet(first=good, second=good[:4], k1=k1, k2=k2)
    bad = np.array(good)
    bad[2] = bad[1]
    with pytest.raises(ValueError, match="duplicate"):
        CorrespondenceSet(first=bad, second=bad, k1=k1, k2=k2)
    nan = np.array(good)
    nan[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        CorrespondenceSet(first=nan, second=good, k1=k1, k2=k2)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def fd_jacobian(corr, p, e, R, T, h=1e-6):
    """Central finite differences of the residual stack in (omega, T)."""
    cols = []
    for i in range(6):
        def at(sign):
            d = np.zeros(6)
            d[i] = sign * h
            return _residuals(corr, p, e, R @ so3_exp(d[:3]), T + d[3:])

        rp, rm = at(+1.0), at(-1.0)
        assert rp is not None and rm is not None
        cols.append((rp - rm).reshape(-1) / (2 * h))
    return np.column_stack(cols)


def test_jacobian_matches_finite_differences(corr_exact, sweep_pose):
    rng = np.random.default_rng(42)
    p, e = corr_exact.k1.backproject(corr_exact.first)
    for _ in range(20):
        R = sweep_pose.R @ so3_exp(rng.normal(0, 0.05, 3))
        T = sweep_pose.T + rng.normal(0, 10.0, 3)
        J = _jacobian(corr_exact, p, e, R, T)
        J_fd = fd_jacobian(corr_exact, p, e, R, T)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(J - J_fd).max() / scale <= 1e-5


def test_refine_cost_strictly_decreases(corr_noisy, sweep_pose):
    # Start well away from the optimum so several steps are accepted.
    init = RelativePose(
        sweep_pose.R @ so3_exp(np.array([0.02, -0.03, 0.01])),
        sweep_pose.T + np.array([8.0, -6.0, 4.0]),
    )
    trace = []
    pose, cost, iterations = refine_pose(corr_noisy, init, cost_trace=trace)
    assert len(trace) >= 3
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert trace[-1] == pytest.approx(cost)
    assert iterations >= len(trace) - 1


def test_refine_from_truth_is_immediate(corr_exact, sweep_pose):
    pose, cost, iterations = refine_pose(corr_exact, sweep_pose)
    assert cost <= 1e-16
    assert iterations <= 2
    assert angular_error_rotation(sweep_pose.R, pose.R) <= 1e-8


def test_refine_recovers_from_perturbation(corr_exact, sweep_pose):
    # 2 degrees of rotation and 5 mm of translation offset: inside the
    # basin, so the noise-free optimum (the truth) must be reached.
    w = np.radians(2.0) * np.array([1.0, 0.0, 0.0])
    init = RelativePose(sweep_pose.R @ so3_exp(w), sweep_pose.T + np.array([5.0, 0.0, -3.0]))
    pose, cost, iterations = refine_pose(corr_exact, init)
    assert angular_error_rotation(sweep_pose.R, pose.R) <= 1e-6
    assert angular_error_translation(sweep_pose.T, pose.T) <= 1e-6
    assert cost <= 1e-12
    assert iterations < 100


def _rescaled(corr, s):
    """``corr`` with every pixel quantity (coordinates and intrinsics)
    multiplied by ``s``: the same geometry in other pixel units."""
    scale_k = lambda k: LFIntrinsics(
        fx=s * k.fx, fy=s * k.fy, cx=s * k.cx, cy=s * k.cy, K1=s * k.K1, K2=s * k.K2
    )
    return CorrespondenceSet(
        first=s * corr.first, second=s * corr.second, k1=scale_k(corr.k1), k2=scale_k(corr.k2)
    )


def _sweep_draw(sigma_px, seed):
    """The draw that ``lfrect bench`` makes for one trial of a noise-sweep
    row, and the linear estimate LM starts from."""
    corr = simulate_correspondences(
        make_sim_config(noise_sweep_pose(), sigma_px=sigma_px), np.random.default_rng(seed)
    )
    return corr, estimate_pose(corr, refine=False).pose


def _cost_floor_case():
    corr, _ = _sweep_draw(0.0, 0)
    return corr, noise_sweep_pose()


def _gradient_case():
    # Pixel units 1000x larger shrink the gradient at the optimum by 1e6,
    # under the 1e-10 stop, while the cost stays far above the floor.
    corr, _ = _sweep_draw(0.1, 0)
    corr = _rescaled(corr, 1e-3)
    return corr, estimate_pose(corr).pose


LM_STOPS = {
    "cost floor": (_cost_floor_case, 0),
    "gradient": (_gradient_case, 0),
    "small decrease": (lambda: _sweep_draw(0.1, 0), 4),
    "damping stall": (lambda: _sweep_draw(0.2, 1003), 23),
    "budget": (lambda: _sweep_draw(0.1, 0), 3),
}


@pytest.mark.parametrize("stop", LM_STOPS, ids=lambda stop: stop.replace(" ", "-"))
def test_refine_stops_as_the_nested_loop_did(monkeypatch, stop):
    """Each stop of the single LM loop returns, bit for bit, what the two
    nested loops it replaced returned (``oracles.refine_pose_nested``).
    The damping stall is trial 3 of the sigma = 0.2 row of the stock noise
    sweep; the budget case is the small-decrease draw with 3 steps."""
    make_case, iterations = LM_STOPS[stop]
    corr, initial = make_case()
    if stop == "budget":
        monkeypatch.setattr(lfpose, "_MAX_ITERATIONS", 3)
    trace, nested_trace = [], []
    pose, cost, its = refine_pose(corr, initial, cost_trace=trace)
    nested_pose, nested_cost, nested_its, nested_stop = refine_pose_nested(
        corr, initial, cost_trace=nested_trace
    )
    assert nested_stop == stop and nested_its == iterations
    assert its == nested_its
    assert pose.R.tobytes() == nested_pose.R.tobytes()
    assert pose.T.tobytes() == nested_pose.T.tobytes()
    assert np.float64(cost).tobytes() == np.float64(nested_cost).tobytes()
    assert np.array(trace).tobytes() == np.array(nested_trace).tobytes()


def test_refine_raises_on_non_finite_initial_residual(corr_exact, sweep_pose):
    # 100 m behind camera 2 puts every transformed point at negative depth.
    behind = RelativePose(sweep_pose.R, np.array([0.0, 0.0, -1e5]))
    for refine in (refine_pose, lambda *args: refine_pose_nested(*args)[:3]):
        with pytest.raises(NumericalFailure, match="non-finite residual at the initial pose"):
            refine(corr_exact, behind)


def test_translation_with_camera_1_at_infinite_depth_is_ill_conditioned(corr_exact):
    # lambda = -K1 gives every camera-1 point zero inverse depth, so the
    # translation design matrix A_T is zero.
    first = np.array(corr_exact.first)
    first[:, 2] = -corr_exact.k1.K1
    corr = CorrespondenceSet(first=first, second=corr_exact.second, k1=corr_exact.k1, k2=corr_exact.k2)
    assert not _translation_system(corr)[1].any()
    with pytest.raises(IllConditioned, match="condition number"):
        solve_translation(corr, np.eye(3))


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_estimate_pose_exact_on_noise_free_data(corr_exact, sweep_pose):
    result = estimate_pose(corr_exact)
    assert angular_error_rotation(sweep_pose.R, result.pose.R) <= 1e-6
    assert angular_error_translation(sweep_pose.T, result.pose.T) <= 1e-6
    assert result.final_cost <= result.initial_cost
    assert result.converged and result.refined


def test_estimate_pose_without_refinement(corr_noisy):
    linear_only = estimate_pose(corr_noisy, refine=False)
    refined = estimate_pose(corr_noisy)
    assert not linear_only.refined
    assert linear_only.iterations == 0
    assert linear_only.final_cost == linear_only.initial_cost
    # refinement can only improve the reprojection cost
    assert refined.final_cost <= linear_only.final_cost
    assert refined.initial_cost == pytest.approx(linear_only.initial_cost)


def test_estimate_pose_noisy_is_reasonable(corr_noisy, sweep_pose):
    result = estimate_pose(corr_noisy)
    assert angular_error_rotation(sweep_pose.R, result.pose.R) < 1.0
    assert angular_error_translation(sweep_pose.T, result.pose.T) < 3.0


def test_unit_rescale_invariance(corr_noisy, sweep_pose):
    # Expressing all pixel quantities in half-pixels (coordinates and
    # intrinsics scaled together) must not change the estimate.
    r1 = estimate_pose(corr_noisy)
    r2 = estimate_pose(_rescaled(corr_noisy, 2.0))
    assert np.abs(r1.pose.R - r2.pose.R).max() <= 1e-8
    assert np.abs(r1.pose.T - r2.pose.T).max() <= 1e-6
