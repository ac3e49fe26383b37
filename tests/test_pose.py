"""Pose solver internals, verified against independently constructed truths.

The central oracle: for noise-free correspondences generated from a known
pose, the true projective map W' = N2 H2 [R T; 0 1] H1^-1 N1^-1 is built
directly from its factors.  The DLT design matrix must annihilate it, the
constraint matrix must span it, and the full pipeline must return the exact
pose.  The constraint matrix built with its two scalars exchanged must NOT
span it, which pins down which normalization each scalar belongs to.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    make_sim_config,
    simulate_correspondences,
)

from oracles import (
    build_dlt_system_strided,
    detect_degeneracy_gathered,
    jacobian_zero_filled,
    normalize_points_broadcast,
    project_column_stack,
    refine_pose_nested,
    residuals_broadcast,
    solve_linear_full_svd,
)


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


def _sweep_draws(sweep_pose):
    """Three draws at each noise level of the stock sweep."""
    return [
        simulate_correspondences(
            make_sim_config(sweep_pose, sigma_px=sigma), np.random.default_rng(1000 * row + trial)
        )
        for row, sigma in enumerate(NOISE_SWEEP_SIGMAS)
        for trial in range(3)
    ]


def test_dlt_system_matches_strided_builder_bit_for_bit(sweep_pose, corr_dense):
    """Same shape and bytes as the C-ordered strided fill, signs of zero
    included: on the crafted set, exact zeros times negative coordinates
    give -0.0 products, which both builders store as +0.0."""
    normalized = [
        (normalize_points(corr.first)[0], normalize_points(corr.second)[0])
        for corr in [*_sweep_draws(sweep_pose), corr_dense]
    ]
    crafted = (
        np.array([[0.0, -1.0, 2.0], [-3.0, 0.0, 1.0], [1.0, 2.0, 0.0], [-1.0, -2.0, -3.0]]),
        np.array([[-2.0, 0.0, 1.0], [0.0, 1.0, -1.0], [3.0, -1.0, 0.0], [1.0, 1.0, 1.0]]),
    )
    for Pn1, Pn2 in [*normalized, crafted]:
        A, want = build_dlt_system(Pn1, Pn2), build_dlt_system_strided(Pn1, Pn2)
        assert A.shape == want.shape
        assert A.tobytes() == want.tobytes()


def test_solve_linear_matches_full_svd_bit_for_bit(sweep_pose, corr_dense):
    # QR then the SVD of the 13x13 triangle must give what the SVD of the
    # whole reduced system gives, to the bit: the benchmark digests and the
    # bench CSVs depend on it.
    for corr in [*_sweep_draws(sweep_pose), corr_dense]:
        s, W_prime = solve_linear_full_svd(corr)
        sol = solve_linear(corr)
        assert sol.singular_values.tobytes() == s.tobytes()
        assert sol.W_prime.tobytes() == W_prime.tobytes()


def test_solve_linear_frees_the_design_matrix_before_its_qr(corr_dense):
    """The (6n, 16) matrix A is gone before the QR copies A Q: the peak
    stays below A plus two copies of A Q, which holding A through the QR
    would exceed."""
    n = len(corr_dense)
    a_bytes, aq_bytes = 6 * n * 16 * 8, 6 * n * 13 * 8
    tracemalloc.start()
    try:
        solve_linear(corr_dense)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < a_bytes + 2 * aq_bytes


def test_solve_linear_hands_qr_a_column_major_system(corr_dense, monkeypatch):
    """LAPACK is column-major: the QR gets A Q as a Fortran-contiguous
    (6n, 13) matrix, so its copy into LAPACK's buffer reads whole columns."""
    seen = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        seen.append((a.shape, a.flags.f_contiguous))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    solve_linear(corr_dense)
    assert seen == [((6 * len(corr_dense), 13), True)]


# ---------------------------------------------------------------------------
# per-point passes against their broadcast oracles, bit for bit
# ---------------------------------------------------------------------------


def _crafted_set():
    """Points with exact zeros and -0.0 in every coordinate and in p, and
    negative, zero and positive e, with cx = cy = K1 = 0 so that a -0.0
    input stays -0.0 in p.  Five points have positive, comparable depths,
    so ``detect_degeneracy`` fits a plane to them and gathers."""
    k = LFIntrinsics(fx=2.0, fy=3.0, cx=0.0, cy=0.0, K1=0.0, K2=4.0)
    first = np.array(
        [
            [0.0, -0.0, -1.0],
            [-0.0, 1.5, -2.0],
            [2.0, 0.0, -1.5],
            [-1.0, -2.0, -3.0],
            [1.0, -0.0, -2.5],
            [3.0, 1.0, 0.5],
            [-0.0, -0.0, -0.0],
        ]
    )
    second = np.array(
        [
            [-0.0, 1.0, -0.0],
            [0.0, -1.0, 2.0],
            [1.0, -0.0, -1.0],
            [-2.0, 0.0, 0.5],
            [0.5, 0.5, -0.0],
            [0.0, 0.0, 1.0],
            [-1.0, 2.0, -3.0],
        ]
    )
    return CorrespondenceSet(first=first, second=second, k1=k, k2=k)


def _with_one_unusable_point(corr):
    first = np.array(corr.first)
    first[3, 2] = -corr.k1.K1 + 0.05  # behind camera 1
    return CorrespondenceSet(first=first, second=corr.second, k1=corr.k1, k2=corr.k2)


# Poses at which the crafted set keeps every point at positive depth scale:
# exact zeros, -0.0 and negative entries in R, -0.0 in T.
_CRAFTED_POSES = [
    (np.eye(3), np.array([0.0, -0.0, 0.1])),
    (np.where(np.eye(3) == 1.0, 1.0, -0.0), np.array([0.3, 0.0, -0.0])),
    (np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), np.array([-0.0, 0.5, -0.1])),
    (euler_xyz_intrinsic(10.0, -20.0, 30.0), np.array([0.2, -0.3, 0.0])),
]


def _poses_near(pose, count=3, seed=5):
    """``pose`` and ``count`` perturbations of it."""
    rng = np.random.default_rng(seed)
    return [(pose.R, pose.T)] + [
        (pose.R @ so3_exp(rng.normal(0.0, 0.05, 3)), pose.T + rng.normal(0.0, 3.0, 3))
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def bit_cases(sweep_pose, corr_dense):
    """(corr, poses) for every stock sweep row, the dense draw, one draw
    with an unusable point and the crafted set."""
    draws = [*_sweep_draws(sweep_pose), corr_dense, _with_one_unusable_point(corr_dense)]
    return [(corr, _poses_near(sweep_pose)) for corr in draws] + [(_crafted_set(), _CRAFTED_POSES)]


def test_normalize_points_matches_broadcast_oracle_bit_for_bit(bit_cases):
    for corr, _ in bit_cases:
        for points in (corr.first, corr.second):
            Pn, N = normalize_points(points)
            want_Pn, want_N = normalize_points_broadcast(points)
            assert Pn.shape == want_Pn.shape and Pn.flags.c_contiguous
            assert (Pn.tobytes(), N.tobytes()) == (want_Pn.tobytes(), want_N.tobytes())


def test_detect_degeneracy_matches_gathering_oracle_bit_for_bit(bit_cases):
    excluded = []
    for corr, _ in bit_cases:
        got, want = detect_degeneracy(corr), detect_degeneracy_gathered(corr)
        assert got.normal.tobytes() == want.normal.tobytes()
        for name in ("coplanar", "offset", "residual_rms", "scene_diameter", "excluded"):
            got_value, want_value = getattr(got, name), getattr(want, name)
            assert (type(got_value), got_value) == (type(want_value), want_value), name
        excluded.append(got.excluded)
    # Both the all-usable path and the gathering path ran.
    assert 0 in excluded and excluded[-2] == 1 and excluded[-1] == 2


def test_residuals_and_jacobian_match_broadcast_oracles_bit_for_bit(bit_cases):
    for corr, poses in bit_cases:
        for R, T in poses:
            r, want_r = _residuals(corr, R, T), residuals_broadcast(corr, R, T)
            assert r.shape == want_r.shape and r.flags.c_contiguous
            assert r.tobytes() == want_r.tobytes()
            J, want_J = _jacobian(corr, R, T), jacobian_zero_filled(corr, R, T)
            assert J.shape == want_J.shape and J.flags.c_contiguous
            assert J.tobytes() == want_J.tobytes()


def test_crafted_set_reaches_the_signed_zeros():
    """The crafted set is worth its place: it has negative e, and its
    Jacobians hold both -0.0 entries (0 * e for negative e) and +0.0 ones."""
    corr = _crafted_set()
    J = np.concatenate([_jacobian(corr, R, T) for R, T in _CRAFTED_POSES])
    zeros = J[J == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    assert (corr.backprojection[1] < 0).any()


def test_project_matches_column_stack_oracle_bit_for_bit(k_pair):
    rng = np.random.default_rng(3)
    points = np.column_stack([rng.normal(0, 200, 50), rng.normal(0, 200, 50), rng.uniform(300, 2000, 50)])
    for k in k_pair:
        for w in (1.0, rng.uniform(-1.0, 1.0, 50)):
            got, want = k.project(points, w), project_column_stack(k, points, w)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # One point as a (3,) array comes back as one row, as column_stack gave it.
        assert k.project(points[0]).tobytes() == project_column_stack(k, points[0]).tobytes()


@pytest.mark.parametrize("size", [1, 2, 7, 8, 308, 7700])
def test_median_is_np_median_bit_for_bit(size):
    rng = np.random.default_rng(size)
    for a in (rng.uniform(100.0, 3000.0, size), np.exp(rng.normal(7.0, 1.0, size))):
        assert lfpose._median(a) == float(np.median(a))
        assert np.float64(lfpose._median(a)).tobytes() == np.float64(np.median(a)).tobytes()


def test_estimate_pose_does_not_load_numpy_ma():
    """``np.median`` imports ``numpy.ma`` on its first call, about 14 ms;
    a whole estimate in a fresh interpreter must not."""
    code = (
        "import sys, numpy as np\n"
        "from lfrect.bench import noise_sweep_pose\n"
        "from lfrect.pose import estimate_pose\n"
        "from lfrect.simulate import make_sim_config, simulate_correspondences\n"
        "cfg = make_sim_config(noise_sweep_pose(), sigma_px=0.3)\n"
        "estimate_pose(simulate_correspondences(cfg, np.random.default_rng(0)))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr


def test_duplicate_check_finds_a_true_duplicate_pair(corr_noisy):
    first, second = np.array(corr_noisy.first), np.array(corr_noisy.second)
    first[7], second[7] = first[100], second[100]
    with pytest.raises(ValueError, match="duplicate"):
        CorrespondenceSet(first=first, second=second, k1=corr_noisy.k1, k2=corr_noisy.k2)
    # A -0.0 and a 0.0 are the same coordinate.
    first[7, 0], first[100, 0] = -0.0, 0.0
    with pytest.raises(ValueError, match="duplicate"):
        CorrespondenceSet(first=first, second=second, k1=corr_noisy.k1, k2=corr_noisy.k2)


def _colliding_rows(row):
    """A row that differs from ``row`` in its last two coordinates but has
    the same ``_pair_hashes`` hash: the fifth word is changed, and the sixth
    is chosen to cancel the change.  Both are finite, non-zero floats."""
    words = row.copy().view(np.uint64)
    m = lfpose._HASH_MULTIPLIER
    with np.errstate(over="ignore"):  # uint64 products wrap, as the hash's do
        h = words[0]
        for w in words[1:4]:
            h = h * m ^ w
        for bit in range(64):
            other = words.copy()
            other[4] ^= np.uint64(1) << np.uint64(bit)
            other[5] ^= ((h * m ^ words[4]) * m) ^ ((h * m ^ other[4]) * m)
            candidate = other.view(np.float64)
            if np.isfinite(candidate).all() and (candidate[4:] != 0.0).all():
                return candidate
    raise AssertionError("no colliding row found")


def test_duplicate_check_runs_the_exact_test_on_a_shared_hash(corr_noisy):
    """Two distinct rows that share a hash are told apart by the exact
    comparison, so the set is accepted."""
    first, second = np.array(corr_noisy.first), np.array(corr_noisy.second)
    row = np.concatenate([first[0], second[0]])
    twin = _colliding_rows(row)
    assert not np.array_equal(twin, row)
    first[1], second[1] = twin[:3], twin[3:]
    hashes = lfpose._pair_hashes(first, second)
    assert hashes[0] == hashes[1]
    corr = CorrespondenceSet(first=first, second=second, k1=corr_noisy.k1, k2=corr_noisy.k2)
    assert len(corr) == len(first)


def test_solve_linear_coplanar_is_rank_deficient(k_pair, sweep_pose):
    # One board only: every point on one plane.  The linear system then has
    # a whole family of solutions and the null-gap test must refuse.
    cfg = make_sim_config(
        sweep_pose,
        board_poses=(
            RelativePose(euler_xyz_intrinsic(-20.0, 15.0, 0.0), np.array([-320.0, 0.0, 1100.0])),
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
                RelativePose(euler_xyz_intrinsic(-20.0, 15.0, 0.0), np.array([-320.0, 0.0, 1100.0])),
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
                RelativePose(euler_xyz_intrinsic(-10.0, 15.0, 0.0), np.array([-320.0, 0.0, 1100.0])),
                RelativePose(euler_xyz_intrinsic(10.0, 15.0, 0.0), np.array([-300.0, 10.0, 1250.0])),
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


def fd_jacobian(corr, R, T, h=1e-6):
    """Central finite differences of the residual stack in (omega, T)."""
    cols = []
    for i in range(6):
        def at(sign):
            d = np.zeros(6)
            d[i] = sign * h
            return _residuals(corr, R @ so3_exp(d[:3]), T + d[3:])

        rp, rm = at(+1.0), at(-1.0)
        assert rp is not None and rm is not None
        cols.append((rp - rm).reshape(-1) / (2 * h))
    return np.column_stack(cols)


def test_jacobian_matches_finite_differences(corr_exact, sweep_pose):
    rng = np.random.default_rng(42)
    for _ in range(20):
        R = sweep_pose.R @ so3_exp(rng.normal(0, 0.05, 3))
        T = sweep_pose.T + rng.normal(0, 10.0, 3)
        J = _jacobian(corr_exact, R, T)
        J_fd = fd_jacobian(corr_exact, R, T)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(J - J_fd).max() / scale <= 1e-5


def test_refine_cost_strictly_decreases(corr_noisy, sweep_pose):
    # Start well away from the optimum so several steps are accepted.
    init = RelativePose(
        sweep_pose.R @ so3_exp(np.array([0.02, -0.03, 0.01])),
        sweep_pose.T + np.array([8.0, -6.0, 4.0]),
    )
    pose, trace, iterations = refine_pose(corr_noisy, init)
    cost = trace[-1]
    assert len(trace) >= 3
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert trace[-1] == pytest.approx(cost)
    assert iterations >= len(trace) - 1


def test_refine_from_truth_is_immediate(corr_exact, sweep_pose):
    pose, costs, iterations = refine_pose(corr_exact, sweep_pose)
    cost = costs[-1]
    assert cost <= 1e-16
    assert iterations <= 2
    assert angular_error_rotation(sweep_pose.R, pose.R) <= 1e-8


def test_refine_recovers_from_perturbation(corr_exact, sweep_pose):
    # 2 degrees of rotation and 5 mm of translation offset: inside the
    # basin, so the noise-free optimum (the truth) must be reached.
    w = np.radians(2.0) * np.array([1.0, 0.0, 0.0])
    init = RelativePose(sweep_pose.R @ so3_exp(w), sweep_pose.T + np.array([5.0, 0.0, -3.0]))
    pose, costs, iterations = refine_pose(corr_exact, init)
    cost = costs[-1]
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
    nested_trace = []
    pose, trace, its = refine_pose(corr, initial)
    cost = trace[-1]
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


def test_correspondence_set_freezes_copies_not_the_callers_arrays(corr_exact):
    a, b = np.array(corr_exact.first), np.array(corr_exact.second)
    corr = CorrespondenceSet(first=a, second=b, k1=corr_exact.k1, k2=corr_exact.k2)
    a[0, 0] += 1.0
    b[0, 0] += 1.0
    assert np.array_equal(corr.first, corr_exact.first)
    assert np.array_equal(corr.second, corr_exact.second)
    for arr in (corr.first, corr.second, *corr.backprojection):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.parametrize("refine", [True, False])
def test_estimate_pose_backprojects_each_set_once(monkeypatch, corr_noisy, refine):
    calls = []
    backproject = LFIntrinsics.backproject

    def counted(self, lfpoints):
        calls.append(len(lfpoints))
        return backproject(self, lfpoints)

    monkeypatch.setattr(LFIntrinsics, "backproject", counted)
    # A new set, so that nothing is cached before the estimate.
    corr = CorrespondenceSet(
        first=corr_noisy.first, second=corr_noisy.second, k1=corr_noisy.k1, k2=corr_noisy.k2
    )
    estimate_pose(corr, refine=refine)
    assert calls == [len(corr)]


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
