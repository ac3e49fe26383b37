"""Synthetic experiment machinery: observation model, LF-point refitting,
trial harness, ray-traced rendering, and the measurement helpers.  The
scalar observation model and the measurement helpers are test oracles
(``oracles.py``); they are pinned here before other tests rely on them.

The refit estimator has closed-form first and second moments under i.i.d.
pixel noise; those are the statistical oracles here.  The renderer is
cross-checked against the projection model: a tracked blob must move
through the sub-aperture grid with exactly the disparity the LF-point
model assigns to its depth.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import lfrect.simulate
from lfrect.bench import bench_csv_lines, noise_sweep_spec, run_bench
from lfrect.errors import BehindCamera, CoplanarDegeneracy, GenerationFailure
from lfrect.geometry import (
    LFIntrinsics,
    RelativePose,
    euler_xyz_intrinsic,
)
from lfrect.simulate import (
    BoardSpec,
    RenderGrid,
    SimConfig,
    TexturedPlane,
    TrialReport,
    _corner_arrays,
    _refit_batch,
    default_board_poses,
    make_sim_config,
    render_synthetic_lf,
    run_trials,
    simulate_correspondences,
    sinusoid_texture,
    soft_checkerboard_texture,
    trial_pool,
)
from oracles import (
    _observe_batch,
    add_observation_noise,
    blob_centroid,
    blob_texture,
    checkerboard_texture,
    fit_line_tls,
    project_corner_observations,
    refine_checkerboard_corner,
    refit_lfpoint,
    render_synthetic_lf_whole,
    simulate_one_shot,
)

# ---------------------------------------------------------------------------
# observation model and refit
# ---------------------------------------------------------------------------


def test_observations_follow_disparity_model(k_pair):
    k1, _ = k_pair
    p = np.array([100.0, 50.0, 1000.0])
    u_c, v_c, lam = k1.project(p[None])[0]
    obs = project_corner_observations(p, k1, grid_shape=(13, 13))
    assert obs.shape == (13, 13, 2)
    assert obs[6, 6, 0] == pytest.approx(u_c, abs=1e-12)
    assert obs[6, 6, 1] == pytest.approx(v_c, abs=1e-12)
    # one step right in the grid shifts u by lambda; one step down shifts v
    assert obs[6, 7, 0] - obs[6, 6, 0] == pytest.approx(lam, abs=1e-12)
    assert obs[7, 6, 1] - obs[6, 6, 1] == pytest.approx(lam, abs=1e-12)
    assert np.all(obs[:, 0, 0] == obs[0, 0, 0])  # u depends on column only


def test_refit_recovers_noise_free_point(k_pair):
    k1, _ = k_pair
    p = np.array([-80.0, 30.0, 850.0])
    lfp = k1.project(p[None])[0]
    back = refit_lfpoint(project_corner_observations(p, k1))
    assert back[0] == pytest.approx(lfp[0], abs=1e-10)
    assert back[1] == pytest.approx(lfp[1], abs=1e-10)
    assert back[2] == pytest.approx(lfp[2], abs=1e-12)


def test_refit_rejects_unobservable_disparity():
    with pytest.raises(ValueError, match="at least two sub-apertures"):
        refit_lfpoint(np.zeros((1, 1, 2)))
    with pytest.raises(ValueError):
        refit_lfpoint(np.zeros((5, 5, 3)))


def test_refit_batch_matches_scalar_refit(k_pair):
    k1, _ = k_pair
    rng = np.random.default_rng(3)
    pts = rng.uniform([-200, -150, 700], [200, 150, 1600], (40, 3))
    obs = _observe_batch(k1.project(pts), 13, 13)
    obs = add_observation_noise(obs, 0.5, rng)
    batch = _refit_batch(obs)
    for n in range(pts.shape[0]):
        one = refit_lfpoint(obs[n])
        assert abs(batch[n, 0] - one[0]) <= 1e-10
        assert abs(batch[n, 1] - one[1]) <= 1e-10
        assert abs(batch[n, 2] - one[2]) <= 1e-12


def test_refit_moments_match_closed_form(k_pair):
    """For a centred (2m+1) x (2m+1) grid the refit is linear in the noise:
    Var(u_c) = sigma^2 / n_obs and Var(lambda) = sigma^2 / (rows * sum(dj^2)
    + cols * sum(di^2)); for 13 x 13 that is sigma^2/169 and sigma^2/4732."""
    k1, _ = k_pair
    sigma = 0.5
    base = _observe_batch(k1.project(np.array([[100.0, 50.0, 1000.0]])), 13, 13)
    lfp_true = _refit_batch(base)[0]
    rng = np.random.default_rng(123)
    n_rep = 4000
    noisy = base + rng.normal(0.0, sigma, (n_rep, 13, 13, 2))
    fits = _refit_batch(noisy)

    var_u = fits[:, 0].var(ddof=1)
    var_lam = fits[:, 2].var(ddof=1)
    offs = np.arange(13) - 6.0
    denom = 13 * float(offs @ offs) * 2
    assert denom == 4732.0
    assert var_u == pytest.approx(sigma**2 / 169.0, rel=0.15)
    assert var_lam == pytest.approx(sigma**2 / denom, rel=0.15)
    # unbiased to within a few standard errors
    assert abs(fits[:, 0].mean() - lfp_true[0]) <= 4 * sigma / np.sqrt(169 * n_rep)
    assert abs(fits[:, 2].mean() - lfp_true[2]) <= 4 * sigma / np.sqrt(denom * n_rep)
    # centring decouples the central estimate from the disparity estimate
    corr = np.corrcoef(fits[:, 0], fits[:, 2])[0, 1]
    assert abs(corr) <= 0.05


def test_add_noise_semantics():
    rng = np.random.default_rng(0)
    obs = np.zeros((3, 3, 2))
    same = add_observation_noise(obs, 0.0, rng)
    assert np.array_equal(same, obs)
    assert same is not obs
    noisy = add_observation_noise(obs, 1.0, rng)
    assert noisy.std() > 0.5
    with pytest.raises(ValueError):
        add_observation_noise(obs, -0.1, rng)


# ---------------------------------------------------------------------------
# scene layout
# ---------------------------------------------------------------------------


def test_board_corner_counts_and_spacing():
    spec = BoardSpec(rows=3, cols=4, spacing_mm=10.0)
    local = spec.local_corners()
    assert local.shape == (12, 3)
    assert np.all(local[:, 2] == 0.0)
    assert local[:, 0].min() == -15.0 and local[:, 0].max() == 15.0
    assert local[:, 1].min() == -10.0 and local[:, 1].max() == 10.0
    with pytest.raises(ValueError):
        BoardSpec(rows=1, cols=4)
    with pytest.raises(ValueError):
        RelativePose(np.eye(3) * 2.0, np.zeros(3))


def test_all_presets_keep_corners_visible(all_presets):
    """Every sub-aperture observation of every corner fits on a half-
    megapixel sensor with margin, for both cameras under all presets."""
    for name, pose in all_presets:
        cfg = make_sim_config(pose)
        pts1, pts2 = _corner_arrays(cfg)
        for arr, k in ((pts1, cfg.k1), (pts2, cfg.k2)):
            assert arr[:, 2].min() >= 700.0, name
            obs = _observe_batch(k.project(arr), 13, 13)
            assert obs[..., 0].min() >= 15.0, name
            assert obs[..., 0].max() <= 550.0, name
            assert obs[..., 1].min() >= 25.0, name
            assert obs[..., 1].max() <= 275.0, name
            # disparities stay well clear of the lambda = -K1 pole
            lam = k.project(arr)[:, 2]
            assert np.abs(lam + k.K1).min() >= 0.08, name


def test_corners_behind_camera_raise(sweep_pose):
    cfg = make_sim_config(RelativePose(sweep_pose.R, np.array([0.0, 0.0, -2000.0])))
    with pytest.raises(BehindCamera):
        _corner_arrays(cfg)


def test_sim_config_validation(sweep_pose):
    with pytest.raises(ValueError):
        make_sim_config(sweep_pose, sigma_px=-0.1)
    with pytest.raises(ValueError):
        make_sim_config(sweep_pose, trials=0)
    with pytest.raises(ValueError):
        make_sim_config(sweep_pose, sai_rows=0)
    with pytest.raises(ValueError, match="at least two sub-apertures"):
        make_sim_config(sweep_pose, sai_rows=1, sai_cols=1)
    with pytest.raises(ValueError, match="seed"):
        make_sim_config(sweep_pose, seed=-1)
    assert make_sim_config(sweep_pose, sai_rows=1, sai_cols=2).sai_cols == 2
    cfg = make_sim_config(sweep_pose, sigma_px=0.2, trials=7, seed=3)
    assert cfg.sigma_px == 0.2 and cfg.trials == 7 and cfg.seed == 3
    assert len(cfg.board_poses) == len(default_board_poses())


def test_simulate_correspondences_deterministic(sweep_pose):
    cfg = make_sim_config(sweep_pose, sigma_px=0.4)
    a = simulate_correspondences(cfg, np.random.default_rng(42))
    b = simulate_correspondences(cfg, np.random.default_rng(42))
    c = simulate_correspondences(cfg, np.random.default_rng(43))
    assert np.array_equal(a.first, b.first)
    assert np.array_equal(a.second, b.second)
    assert not np.array_equal(a.first, c.first)
    n_corners = len(cfg.board_poses) * cfg.board.rows * cfg.board.cols
    assert a.first.shape == (n_corners, 3)
    assert a.second.shape == (n_corners, 3)


DENSE_BOARD = BoardSpec(35, 55, 4.5)  # 7,700 points with the four stock placements


def _draws_agree(cfg, seed):
    """Whether the block-wise draw gives the bytes of the one-shot draw and
    leaves the generator where the one-shot draw leaves it."""
    rng_blocks, rng_once = np.random.default_rng(seed), np.random.default_rng(seed)
    corr = simulate_correspondences(cfg, rng_blocks)
    first, second = simulate_one_shot(cfg, rng_once)
    return (
        corr.first.tobytes() == first.tobytes()
        and corr.second.tobytes() == second.tobytes()
        and rng_blocks.random() == rng_once.random()
    )


@pytest.mark.parametrize("sigma", [0.0, 0.3, 3.0])
@pytest.mark.parametrize("board", ["stock", "dense"])
def test_block_draw_matches_one_shot_draw(sweep_pose, board, sigma):
    overrides = {"board": DENSE_BOARD} if board == "dense" else {}
    cfg = make_sim_config(sweep_pose, sigma_px=sigma, **overrides)
    samples = cfg.sai_rows * cfg.sai_cols * 2
    n_points = len(cfg.board_poses) * cfg.board.rows * cfg.board.cols
    per_block = lfrect.simulate._BLOCK_SAMPLES // samples
    # The stock board is one block; the dense board spans many.
    assert (n_points <= per_block) == (board == "stock")
    assert board == "stock" or n_points >= 3 * per_block
    for seed in range(2):
        assert _draws_agree(cfg, seed)


@pytest.mark.parametrize("block_samples", [1, 1000, 338 * 307])
def test_block_draw_is_independent_of_block_size(sweep_pose, monkeypatch, block_samples):
    """One point per block (a block smaller than one point's samples), two
    points per block, and 307 points per block (a last block of one
    point) all give the one-shot bytes."""
    monkeypatch.setattr(lfrect.simulate, "_BLOCK_SAMPLES", block_samples)
    for sigma in (0.0, 0.3):
        assert _draws_agree(make_sim_config(sweep_pose, sigma_px=sigma), seed=5)


def test_simulate_memory_is_bounded_by_the_block(sweep_pose):
    """A 7,700-point draw holds a few 2 MiB blocks, not the whole
    (n, 13, 13, 2) sample grid (62 MiB) and its noise."""
    cfg = make_sim_config(sweep_pose, sigma_px=0.3, board=DENSE_BOARD)
    tracemalloc.start()
    try:
        simulate_correspondences(cfg, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_coincident_corners_without_noise_fail_generation(sweep_pose):
    placement = default_board_poses()[0]
    cfg = make_sim_config(sweep_pose, board_poses=[placement, placement])
    with pytest.raises(GenerationFailure, match="duplicate correspondence pairs"):
        simulate_correspondences(cfg, np.random.default_rng(0))
    # With noise the repeated corners are distinct measurements.
    noisy = dataclasses.replace(cfg, sigma_px=0.3)
    assert len(simulate_correspondences(noisy, np.random.default_rng(0))) == 2 * 77


def test_noise_free_correspondences_equal_projection(corr_exact, sweep_pose, k_pair):
    cfg = make_sim_config(sweep_pose)
    pts1, _ = _corner_arrays(cfg)
    k1, _ = k_pair
    for idx in (0, 57, 200):
        lfp = k1.project(pts1[[idx]])[0]
        assert corr_exact.first[idx, 0] == pytest.approx(lfp[0], abs=1e-9)
        assert corr_exact.first[idx, 2] == pytest.approx(lfp[2], abs=1e-12)


# ---------------------------------------------------------------------------
# trial harness
# ---------------------------------------------------------------------------


def test_run_trials_is_deterministic_and_job_invariant(sweep_pose):
    cfg = make_sim_config(sweep_pose, sigma_px=0.3, trials=6, seed=11)
    serial = run_trials(cfg)
    again = run_trials(cfg)
    with trial_pool(2) as pool:
        parallel = run_trials(cfg, pool)
    for report in (again, parallel):
        assert np.array_equal(serial.err_R_deg, report.err_R_deg)
        assert np.array_equal(serial.err_T_deg, report.err_T_deg)
        assert np.array_equal(serial.converged, report.converged)
        assert np.array_equal(serial.iterations, report.iterations)
        assert serial.failures == report.failures
    assert serial.n_trials == 6
    assert serial.n_failures == 0
    assert serial.converged.all()
    assert serial.mean_err_R < 1.0 and serial.mean_err_T < 3.0


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count it was
    asked for and runs the map in this process, so no process starts."""

    started = []
    mapped = []
    chunks = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        self.mapped.append(len(iterables[0]))
        self.chunks.append(chunksize)
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus", [1, 2, 3, None])
def test_run_trials_starts_at_most_cpu_count_workers(sweep_pose, monkeypatch, cpus):
    cfg = make_sim_config(sweep_pose, sigma_px=0.3, trials=6, seed=11)
    serial = run_trials(cfg)
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(lfrect.simulate.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(lfrect.simulate.os, "cpu_count", lambda: cpus)
    for jobs in (2, 3, 64, 10**9):
        with trial_pool(jobs) as pool:
            report = run_trials(cfg, pool)
        assert np.array_equal(serial.err_R_deg, report.err_R_deg)
        assert np.array_equal(serial.err_T_deg, report.err_T_deg)
        assert np.array_equal(serial.converged, report.converged)
        assert np.array_equal(serial.iterations, report.iterations)
        assert serial.failures == report.failures
    # os.cpu_count() is None when the count is unknown: one process then.
    cap = cpus or 1
    want = [min(jobs, cap) for jobs in (2, 3, 64, 10**9) if min(jobs, cap) > 1]
    assert RecordingPool.started == want


@pytest.mark.parametrize(
    "cpus, jobs, n, chunk",
    [(2, 2, 100, 12), (8, 8, 100, 3), (64, 64, 100, 1), (4, 64, 100, 6), (16, 16, 3, 1)],
)
def test_trial_pool_chunks_follow_the_worker_count(monkeypatch, cpus, jobs, n, chunk):
    # About four chunks per worker, however many trials a row has.
    monkeypatch.setattr(RecordingPool, "chunks", [])
    monkeypatch.setattr(lfrect.simulate.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(lfrect.simulate.os, "cpu_count", lambda: cpus)
    with trial_pool(jobs) as pool:
        assert list(pool(abs, range(-n, 0))) == list(range(n, 0, -1))
    assert RecordingPool.chunks == [chunk]


@pytest.mark.parametrize("jobs", [1, 2, 64])
def test_run_bench_starts_at_most_one_pool(monkeypatch, jobs):
    spec = noise_sweep_spec(trials=3, seed=4)
    serial = run_bench(spec, jobs=1)
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(RecordingPool, "mapped", [])
    monkeypatch.setattr(lfrect.simulate.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(lfrect.simulate.os, "cpu_count", lambda: 4)
    result = run_bench(spec, jobs=jobs)
    # One pool for the whole sweep, each row mapped on it; none at jobs=1.
    assert RecordingPool.started == ([min(jobs, 4)] if jobs > 1 else [])
    assert RecordingPool.mapped == ([3] * len(spec.rows) if jobs > 1 else [])
    for want, got in zip(serial.reports, result.reports):
        for name in ("err_R_deg", "err_T_deg", "converged", "iterations"):
            assert getattr(want, name).tobytes() == getattr(got, name).tobytes()
        assert want.failures == got.failures
    assert bench_csv_lines(result) == bench_csv_lines(serial)


def test_run_trials_records_failures(sweep_pose):
    # A single board is coplanar: on noise-free data every trial must fail
    # with a diagnosis, not crash and not return a bogus pose.  (With pixel
    # noise the refitted cloud thickens off the plane and the solver
    # legitimately degrades instead of refusing.)
    cfg = make_sim_config(
        sweep_pose, trials=3, board_poses=(default_board_poses()[0],),
    )
    report = run_trials(cfg)
    assert report.n_failures == 3
    assert np.all(np.isnan(report.err_R_deg))
    assert not report.converged.any()
    for idx, reason in report.failures:
        assert "CoplanarDegeneracy" in reason
    with pytest.raises(CoplanarDegeneracy):
        from lfrect.pose import estimate_pose

        estimate_pose(simulate_correspondences(cfg, np.random.default_rng(0)))


def test_trial_report_statistics_skip_failed_trials():
    report = TrialReport(
        sigma_px=0.3,
        err_R_deg=np.array([0.1, np.nan, 0.3]),
        err_T_deg=np.array([0.2, np.nan, 0.4]),
        converged=np.array([True, False, True]),
        iterations=np.array([3, 0, 4]),
        failures=[(1, "RankDeficient: synthetic")],
    )
    assert report.n_trials == 3
    assert report.n_failures == 1
    assert report.mean_err_R == pytest.approx(0.2)
    assert report.mean_err_T == pytest.approx(0.3)
    assert report.std_err_R == pytest.approx(np.std([0.1, 0.3], ddof=1))


# ---------------------------------------------------------------------------
# textures
# ---------------------------------------------------------------------------


def test_checkerboard_texture_parity():
    tex = checkerboard_texture(10.0, low=0.2, high=0.8)
    assert tex(np.array([1.0]), np.array([1.0]))[0] == 0.2
    assert tex(np.array([11.0]), np.array([1.0]))[0] == 0.8
    assert tex(np.array([11.0]), np.array([11.0]))[0] == 0.2
    assert tex(np.array([-1.0]), np.array([1.0]))[0] == 0.8


def test_soft_checkerboard_is_a_saddle_at_corners():
    tex = soft_checkerboard_texture(30.0, 2.0)
    mid = 0.5
    a = np.array([0.001, -0.001, 0.001, 5.0])
    b = np.array([0.001, 0.001, -0.001, 5.0])
    v = tex(a, b)
    assert v[0] > mid  # (+, +) quadrant
    assert v[1] < mid  # sign flips across each edge
    assert v[2] < mid
    assert abs((v[0] - mid) + (v[1] - mid)) <= 1e-12  # antisymmetric
    assert 0.15 <= v[3] <= 0.85
    # deep inside a square the contrast saturates
    assert tex(np.array([15.0]), np.array([15.0]))[0] == pytest.approx(0.85, abs=0.01)


def test_blob_and_sinusoid_textures():
    tex = blob_texture([[5.0, -3.0]], sigma_mm=2.0, background=0.1, amplitude=0.5)
    assert tex(np.array([5.0]), np.array([-3.0]))[0] == pytest.approx(0.6)
    assert tex(np.array([50.0]), np.array([50.0]))[0] == pytest.approx(0.1)
    sin_a = sinusoid_texture(7)
    sin_b = sinusoid_texture(7)
    sin_c = sinusoid_texture(8)
    g = np.linspace(-50, 50, 41)
    A, B = np.meshgrid(g, g)
    assert np.array_equal(sin_a(A, B), sin_b(A, B))
    assert not np.array_equal(sin_a(A, B), sin_c(A, B))
    assert sin_a(A, B).min() >= 0.0 and sin_a(A, B).max() <= 1.0


# ---------------------------------------------------------------------------
# renderer
# ---------------------------------------------------------------------------


def test_renderer_masks_plane_boundary():
    k = LFIntrinsics(fx=100.0, fy=100.0, cx=15.5, cy=15.5, K1=0.0, K2=200.0)
    grid = RenderGrid(1, 1, 2.0, 32, 32, supersample=3)
    plane = TexturedPlane(
        origin=np.array([0.0, 0.0, 600.0]),
        axis_a=np.array([1.0, 0.0, 0.0]),
        axis_b=np.array([0.0, 1.0, 0.0]),
        texture=lambda a, b: np.full_like(np.asarray(a, float), 0.6),
        half_a=60.0, half_b=1000.0,
    )
    lf = render_synthetic_lf([plane], k, RelativePose(np.eye(3), np.zeros(3)), grid)
    # the plane spans pixel columns 5.5 .. 25.5; a pixel is valid only when
    # every supersample hits, so columns 6..25 survive and 5/26 do not
    assert lf.mask[0, 0, 16, 6:26].all()
    assert not lf.mask[0, 0, 16, 5]
    assert not lf.mask[0, 0, 16, 26]
    assert np.all(lf.images[0, 0, 16, 6:26] == pytest.approx(0.6, abs=1e-12))


IDENTITY = RelativePose(np.eye(3), np.zeros(3))
TURNED = RelativePose(euler_xyz_intrinsic(4.0, -9.0, 2.0), np.array([30.0, -4.0, 6.0]))
EX, EY = np.eye(3)[:2]
STEEP = np.radians(10.0)


def _plane(z_mm, texture, half=(None, None), axis_a=EX, axis_b=EY):
    return TexturedPlane(
        origin=np.array([5.0, -3.0, z_mm]), axis_a=axis_a, axis_b=axis_b,
        texture=texture, half_a=half[0], half_b=half[1],
    )


# (scene, world_from_camera, supersample, every ray hits).  At 40 px wide
# the default band is 102 rows at supersample 1 (one band), 25 at 2 and
# 11 at 3, neither of which divides the 35 rows.
RENDER_CASES = {
    "identity-unbounded-ss1": ([_plane(600.0, sinusoid_texture(3))], IDENTITY, 1, True),
    "turned-unbounded-ss3": ([_plane(600.0, sinusoid_texture(3))], TURNED, 3, True),
    "occluding-planes-ss2": (
        [_plane(700.0, sinusoid_texture(4)), _plane(450.0, checkerboard_texture(7.0), (30.0, 20.0))],
        TURNED, 2, True,
    ),
    "bounded-planes-miss-ss3": (
        [_plane(450.0, soft_checkerboard_texture(9.0, 1.5), (40.0, 25.0)),
         _plane(650.0, sinusoid_texture(5), (90.0, 70.0))],
        TURNED, 3, False,
    ),
    # The near plane first: every band misses the far plane behind it.
    "near-plane-first-ss2": (
        [_plane(450.0, sinusoid_texture(4)), _plane(700.0, checkerboard_texture(7.0))],
        TURNED, 2, True,
    ),
    # Tilted 80 degrees: the rays on one side of the view meet the plane
    # behind the aperture, and pixels that straddle that line are masked.
    "steep-plane-misses-ss2": (
        [_plane(600.0, sinusoid_texture(6), axis_a=np.array([-np.sin(STEEP), 0.0, np.cos(STEEP)]))],
        IDENTITY, 2, False,
    ),
}


def _render_case(case, render=render_synthetic_lf):
    scene, pose, ss, _ = RENDER_CASES[case]
    k = LFIntrinsics(fx=60.0, fy=61.0, cx=19.5, cy=17.0, K1=0.0, K2=120.0)
    return render(scene, k, pose, RenderGrid(3, 3, 2.0, width_px=40, height_px=35, supersample=ss))


def _same_bits(lf, ref):
    return (
        np.array_equal(lf.images.view(np.uint64), ref.images.view(np.uint64))
        and np.array_equal(lf.mask, ref.mask)
    )


@pytest.mark.parametrize("case", RENDER_CASES)
def test_renderer_matches_the_whole_bundle_oracle(case):
    lf = _render_case(case)
    assert _same_bits(lf, _render_case(case, render_synthetic_lf_whole))
    assert lf.mask.all() == RENDER_CASES[case][3]
    assert lf.mask.any()


@pytest.mark.parametrize("band_rays", [1, 10**9], ids=["one-row", "whole-image"])
@pytest.mark.parametrize("case", ["occluding-planes-ss2", "bounded-planes-miss-ss3"])
def test_renderer_band_size_changes_no_bit(monkeypatch, case, band_rays):
    """One pixel row per band and the whole image in one band give the
    bits of the default bands."""
    default = _render_case(case)
    monkeypatch.setattr(lfrect.simulate, "_BAND_RAYS", band_rays)
    assert _same_bits(_render_case(case), default)


def test_renderer_memory_is_bounded_by_the_band():
    """At the rectify benchmark's size (9x9 sub-apertures of 96x128 px,
    supersample 2) the render holds its output, the 49,152 ray directions
    and each plane's denominators, and one band: under 3 MiB above the
    8.5 MiB light field, where whole-bundle tracing needs 10.7 MiB."""
    k = LFIntrinsics(fx=128.0, fy=128.0, cx=63.5, cy=47.5, K1=0.0, K2=256.0)
    grid = RenderGrid(9, 9, 2.0, width_px=128, height_px=96, supersample=2)
    plane = _plane(600.0, sinusoid_texture(1), (600.0, 450.0))
    tracemalloc.start()
    try:
        lf = render_synthetic_lf([plane], k, TURNED, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lf.mask.all()
    assert peak - (lf.images.nbytes + lf.mask.nbytes) < 3 * 2**20


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: _plane(600.0, None, axis_a=2 * EX), "plane axes must be unit vectors"),
        (lambda: _plane(600.0, None, axis_b=EX), "plane axes must be orthogonal"),
        (lambda: RenderGrid(sai_rows=0), "need at least one sub-aperture"),
        (lambda: RenderGrid(pitch_mm=0.0), "invalid render grid"),
        (lambda: RenderGrid(width_px=1), "invalid render grid"),
        (lambda: RenderGrid(supersample=0), "supersample must be >= 1"),
    ],
    ids=["long-axis", "parallel-axes", "no-sub-aperture", "zero-pitch", "one-column", "no-samples"],
)
def test_render_inputs_are_validated(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_textured_plane_holds_read_only_copies():
    """The plane keeps its own read-only copies of the origin and axes, not
    views of the caller's arrays, whatever their shape."""
    given = {
        "origin": np.array([[0.0, 0.0, 600.0]]),
        "axis_a": np.array([1.0, 0.0, 0.0]),
        "axis_b": np.array([[0.0], [1.0], [0.0]]),
    }
    plane = TexturedPlane(**given, texture=sinusoid_texture(1))
    for name, value in given.items():
        held = getattr(plane, name)
        assert held.shape == (3,) and not held.flags.writeable, name
        assert not np.shares_memory(held, value), name


def test_renderer_is_consistent_with_disparity_model(blob_pair, blob_world):
    """Track the blob across the raw left light field: its pixel position
    must move linearly in the aperture coordinate with slope -fx/Z, i.e.
    the per-sub-aperture disparity the LF-point model predicts."""
    k, left, _right, _plane = blob_pair
    X, Y, Z = blob_world
    row_pred = k.fy * Y / Z + k.cy
    line = int(round(row_pred))

    xs = []
    for j in range(left.n_cols):
        xs.append(blob_centroid(left.images[3, j, line, :], left.mask[3, j, line, :]))
    _, direction, _ = fit_line_tls(left.s_mm, np.array(xs))
    slope = direction[1] / direction[0]
    assert slope == pytest.approx(-k.fx / Z, rel=0.02)

    # the same slope governs the vertical axis of the grid
    col_pred = k.fx * X / Z + k.cx
    col = int(round(col_pred))
    ys = [
        blob_centroid(left.images[i, 3, :, col], left.mask[i, 3, :, col])
        for i in range(left.n_rows)
    ]
    _, direction, _ = fit_line_tls(left.t_mm, np.array(ys))
    assert direction[1] / direction[0] == pytest.approx(-k.fy / Z, rel=0.02)

    # and ties to the model disparity through K2 = fx * pitch
    lam_model = -k.K1 - k.K2 / Z
    pitch = float(left.s_mm[1] - left.s_mm[0])
    assert slope * pitch == pytest.approx(lam_model, rel=0.02)


def test_corner_refinement_on_raw_render(checker_pair):
    k, left, _right, _plane = checker_pair
    for X, Y in ((20.0, 0.0), (-10.0, 30.0)):
        col = k.fx * X / 600.0 + k.cx
        row = k.fy * Y / 600.0 + k.cy
        x, y = refine_checkerboard_corner(left.images[3, 3], (col + 0.8, row - 0.6))
        assert abs(x - col) <= 0.05
        assert abs(y - row) <= 0.05


def test_corner_refinement_guards():
    img = np.full((20, 20), 0.5)
    with pytest.raises(ValueError, match="window"):
        refine_checkerboard_corner(img, (2.0, 10.0), half_window=6)
    with pytest.raises(ValueError, match="degenerate"):
        refine_checkerboard_corner(img, (10.0, 10.0), half_window=6)


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------


def test_fit_line_tls_exact_and_vertical():
    x = np.linspace(0, 10, 11)
    centroid, direction, rms = fit_line_tls(x, 3.0 + 2.0 * x)
    assert rms <= 1e-12
    assert abs(direction[1] / direction[0] - 2.0) <= 1e-12
    assert centroid == pytest.approx([5.0, 13.0])
    # vertical lines are representable (total least squares, not regression)
    _, direction, rms = fit_line_tls(np.full(5, 2.0), np.arange(5.0))
    assert rms <= 1e-12
    assert abs(direction[0]) <= 1e-12


def test_blob_centroid_oracle():
    cols = np.arange(64, dtype=float)
    line = 0.1 + 0.7 * np.exp(-((cols - 17.3) ** 2) / (2 * 3.0**2))
    assert blob_centroid(line) == pytest.approx(17.3, abs=0.05)
    # masked-out hot pixel cannot drag the centroid
    line_hot = line.copy()
    line_hot[40] = 5.0
    mask = np.ones(64, bool)
    mask[40] = False
    assert blob_centroid(line_hot, mask) == pytest.approx(17.3, abs=0.05)
    with pytest.raises(ValueError):
        blob_centroid(np.full(32, 0.2))
