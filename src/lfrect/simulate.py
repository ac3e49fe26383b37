"""Synthetic benchmarks: calibration-board simulation and light-field
rendering.

The observation model follows how LF-points are measured in practice: a
corner seen by sub-aperture (i, j) of a light-field camera projects at

    u_ij = u_c + (j - j_centre) * lambda
    v_ij = v_c + (i - i_centre) * lambda

so every sub-aperture provides one (u, v) sample.  Gaussian pixel noise is
added to all samples and the LF-point (u_c, v_c, lambda) is re-fitted by
linear least squares; with an n x n grid the averaging makes the fitted
centre roughly n times and the fitted disparity roughly n^2/sqrt(2) times
less noisy than a single sample.

``run_trials`` repeats simulate -> fit -> estimate over many trials, each
with its own deterministically seeded generator (base seed + trial index),
so results are reproducible and independent of how trials are distributed
over worker processes.

The module also renders small synthetic light fields of textured planes by
two-plane ray tracing (for rectification and resampling benchmarks), and
provides band-limited textures for them.  The scalar observation model and
the image measurements that check the renders (corner refinement, blob
centroids, line fits) are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import concurrent.futures
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCamera, GenerationFailure, LfRectError
from .geometry import (
    LFIntrinsics,
    RelativePose,
    angular_error_rotation,
    angular_error_translation,
    bind_arrays,
    euler_xyz_intrinsic,
    value_type,
)
from .pose import CorrespondenceSet, estimate_pose
from .resample import SampledLF, SpatialMapping

__all__ = [
    "BoardSpec",
    "SimConfig",
    "TrialReport",
    "default_intrinsics_pair",
    "default_board_poses",
    "make_sim_config",
    "simulate_correspondences",
    "simulate_trial",
    "trial_pool",
    "run_trials",
    "TexturedPlane",
    "RenderGrid",
    "soft_checkerboard_texture",
    "sinusoid_texture",
    "render_synthetic_lf",
]


@dataclass(frozen=True)
class BoardSpec:
    """A planar calibration board: corner rows x cols at a fixed spacing."""

    rows: int = 7
    cols: int = 11
    spacing_mm: float = 22.5

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2 or not 0 < self.spacing_mm < np.inf:
            raise ValueError("board needs >= 2x2 corners and a positive, finite spacing")

    def local_corners(self) -> np.ndarray:
        """Corner coordinates in the board plane, centred: (rows*cols, 3)."""
        jj, ii = np.meshgrid(np.arange(self.cols), np.arange(self.rows))
        x = (jj - (self.cols - 1) / 2.0) * self.spacing_mm
        y = (ii - (self.rows - 1) / 2.0) * self.spacing_mm
        return np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])


def default_intrinsics_pair() -> tuple[LFIntrinsics, LFIntrinsics]:
    """The two benchmark camera models used throughout the synthetic
    experiments."""
    k1 = LFIntrinsics(fx=572.720, fy=572.685, cx=270.916, cy=188.109, K1=0.030, K2=165.298)
    k2 = LFIntrinsics(fx=538.374, fy=538.062, cx=283.471, cy=188.709, K1=0.028, K2=147.606)
    return k1, k2


def default_board_poses() -> list[RelativePose]:
    """Four tilted board placements visible to both cameras for every
    benchmark pose preset.

    The placements live in the region both cameras see under every
    benchmark pose preset (including the largest, a 30 degree rotation
    with a 100 mm baseline), which pushes them 0.85 to 1.5 m ahead of
    camera 1 and a few hundred millimetres to its left.  They
    deliberately spread over that whole region, in depth as well as
    laterally: pose accuracy under noise is very sensitive to how much of
    the field of view the corners cover, because narrow coverage leaves
    near-degenerate rotation/translation directions that amplify the
    fitted disparity noise.  All corners are distinct and the combined
    cloud is far from coplanar.
    """
    return [
        RelativePose(euler_xyz_intrinsic(-30.0, 15.0, 10.0), np.array([-310.0, -50.0, 1060.0])),
        RelativePose(euler_xyz_intrinsic(-10.0, 35.0, 0.0), np.array([-290.0, 45.0, 850.0])),
        RelativePose(euler_xyz_intrinsic(-12.0, 30.0, 5.0), np.array([-535.0, 90.0, 1490.0])),
        RelativePose(euler_xyz_intrinsic(25.0, -20.0, 0.0), np.array([-400.0, -150.0, 1300.0])),
    ]


@dataclass(frozen=True)
class SimConfig:
    """Everything one synthetic pose-estimation experiment needs."""

    k1: LFIntrinsics
    k2: LFIntrinsics
    pose: RelativePose  # camera-1 -> camera-2
    board: BoardSpec = BoardSpec()
    board_poses: tuple = ()  # RelativePose placements: board frame -> camera-1
    sai_rows: int = 13
    sai_cols: int = 13
    sigma_px: float = 0.0
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "board_poses", tuple(self.board_poses or default_board_poses()))
        if min(self.sai_rows, self.sai_cols) < 1 or self.sai_rows * self.sai_cols < 2:
            raise ValueError("need at least two sub-apertures to measure disparity")
        if not 0 <= self.sigma_px < np.inf:
            raise ValueError(f"noise sigma must be finite and non-negative, got {self.sigma_px}")
        if self.trials < 1:
            raise ValueError("at least one trial")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def make_sim_config(
    pose: RelativePose,
    sigma_px: float = 0.0,
    trials: int = 100,
    seed: int = 0,
    **overrides,
) -> SimConfig:
    """SimConfig with the benchmark cameras and default board placements."""
    k1, k2 = default_intrinsics_pair()
    return SimConfig(
        k1=k1, k2=k2, pose=pose, sigma_px=sigma_px, trials=trials, seed=seed, **overrides
    )


def _corner_arrays(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    local = cfg.board.local_corners()
    pts1 = np.concatenate([local @ bp.R.T + bp.T for bp in cfg.board_poses])
    pts2 = cfg.pose.apply(pts1)
    if np.any(pts1[:, 2] <= 0) or np.any(pts2[:, 2] <= 0):
        raise BehindCamera("a board corner fell behind one of the cameras")
    return pts1, pts2


def _grid_offsets(n: int) -> np.ndarray:
    return np.arange(n) - (n - 1) / 2.0


def _refit_batch(obs: np.ndarray) -> np.ndarray:
    """Closed-form least squares of the batch observation model.

    Valid because the grid offsets are centred (they sum to zero), which
    decouples the normal equations; agrees with a general least-squares
    fit of the same model to round-off.
    """
    n, ni, nj, _ = obs.shape
    di = _grid_offsets(ni)
    dj = _grid_offsets(nj)
    denom = ni * float(dj @ dj) + nj * float(di @ di)
    u_c = obs[..., 0].mean(axis=(1, 2))
    v_c = obs[..., 1].mean(axis=(1, 2))
    lam = (
        np.einsum("nij,j->n", obs[..., 0], dj) + np.einsum("nij,i->n", obs[..., 1], di)
    ) / denom
    return np.column_stack([u_c, v_c, lam])


# Most samples (float64 values) in one block of simulate_correspondences:
# a 2 MiB buffer, below numpy's 4 MiB huge-page threshold.
_BLOCK_SAMPLES = 1 << 18


def simulate_correspondences(
    cfg: SimConfig, rng: np.random.Generator
) -> CorrespondenceSet:
    """One noisy draw of the full correspondence set.

    Projects every corner into every sub-aperture of both cameras, adds
    pixel noise, and re-fits the LF-points, in blocks of at most
    ``_BLOCK_SAMPLES`` samples: the working memory is one block buffer
    that every block reuses, whatever the board size.  Each block's noise
    is drawn into the buffer and the noise-free samples are added to it in
    place.  ``rng.normal(0.0, sigma)`` computes 0.0 + sigma * z for each
    standard normal z in turn, so scaling a ``standard_normal`` draw gives
    its bits; without noise the buffer holds -0.0, since x + -0.0 is x for
    every x.  The noise is drawn block by block in point order, which
    consumes the generator exactly as one draw of each camera's whole
    sample grid would, and the re-fit is per point, so the result does not
    depend on the block size.  Raises GenerationFailure when the draw is
    not a usable correspondence set (coincident corners without noise give
    duplicate pairs).
    """
    pts1, pts2 = _corner_arrays(cfg)
    n = pts1.shape[0]
    di, dj = _grid_offsets(cfg.sai_rows), _grid_offsets(cfg.sai_cols)
    step = min(max(1, _BLOCK_SAMPLES // (di.size * dj.size * 2)), n)
    buf = np.empty((step, di.size, dj.size, 2))
    first, second = np.empty((n, 3)), np.empty((n, 3))
    for fitted, pts, k in ((first, pts1, cfg.k1), (second, pts2, cfg.k2)):
        lfp = k.project(pts)
        for start in range(0, n, step):
            block = lfp[start : start + step]
            obs = buf[: block.shape[0]]
            if cfg.sigma_px > 0:
                rng.standard_normal(out=obs)
                obs *= cfg.sigma_px
                obs += 0.0
            else:
                obs.fill(-0.0)
            # u varies along the sub-aperture columns, v along the rows.
            obs[..., 0] += (block[:, 0, None] + dj * block[:, 2, None])[:, None, :]
            obs[..., 1] += (block[:, 1, None] + di * block[:, 2, None])[:, :, None]
            fitted[start : start + step] = _refit_batch(obs)
    try:
        return CorrespondenceSet(first=first, second=second, k1=cfg.k1, k2=cfg.k2)
    except ValueError as e:
        raise GenerationFailure(f"simulated correspondences are unusable: {e}") from e


@dataclass
class TrialReport:
    """Per-trial benchmark errors plus summary statistics.

    err_R_deg / err_T_deg are NaN for failed trials; ``failures`` lists
    (trial index, reason).  Summary statistics cover successful trials:
    they are NaN when no trial succeeded, and a single success has std 0.
    """

    sigma_px: float
    err_R_deg: np.ndarray
    err_T_deg: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    failures: list = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return self.err_R_deg.size

    @property
    def n_failures(self) -> int:
        return len(self.failures)

    def _summary(self, err: np.ndarray) -> tuple[float, float]:
        """(mean, std) of ``err`` over the successful trials."""
        ok = err[np.isfinite(self.err_R_deg) & np.isfinite(self.err_T_deg)]
        if ok.size == 0:
            return float("nan"), float("nan")
        return float(ok.mean()), float(ok.std(ddof=1)) if ok.size > 1 else 0.0

    @property
    def mean_err_R(self) -> float:
        return self._summary(self.err_R_deg)[0]

    @property
    def mean_err_T(self) -> float:
        return self._summary(self.err_T_deg)[0]

    @property
    def std_err_R(self) -> float:
        return self._summary(self.err_R_deg)[1]

    @property
    def std_err_T(self) -> float:
        return self._summary(self.err_T_deg)[1]


def simulate_trial(cfg: SimConfig, trial: int) -> CorrespondenceSet:
    """The draw of trial ``trial`` of ``cfg``: noise from
    ``default_rng(cfg.seed + trial)``, the package's one seed rule."""
    return simulate_correspondences(cfg, np.random.default_rng(cfg.seed + trial))


def _run_one_trial(cfg: SimConfig, trial: int):
    try:
        corr = simulate_trial(cfg, trial)
        result = estimate_pose(corr)
        return (
            trial,
            angular_error_rotation(cfg.pose.R, result.pose.R),
            angular_error_translation(cfg.pose.T, result.pose.T),
            bool(result.converged),
            int(result.iterations),
            None,
        )
    except LfRectError as exc:
        return (trial, float("nan"), float("nan"), False, 0, f"{type(exc).__name__}: {exc}")


# The thread-count variables of the BLAS libraries numpy may be built on.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_env():
    """Set every BLAS thread-count variable to "1" in ``os.environ``, and
    restore the caller's values (or their absence) on exit."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@contextmanager
def trial_pool(jobs: int):
    """A ``map`` over ``min(jobs, os.cpu_count())`` worker processes for
    :func:`run_trials` calls to share, or the builtin ``map`` when that is
    one worker (no process is started).  This is the only place that sizes
    the workers and their chunks.

    Each worker runs one BLAS thread: a trial's matrices are small, and
    more threads per worker only contend for the CPUs that the other
    workers use.  The workers are spawned, not forked, so each starts a
    fresh interpreter whose BLAS reads the variables that are set to 1
    while the pool lives."""
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        yield map
        return
    import multiprocessing  # deferred: only a pool of workers needs it

    spawn = multiprocessing.get_context("spawn")
    # The executor starts no worker before its first map.
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs, mp_context=spawn)
    with _one_blas_thread_env(), pool:

        def pool_map(fn, *iterables):
            # About four chunks per worker: few enough to amortise dispatch,
            # enough to balance the workers.
            chunk = max(1, len(iterables[0]) // (4 * jobs))
            return pool.map(fn, *iterables, chunksize=chunk)

        yield pool_map


def run_trials(cfg: SimConfig, pool=map) -> TrialReport:
    """Run the configured number of simulate->estimate trials through
    ``pool``: in this process by default, or on a :func:`trial_pool`.

    Each trial draws its noise from ``default_rng(seed + trial_index)``, so
    the report is identical however many worker processes are used.
    """
    outcomes = list(pool(_run_one_trial, [cfg] * cfg.trials, range(cfg.trials)))
    err_R = np.array([o[1] for o in outcomes])
    err_T = np.array([o[2] for o in outcomes])
    converged = np.array([o[3] for o in outcomes], bool)
    iterations = np.array([o[4] for o in outcomes], int)
    failures = [(o[0], o[5]) for o in outcomes if o[5] is not None]
    return TrialReport(
        sigma_px=cfg.sigma_px,
        err_R_deg=err_R,
        err_T_deg=err_T,
        converged=converged,
        iterations=iterations,
        failures=failures,
    )


# --------------------------------------------------------------------------
# Synthetic light-field rendering
# --------------------------------------------------------------------------


@value_type
class TexturedPlane:
    """A textured rectangle in world coordinates.

    origin is its centre; axis_a and axis_b are orthonormal in-plane
    directions (texture coordinates are millimetres along them); half_a and
    half_b are the half-extents (None for an unbounded plane).  ``texture``
    maps (a, b) arrays to luminance in [0, 1].
    """

    origin: np.ndarray
    axis_a: np.ndarray
    axis_b: np.ndarray
    texture: object
    half_a: float | None = None
    half_b: float | None = None

    def __post_init__(self):
        o, ea, eb = (np.array(getattr(self, n), float).reshape(3) for n in ("origin", "axis_a", "axis_b"))
        if abs(np.linalg.norm(ea) - 1) > 1e-9 or abs(np.linalg.norm(eb) - 1) > 1e-9:
            raise ValueError("plane axes must be unit vectors")
        if abs(ea @ eb) > 1e-9:
            raise ValueError("plane axes must be orthogonal")
        bind_arrays(self, origin=o, axis_a=ea, axis_b=eb)

    @property
    def normal(self) -> np.ndarray:
        return np.cross(self.axis_a, self.axis_b)


@dataclass(frozen=True)
class RenderGrid:
    """Sub-aperture layout and image format for the synthetic renderer."""

    sai_rows: int = 7
    sai_cols: int = 7
    pitch_mm: float = 2.0
    width_px: int = 64
    height_px: int = 48
    supersample: int = 2

    def __post_init__(self):
        if self.sai_rows < 1 or self.sai_cols < 1:
            raise ValueError("need at least one sub-aperture")
        if self.pitch_mm <= 0 or self.width_px < 2 or self.height_px < 2:
            raise ValueError("invalid render grid")
        if self.supersample < 1:
            raise ValueError("supersample must be >= 1")


def soft_checkerboard_texture(square_mm: float, softness_mm: float):
    """Band-limited checkerboard of grey levels 0.15 and 0.85: edges are
    sigmoids of the given half-width and every corner is an exact intensity
    saddle.  Use this instead of a hard-edged board when corners are to be
    measured to sub-pixel accuracy; a step edge aliases against the pixel
    grid no matter how finely the renderer supersamples."""
    low, high = 0.15, 0.85
    amp = 0.5 * (high - low)
    mid = 0.5 * (high + low)
    k = np.pi / square_mm
    gain = 1.0 / (k * softness_mm)

    def tex(a, b):
        fa = np.tanh(np.sin(k * np.asarray(a, float)) * gain)
        fb = np.tanh(np.sin(k * np.asarray(b, float)) * gain)
        return mid + amp * fa * fb

    return tex


def sinusoid_texture(seed: int):
    """Smooth band-limited texture: a fixed random sum of plane sinusoids."""
    n_waves, freq_per_mm = 6, 0.05
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, np.pi, n_waves)
    freqs = rng.uniform(0.3, 1.0, n_waves) * 2 * np.pi * freq_per_mm
    phases = rng.uniform(0, 2 * np.pi, n_waves)
    amps = rng.uniform(0.5, 1.0, n_waves)
    amps /= amps.sum()

    def tex(a, b):
        acc = np.zeros_like(np.asarray(a, float))
        for ang, f, ph, amp in zip(angles, freqs, phases, amps):
            acc = acc + amp * np.sin(f * (np.cos(ang) * a + np.sin(ang) * b) + ph)
        return 0.5 + 0.4 * acc

    return tex


# Supersampled rays per band of render_synthetic_lf, rounded down to whole
# pixel rows (one row at least): every per-ray temporary of the tracer is
# band-sized, so its working memory does not grow with the image.
_BAND_RAYS = 4096


def render_synthetic_lf(
    scene: list,
    k: LFIntrinsics,
    world_from_camera: RelativePose,
    grid: RenderGrid,
) -> SampledLF:
    """Ray-trace a light field of textured planes.

    Sub-aperture (i, j) sits at s = (j - centre) * pitch,
    t = (i - centre) * pitch on the camera's s/t plane; pixel (r, c) fixes
    the ray slope through the intrinsics: u = (c - c_x)/f_x,
    v = (r - c_y)/f_y.  ``world_from_camera`` places the camera in the
    world frame that the scene planes are defined in (identity for the
    frame-defining camera).  Rays are supersampled per pixel and averaged;
    pixels whose samples all miss every plane are masked out (a pixel is
    valid only when every sample hits).

    The ray directions and each plane's ray denominators are computed once
    per light field; each sub-aperture is then traced in bands of whole
    pixel rows of about ``_BAND_RAYS`` rays, and each band's pixels are
    written straight into the output.  Every ray's arithmetic is the same
    whatever the band, so the result does not depend on the band size.

    The intrinsics' K1/K2 play no role in ray generation; to make the
    rendered light field consistent with the LF-point model, pass K1 = 0
    and K2 = f_x * pitch.
    """
    Rc, Tc = world_from_camera.R, world_from_camera.T
    nr, nc = grid.sai_rows, grid.sai_cols
    H, W, ss = grid.height_px, grid.width_px, grid.supersample
    t_mm = (np.arange(nr) - (nr - 1) / 2.0) * grid.pitch_mm
    s_mm = (np.arange(nc) - (nc - 1) / 2.0) * grid.pitch_mm

    sub = (np.arange(ss) + 0.5) / ss - 0.5
    cols = (np.arange(W)[:, None] + sub[None, :]).ravel()  # W*ss subpixel cols
    rows = (np.arange(H)[:, None] + sub[None, :]).ravel()
    # All subpixel slope combinations of one sub-aperture image, row-major,
    # turned into the world frame by one product (its bits depend on it
    # being one call).
    dirs_cam = np.empty((rows.size, cols.size, 3))
    dirs_cam[..., 0] = (cols - k.cx) / k.fx
    dirs_cam[..., 1] = ((rows - k.cy) / k.fy)[:, None]
    dirs_cam[..., 2] = 1.0
    dirs = dirs_cam.reshape(-1, 3) @ Rc.T
    del dirs_cam
    denoms = [dirs @ pl.normal for pl in scene]
    usable = [np.abs(denom) > 1e-12 for denom in denoms]

    row_rays = ss * W * ss  # the rays of one pixel row
    band = max(1, _BAND_RAYS // row_rays)
    images = np.empty((nr, nc, H, W))
    mask = np.empty((nr, nc, H, W), bool)
    for i, j in np.ndindex(nr, nc):
        origin_cam = np.array([s_mm[j], t_mm[i], 0.0])
        o = Rc @ origin_cam + Tc
        nums = [(pl.origin - o) @ pl.normal for pl in scene]
        for r0 in range(0, H, band):
            pix = slice(r0, min(r0 + band, H))
            rays = slice(pix.start * row_rays, pix.stop * row_rays)
            best_tau = np.full(rays.stop - rays.start, np.inf)
            lum = np.zeros(best_tau.size)
            for pl, num, denom, ok in zip(scene, nums, denoms, usable):
                with np.errstate(divide="ignore", invalid="ignore"):
                    tau = num / denom[rays]
                hit = ok[rays] & (tau > 1e-9) & (tau < best_tau)
                if not hit.any():
                    continue
                # Index copies only when some ray of the band misses.
                idx = slice(None) if hit.all() else np.flatnonzero(hit)
                tau = tau[idx]
                pts = tau[:, None] * dirs[rays][idx]
                pts += o
                pts -= pl.origin
                a = pts @ pl.axis_a
                b = pts @ pl.axis_b
                inside = np.ones(a.size, bool)
                if pl.half_a is not None:
                    inside &= np.abs(a) <= pl.half_a
                if pl.half_b is not None:
                    inside &= np.abs(b) <= pl.half_b
                if not inside.all():
                    idx = np.flatnonzero(hit)[inside]
                    a, b, tau = a[inside], b[inside], tau[inside]
                lum[idx] = pl.texture(a, b)
                best_tau[idx] = tau
            lum.reshape(-1, ss, W, ss).mean(axis=(1, 3), out=images[i, j, pix])
            np.isfinite(best_tau).reshape(-1, ss, W, ss).all(axis=(1, 3), out=mask[i, j, pix])
    mapping = SpatialMapping(
        u0=-k.cx / k.fx, du=1.0 / k.fx, v0=-k.cy / k.fy, dv=1.0 / k.fy
    )
    return SampledLF(images=images, mask=mask, s_mm=s_mm, t_mm=t_mm, mapping=mapping)
