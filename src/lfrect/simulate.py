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

from .errors import BehindCamera, LfRectError
from .geometry import (
    LFIntrinsics,
    RelativePose,
    angular_error_rotation,
    angular_error_translation,
    euler_xyz_intrinsic,
)
from .pose import CorrespondenceSet, estimate_pose
from .resample import SampledLF, SpatialMapping

__all__ = [
    "BoardSpec",
    "BoardPose",
    "SimConfig",
    "TrialReport",
    "default_intrinsics_pair",
    "default_board_poses",
    "make_sim_config",
    "simulate_correspondences",
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
        if self.rows < 2 or self.cols < 2 or self.spacing_mm <= 0:
            raise ValueError("board needs >= 2x2 corners and positive spacing")

    def local_corners(self) -> np.ndarray:
        """Corner coordinates in the board plane, centred: (rows*cols, 3)."""
        jj, ii = np.meshgrid(np.arange(self.cols), np.arange(self.rows))
        x = (jj - (self.cols - 1) / 2.0) * self.spacing_mm
        y = (ii - (self.rows - 1) / 2.0) * self.spacing_mm
        return np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])


@dataclass(frozen=True)
class BoardPose:
    """Rigid placement of a board in the camera-1 frame."""

    rotation: np.ndarray
    center_mm: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, float)
        c = np.asarray(self.center_mm, float).reshape(3)
        if R.shape != (3, 3) or np.abs(R @ R.T - np.eye(3)).max() > 1e-9:
            raise ValueError("board rotation must be orthonormal")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "center_mm", c)


def default_intrinsics_pair() -> tuple[LFIntrinsics, LFIntrinsics]:
    """The two benchmark camera models used throughout the synthetic
    experiments."""
    k1 = LFIntrinsics(fx=572.720, fy=572.685, cx=270.916, cy=188.109, K1=0.030, K2=165.298)
    k2 = LFIntrinsics(fx=538.374, fy=538.062, cx=283.471, cy=188.709, K1=0.028, K2=147.606)
    return k1, k2


def default_board_poses() -> list[BoardPose]:
    """Three tilted board placements visible to both cameras for every
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
        BoardPose(euler_xyz_intrinsic(-30.0, 15.0, 10.0), np.array([-310.0, -50.0, 1060.0])),
        BoardPose(euler_xyz_intrinsic(-10.0, 35.0, 0.0), np.array([-290.0, 45.0, 850.0])),
        BoardPose(euler_xyz_intrinsic(-12.0, 30.0, 5.0), np.array([-535.0, 90.0, 1490.0])),
        BoardPose(euler_xyz_intrinsic(25.0, -20.0, 0.0), np.array([-400.0, -150.0, 1300.0])),
    ]


@dataclass(frozen=True)
class SimConfig:
    """Everything one synthetic pose-estimation experiment needs."""

    k1: LFIntrinsics
    k2: LFIntrinsics
    pose: RelativePose  # camera-1 -> camera-2
    board: BoardSpec = BoardSpec()
    board_poses: tuple = ()
    sai_rows: int = 13
    sai_cols: int = 13
    sigma_px: float = 0.0
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if not self.board_poses:
            object.__setattr__(self, "board_poses", tuple(default_board_poses()))
        else:
            object.__setattr__(self, "board_poses", tuple(self.board_poses))
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
    pts1 = np.concatenate(
        [local @ bp.rotation.T + bp.center_mm for bp in cfg.board_poses]
    )
    pts2 = cfg.pose.apply(pts1)
    if np.any(pts1[:, 2] <= 0) or np.any(pts2[:, 2] <= 0):
        raise BehindCamera("a board corner fell behind one of the cameras")
    return pts1, pts2


def _grid_offsets(n: int) -> np.ndarray:
    return np.arange(n) - (n - 1) / 2.0


def _observe_batch(lfp: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(n, 3) LF-points -> (n, rows, cols, 2) per-sub-aperture samples."""
    di = _grid_offsets(rows)
    dj = _grid_offsets(cols)
    obs = np.empty((lfp.shape[0], rows, cols, 2))
    obs[..., 0] = lfp[:, 0, None, None] + dj[None, None, :] * lfp[:, 2, None, None]
    obs[..., 1] = lfp[:, 1, None, None] + di[None, :, None] * lfp[:, 2, None, None]
    return obs


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


def simulate_correspondences(
    cfg: SimConfig, rng: np.random.Generator
) -> CorrespondenceSet:
    """One noisy draw of the full correspondence set.

    Projects every corner into every sub-aperture of both cameras, adds
    pixel noise, and re-fits the LF-points.
    """
    pts1, pts2 = _corner_arrays(cfg)
    sets = []
    for pts, k in ((pts1, cfg.k1), (pts2, cfg.k2)):
        obs = _observe_batch(k.project(pts), cfg.sai_rows, cfg.sai_cols)
        if cfg.sigma_px > 0:
            obs = obs + rng.normal(0.0, cfg.sigma_px, obs.shape)
        sets.append(_refit_batch(obs))
    return CorrespondenceSet(first=sets[0], second=sets[1], k1=cfg.k1, k2=cfg.k2)


@dataclass
class TrialReport:
    """Per-trial benchmark errors plus summary statistics.

    err_R_deg / err_T_deg are NaN for failed trials; ``failures`` lists
    (trial index, reason).  Summary statistics cover successful trials.
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

    def _ok(self) -> np.ndarray:
        return np.isfinite(self.err_R_deg) & np.isfinite(self.err_T_deg)

    @property
    def mean_err_R(self) -> float:
        return float(self.err_R_deg[self._ok()].mean())

    @property
    def mean_err_T(self) -> float:
        return float(self.err_T_deg[self._ok()].mean())

    @property
    def std_err_R(self) -> float:
        ok = self._ok()
        return float(self.err_R_deg[ok].std(ddof=1)) if ok.sum() > 1 else 0.0

    @property
    def std_err_T(self) -> float:
        ok = self._ok()
        return float(self.err_T_deg[ok].std(ddof=1)) if ok.sum() > 1 else 0.0


def _run_one_trial(cfg: SimConfig, trial: int):
    rng = np.random.default_rng(cfg.seed + trial)
    try:
        corr = simulate_correspondences(cfg, rng)
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


@contextmanager
def trial_pool(jobs: int):
    """A pool of ``min(jobs, os.cpu_count())`` worker processes for
    :func:`run_trials` calls to share, or None when that is one worker (no
    process is started)."""
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        yield None
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        yield pool


def run_trials(cfg: SimConfig, jobs: int = 1, pool=None) -> TrialReport:
    """Run the configured number of simulate->estimate trials.

    Each trial draws its noise from ``default_rng(seed + trial_index)``, so
    the report is identical however many worker processes are used.  At
    most ``os.cpu_count()`` workers are used, however large ``jobs`` is.
    ``pool`` is a :func:`trial_pool` of ``jobs`` workers to run on; without
    one, a pool is started for this call alone.
    """
    indices = range(cfg.trials)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        outcomes = [_run_one_trial(cfg, t) for t in indices]
    elif pool is None:
        with trial_pool(jobs) as pool:
            return run_trials(cfg, jobs, pool)
    else:
        chunk = max(1, cfg.trials // (4 * jobs))
        outcomes = list(
            pool.map(_run_one_trial, [cfg] * cfg.trials, indices, chunksize=chunk)
        )
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


@dataclass(frozen=True)
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
        o = np.asarray(self.origin, float).reshape(3)
        ea = np.asarray(self.axis_a, float).reshape(3)
        eb = np.asarray(self.axis_b, float).reshape(3)
        if abs(np.linalg.norm(ea) - 1) > 1e-9 or abs(np.linalg.norm(eb) - 1) > 1e-9:
            raise ValueError("plane axes must be unit vectors")
        if abs(ea @ eb) > 1e-9:
            raise ValueError("plane axes must be orthogonal")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "axis_a", ea)
        object.__setattr__(self, "axis_b", eb)

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


def soft_checkerboard_texture(
    square_mm: float, softness_mm: float, low: float = 0.15, high: float = 0.85
):
    """Band-limited checkerboard: edges are sigmoids of the given half-width
    and every corner is an exact intensity saddle.  Use this instead of a
    hard-edged board when corners are to be measured to sub-pixel accuracy;
    a step edge aliases against the pixel grid no matter how finely the
    renderer supersamples."""
    amp = 0.5 * (high - low)
    mid = 0.5 * (high + low)
    k = np.pi / square_mm
    gain = 1.0 / (k * softness_mm)

    def tex(a, b):
        fa = np.tanh(np.sin(k * np.asarray(a, float)) * gain)
        fb = np.tanh(np.sin(k * np.asarray(b, float)) * gain)
        return mid + amp * fa * fb

    return tex


def sinusoid_texture(seed: int, n_waves: int = 6, freq_per_mm: float = 0.05):
    """Smooth band-limited texture: a fixed random sum of plane sinusoids."""
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
    u = (cols - k.cx) / k.fx
    v = (rows - k.cy) / k.fy
    # All subpixel slope combinations of one sub-aperture image.
    U, V = np.meshgrid(u, v)  # (H*ss, W*ss)
    dirs_cam = np.stack([U.ravel(), V.ravel(), np.ones(U.size)], axis=1)
    dirs_world = dirs_cam @ Rc.T

    images = np.empty((nr, nc, H, W))
    mask = np.empty((nr, nc, H, W), bool)
    for i in range(nr):
        for j in range(nc):
            origin_cam = np.array([s_mm[j], t_mm[i], 0.0])
            o = Rc @ origin_cam + Tc
            best_tau = np.full(dirs_world.shape[0], np.inf)
            lum = np.zeros(dirs_world.shape[0])
            for pl in scene:
                n = pl.normal
                denom = dirs_world @ n
                with np.errstate(divide="ignore", invalid="ignore"):
                    tau = ((pl.origin - o) @ n) / denom
                hit = (np.abs(denom) > 1e-12) & (tau > 1e-9) & (tau < best_tau)
                if not hit.any():
                    continue
                pts = o + tau[hit, None] * dirs_world[hit]
                rel = pts - pl.origin
                a = rel @ pl.axis_a
                b = rel @ pl.axis_b
                inside = np.ones(a.size, bool)
                if pl.half_a is not None:
                    inside &= np.abs(a) <= pl.half_a
                if pl.half_b is not None:
                    inside &= np.abs(b) <= pl.half_b
                idx = np.flatnonzero(hit)[inside]
                lum[idx] = pl.texture(a[inside], b[inside])
                best_tau[idx] = tau[hit][inside]
            hit_any = np.isfinite(best_tau).reshape(H, ss, W, ss)
            lum = lum.reshape(H, ss, W, ss)
            images[i, j] = lum.mean(axis=(1, 3))
            mask[i, j] = hit_any.all(axis=(1, 3))
    mapping = SpatialMapping(
        u0=-k.cx / k.fx, du=1.0 / k.fx, v0=-k.cy / k.fy, dv=1.0 / k.fy
    )
    return SampledLF(images=images, mask=mask, s_mm=s_mm, t_mm=t_mm, mapping=mapping)
