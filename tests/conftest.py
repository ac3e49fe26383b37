"""Shared fixtures: benchmark cameras, pose presets, correspondence draws,
and a small rendered light-field pair for the resampling tests."""

import numpy as np
import pytest

from lfrect.bench import noise_sweep_pose, pose_grid_presets
from lfrect.geometry import LFIntrinsics, RelativePose, euler_xyz_intrinsic
from lfrect.rectify import build_rectified_setup
from lfrect.resample import plan_aligned_grid, render_aligned_sais
from lfrect.simulate import (
    BoardSpec,
    RenderGrid,
    TexturedPlane,
    default_intrinsics_pair,
    make_sim_config,
    render_synthetic_lf,
    simulate_correspondences,
    soft_checkerboard_texture,
)
from oracles import blob_texture


@pytest.fixture(scope="session")
def k_pair():
    return default_intrinsics_pair()


@pytest.fixture(scope="session")
def all_presets():
    """Every benchmark pose: the noise-sweep pose plus the four grid poses."""
    presets = [("sweep", noise_sweep_pose())]
    presets.extend(pose_grid_presets())
    return presets


@pytest.fixture(scope="session")
def sweep_pose():
    return noise_sweep_pose()


@pytest.fixture(scope="session")
def corr_exact(sweep_pose):
    """Noise-free correspondence set of the default board layout."""
    cfg = make_sim_config(sweep_pose)
    return simulate_correspondences(cfg, np.random.default_rng(0))


@pytest.fixture(scope="session")
def corr_noisy(sweep_pose):
    """One sigma = 0.3 px draw, seed fixed."""
    cfg = make_sim_config(sweep_pose, sigma_px=0.3)
    return simulate_correspondences(cfg, np.random.default_rng(7))


@pytest.fixture(scope="session")
def corr_dense(sweep_pose):
    """One sigma = 0.3 px draw of 7,700 pairs: four boards of 35 x 55
    corners at 4.5 mm, the input size of a dense estimate."""
    cfg = make_sim_config(sweep_pose, sigma_px=0.3, board=BoardSpec(35, 55, 4.5))
    return simulate_correspondences(cfg, np.random.default_rng(0))


def make_render_camera(pitch_mm=2.0):
    """Camera for the synthetic renderer.  K1 = 0 and K2 = fx * pitch keep
    the LF-point disparity model consistent with the traced rays."""
    fx = 400.0
    return LFIntrinsics(fx=fx, fy=fx, cx=47.5, cy=31.5, K1=0.0, K2=fx * pitch_mm)


RENDER_GRID = RenderGrid(
    sai_rows=7, sai_cols=7, pitch_mm=2.0, width_px=96, height_px=64, supersample=3
)

# Mostly-translational pose so the rectified footprints stay large: camera 2
# sits at world +x, and T_z is chosen so the baseline lies in the s/t plane
# (no out-of-plane tilt of the common frame).
RENDER_POSE = RelativePose(
    euler_xyz_intrinsic(1.0, 3.0, 0.5), np.array([-50.0, -4.0, 2.55])
)


def fronto_plane(texture, z_mm=600.0):
    return TexturedPlane(
        origin=np.array([20.0, 0.0, z_mm]),
        axis_a=np.array([1.0, 0.0, 0.0]),
        axis_b=np.array([0.0, 1.0, 0.0]),
        texture=texture,
        half_a=600.0,
        half_b=450.0,
    )


def render_pair(scene):
    """Render the scene from camera 1 (world frame) and camera 2."""
    k = make_render_camera(RENDER_GRID.pitch_mm)
    left = render_synthetic_lf(scene, k, RelativePose(np.eye(3), np.zeros(3)), RENDER_GRID)
    right = render_synthetic_lf(scene, k, RENDER_POSE.inverse(), RENDER_GRID)
    return k, left, right


@pytest.fixture(scope="session")
def checker_pair():
    """Soft checkerboard plane seen by both render cameras; squares 30 mm.
    The band-limited board keeps corner measurement free of edge aliasing."""
    plane = fronto_plane(soft_checkerboard_texture(30.0, 2.0))
    return (*render_pair([plane]), plane)


BLOB_WORLD = np.array([10.0, 10.0, 600.0])


@pytest.fixture(scope="session")
def blob_pair():
    """Single bright blob on the same plane (for EPI tracking).  The blob
    sits at BLOB_WORLD, inside the field of view of both cameras."""
    plane = fronto_plane(
        blob_texture([[BLOB_WORLD[0] - 20.0, BLOB_WORLD[1]]], sigma_mm=7.0)
    )
    return (*render_pair([plane]), plane)


@pytest.fixture(scope="session")
def blob_world():
    return BLOB_WORLD.copy()


@pytest.fixture(scope="session")
def render_pose():
    return RENDER_POSE


def _rectify_pair(pair):
    k, left, right, _plane = pair
    setup = build_rectified_setup(RENDER_POSE.inverse())
    grid = plan_aligned_grid(left, right, setup)
    out = render_aligned_sais(left, right, setup, grid)
    return k, out, grid, setup


@pytest.fixture(scope="session")
def checker_rectified(checker_pair):
    """The checkerboard pair resampled onto its aligned grid."""
    return _rectify_pair(checker_pair)


@pytest.fixture(scope="session")
def blob_rectified(blob_pair):
    """The blob pair resampled onto its aligned grid."""
    return _rectify_pair(blob_pair)
