"""Ray warping and the rectified-frame construction.

The closed-form warp and the geometric construction (move the two anchor
points, re-intersect the planes; kept in ``oracles.py``) are independent
derivations of the same map; their agreement over random transforms is the
main correctness check.
The rectifying rotation is verified against its defining properties: it is
a rotation, it sends the baseline to the +x axis, and ray bundles from both
cameras triangulate scene points consistently in the common frame.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from lfrect.errors import CollinearConstruction, ConfigError, ZeroBaseline
from lfrect.geometry import RelativePose, euler_xyz_intrinsic, so3_exp
from lfrect.lfio import load_json, load_setup, save_json, save_setup
from lfrect.rectify import (
    RectifiedSetup,
    build_rectified_setup,
    rectifying_rotation,
    warp_rays,
)
from oracles import warp_ray_geometric


def random_pose(rng, max_angle_deg=20.0, t_scale=20.0):
    w = rng.normal(0, 1, 3)
    w *= np.radians(rng.uniform(0, max_angle_deg)) / np.linalg.norm(w)
    return RelativePose(so3_exp(w), rng.normal(0, t_scale, 3))


def warp_one(ray, pose):
    """``warp_rays`` on a bundle of one ray; the ray must map."""
    warped, valid = warp_rays(np.reshape(ray, (1, 4)), pose.R, pose.T)
    assert valid[0]
    return warped[0]


def random_rays(rng, n):
    return np.column_stack(
        [
            rng.uniform(-20, 20, n),
            rng.uniform(-20, 20, n),
            rng.uniform(-0.5, 0.5, n),
            rng.uniform(-0.5, 0.5, n),
        ]
    )


# ---------------------------------------------------------------------------
# warping
# ---------------------------------------------------------------------------


def test_identity_warp_is_identity():
    pose = RelativePose(np.eye(3), np.zeros(3))
    r = warp_one([3.0, -2.0, 0.1, 0.25], pose)
    assert np.allclose(r, [3.0, -2.0, 0.1, 0.25], atol=1e-15)


def test_pure_translation_shifts_positions_only():
    pose = RelativePose(np.eye(3), np.array([10.0, -5.0, 0.0]))
    r = warp_one([1.0, 2.0, 0.1, -0.2], pose)
    assert np.allclose(r, [11.0, -3.0, 0.1, -0.2], atol=1e-12)


def test_z_translation_slides_along_slopes():
    # Moving the planes back by dz advances the intersection by dz * slope.
    pose = RelativePose(np.eye(3), np.array([0.0, 0.0, 7.0]))
    r = warp_one([1.0, 2.0, 0.1, -0.2], pose)
    assert np.allclose(r, [1.0 - 0.7, 2.0 + 1.4, 0.1, -0.2], atol=1e-12)


def test_closed_vs_geometric_1000_cases():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        pose = random_pose(rng)
        ray = random_rays(rng, 1)[0]
        a = warp_one(ray, pose)
        b = warp_ray_geometric(ray, pose.R, pose.T)
        worst = max(worst, np.abs(a - b).max() / max(1.0, np.abs(a).max()))
    assert worst <= 1e-10


def test_round_trip_1000_cases():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        pose = random_pose(rng)
        ray = random_rays(rng, 1)[0]
        back = warp_one(warp_one(ray, pose), pose.inverse())
        worst = max(worst, np.abs(back - ray).max())
    assert worst <= 1e-9


def test_warp_preserves_point_incidence():
    # If the source ray passes through a point, the warped ray must pass
    # through the transformed point.
    rng = np.random.default_rng(3)
    for _ in range(100):
        pose = random_pose(rng)
        P = rng.uniform([-100, -100, 200], [100, 100, 2000])
        u, v = rng.uniform(-0.3, 0.3, 2)
        ray = np.array([P[0] - u * P[2], P[1] - v * P[2], u, v])
        w = warp_one(ray, pose)
        Pw = pose.apply(P)
        # point on warped ray at the transformed depth
        hit = np.array([w[0] + w[2] * Pw[2], w[1] + w[3] * Pw[2]])
        assert np.abs(hit - Pw[:2]).max() <= 1e-8


def test_parallel_ray_raises_both_methods():
    # 90 degree turn about x makes the central ray parallel to the planes.
    pose = RelativePose(euler_xyz_intrinsic(90.0, 0.0, 0.0), np.zeros(3))
    with pytest.raises(ValueError, match="share a depth"):
        warp_ray_geometric(np.zeros(4), pose.R, pose.T)
    # the closed form masks the ray instead of raising, and keeps the rest
    rays = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.1, 0.3]])
    out, valid = warp_rays(rays, pose.R, pose.T)
    assert valid.tolist() == [False, True]
    assert np.all(out[0] == 0.0)


# ---------------------------------------------------------------------------
# rectifying rotation / setup
# ---------------------------------------------------------------------------


def test_rectifying_rotation_properties():
    rng = np.random.default_rng(4)
    for _ in range(200):
        pose = random_pose(rng, max_angle_deg=25.0, t_scale=40.0)
        if np.linalg.norm(pose.T) < 1.0:
            continue
        R_rect = rectifying_rotation(pose)
        assert np.abs(R_rect @ R_rect.T - np.eye(3)).max() <= 1e-9
        assert np.linalg.det(R_rect) == pytest.approx(1.0, abs=1e-9)
        mapped = R_rect @ pose.T
        assert np.abs(mapped[1:]).max() <= 1e-9 * np.linalg.norm(pose.T)
        assert mapped[0] > 0 or abs(mapped[0]) <= 1e-9


def test_vertical_baseline_example():
    # A purely vertical 5 mm baseline with no rotation: the new x-axis is
    # the old y, the new y is the old x, z flips to stay right-handed.
    pose = RelativePose(np.eye(3), np.array([0.0, 5.0, 0.0]))
    R_rect = rectifying_rotation(pose)
    expect = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert np.abs(R_rect - expect).max() <= 1e-12


def test_build_setup_places_right_camera_on_x_axis():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pose = random_pose(rng, t_scale=60.0)
        if np.linalg.norm(pose.T) < 1.0:
            continue
        setup = build_rectified_setup(pose)
        assert np.array_equal(setup.T_l, np.zeros(3))
        assert setup.T_r[1] == 0.0 and setup.T_r[2] == 0.0
        assert setup.T_r[0] == pytest.approx(np.linalg.norm(pose.T), rel=1e-12)
        assert setup.baseline_mm == pytest.approx(np.linalg.norm(pose.T), rel=1e-12)
        assert np.array_equal(setup.R_l, setup.R_rect)
        assert np.abs(setup.R_r - setup.R_rect @ pose.R).max() <= 1e-12


def test_zero_baseline_raises():
    with pytest.raises(ZeroBaseline):
        build_rectified_setup(RelativePose(np.eye(3), np.zeros(3)))


def test_collinear_construction_raises():
    # Baseline along the (mean) optical axis: e2 would be cross of parallel
    # vectors.
    with pytest.raises(CollinearConstruction):
        build_rectified_setup(RelativePose(np.eye(3), np.array([0.0, 0.0, 50.0])))


def test_triangulation_consistency():
    """Rays to one scene point from both cameras, warped into the common
    frame, must intersect at one common-frame point (<= 1e-8 mm)."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        pose_2to1 = random_pose(rng, max_angle_deg=15.0, t_scale=50.0)
        if np.linalg.norm(pose_2to1.T) < 5.0:
            continue
        setup = build_rectified_setup(pose_2to1)
        P1 = rng.uniform([-200, -150, 400], [200, 150, 1500])  # camera-1 frame
        P2 = pose_2to1.inverse().apply(P1)  # camera-2 frame
        P_common = setup.R_rect @ P1  # left camera anchors the frame

        hits = []
        for P_src, R, T in ((P1, setup.R_l, setup.T_l), (P2, setup.R_r, setup.T_r)):
            rays = []
            for _ in range(6):
                u, v = rng.uniform(-0.3, 0.3, 2)
                rays.append([P_src[0] - u * P_src[2], P_src[1] - v * P_src[2], u, v])
            warped, valid = warp_rays(np.array(rays), R, T)
            assert valid.all()
            # Intersect the warped bundle: solve for (X, Y, Z) with
            # X = s + u Z, Y = t + v Z per ray.
            n = warped.shape[0]
            A = np.zeros((2 * n, 3))
            b = np.empty(2 * n)
            A[:n, 0] = 1.0
            A[:n, 2] = -warped[:, 2]
            b[:n] = warped[:, 0]
            A[n:, 1] = 1.0
            A[n:, 2] = -warped[:, 3]
            b[n:] = warped[:, 1]
            X, res, *_ = np.linalg.lstsq(A, b, rcond=None)
            assert np.abs(A @ X - b).max() <= 1e-8  # bundle is concurrent
            hits.append(X)
        assert np.abs(hits[0] - P_common).max() <= 1e-8
        assert np.abs(hits[1] - P_common).max() <= 1e-8


def test_row_alignment_of_warped_sub_apertures():
    # The defining property of the rectified frame: matching sub-aperture
    # rows of the two cameras land on equal t, and a scene point's v slope
    # is the same from any sub-aperture on that row.
    rng = np.random.default_rng(7)
    pose_2to1 = random_pose(rng, max_angle_deg=10.0, t_scale=40.0)
    setup = build_rectified_setup(pose_2to1)
    P1 = np.array([50.0, -30.0, 900.0])
    P2 = pose_2to1.inverse().apply(P1)
    Pc = setup.R_rect @ P1
    for P_src, R, T in ((P1, setup.R_l, setup.T_l), (P2, setup.R_r, setup.T_r)):
        for u, v in [(-0.2, 0.1), (0.0, 0.0), (0.3, -0.15)]:
            ray = np.array([[P_src[0] - u * P_src[2], P_src[1] - v * P_src[2], u, v]])
            w, ok = warp_rays(ray, R, T)
            assert ok[0]
            # slope toward the point from the warped aperture position
            v_slope = (Pc[1] - w[0, 1]) / Pc[2]
            assert w[0, 3] == pytest.approx(v_slope, abs=1e-10)


# ---------------------------------------------------------------------------
# RectifiedSetup type
# ---------------------------------------------------------------------------


def test_setup_json_round_trip(tmp_path, sweep_pose):
    setup = build_rectified_setup(sweep_pose.inverse())
    save_setup(tmp_path / "s.json", setup)
    assert load_json(tmp_path / "s.json")["layout"] == "row-major"
    s2 = load_setup(tmp_path / "s.json")
    for name in ("R_rect", "R_l", "T_l", "R_r", "T_r"):
        assert np.array_equal(getattr(s2, name), getattr(setup, name))
    assert s2.baseline_mm == setup.baseline_mm


def test_setup_validation():
    R = np.eye(3)
    with pytest.raises(ValueError, match="x-axis"):
        RectifiedSetup(R_rect=R, R_r=R, T_r=np.array([50.0, 2.0, 0]), baseline_mm=50.0)
    for baseline in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="baseline"):
            RectifiedSetup(R_rect=R, R_r=R, T_r=np.array([50.0, 0, 0]), baseline_mm=baseline)


def test_setup_refuses_a_right_camera_off_the_baseline():
    """T_r[0] is the right camera's distance along the baseline, so it
    must equal baseline_mm to 1e-9 relative: the last-bit difference that
    build_rectified_setup leaves passes, a wrong distance does not."""
    R = np.eye(3)
    with pytest.raises(ValueError, match=r"T_r\[0\] = 10.0 is not baseline_mm = 50"):
        RectifiedSetup(R_rect=R, R_r=R, T_r=(10.0, 0.0, 0.0), baseline_mm=50)
    with pytest.raises(ValueError, match=r"T_r\[0\]"):
        RectifiedSetup(R_rect=R, R_r=R, T_r=(-50.0, 0.0, 0.0), baseline_mm=50.0)
    with pytest.raises(ValueError, match=r"T_r\[0\]"):
        RectifiedSetup(R_rect=R, R_r=R, T_r=(50.0 * (1 + 2e-9), 0.0, 0.0), baseline_mm=50.0)
    RectifiedSetup(R_rect=R, R_r=R, T_r=(50.0 * (1 + 5e-10), 0.0, 0.0), baseline_mm=50.0)


def test_setup_holds_read_only_copies(sweep_pose):
    """The setup stores four fields.  R_l and T_l are properties: R_l is
    R_rect itself and T_l one shared read-only zero vector.  Each stored
    array is the setup's own read-only copy, so a caller's rotation
    changed after the check does not reach the setup."""
    setup = build_rectified_setup(sweep_pose)
    assert [f.name for f in dataclasses.fields(setup)] == ["R_rect", "R_r", "T_r", "baseline_mm"]
    assert setup.R_l is setup.R_rect
    assert setup.T_l is build_rectified_setup(sweep_pose.inverse()).T_l
    assert np.array_equal(setup.T_l, np.zeros(3)) and not setup.T_l.flags.writeable
    names = ("R_rect", "R_r", "T_r")
    fields = {name: np.array(getattr(setup, name)) for name in names}
    given = RectifiedSetup(**fields, baseline_mm=setup.baseline_mm)
    for name, value in fields.items():
        assert not getattr(setup, name).flags.writeable, name
        assert not getattr(given, name).flags.writeable, name
        assert not np.shares_memory(getattr(given, name), value), name
    fields["R_r"][0, 0] = 7.0
    assert given.R_r[0, 0] == setup.R_r[0, 0]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["R_rect", "R_l", "R_r", "T_l", "T_r"])
def test_setup_rejects_non_finite_entries(tmp_path, name, value):
    # A non-finite entry would make warped sub-aperture centres NaN or
    # infinite without marking them invalid.  R_l and T_l are properties,
    # so only a setup file can hold a non-finite one, and its reader
    # refuses it by name.
    fields = dict(R_rect=np.eye(3), R_r=np.eye(3), T_r=np.array([50.0, 0.0, 0.0]), baseline_mm=50.0)
    index = 1 if name.startswith("R") else 0
    if name in fields:
        fields[name] = fields[name].copy()
        fields[name].flat[index] = value
        with pytest.raises(ValueError, match="finite") as exc:
            RectifiedSetup(**fields)
        assert name in str(exc.value)
        return
    path = tmp_path / "setup.json"
    save_setup(path, RectifiedSetup(**fields))
    doc = load_json(path)
    doc[name][index] = value
    save_json(path, doc)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {name}: disagrees with "):
        load_setup(path)
