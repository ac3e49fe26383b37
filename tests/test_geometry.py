"""Core geometry: projection model, intrinsic matrix algebra, pose type,
the value-type contract of every type that holds arrays, angular error
metrics, rotation helpers.

The projection example is cross-checked against an exact rational
evaluation (sympy), and the rotation metrics against scipy's axis-angle
decomposition, so the numpy implementations never grade themselves.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from lfrect.errors import ConfigError, ZeroVector
from lfrect.geometry import (
    LFIntrinsics,
    RelativePose,
    angular_error_rotation,
    angular_error_translation,
    euler_xyz_intrinsic,
    skew,
    so3_exp,
)
from lfrect.lfio import load_intrinsics, load_json, load_pose, save_intrinsics, save_json, save_pose
from lfrect.pose import DegeneracyReport, ProjectiveSolution, estimate_pose
from lfrect.rectify import build_rectified_setup
from lfrect.resample import AlignedGrid, EpiImage, SampledLF, SpatialMapping
from lfrect.simulate import (
    TexturedPlane,
    default_board_poses,
    make_sim_config,
    simulate_correspondences,
    soft_checkerboard_texture,
)


def random_rotation(rng):
    return Rotation.random(random_state=int(rng.integers(2**31))).as_matrix()


# ---------------------------------------------------------------------------
# projection / backprojection
# ---------------------------------------------------------------------------


class TestProjection:
    def test_on_axis_point(self, k_pair):
        for k in k_pair:
            u_c, v_c, lam = k.project(np.array([[0.0, 0.0, k.K2]]))[0]
            assert u_c == pytest.approx(k.cx, abs=1e-12)
            assert v_c == pytest.approx(k.cy, abs=1e-12)
            assert lam == pytest.approx(-k.K1 - 1.0, abs=1e-12)

    def test_benchmark_point_vs_exact_rational(self, k_pair):
        # Same formula evaluated in exact rational arithmetic: the float
        # result must agree with the true value to double precision.
        k1 = k_pair[0]
        X, Y, Z = sympy.Rational(100), sympy.Rational(50), sympy.Rational(1000)
        fx, fy = sympy.Rational("572.720"), sympy.Rational("572.685")
        cx, cy = sympy.Rational("270.916"), sympy.Rational("188.109")
        K1, K2 = sympy.Rational("0.030"), sympy.Rational("165.298")
        u_exact = (fx * X + cx * Z) / Z
        v_exact = (fy * Y + cy * Z) / Z
        lam_exact = (-K1 * Z - K2) / Z

        u_c, v_c, lam = k1.project(np.array([[100.0, 50.0, 1000.0]]))[0]
        assert abs(u_c - float(u_exact)) < 1e-12
        assert abs(v_c - float(v_exact)) < 1e-12
        assert abs(lam - float(lam_exact)) < 1e-15
        # and the exact values themselves, for the record
        assert u_exact == sympy.Rational("328.188")
        assert v_exact == sympy.Rational("216.74325")
        assert lam_exact == sympy.Rational("-0.195298")

    def test_matches_matrix_form(self, k_pair):
        # project must equal de-homogenized H @ [X Y Z w], for unit and for
        # per-point homogeneous weights.
        rng = np.random.default_rng(3)
        k = k_pair[1]
        P = rng.uniform([-500, -400, 300], [500, 400, 3000], (50, 3))
        for w in (np.ones(50), rng.uniform(0.5, 2.0, 50)):
            h = np.column_stack([P, w]) @ k.matrix_H().T
            h = h / h[:, 3:]
            assert np.allclose(k.project(P, w), h[:, :3], atol=1e-10)
        assert np.array_equal(k.project(P), k.project(P, np.ones(50)))

    def test_backproject_on_axis(self, k_pair):
        k = k_pair[0]
        p, e = k.backproject(np.array([[k.cx, k.cy, -k.K1 - 1.0]]))
        assert np.allclose(p[0] / e[0], [0.0, 0.0, k.K2], atol=1e-9)

    def test_round_trip_1000_points(self, k_pair):
        rng = np.random.default_rng(11)
        for k in k_pair:
            Z = rng.uniform(300.0, 3000.0, 1000)
            X = rng.uniform(-0.6, 0.6, 1000) * Z
            Y = rng.uniform(-0.45, 0.45, 1000) * Z
            P = np.column_stack([X, Y, Z])
            p, e = k.backproject(k.project(P))
            assert np.abs(p / e[:, None] - P).max() <= 1e-9

    @given(
        x=st.floats(-500, 500),
        y=st.floats(-400, 400),
        z=st.floats(300, 3000),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, x, y, z):
        k = LFIntrinsics(fx=572.720, fy=572.685, cx=270.916, cy=188.109, K1=0.030, K2=165.298)
        p, e = k.backproject(k.project(np.array([[x, y, z]])))
        assert np.abs(p[0] / e[0] - [x, y, z]).max() <= 1e-9


# ---------------------------------------------------------------------------
# intrinsics
# ---------------------------------------------------------------------------


class TestIntrinsics:
    def test_H_times_H_inverse(self, k_pair):
        rng = np.random.default_rng(5)
        cams = list(k_pair)
        for _ in range(20):
            cams.append(
                LFIntrinsics(
                    fx=rng.uniform(100, 2000),
                    fy=rng.uniform(100, 2000),
                    cx=rng.uniform(-500, 500),
                    cy=rng.uniform(-500, 500),
                    K1=rng.uniform(-1, 1),
                    K2=rng.uniform(10, 500) * rng.choice([-1, 1]),
                )
            )
        for k in cams:
            assert np.abs(k.matrix_H() @ k.matrix_H_inverse() - np.eye(4)).max() <= 1e-12
            assert np.abs(k.matrix_H_inverse() @ k.matrix_H() - np.eye(4)).max() <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            LFIntrinsics(fx=0.0, fy=1.0, cx=0, cy=0, K1=0, K2=1)
        with pytest.raises(ValueError):
            LFIntrinsics(fx=1.0, fy=-2.0, cx=0, cy=0, K1=0, K2=1)
        with pytest.raises(ValueError):
            LFIntrinsics(fx=1.0, fy=1.0, cx=0, cy=0, K1=0, K2=0.0)
        with pytest.raises(ValueError):
            LFIntrinsics(fx=1.0, fy=1.0, cx=np.nan, cy=0, K1=0, K2=1)

    def test_json_round_trip(self, tmp_path, k_pair):
        k = k_pair[0]
        save_intrinsics(tmp_path / "k.json", k)
        assert load_intrinsics(tmp_path / "k.json") == k

    def test_json_missing_key(self, tmp_path):
        save_json(tmp_path / "k.json", {"fx": 1.0})
        with pytest.raises(ConfigError, match="k.json: missing key 'fy'"):
            load_intrinsics(tmp_path / "k.json")


# ---------------------------------------------------------------------------
# RelativePose
# ---------------------------------------------------------------------------


class TestRelativePose:
    def test_rejects_bad_rotation(self):
        with pytest.raises(ValueError):
            RelativePose(np.eye(3) * 1.001, np.zeros(3))
        with pytest.raises(ValueError):
            RelativePose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det -1
        with pytest.raises(ValueError):
            RelativePose(np.full((3, 3), np.nan), np.zeros(3))

    def test_immutable(self, sweep_pose):
        with pytest.raises(AttributeError):
            sweep_pose.T = np.zeros(3)
        with pytest.raises(ValueError):
            sweep_pose.R[0, 0] = 2.0

    def test_freezes_copies_not_the_callers_arrays(self):
        R, T = np.eye(3), np.zeros(3)
        pose = RelativePose(R, T)
        R[0, 0] = 2.0
        T[0] = 1.0
        assert pose.R[0, 0] == 1.0 and pose.T[0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            pose.T[0] = 1.0

    def test_inverse_and_apply(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pose = RelativePose(random_rotation(rng), rng.normal(0, 100, 3))
            pts = rng.normal(0, 300, (40, 3))
            back = pose.inverse().apply(pose.apply(pts))
            assert np.abs(back - pts).max() < 1e-9
            inv2 = pose.inverse().inverse()
            assert np.abs(inv2.R - pose.R).max() < 1e-12
            assert np.abs(inv2.T - pose.T).max() < 1e-9

    def test_matrix_matches_apply(self, sweep_pose):
        p = np.array([10.0, -20.0, 500.0])
        h = sweep_pose.matrix() @ np.append(p, 1.0)
        assert np.allclose(sweep_pose.apply(p), h[:3], atol=1e-12)

    def test_json_round_trip(self, tmp_path, sweep_pose):
        save_pose(tmp_path / "p.json", sweep_pose)
        assert load_json(tmp_path / "p.json")["layout"] == "row-major"
        pose2 = load_pose(tmp_path / "p.json")
        assert np.array_equal(pose2.R, sweep_pose.R)
        assert np.array_equal(pose2.T, sweep_pose.T)

    def test_json_requires_layout(self, tmp_path, sweep_pose):
        save_pose(tmp_path / "p.json", sweep_pose)
        d = load_json(tmp_path / "p.json")
        del d["layout"]
        save_json(tmp_path / "p.json", d)
        with pytest.raises(ConfigError, match="pose JSON must declare layout 'row-major'"):
            load_pose(tmp_path / "p.json")

    def test_pickle_round_trip(self, sweep_pose):
        import pickle

        pose2 = pickle.loads(pickle.dumps(sweep_pose))
        assert np.array_equal(pose2.R, sweep_pose.R)
        assert np.array_equal(pose2.T, sweep_pose.T)


def _correspondences():
    pose = RelativePose(euler_xyz_intrinsic(5.0, 20.0, 5.0), [80.0, 5.0, 5.0])
    corr = simulate_correspondences(make_sim_config(pose, sigma_px=0.3), np.random.default_rng(0))
    corr.backprojection  # a cached property, which a copy must not carry
    return corr


# Each value type that holds arrays, built with every array it can hold.
VALUE_TYPES = {
    "RelativePose": lambda: default_board_poses()[0],
    "CorrespondenceSet": _correspondences,
    "ProjectiveSolution": lambda: ProjectiveSolution(np.eye(4), 2 * np.eye(4), 0.5, np.arange(13.0)),
    "DegeneracyReport": lambda: DegeneracyReport(False, [0.0, 0.6, 0.8], 1.0, 0.5, 9.0, 0),
    "EstimationResult": lambda: estimate_pose(_correspondences()),
    "RectifiedSetup": lambda: build_rectified_setup(RelativePose(np.eye(3), [4.0, 0.5, 0.0])),
    "SampledLF": lambda: SampledLF(
        np.full((1, 2, 2, 3), 0.5), np.ones((1, 2, 2, 3), bool), [-1.0, 1.0], [0.0],
        SpatialMapping(u0=-0.5, du=0.25, v0=-0.375, dv=0.125),
    ),
    "AlignedGrid": lambda: AlignedGrid([0.0], [-1.0, 1.0], [[1, 3]]),
    "EpiImage": lambda: EpiImage(np.full((2, 3), 0.5), np.ones((2, 3), bool), [-1.0, 1.0]),
    "TexturedPlane": lambda: TexturedPlane(
        [0.0, 0.0, 500.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], soft_checkerboard_texture(30.0, 2.0)
    ),
}


def _arrays(x, prefix=""):
    """Every array that value ``x`` holds, by field path, nested values
    included."""
    found = {}
    for f in dataclasses.fields(x):
        v = getattr(x, f.name)
        if isinstance(v, np.ndarray):
            found[prefix + f.name] = v
        elif dataclasses.is_dataclass(v):
            found.update(_arrays(v, f"{prefix}{f.name}."))
    return found


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_type_contract(name):
    """Identity equality and hashing, and a pickle round trip through the
    constructor: equal arrays, all read-only, and no cached property
    carried over."""
    x = VALUE_TYPES[name]()
    assert hash(x) == hash(x)
    assert x == x
    assert (x == copy.deepcopy(x)) is False
    if name == "TexturedPlane":  # its texture is a closure, which pickle refuses
        return
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is type(x) and set(vars(y)) == {f.name for f in dataclasses.fields(y)}
    before, after = _arrays(x), _arrays(y)
    assert before and before.keys() == after.keys()
    for key, arr in after.items():
        assert np.array_equal(arr, before[key]) and arr is not before[key]
        assert not arr.flags.writeable, key


# ---------------------------------------------------------------------------
# angular errors
# ---------------------------------------------------------------------------


class TestAngularErrors:
    def test_rotation_self_is_exactly_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            R = random_rotation(rng)
            assert angular_error_rotation(R, R) == 0.0

    def test_rotation_one_degree_about_z(self):
        R = euler_xyz_intrinsic(0.0, 0.0, 1.0)
        assert abs(angular_error_rotation(np.eye(3), R) - 1.0) <= 1e-9

    def test_rotation_vs_axis_angle_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            Ra, Rb = random_rotation(rng), random_rotation(rng)
            got = angular_error_rotation(Ra, Rb)
            expect = np.degrees(np.linalg.norm(Rotation.from_matrix(Ra @ Rb.T).as_rotvec()))
            assert abs(got - expect) <= 1e-9
            assert abs(got - angular_error_rotation(Rb, Ra)) <= 1e-12
            assert got >= 0.0

    def test_rotation_180_degrees(self):
        R = np.diag([1.0, -1.0, -1.0])
        assert angular_error_rotation(np.eye(3), R) == 180.0

    def test_translation_parallel(self):
        T = np.array([80.0, 5.0, 5.0])
        assert angular_error_translation(T, T) == 0.0

    def test_translation_orthogonal(self):
        assert angular_error_translation([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0, abs=1e-12)

    def test_translation_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            T = rng.normal(0, 50, 3)
            if np.linalg.norm(T) < 1e-6:
                continue
            assert angular_error_translation(T, 7.3 * T) == 0.0
            assert angular_error_translation(2.5 * T, T) == 0.0

    def test_translation_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b = rng.normal(0, 10, 3), rng.normal(0, 10, 3)
            assert angular_error_translation(a, b) == pytest.approx(
                angular_error_translation(b, a), abs=1e-12
            )

    def test_translation_zero_raises(self):
        with pytest.raises(ZeroVector):
            angular_error_translation([0, 0, 0], [1, 0, 0])
        with pytest.raises(ZeroVector):
            angular_error_translation([1, 0, 0], [0, 0, 0])

    @given(
        ax=st.floats(-180, 180),
        ay=st.floats(-89, 89),
        az=st.floats(-180, 180),
    )
    @settings(max_examples=200, deadline=None)
    def test_rotation_error_nonnegative_property(self, ax, ay, az):
        R = euler_xyz_intrinsic(ax, ay, az)
        err = angular_error_rotation(np.eye(3), R)
        assert 0.0 <= err <= 180.0
        assert angular_error_rotation(R, R) == 0.0


# ---------------------------------------------------------------------------
# rotation helpers
# ---------------------------------------------------------------------------


class TestRotationHelpers:
    def test_euler_vs_scipy(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b, c = rng.uniform(-180, 180, 3)
            ours = euler_xyz_intrinsic(a, b, c)
            # uppercase seq = intrinsic rotations in scipy
            theirs = Rotation.from_euler("XYZ", [a, b, c], degrees=True).as_matrix()
            assert np.abs(ours - theirs).max() <= 1e-12

    def test_skew_is_cross_product(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            w, x = rng.normal(0, 3, 3), rng.normal(0, 3, 3)
            assert np.allclose(skew(w) @ x, np.cross(w, x), atol=1e-12)

    def test_so3_exp_vs_scipy(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = rng.normal(0, 1.5, 3)
            assert np.abs(so3_exp(w) - Rotation.from_rotvec(w).as_matrix()).max() <= 1e-12

    def test_so3_exp_at_zero(self):
        assert np.array_equal(so3_exp(np.zeros(3)), np.eye(3))
        # tiny angles: smooth, no division blow-up
        w = np.array([1e-12, -2e-12, 3e-13])
        R = so3_exp(w)
        assert np.abs(R - (np.eye(3) + skew(w))).max() < 1e-20

    def test_so3_exp_is_rotation(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            R = so3_exp(rng.normal(0, 2, 3))
            assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
