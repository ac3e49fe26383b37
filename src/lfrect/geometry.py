"""Core geometry of plenoptic (light-field) cameras.

COORDINATE AND UNIT CONVENTIONS
-------------------------------
- Camera frames are right-handed: x right, y down, z along the optical axis
  into the scene.  3D coordinates are millimetres.
- An LF-point (u_c, v_c, lambda) summarizes how a scene point appears across
  the sub-aperture images of one light-field camera: (u_c, v_c) is its pixel
  position in the central sub-aperture image and lambda is the horizontal
  (equivalently vertical) pixel disparity between laterally adjacent
  sub-aperture images.  u_c, v_c and lambda are all in pixels.
- The intrinsic model maps a homogeneous scene point [X, Y, Z, 1] to a
  homogeneous LF-point through the 4x4 block

        [ f_x  0   c_x  0  ]
        [ 0   f_y  c_y  0  ]
        [ 0    0  -K1  -K2 ]
        [ 0    0    1   0  ]

  so u_c = f_x X/Z + c_x, v_c = f_y Y/Z + c_y and lambda = -K1 - K2/Z.
  K1 is dimensionless, K2 is in pixel*mm/mm = pixels; for scene points in
  front of the camera and K2 > 0, lambda < -K1.  ``LFIntrinsics.project``
  and ``LFIntrinsics.backproject`` are the package's only implementation of
  this model; both work on (n, 3) arrays.
- A relative pose (R, T) maps camera-1 coordinates into camera-2:
  X_2 = R X_1 + T.  T is millimetres.
- Rotations given as Euler angles use intrinsic rotations about x, then y,
  then z: R = R_x(a) R_y(b) R_z(c).

A ray in two-plane parameterization (s, t, u, v) passes through (s, t, 0) on
the z=0 plane and (s+u, t+v, 1) on the z=1 plane; s, t are millimetres, u, v
are slopes (mm per unit z).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ZeroVector

__all__ = [
    "LFIntrinsics",
    "RelativePose",
    "angular_error_rotation",
    "angular_error_translation",
    "as_rotation",
    "euler_xyz_intrinsic",
    "skew",
    "so3_exp",
]

# Margin (in units of machine epsilon) within which a trace-derived cosine is
# snapped to +-1, so that comparing a rotation against itself yields exactly
# zero instead of the ~1e-8 rad noise floor of arccos near 1.
_COS_SNAP = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class LFIntrinsics:
    """Intrinsic parameters of a light-field camera.

    f_x, f_y, c_x, c_y are the usual pinhole parameters of the central
    sub-aperture image (pixels).  K1 (dimensionless) and K2 (pixels) relate
    scene depth to inter-sub-aperture disparity:
    lambda = -K1 - K2 / Z.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    K1: float
    K2: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if self.K2 == 0:
            raise ValueError("K2 must be nonzero")
        for name in ("fx", "fy", "cx", "cy", "K1", "K2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def matrix_H(self) -> np.ndarray:
        """The 4x4 block mapping homogeneous scene points to homogeneous
        LF-points."""
        return np.array(
            [
                [self.fx, 0.0, self.cx, 0.0],
                [0.0, self.fy, self.cy, 0.0],
                [0.0, 0.0, -self.K1, -self.K2],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )

    def matrix_H_inverse(self) -> np.ndarray:
        """Closed-form inverse of :meth:`matrix_H` (no numerical inverse)."""
        return np.array(
            [
                [1.0 / self.fx, 0.0, 0.0, -self.cx / self.fx],
                [0.0, 1.0 / self.fy, 0.0, -self.cy / self.fy],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0 / self.K2, -self.K1 / self.K2],
            ]
        )

    def project(self, points, w=1.0) -> np.ndarray:
        """LF-points (n, 3) of (n, 3) scene points (X, Y, Z) with homogeneous
        weight ``w``, a scalar or (n,): (f_x X/Z + c_x, f_y Y/Z + c_y,
        -K1 - K2 w/Z).  Depth is not checked; callers keep Z > 0."""
        X, Y, Z = np.asarray(points, float).T
        out = np.empty((X.size, 3))
        u, v, lam = out.T
        np.multiply(X, self.fx, out=u)
        u /= Z
        u += self.cx
        np.multiply(Y, self.fy, out=v)
        v /= Z
        v += self.cy
        np.divide(self.K2 * w, Z, out=lam)
        np.subtract(-self.K1, lam, out=lam)
        return out

    def backproject(self, lfpoints) -> tuple[np.ndarray, np.ndarray]:
        """(p, e) of (n, 3) LF-points: directions p = ((u_c - c_x)/f_x,
        (v_c - c_y)/f_y, 1) and inverse depths e = -(lambda + K1)/K2, so the
        scene point is p / e.  e is 0 at infinite depth, negative behind."""
        u, v, lam = np.asarray(lfpoints, float).T
        a = (u - self.cx) / self.fx
        b = (v - self.cy) / self.fy
        return np.column_stack([a, b, np.ones_like(a)]), -(lam + self.K1) / self.K2


def as_rotation(M, name: str = "R") -> np.ndarray:
    """``M`` as a float array, checked to be a rotation: 3x3, finite,
    orthonormal to 1e-9 and det +1.  A ValueError names ``name``."""
    R = np.asarray(M, dtype=float)
    if R.shape != (3, 3) or not np.isfinite(R).all():
        raise ValueError(f"{name} must be a finite 3x3 matrix")
    if np.abs(R @ R.T - np.eye(3)).max() > 1e-9:
        raise ValueError(f"{name} is not orthonormal to 1e-9")
    if np.linalg.det(R) < 0:
        raise ValueError(f"{name} must have det +1")
    return R


def value_type(cls):
    """``cls`` as a ``dataclass(frozen=True, eq=False)``: ``==`` and ``hash``
    go by identity, and pickle and copy rebuild it through the constructor,
    which validates again and binds the unpickled arrays; every field is an
    argument, and a fact that follows from the fields is a property."""
    cls = dataclass(frozen=True, eq=False)(cls)
    cls.__reduce__ = lambda self: (cls, tuple(getattr(self, f.name) for f in fields(cls)))
    return cls


def bind_arrays(obj, **arrays):
    """Bind a read-only view of each array to frozen ``obj``; the array
    itself keeps its flags."""
    for name, arr in arrays.items():
        view = arr.view()
        view.flags.writeable = False
        object.__setattr__(obj, name, view)


@value_type
class RelativePose:
    """A rigid transform X_2 = R X_1 + T between two camera frames, such as
    the camera pair or a calibration board placed in the camera-1 frame.

    R must be a rotation (see :func:`as_rotation`); T is millimetres.  The
    pose holds read-only copies of both, so the caller's arrays stay its own.
    """

    R: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        R = as_rotation(np.array(self.R, dtype=float))
        T = np.array(self.T, dtype=float).reshape(3)
        if not np.isfinite(T).all():
            raise ValueError("T must be finite")
        bind_arrays(self, R=R, T=T)

    def __repr__(self):
        return f"RelativePose(R={self.R.tolist()}, T={self.T.tolist()})"

    def matrix(self) -> np.ndarray:
        """The 4x4 homogeneous transform [R T; 0 1]."""
        M = np.eye(4)
        M[:3, :3] = self.R
        M[:3, 3] = self.T
        return M

    def inverse(self) -> "RelativePose":
        """The transform mapping frame 2 back into frame 1."""
        return RelativePose(self.R.T, -self.R.T @ self.T)

    def apply(self, points) -> np.ndarray:
        """Transform one (3,) point or an (n, 3) array of points."""
        p = np.asarray(points, dtype=float)
        return p @ self.R.T + self.T


def _arccos_snapped_deg(x: float) -> float:
    """arccos in degrees with the argument clamped to [-1, 1]; values within
    a few machine epsilons of +-1 snap exactly, so self-comparisons return
    exactly 0 (or 180)."""
    if x >= 1.0 - _COS_SNAP:
        return 0.0
    if x <= -1.0 + _COS_SNAP:
        return 180.0
    return float(np.degrees(np.arccos(x)))


def angular_error_rotation(R_true, R_est) -> float:
    """Angle in degrees of the rotation taking R_est to R_true."""
    R_true = np.asarray(R_true, float)
    R_est = np.asarray(R_est, float)
    c = 0.5 * (np.trace(R_true @ R_est.T) - 1.0)
    return _arccos_snapped_deg(c)


def angular_error_translation(T_true, T_est) -> float:
    """Angle in degrees between two translation directions (scale invariant).

    Raises ZeroVector if either argument has zero length.
    """
    a = np.asarray(T_true, float).reshape(3)
    b = np.asarray(T_est, float).reshape(3)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na <= 1e-12 or nb <= 1e-12:
        raise ZeroVector("translation direction has zero length")
    return _arccos_snapped_deg(float(np.dot(a, b) / (na * nb)))


def euler_xyz_intrinsic(ax_deg: float, ay_deg: float, az_deg: float) -> np.ndarray:
    """Rotation matrix from intrinsic x-y-z Euler angles in degrees:
    R = R_x(ax) R_y(ay) R_z(az)."""
    ax, ay, az = np.radians([ax_deg, ay_deg, az_deg])
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return Rx @ Ry @ Rz


def skew(w) -> np.ndarray:
    """The 3x3 cross-product matrix: skew(w) @ x == cross(w, x)."""
    wx, wy, wz = np.asarray(w, float).reshape(3)
    return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])


def so3_exp(w) -> np.ndarray:
    """Rodrigues exponential: the rotation by angle |w| about axis w/|w|.

    Uses series expansions of sin(x)/x and (1-cos(x))/x^2 near zero, so it
    is smooth through w = 0.
    """
    w = np.asarray(w, float).reshape(3)
    theta2 = float(w @ w)
    W = skew(w)
    if theta2 < 1e-16:
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        theta = np.sqrt(theta2)
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    return np.eye(3) + a * W + b * (W @ W)
