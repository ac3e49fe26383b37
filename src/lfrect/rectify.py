"""Rectification of a light-field camera pair into one common two-plane
parameterization.

A ray (s, t, u, v) lives in the TPP of one camera: it passes through
(s, t, 0) and (s+u, t+v, 1) in that camera's frame.  Warping a ray into
another frame means rigidly moving those two anchor points and re-intersecting
the moved line with the new frame's z=0 and z=1 planes.  The module
implements the closed form obtained by eliminating the intermediate points,
split into a slope half (``warp_slopes``, which depends only on the
rotation) and a position half (``warp_positions``); ``warp_rays`` applies
both to an (n, 4) ray bundle.  The explicit geometric construction is kept
with the tests as an independent cross-check.

The rectifying rotation builds a frame whose x-axis is the baseline, so that
after warping both light fields, corresponding sub-apertures sit on common
horizontal lines and matching scan lines are vertically aligned.

POSE DIRECTION.  All functions in this module take the transform that maps
CAMERA-2 COORDINATES INTO CAMERA-1 (X_1 = R X_2 + T): with that convention
``R_rect`` applied to both cameras puts camera 2 at baseline distance along
the common +x axis.  The estimation pipeline produces the camera-1-to-camera-2
transform; invert it (``pose.inverse()``) before building a rectified setup.
"""

from __future__ import annotations

import numpy as np

from .errors import CollinearConstruction, ZeroBaseline
from .geometry import RelativePose, as_rotation, bind_arrays, value_type

__all__ = [
    "RectifiedSetup",
    "warp_rays",
    "warp_slopes",
    "warp_positions",
    "rectifying_rotation",
    "build_rectified_setup",
]

_EPS = 1e-12


# The left camera's translation into the common frame, which it anchors.
_ZERO = np.zeros(3)
_ZERO.flags.writeable = False


@value_type
class RectifiedSetup:
    """The rigid transforms taking each camera's TPP into the common one.

    R_rect is the rectifying rotation; the left camera moves by
    (R_l, T_l) = (R_rect, 0), two properties, and the right camera by
    (R_r, T_r) = (R_rect R, R_rect T), which places the right camera at
    (baseline_mm, 0, 0) in the common frame.  T_r is stored, not derived:
    its first entry is computed as R_rect[0] @ T and baseline_mm as |T|,
    which may differ in the last bits, so it is checked against baseline_mm
    to 1e-9 relative.
    """

    R_rect: np.ndarray
    R_r: np.ndarray
    T_r: np.ndarray
    baseline_mm: float

    def __post_init__(self):
        R_rect, R_r = (as_rotation(np.array(getattr(self, n), float), n) for n in ("R_rect", "R_r"))
        T_r = np.array(self.T_r, float).reshape(3)
        if not np.isfinite(T_r).all():
            raise ValueError("T_r must be finite")
        if not 0 < self.baseline_mm < np.inf:
            raise ValueError("baseline must be positive and finite")
        # The right camera must sit on the common x-axis, at the baseline.
        if np.abs(T_r[1:]).max() > 1e-9 * max(self.baseline_mm, 1.0):
            raise ValueError("T_r must be aligned with the common x-axis")
        if abs(T_r[0] - self.baseline_mm) > 1e-9 * self.baseline_mm:
            raise ValueError(
                f"T_r[0] = {float(T_r[0])!r} is not baseline_mm = {float(self.baseline_mm)!r} to 1e-9"
            )
        bind_arrays(self, R_rect=R_rect, R_r=R_r, T_r=T_r)

    @property
    def R_l(self) -> np.ndarray:
        """The left camera's rotation into the common frame: R_rect."""
        return self.R_rect

    @property
    def T_l(self) -> np.ndarray:
        """The left camera's translation into the common frame: zero."""
        return _ZERO


def warp_slopes(u, v, R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slope half of the closed-form warp: (u', v', valid) for slopes
    (u, v) under the rotation R (a float (3, 3) array).

    The warped slopes depend on neither the ray's position nor the
    translation, so rays sharing slopes share this half.  Entries with
    |denominator| <= 1e-12 are invalid; their u', v' are finite but
    meaningless.
    """
    num_u = R[0, 2] + R[0, 0] * u + R[0, 1] * v
    num_v = R[1, 2] + R[1, 0] * u + R[1, 1] * v
    den = R[2, 2] + R[2, 0] * u + R[2, 1] * v
    valid = np.abs(den) > _EPS
    safe = np.where(valid, den, 1.0)
    return num_u / safe, num_v / safe, valid


def warp_positions(s, t, u_p, v_p, R: np.ndarray, T: np.ndarray):
    """Position half of the closed-form warp: (s', t') of rays through
    (s, t) whose warped slopes are (u_p, v_p), from :func:`warp_slopes`."""
    z_s = T[2] + R[2, 0] * s + R[2, 1] * t  # depth of the moved z=0 anchor
    s_p = T[0] + R[0, 0] * s + R[0, 1] * t - z_s * u_p
    t_p = T[1] + R[1, 0] * s + R[1, 1] * t - z_s * v_p
    return s_p, t_p


def warp_rays(rays: np.ndarray, R, T) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form warp of an (n, 4) ray bundle; no exceptions.

    Returns (warped, valid); rays parallel to the target planes
    (|denominator| <= 1e-12) are invalid and their warped values are zeros.
    """
    rays = np.asarray(rays, float)
    R = np.asarray(R, float)
    T = np.asarray(T, float).reshape(3)
    s, t, u, v = rays.T
    u_p, v_p, valid = warp_slopes(u, v, R)
    s_p, t_p = warp_positions(s, t, u_p, v_p, R, T)
    out = np.column_stack([s_p, t_p, u_p, v_p])
    out[~valid] = 0.0
    return out, valid


def rectifying_rotation(pose_2to1: RelativePose) -> np.ndarray:
    """Rotation whose rows are the axes of the common rectified frame.

    The first axis is the baseline direction e1 = T/|T|.  The second is
    e1 crossed against the mean of the two optical-axis directions (the
    camera-2 z-axis expressed in camera 1, plus the camera-1 z-axis), which
    keeps the common image planes as close as possible to both originals;
    e3 completes the right-handed frame.

    Raises ZeroBaseline when |T| vanishes and CollinearConstruction when
    the baseline is parallel to the axis-mean direction.
    """
    R, T = pose_2to1.R, pose_2to1.T
    norm_T = float(np.linalg.norm(T))
    if norm_T <= 1e-9:
        raise ZeroBaseline("cameras share a centre; no rectifying frame")
    e1 = T / norm_T
    S = R[:, 2] + np.array([0.0, 0.0, 1.0])
    e2_raw = np.cross(T, S)
    n2 = float(np.linalg.norm(e2_raw))
    if n2 <= 1e-12 * max(norm_T * float(np.linalg.norm(S)), 1e-300):
        raise CollinearConstruction("baseline is parallel to the mean optical axis")
    e2 = e2_raw / n2
    e3 = np.cross(e1, e2)
    return np.vstack([e1, e2, e3])


def build_rectified_setup(pose_2to1: RelativePose) -> RectifiedSetup:
    """Assemble the common-frame transforms for both cameras.

    ``pose_2to1`` maps camera-2 coordinates into camera-1 (see the module
    docstring).  The left camera is rotated by R_rect with no translation;
    the right camera lands at (|T|, 0, 0).
    """
    R_rect = rectifying_rotation(pose_2to1)
    R, T = pose_2to1.R, pose_2to1.T
    T_r = R_rect @ T
    baseline = float(np.linalg.norm(T))
    # Rows 2 and 3 of R_rect are orthogonal to T by construction; zero the
    # residual round-off so downstream row alignment is exact.
    T_r = np.array([T_r[0], 0.0, 0.0])
    return RectifiedSetup(R_rect=R_rect, R_r=R_rect @ R, T_r=T_r, baseline_mm=baseline)
