"""Relative pose estimation between two light-field cameras from LF-point
correspondences.

The estimation pipeline:

1. Normalize both LF-point sets to zero centroid and unit per-axis RMS,
   each by one 4x4 homogeneous matrix N = [diag(v) x; 0 1].
2. Solve a homogeneous linear system for the 4x4 projective map W' between
   the normalized homogeneous LF-points.  The intrinsic structure of the map
   forces its third row to be a combination of the other rows, which a
   16x13 constraint matrix Q builds in; the reduced system is solved by QR,
   then the SVD of the 13x13 triangle.
3. Undo the normalization (W = N2^-1 W' N1) and conjugate by the intrinsic
   blocks to obtain a candidate [R T; 0 1]; project the rotation onto SO(3).
4. Re-solve the translation linearly given the projected rotation.
5. Refine (R, T) by Levenberg-Marquardt on the reprojection residual, with
   the rotation updated on the SO(3) manifold (right-multiplied exponential).

Coplanar scenes make step 2 ambiguous; ``detect_degeneracy`` diagnoses them
before any solving happens.

Steps 4 and 5 and the degeneracy check take the camera model from
``lfrect.geometry``: camera-1 LF-points become a direction and an inverse
depth through ``LFIntrinsics.backproject``, and the predicted camera-2
LF-point is ``LFIntrinsics.project`` of the transformed point.

Vectors of matrix entries ("vec") are row-major throughout this module,
except in ``solve_translation`` where the rotation enters column-stacked;
each function documents which order it uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    CoplanarDegeneracy,
    DegenerateDisparity,
    DegenerateSpread,
    IllConditioned,
    NonPositiveDepth,
    NumericalFailure,
    RankDeficient,
    SingularInput,
)
from .geometry import LFIntrinsics, RelativePose, so3_exp

__all__ = [
    "CorrespondenceSet",
    "ProjectiveSolution",
    "DegeneracyReport",
    "EstimationResult",
    "normalize_points",
    "build_dlt_system",
    "constraint_matrix",
    "solve_linear",
    "project_to_SO3",
    "solve_translation",
    "detect_degeneracy",
    "refine_pose",
    "estimate_pose",
]

# Two smallest singular values closer than this (relatively) mean the null
# space is not unique.
_RANK_GAP = 1e-6

# A second-smallest singular value below this fraction of the largest is
# numerically zero, i.e. the null space has dimension >= 2 regardless of
# how the two zeros compare with each other.
_NULL_FLOOR = 1e-8

# Plane-fit RMS below this fraction of the scene diameter is called coplanar.
_COPLANAR_RATIO = 1e-3

_COND_LIMIT = 1e12

# Total squared reprojection error below this is machine noise (residuals
# around 1e-10 px): refinement stops rather than chase rounding.
_COST_FLOOR = 1e-16

# LM step budget; the stock benchmarks never use more than about 30.
_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class CorrespondenceSet:
    """Matched LF-points of one scene seen by two cameras.

    first / second: (n, 3) arrays of (u_c, v_c, lambda) rows for camera 1
    and camera 2; row i of both arrays is the same scene point.
    """

    first: np.ndarray
    second: np.ndarray
    k1: LFIntrinsics
    k2: LFIntrinsics

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.first, float))
        b = np.ascontiguousarray(np.asarray(self.second, float))
        if a.ndim != 2 or a.shape[1] != 3 or b.shape != a.shape:
            raise ValueError("correspondences must be matching (n, 3) arrays")
        if a.shape[0] < 4:
            raise ValueError("at least 4 correspondences are required")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("correspondences must be finite")
        # Each row as one 48-byte record: equal pairs have equal bytes once
        # + 0.0 has turned -0.0 into 0.0 (NaN, where bytes and == disagree
        # the other way, was rejected above).
        rows = np.hstack([a, b]) + 0.0
        if len(set(rows.view((np.void, 48))[:, 0].tolist())) < len(rows):
            raise ValueError("duplicate correspondence pairs")
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)
        a.flags.writeable = False
        b.flags.writeable = False

    def __len__(self):
        return self.first.shape[0]


@dataclass(frozen=True)
class ProjectiveSolution:
    """Raw output of the linear solve.

    W_prime: the 4x4 map between normalized homogeneous LF-points, with
    row-major vec of unit norm.  W: the same map with normalization undone
    (defined up to scale).  c is the (4,4) entry of the de-normalized,
    intrinsics-conjugated candidate transform and mu = 1/c the overall
    projective scale.  singular_values: spectrum of the reduced design
    matrix (13 values, descending).
    """

    W_prime: np.ndarray
    W: np.ndarray
    mu: float
    c: float
    singular_values: np.ndarray


@dataclass(frozen=True)
class DegeneracyReport:
    """Total-least-squares plane fit of the backprojected scene.

    The scene is flagged coplanar when the fit RMS is below a small
    fraction of the scene diameter (bounding-box diagonal).  ``excluded``
    counts the points left out of the fit as unplaceable in depth.
    """

    coplanar: bool
    normal: np.ndarray
    offset: float
    residual_rms: float
    scene_diameter: float
    excluded: int


@dataclass(frozen=True)
class EstimationResult:
    """Pose estimate with diagnostics of both solver stages."""

    pose: RelativePose
    linear: ProjectiveSolution
    degeneracy: DegeneracyReport
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    refined: bool


def normalize_points(points) -> tuple[np.ndarray, np.ndarray]:
    """Scale and shift (n, 3) LF-point coordinates to zero mean and unit
    per-axis RMS.  Returns (Pn, N): Pn = diag(v) P + x and the 4x4 matrix
    N = [diag(v) x; 0 1] of the same map.  Raises DegenerateSpread if some
    axis has no spread."""
    P = np.asarray(points, float)
    centroid = P.mean(axis=0)
    rms = np.sqrt(((P - centroid) ** 2).mean(axis=0))
    if np.any(rms <= 1e-12):
        raise DegenerateSpread(f"zero spread along axis {int(np.argmin(rms))}")
    v = 1.0 / rms
    x = -v * centroid
    N = np.diag([*v, 1.0])
    N[:3, 3] = x
    return P * v + x, N


def _normalization_inverse(N: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a matrix N from :func:`normalize_points`."""
    v = N.diagonal()[:3]
    Ni = np.diag([*(1.0 / v), 1.0])
    Ni[:3, 3] = -N[:3, 3] / v
    return Ni


def build_dlt_system(Pn1: np.ndarray, Pn2: np.ndarray) -> np.ndarray:
    """The (6n, 16) homogeneous design matrix A with A vec(W') = 0.

    Each correspondence contributes the six cross-product constraints
    p'_i (W' p)_j - p'_j (W' p)_i = 0 between the normalized homogeneous
    LF-points p (a row of Pn1, camera 1) and p' (of Pn2, camera 2); only
    three are independent.  vec(W') is row-major.
    """
    n = Pn1.shape[0]
    P = np.column_stack([Pn1, np.ones(n)])
    Pp = np.column_stack([Pn2, np.ones(n)])
    A = np.zeros((6 * n, 16))
    for r, (i, j) in enumerate(combinations(range(4), 2)):
        block = A[r::6]
        block[:, 4 * j : 4 * j + 4] += Pp[:, i : i + 1] * P
        block[:, 4 * i : 4 * i + 4] -= Pp[:, j : j + 1] * P
    return A


def constraint_matrix(
    k1: LFIntrinsics,
    k2: LFIntrinsics,
    N1: np.ndarray,
    N2: np.ndarray,
) -> np.ndarray:
    """The 16x13 matrix Q lifting the reduced unknown vector to vec(W').

    The rigid transform conjugated by the intrinsic blocks and the
    normalizations leaves W' with only 13 degrees of freedom: its third row
    is alpha' times its fourth row plus a fixed multiple of a vector built
    from the camera-1 side.  With row-major vec(W') = (w1..w16) and the
    extra unknown w0 appended as the 13th entry:

        w9  = alpha' w13
        w10 = alpha' w14
        w11 = alpha' w15 - w0
        w12 = alpha' w16 + alpha w0

    where alpha = x3 - K1 v3 from camera 1's normalization (v3 = N1[2, 2],
    x3 = N1[2, 3]) and alpha' = x3' - K1' v3' from N2.  The reduced vector
    is (w1..w8, w13..w16, w0).
    """
    alpha = N1[2, 3] - k1.K1 * N1[2, 2]
    alpha_p = N2[2, 3] - k2.K1 * N2[2, 2]
    Q = np.zeros((16, 13))
    Q[:8, :8] = np.eye(8)
    Q[8, 8] = alpha_p
    Q[9, 9] = alpha_p
    Q[10, 10] = alpha_p
    Q[10, 12] = -1.0
    Q[11, 11] = alpha_p
    Q[11, 12] = alpha
    Q[12:, 8:12] = np.eye(4)
    return Q


def solve_linear(corr: CorrespondenceSet) -> ProjectiveSolution:
    """Solve the constrained homogeneous system for the projective map.

    The right singular vector of A Q for the smallest singular value gives
    the reduced unknowns; Q lifts them to vec(W').  It is found by QR, then
    the SVD of the 13x13 triangle R, which has the singular values and right
    singular vectors of A Q without forming its (6n, 13) left factor.
    LAPACK's SVD of a tall matrix starts with the same QR, so the result is
    bit for bit what the SVD of A Q itself gives.  Raises RankDeficient
    when the null vector is not unique: either the two smallest singular
    values agree to within a relative gap of 1e-6, or the second-smallest
    is below 1e-8 of the largest (a null space of dimension two or more,
    as a coplanar scene produces, makes both of the smallest values
    numerically zero without making them equal).
    """
    Pn1, N1 = normalize_points(corr.first)
    Pn2, N2 = normalize_points(corr.second)
    A = build_dlt_system(Pn1, Pn2)
    Q = constraint_matrix(corr.k1, corr.k2, N1, N2)
    _, s, Vt = np.linalg.svd(np.linalg.qr(A @ Q, mode="r"), full_matrices=False)
    if s[-1] >= (1.0 - _RANK_GAP) * s[-2] or s[-2] <= _NULL_FLOOR * s[0]:
        raise RankDeficient(
            f"no unique null vector: smallest singular values {s[-1]:.3e} vs {s[-2]:.3e}"
            f" (largest {s[0]:.3e})"
        )
    w16 = Q @ Vt[-1]
    w16 /= np.linalg.norm(w16)
    # SVD sign is arbitrary; pin it for reproducibility.
    if w16[np.argmax(np.abs(w16))] < 0:
        w16 = -w16
    W_prime = w16.reshape(4, 4)
    W = _normalization_inverse(N2) @ W_prime @ N1
    G = corr.k2.matrix_H_inverse() @ W @ corr.k1.matrix_H()
    c = float(G[3, 3])
    if abs(c) <= 1e-15:
        raise RankDeficient("projective scale vanished; geometry is degenerate")
    return ProjectiveSolution(
        W_prime=W_prime, W=W, mu=1.0 / c, c=c, singular_values=s.copy()
    )


def project_to_SO3(M) -> np.ndarray:
    """The rotation closest to M in Frobenius norm, via SVD with the
    determinant forced to +1.  Invariant under positive scaling of M.
    Raises SingularInput when M has a (numerically) zero singular value."""
    M = np.asarray(M, float)
    U, s, Vt = np.linalg.svd(M)
    if s[-1] <= 1e-12 * max(s[0], 1.0):
        raise SingularInput("matrix has a zero singular value")
    D = np.diag([1.0, 1.0, float(np.sign(np.linalg.det(U @ Vt)))])
    return U @ D @ Vt


def _translation_system(corr: CorrespondenceSet):
    """Design matrices (A_R, A_T) of the linear translation constraints.

    For each correspondence, the camera-2 homogeneous LF-point must be
    proportional to the transformed camera-1 point; the three cross-product
    rows that avoid the disparity component are linear and homogeneous in
    (R, T).  A_R multiplies the column-stacked vec(R), A_T multiplies T:
    A_R vec(R) + A_T T = 0 at the true pose.
    """
    p, e = corr.k1.backproject(corr.first)
    k2 = corr.k2
    up = corr.second[:, 0]
    vp = corr.second[:, 1]
    n = len(corr)
    # Row r of R gets per-row coefficient c_r; with column-stacked vec(R),
    # entry r_{ij} sits at index 3*j + i and multiplies c_i * p_j.
    coeff = np.zeros((n, 3, 3))
    coeff[:, 0, 0] = -k2.fx
    coeff[:, 0, 2] = up - k2.cx
    coeff[:, 1, 1] = -k2.fy
    coeff[:, 1, 2] = vp - k2.cy
    coeff[:, 2, 0] = -vp * k2.fx
    coeff[:, 2, 1] = up * k2.fy
    coeff[:, 2, 2] = up * k2.cy - vp * k2.cx
    # A_R[row, 3*j + i] = coeff[row-group, i] * p[j]
    A_R = (coeff[:, :, None, :] * p[:, None, :, None]).reshape(3 * n, 9)
    A_T = (coeff * e[:, None, None]).reshape(3 * n, 3)
    return A_R, A_T


def solve_translation(corr: CorrespondenceSet, R) -> np.ndarray:
    """Linear least-squares translation given a fixed rotation.

    Raises IllConditioned when the translation design matrix has condition
    number above 1e12.
    """
    A_R, A_T = _translation_system(corr)
    vec_R = np.asarray(R, float).reshape(-1, order="F")  # column-stacked
    T, _, _, sv = np.linalg.lstsq(A_T, -A_R @ vec_R, rcond=None)
    if sv[-1] <= 0 or sv[0] / sv[-1] > _COND_LIMIT:
        raise IllConditioned("translation system condition number exceeds 1e12")
    return T


def detect_degeneracy(corr: CorrespondenceSet) -> DegeneracyReport:
    """Fit a total-least-squares plane to the backprojected camera-1 scene.

    The plane is the centroid plus the smallest principal direction of the
    point cloud; the scene counts as coplanar when the orthogonal RMS
    residual is under 1e-3 of the bounding-box diagonal (in that regime a
    plane-induced homography explains the data and the full projective map
    is not unique).

    Points whose measured disparity gives a non-positive, unbounded, or
    wildly outlying depth (over 50x the median either way) cannot be
    placed meaningfully in 3D; they are left out of the plane fit (heavy
    disparity noise on far points causes all three) and counted in the
    report's ``excluded``.  Raises
    DegenerateDisparity / NonPositiveDepth only when fewer than four
    points can be placed.
    """
    p, e = corr.k1.backproject(corr.first)
    # e K2 = -(lambda + K1): zero to working precision is infinite depth.
    at_infinity = np.abs(e * corr.k1.K2) <= 1e-12
    usable = ~at_infinity & (e > 0)
    Z = 1.0 / np.where(usable, e, -1.0)
    if usable.any():
        z_med = float(np.median(Z[usable]))
        usable &= (Z < 50.0 * z_med) & (Z > z_med / 50.0)
    if usable.sum() < 4:
        if at_infinity.any():
            raise DegenerateDisparity("disparities map to infinite depth")
        raise NonPositiveDepth("backprojected points have non-positive depth")
    pts = p[usable] / e[usable, None]
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, s, Vt = np.linalg.svd(centered, full_matrices=False)
    normal = Vt[-1]
    residual_rms = float(s[-1] / np.sqrt(pts.shape[0]))
    diameter = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    coplanar = diameter > 0 and residual_rms / diameter < _COPLANAR_RATIO
    return DegeneracyReport(
        coplanar=coplanar,
        normal=normal,
        offset=float(normal @ centroid),
        residual_rms=residual_rms,
        scene_diameter=diameter,
        excluded=int(usable.size - usable.sum()),
    )


def _residuals(corr: CorrespondenceSet, p, e, R, T):
    """Reprojection residuals (n, 3): predicted minus observed camera-2
    LF-point.  Inf cost signalled by returning None when a transformed
    point reaches zero depth scale."""
    g = p @ R.T + e[:, None] * T
    if np.any(g[:, 2] <= 1e-12):
        return None
    return corr.k2.project(g, e) - corr.second


def _jacobian(corr: CorrespondenceSet, p, e, R, T):
    """Jacobian (3n, 6) of the residuals in (omega, T), where the rotation
    moves as R exp(skew(omega)) (right perturbation, relinearized at R).
    Per-point 3x3 blocks are stored point-last, (3, 3, n), so each product
    runs over n contiguous values; products of blocks sum over b = 0, 1, 2."""
    k2 = corr.k2
    n = len(corr)
    g = p @ R.T + e[:, None] * T
    g3 = g[:, 2]
    drdg = np.zeros((3, 3, n))
    drdg[0, 0] = k2.fx / g3
    drdg[0, 2] = -k2.fx * g[:, 0] / g3**2
    drdg[1, 1] = k2.fy / g3
    drdg[1, 2] = -k2.fy * g[:, 1] / g3**2
    drdg[2, 2] = k2.K2 * e / g3**2
    # d g / d omega = -R skew(p);  d g / d T = e I
    S = np.zeros((3, 3, n))  # skew(p): p_k at (k+2, k+1) and -p_k at (k+1, k+2), mod 3
    S[[2, 0, 1], [1, 2, 0]] = p.T
    S[[1, 2, 0], [2, 0, 1]] = -p.T
    dgdw = -sum(R[:, b, None, None] * S[b] for b in range(3))
    J = np.empty((3, 6, n))
    J[:, :3] = sum(drdg[:, b, None] * dgdw[b] for b in range(3))
    J[:, 3:] = drdg * e
    return J.transpose(2, 0, 1).reshape(3 * n, 6)


def _cost(corr: CorrespondenceSet, p, e, R, T):
    """The residuals r and their summed square; the cost is inf when r is
    None (a point at zero depth scale) or not finite."""
    r = _residuals(corr, p, e, R, T)
    if r is None or not np.all(np.isfinite(r)):
        return r, np.inf
    return r, float(r.reshape(-1) @ r.reshape(-1))


def refine_pose(
    corr: CorrespondenceSet,
    initial: RelativePose,
    cost_trace: list | None = None,
) -> tuple[RelativePose, float, int]:
    """Levenberg-Marquardt refinement of (R, T) on SO(3) x R^3.

    Minimizes the summed squared reprojection residual of all
    correspondences.  Damping starts at 1e-3, falls by 10 after an accepted
    step and rises by 10 after a rejected one; only improving steps are
    accepted, so the cost sequence is monotone.  Refinement stops on:

    - the cost floor: cost at most 1e-16 (residuals at the rounding floor;
      a start at the exact optimum would otherwise burn its budget);
    - the gradient: infinity-norm under 1e-10 at a new linearization;
    - a small decrease: an accepted step gains a relative 1e-12 or less;
    - a damping stall: damping passes 1e12 with no step accepted;
    - the budget: 100 attempted steps.

    Returns (pose, final_cost, iterations); ``iterations`` counts attempted
    LM steps, so ``iterations < _MAX_ITERATIONS`` means the refinement
    stopped before its budget ran out.  When ``cost_trace`` is a list, the
    initial cost and the cost after every accepted step are appended to it
    (a strictly decreasing sequence).  Raises NumericalFailure if the
    residual is non-finite at the initial pose.
    """
    p, e = corr.k1.backproject(corr.first)
    R, T = initial.R.copy(), initial.T.copy()
    r, cost = _cost(corr, p, e, R, T)
    if cost == np.inf:
        raise NumericalFailure("non-finite residual at the initial pose")
    if cost_trace is not None:
        cost_trace.append(cost)
    damping = 1e-3
    iterations = 0
    JtJ = None  # relinearize at the current (R, T)
    while iterations < _MAX_ITERATIONS and cost > _COST_FLOOR:
        if JtJ is None:
            J = _jacobian(corr, p, e, R, T)
            g = J.T @ r.reshape(-1)
            if np.abs(g).max() < 1e-10:
                break
            JtJ = J.T @ J
            D = np.diag(np.maximum(np.diag(JtJ), 1e-12))
        iterations += 1
        try:
            delta = np.linalg.solve(JtJ + damping * D, -g)
        except np.linalg.LinAlgError:
            raise NumericalFailure("normal equations are singular")
        R_new = R @ so3_exp(delta[:3])
        T_new = T + delta[3:]
        r_new, new_cost = _cost(corr, p, e, R_new, T_new)
        if new_cost < cost:
            decrease = (cost - new_cost) / max(cost, 1e-300)
            R, T, r, cost = R_new, T_new, r_new, new_cost
            if cost_trace is not None:
                cost_trace.append(cost)
            damping = max(damping * 0.1, 1e-15)
            if decrease < 1e-12:
                break
            JtJ = None
        else:
            damping *= 10.0
            if damping > 1e12:
                break
    # Re-orthonormalize drift accumulated over many manifold steps.
    R = project_to_SO3(R)
    return RelativePose(R, T), cost, iterations


def estimate_pose(corr: CorrespondenceSet, refine: bool = True) -> EstimationResult:
    """Full pose estimation from LF-point correspondences.

    Runs the degeneracy check, the constrained linear solve, rotation
    projection, linear translation recovery and (by default) LM refinement.
    Raises CoplanarDegeneracy for coplanar scenes (the report rides on the
    exception) and propagates the component errors otherwise.
    """
    report = detect_degeneracy(corr)
    if report.coplanar:
        raise CoplanarDegeneracy(
            "scene is coplanar (plane RMS "
            f"{report.residual_rms:.3g} mm over diameter "
            f"{report.scene_diameter:.3g} mm); pose is not unique",
            report=report,
        )
    sol = solve_linear(corr)
    G = corr.k2.matrix_H_inverse() @ (sol.W @ corr.k1.matrix_H()) / sol.c
    R0 = project_to_SO3(G[:3, :3])
    pose = RelativePose(R0, solve_translation(corr, R0))
    _, initial_cost = _cost(corr, *corr.k1.backproject(corr.first), pose.R, pose.T)
    final_cost, iterations = initial_cost, 0
    if refine:
        pose, final_cost, iterations = refine_pose(corr, pose)
    # A refinement that ran out of its iteration budget is conservatively
    # reported as not converged.
    return EstimationResult(
        pose=pose,
        linear=sol,
        degeneracy=report,
        initial_cost=initial_cost,
        final_cost=final_cost,
        iterations=iterations,
        converged=iterations < _MAX_ITERATIONS,
        refined=bool(refine),
    )
