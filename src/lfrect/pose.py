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
LF-point is ``LFIntrinsics.project`` of the transformed point.  A
``CorrespondenceSet`` backprojects its camera-1 points on first use of
``backprojection`` and keeps the read-only result, so every stage of one
estimate reads the same (p, e).

The per-point passes of the normalization, the degeneracy check, the
residuals, the Jacobian and the duplicate check run each numpy call over
all n points, a column of an (n, 3) array or a row of a point-last array,
rather than over n rows of three, and fill no temporary with structural
zeros.  The axis-0 means stay over (n, 3) rows, since their summation
order sets their bits.  The arrays handed on (the normalized points, the
residuals, the Jacobian) keep their shapes, their C order and their bits,
so the products, the QR and ``lstsq`` that read them see the same input.

Vectors of matrix entries ("vec") are row-major throughout this module,
except in ``solve_translation`` where the rotation enters column-stacked;
each function documents which order it uses.
"""

from __future__ import annotations

from functools import cached_property
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
from .geometry import LFIntrinsics, RelativePose, bind_arrays, so3_exp, value_type

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


# Odd, so multiplying by it permutes the uint64 values.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _pair_hashes(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """One uint64 hash per row of the (n, 3) arrays: the six coordinates'
    float64 words, taken after + 0.0 has turned -0.0 into 0.0 so that
    equal pairs have equal words (NaN, where words and == disagree the
    other way, is rejected before this runs), folded as h = h * m ^ w."""
    words = np.empty((6, first.shape[0]))
    words[:3] = first.T
    words[3:] = second.T
    words += 0.0
    w = words.view(np.uint64)
    h = w[0].copy()
    for k in range(1, 6):
        h *= _HASH_MULTIPLIER
        h ^= w[k]
    return h


@value_type
class CorrespondenceSet:
    """Matched LF-points of one scene seen by two cameras.

    first / second: (n, 3) arrays of (u_c, v_c, lambda) rows for camera 1
    and camera 2; row i of both arrays is the same scene point.  Both are
    read-only copies of what the caller passed.
    """

    first: np.ndarray
    second: np.ndarray
    k1: LFIntrinsics
    k2: LFIntrinsics

    def __post_init__(self):
        a = np.array(self.first, float, order="C")
        b = np.array(self.second, float, order="C")
        if a.ndim != 2 or a.shape[1] != 3 or b.shape != a.shape:
            raise ValueError("correspondences must be matching (n, 3) arrays")
        if a.shape[0] < 4:
            raise ValueError("at least 4 correspondences are required")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("correspondences must be finite")
        # Equal pairs hash equal, so only a hash shared by two sorted
        # neighbours calls for comparing the rows themselves, each as one
        # 48-byte record.
        hashes = np.sort(_pair_hashes(a, b))
        if np.any(hashes[1:] == hashes[:-1]):
            rows = np.hstack([a, b]) + 0.0
            if len(set(rows.view((np.void, 48))[:, 0].tolist())) < len(rows):
                raise ValueError("duplicate correspondence pairs")
        bind_arrays(self, first=a, second=b)

    def __len__(self):
        return self.first.shape[0]

    @cached_property
    def backprojection(self) -> tuple[np.ndarray, np.ndarray]:
        """(p, e) of the camera-1 points (``LFIntrinsics.backproject``),
        computed once and read-only."""
        p, e = self.k1.backproject(self.first)
        p.flags.writeable = e.flags.writeable = False
        return p, e


@value_type
class ProjectiveSolution:
    """Raw output of the linear solve.

    W_prime: the 4x4 map between normalized homogeneous LF-points, with
    row-major vec of unit norm.  W: the same map with normalization undone
    (defined up to scale).  c is the (4,4) entry of the de-normalized,
    intrinsics-conjugated candidate transform; 1/c is the overall
    projective scale.  singular_values: spectrum of the reduced design
    matrix (13 values, descending).
    """

    W_prime: np.ndarray
    W: np.ndarray
    c: float
    singular_values: np.ndarray

    def __post_init__(self):
        bind_arrays(self, **{n: np.array(getattr(self, n)) for n in ("W_prime", "W", "singular_values")})


@value_type
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

    def __post_init__(self):
        bind_arrays(self, normal=np.array(self.normal, float))


@value_type
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
    Pn = np.empty(P.shape)
    for j in range(3):
        np.multiply(P[:, j], v[j], out=Pn[:, j])
        Pn[:, j] += x[j]
    return Pn, N


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

    A is the transpose view of a C-ordered (16, 6n) array, so A.T is
    contiguous and a product Q.T @ A.T comes out ready for LAPACK's
    column-major QR.  Each entry is 0.0 + p'_i p_k or 0.0 - p'_j p_k,
    rounded as that sum, so a -0.0 product is stored as +0.0.
    """
    n = Pn1.shape[0]
    P = np.vstack([Pn1.T, np.ones(n)])
    Pp = np.vstack([Pn2.T, np.ones(n)])
    outer = Pp[:, None] * P  # outer[i, k, m] = p'_i p_k of point m
    At = np.zeros((16, n, 6))  # A[6m + r, 4j + k] at At[4j + k, m, r]
    for r, (i, j) in enumerate(combinations(range(4), 2)):
        np.add(outer[i], 0.0, out=At[4 * j : 4 * j + 4, :, r])
        np.subtract(0.0, outer[j], out=At[4 * i : 4 * i + 4, :, r])
    return At.reshape(16, 6 * n).T


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

    A Q is formed as (Q.T A.T).T, which is column-major, so the QR's copy
    into LAPACK's buffer reads whole columns.  A itself is freed once A Q
    is formed, before the QR copies A Q, so the peak is A plus A Q rather
    than A plus two copies of A Q.
    """
    Pn1, N1 = normalize_points(corr.first)
    Pn2, N2 = normalize_points(corr.second)
    Q = constraint_matrix(corr.k1, corr.k2, N1, N2)
    AQ = (Q.T @ build_dlt_system(Pn1, Pn2).T).T
    _, s, Vt = np.linalg.svd(np.linalg.qr(AQ, mode="r"), full_matrices=False)
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
    return ProjectiveSolution(W_prime=W_prime, W=W, c=c, singular_values=s)


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
    p, e = corr.backprojection
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


def _median(a: np.ndarray) -> float:
    """``np.median`` of a 1-D array without NaNs, bit for bit: the middle
    value, or the mean of the two middle values.  ``np.median`` itself
    imports ``numpy.ma`` on its first call."""
    k = a.size // 2
    if a.size % 2:
        return float(np.partition(a, k)[k])
    lo, hi = np.partition(a, (k - 1, k))[k - 1 : k + 1]
    return float((lo + hi) / 2)


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
    p, e = corr.backprojection
    # e K2 = -(lambda + K1): zero to working precision is infinite depth.
    at_infinity = np.abs(e * corr.k1.K2) <= 1e-12
    usable = ~at_infinity & (e > 0)
    Z = 1.0 / np.where(usable, e, -1.0)
    if usable.any():
        z_med = _median(Z[usable])
        usable &= (Z < 50.0 * z_med) & (Z > z_med / 50.0)
    count = int(np.count_nonzero(usable))
    if count < 4:
        if at_infinity.any():
            raise DegenerateDisparity("disparities map to infinite depth")
        raise NonPositiveDepth("backprojected points have non-positive depth")
    if count < usable.size:
        p, e = p[usable], e[usable]
    ptsT = np.divide(p.T, e, order="C")  # each coordinate a contiguous run
    # The mean's summation order, which sets its bits, is that of (n, 3)
    # rows; the SVD reads the centred values in any layout.
    centroid = ptsT.T.copy().mean(axis=0)
    diameter = float(np.linalg.norm(ptsT.max(axis=1) - ptsT.min(axis=1)))
    ptsT -= centroid[:, None]
    _, s, Vt = np.linalg.svd(ptsT.T, full_matrices=False)
    normal = Vt[-1]
    residual_rms = float(s[-1] / np.sqrt(count))
    coplanar = diameter > 0 and residual_rms / diameter < _COPLANAR_RATIO
    return DegeneracyReport(
        coplanar=coplanar,
        normal=normal,
        offset=float(normal @ centroid),
        residual_rms=residual_rms,
        scene_diameter=diameter,
        excluded=usable.size - count,
    )


def _transformed(corr: CorrespondenceSet, R, T) -> np.ndarray:
    """The camera-1 points moved into camera 2, (n, 3): p R^T + e T, with
    e T added one column at a time."""
    p, e = corr.backprojection
    g = p @ R.T
    for j in range(3):
        g[:, j] += e * T[j]
    return g


def _residuals(corr: CorrespondenceSet, R, T):
    """Reprojection residuals (n, 3): predicted minus observed camera-2
    LF-point.  Inf cost signalled by returning None when a transformed
    point reaches zero depth scale."""
    g = _transformed(corr, R, T)
    if np.any(g[:, 2] <= 1e-12):
        return None
    r = corr.k2.project(g, corr.backprojection[1])
    r -= corr.second
    return r


# d g / d omega = -R skew(p).  Column c of skew(p) has two non-zero
# entries, _SKEW_SIGN[c] p[_SKEW_P[c]] in row _SKEW_ROW[c] and
# _SKEW_SIGN[c + 3] p[_SKEW_P[c + 3]] in row _SKEW_ROW[c + 3].
_SKEW_ROW = [1, 0, 0, 2, 2, 1]
_SKEW_P = [2, 2, 1, 1, 0, 0]
_SKEW_SIGN = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def _jacobian(corr: CorrespondenceSet, R, T):
    """Jacobian (3n, 6) of the residuals in (omega, T), where the rotation
    moves as R exp(skew(omega)) (right perturbation, relinearized at R).

    The chain rule d r / d g . d g / d(omega, T) is written out over the
    non-zero entries of d r / d g and skew(p), each entry a run of n
    contiguous values of a point-last (3, 6, n) array.  Every entry has the
    bits of the sum over all three terms of its 3x3 products, zero terms
    included: that sum starts from 0, so a zero in d r / d omega is +0.0
    (here through a leading 0.0 -), and an entry of d r / d T that
    d r / d g leaves zero is 0 * e, which has the sign of e."""
    p, e = corr.backprojection
    k2 = corr.k2
    n = len(corr)
    g = _transformed(corr, R, T)
    g3 = g[:, 2]
    g3sq = g3**2
    # d r / d g: rows (fx/g3, 0, d02), (0, fy/g3, d12) and (0, 0, d22).
    d00 = k2.fx / g3
    d02 = -k2.fx * g[:, 0] / g3sq
    d11 = k2.fy / g3
    d12 = -k2.fy * g[:, 1] / g3sq
    d22 = k2.K2 * e / g3sq
    # u = R skew(p) = -d g / d omega, (3, 3, n).
    pT = p.T
    C = R[:, _SKEW_ROW] * _SKEW_SIGN
    u = C[:, :3, None] * pT[_SKEW_P[:3]]
    u += C[:, 3:, None] * pT[_SKEW_P[3:]]
    # d r / d omega = -(d r / d g) u, as 0.0 - d u_i - d_2 u_2: the leading
    # 0.0 - also makes the sign of a zero in u irrelevant.
    J = np.empty((3, 6, n))
    for i, (d_ii, d_i2) in enumerate(((d00, d02), (d11, d12))):
        np.multiply(u[i], d_ii, out=J[i, :3])
        np.subtract(0.0, J[i, :3], out=J[i, :3])
        J[i, :3] -= u[2] * d_i2
    np.multiply(u[2], d22, out=J[2, :3])
    np.subtract(0.0, J[2, :3], out=J[2, :3])
    # d r / d T = (d r / d g) e, since d g / d T = e I.
    np.multiply(d00, e, out=J[0, 3])
    np.multiply(d11, e, out=J[1, 4])
    np.multiply(d02, e, out=J[0, 5])
    np.multiply(d12, e, out=J[1, 5])
    np.multiply(d22, e, out=J[2, 5])
    J[1:, 3] = J[::2, 4] = 0.0 * e
    return J.transpose(2, 0, 1).reshape(3 * n, 6)


def _cost(corr: CorrespondenceSet, R, T):
    """The residuals r and their summed square; the cost is inf when r is
    None (a point at zero depth scale) or not finite."""
    r = _residuals(corr, R, T)
    if r is None or not np.all(np.isfinite(r)):
        return r, np.inf
    return r, float(r.reshape(-1) @ r.reshape(-1))


def refine_pose(corr: CorrespondenceSet, initial: RelativePose) -> tuple[RelativePose, list, int]:
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

    Returns (pose, costs, iterations).  ``costs`` is the cost at
    ``initial`` followed by the cost after each accepted step, a strictly
    decreasing sequence whose last entry is the cost at ``pose``.
    ``iterations`` counts attempted LM steps, so ``iterations <
    _MAX_ITERATIONS`` means the refinement stopped before its budget ran
    out.  Raises NumericalFailure if the residual is non-finite at the
    initial pose.
    """
    R, T = initial.R.copy(), initial.T.copy()
    r, cost = _cost(corr, R, T)
    if cost == np.inf:
        raise NumericalFailure("non-finite residual at the initial pose")
    costs = [cost]
    damping = 1e-3
    iterations = 0
    JtJ = None  # relinearize at the current (R, T)
    while iterations < _MAX_ITERATIONS and cost > _COST_FLOOR:
        if JtJ is None:
            J = _jacobian(corr, R, T)
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
        r_new, new_cost = _cost(corr, R_new, T_new)
        if new_cost < cost:
            decrease = (cost - new_cost) / max(cost, 1e-300)
            R, T, r, cost = R_new, T_new, r_new, new_cost
            costs.append(cost)
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
    return RelativePose(R, T), costs, iterations


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
    if refine:
        pose, costs, iterations = refine_pose(corr, pose)
    else:
        costs, iterations = [_cost(corr, pose.R, pose.T)[1]], 0
    # A refinement that ran out of its iteration budget is conservatively
    # reported as not converged.
    return EstimationResult(
        pose=pose,
        linear=sol,
        degeneracy=report,
        initial_cost=costs[0],
        final_cost=costs[-1],
        iterations=iterations,
        converged=iterations < _MAX_ITERATIONS,
        refined=bool(refine),
    )
