"""Reference implementations and measurement helpers that only tests use.

The package keeps one array-based implementation per operation.  What is
here either restates one of those operations in its obvious scalar form, so
tests can compare the package against it, or measures rendered images
(corner positions, blob centroids, line fits) to check the package's
geometry from the outside:

- ``project_corner_observations``, ``add_observation_noise`` and
  ``refit_lfpoint`` are the per-point form of the batch observation model
  in ``lfrect.simulate``.  ``project_corner_observations`` projects through
  the 4x4 matrix ``LFIntrinsics.matrix_H``, independently of
  ``LFIntrinsics.project``; ``refit_lfpoint`` solves the general
  least-squares problem that ``_refit_batch`` solves in closed form.  Both
  return plain arrays.
- ``warp_ray_geometric`` moves the two anchor points of a ray and
  re-intersects the planes, an independent derivation of the closed-form
  ``lfrect.rectify.warp_rays``.
- ``checkerboard_texture`` and ``blob_texture`` are scene textures for the
  rendered test pairs; ``refine_checkerboard_corner``, ``fit_line_tls`` and
  ``blob_centroid`` measure them in the rendered images.
- ``read_correspondence_csv_by_line`` converts a correspondence CSV one row
  at a time, and ``has_duplicate_pairs`` finds repeated pairs with a set of
  tuples: the forms that ``lfrect.lfio.read_correspondence_csv`` and the
  row-bytes duplicate check of ``lfrect.pose.CorrespondenceSet`` replace.
- ``build_dlt_system_strided`` fills the C-ordered (6n, 16) design matrix
  six strided row blocks at a time, the form that the transposed fill of
  ``lfrect.pose.build_dlt_system`` replaces.  ``solve_linear_full_svd``
  takes the SVD of the whole reduced system A Q, formed from that C-ordered
  matrix, the route that the QR-then-SVD of ``lfrect.pose.solve_linear``
  replaces.
- ``normalize_points_broadcast``, ``detect_degeneracy_gathered``,
  ``residuals_broadcast`` (with ``project_column_stack``) and
  ``jacobian_zero_filled`` broadcast each per-point pass over rows of three,
  gather the usable points even when all are usable, take the median with
  ``np.median`` and build the Jacobian from zero-filled 3x3 blocks: the
  forms that the column-by-column passes of ``lfrect.pose`` (and of
  ``LFIntrinsics.project``) replace, bit for bit.
- ``refine_pose_nested`` is Levenberg-Marquardt as two nested loops steered
  by ``accepted`` and ``converged`` flags, the form that the single loop of
  ``lfrect.pose.refine_pose`` replaces; it also reports why it stopped.
- ``simulate_one_shot`` observes each camera's whole sample grid
  (``_observe_batch``), draws its noise in one call and re-fits all
  LF-points at once, the form that the point blocks of
  ``lfrect.simulate.simulate_correspondences`` replace.
- ``read_pnm_tokens_bytewise`` scans a Netpbm header one byte at a time,
  the form that the header pattern of ``lfrect.lfio`` replaces.
- ``plan_aligned_grid_masked`` plans the rectified grid from a validity
  mask per sub-aperture, with fallbacks for rows and columns whose central
  ray does not warp; ``lfrect.resample.plan_aligned_grid`` reads each
  camera's plan straight off its central row and column instead, since a
  camera's central rays warp all or none.
- ``render_synthetic_lf_whole`` ray-traces each sub-aperture's whole
  supersampled ray bundle as (n, 3) arrays, the form that the bands of
  pixel rows of ``lfrect.simulate.render_synthetic_lf`` replace.
"""

import csv
import io
from itertools import combinations
from pathlib import Path

import numpy as np

from lfrect import pose as lfpose
from lfrect.errors import (
    ConfigError,
    DegenerateDisparity,
    DegenerateSpread,
    NonPositiveDepth,
    NumericalFailure,
)
from lfrect.geometry import LFIntrinsics, RelativePose, so3_exp
from lfrect.errors import NoOverlap
from lfrect.lfio import CORRESPONDENCE_HEADER
from lfrect.pose import (
    CorrespondenceSet,
    DegeneracyReport,
    _jacobian,
    _residuals,
    constraint_matrix,
    normalize_points,
    project_to_SO3,
)
from lfrect.rectify import warp_rays
from lfrect.resample import _EDGE_TOL, AlignedGrid, SampledLF, SpatialMapping
from lfrect.simulate import (
    RenderGrid,
    SimConfig,
    _corner_arrays,
    _grid_offsets,
    _refit_batch,
)

_EPS = 1e-12


# --------------------------------------------------------------------------
# Scalar observation model
# --------------------------------------------------------------------------


def project_corner_observations(point, k: LFIntrinsics, grid_shape=(13, 13)) -> np.ndarray:
    """Noise-free per-sub-aperture pixel observations of one scene point.

    The LF-point is the de-homogenized ``k.matrix_H() @ [X, Y, Z, 1]``, not
    ``k.project``.  Returns (rows, cols, 2): entry (i, j) holds the (u, v)
    projection into sub-aperture (i, j), displaced from the central view by
    the grid offset times the disparity.
    """
    h = k.matrix_H() @ np.append(np.asarray(point, float), 1.0)
    u_c, v_c, lam = h[:3] / h[3]
    di = _grid_offsets(grid_shape[0])
    dj = _grid_offsets(grid_shape[1])
    obs = np.empty((grid_shape[0], grid_shape[1], 2))
    obs[:, :, 0] = u_c + dj[None, :] * lam
    obs[:, :, 1] = v_c + di[:, None] * lam
    return obs


def add_observation_noise(obs: np.ndarray, sigma_px: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. Gaussian pixel noise on every observation coordinate."""
    if sigma_px < 0:
        raise ValueError("sigma must be non-negative")
    obs = np.asarray(obs, float)
    if sigma_px == 0:
        return obs.copy()
    return obs + rng.normal(0.0, sigma_px, obs.shape)


def refit_lfpoint(obs: np.ndarray) -> np.ndarray:
    """Least-squares LF-point (u_c, v_c, lambda) from per-sub-aperture
    observations.

    ``obs`` is (rows, cols, 2) as produced by
    :func:`project_corner_observations`.  Raises ValueError when the grid
    has a single sub-aperture (the disparity is then unobservable).
    """
    obs = np.asarray(obs, float)
    if obs.ndim != 3 or obs.shape[2] != 2:
        raise ValueError("observations must be (rows, cols, 2)")
    ni, nj = obs.shape[:2]
    if ni * nj < 2:
        raise ValueError("need observations from at least two sub-apertures")
    di = _grid_offsets(ni)
    dj = _grid_offsets(nj)
    jj = np.broadcast_to(dj[None, :], (ni, nj)).ravel()
    ii = np.broadcast_to(di[:, None], (ni, nj)).ravel()
    n = ni * nj
    A = np.zeros((2 * n, 3))
    b = np.empty(2 * n)
    A[:n, 0] = 1.0
    A[:n, 2] = jj
    b[:n] = obs[:, :, 0].ravel()
    A[n:, 1] = 1.0
    A[n:, 2] = ii
    b[n:] = obs[:, :, 1].ravel()
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return sol


def _observe_batch(lfp: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(n, 3) LF-points -> (n, rows, cols, 2) per-sub-aperture samples."""
    di = _grid_offsets(rows)
    dj = _grid_offsets(cols)
    obs = np.empty((lfp.shape[0], rows, cols, 2))
    obs[..., 0] = lfp[:, 0, None, None] + dj[None, None, :] * lfp[:, 2, None, None]
    obs[..., 1] = lfp[:, 1, None, None] + di[None, :, None] * lfp[:, 2, None, None]
    return obs


def simulate_one_shot(cfg: SimConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(first, second) LF-points of one noisy draw: each camera's whole
    (n, rows, cols, 2) sample grid is observed, gets one noise draw of its
    full shape, and is re-fitted at once."""
    sets = []
    for pts, k in zip(_corner_arrays(cfg), (cfg.k1, cfg.k2)):
        obs = _observe_batch(k.project(pts), cfg.sai_rows, cfg.sai_cols)
        if cfg.sigma_px > 0:
            obs = obs + rng.normal(0.0, cfg.sigma_px, obs.shape)
        sets.append(_refit_batch(obs))
    return sets[0], sets[1]


# --------------------------------------------------------------------------
# Correspondence CSV
# --------------------------------------------------------------------------


def read_correspondence_csv_by_line(path, k1: LFIntrinsics, k2: LFIntrinsics) -> CorrespondenceSet:
    """Read LF-point pairs, skipping blank rows and converting each row as
    it is met; a bad row raises ConfigError naming its line."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or [c.strip() for c in rows[0]] != CORRESPONDENCE_HEADER:
        raise ConfigError(
            f"{path}: first line must be '{','.join(CORRESPONDENCE_HEADER)}'"
        )
    first, second = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 6:
            raise ConfigError(f"{path}:{lineno}: expected 6 columns, got {len(row)}")
        try:
            vals = [float(c) for c in row]
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: {e}") from e
        first.append(vals[:3])
        second.append(vals[3:])
    try:
        return CorrespondenceSet(
            first=np.array(first, float), second=np.array(second, float), k1=k1, k2=k2
        )
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def has_duplicate_pairs(first: np.ndarray, second: np.ndarray) -> bool:
    """Whether two rows of the (n, 3) arrays repeat the same pair, by
    collecting the pairs as tuples of floats in a set."""
    pairs = {(*pa, *pb) for pa, pb in zip(map(tuple, first), map(tuple, second))}
    return len(pairs) != len(first)


def read_pnm_tokens_bytewise(raw: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated tokens of a Netpbm header after
    its magic, honouring '#' comments that run to the end of their line;
    returns (tokens, offset past the single whitespace byte that ends the
    header).  Raises ValueError when the header ends early."""
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(raw):
            raise ValueError("truncated Netpbm header")
        c = raw[i : i + 1]
        if c == b"#":
            while i < len(raw) and raw[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j : j + 1].isspace() and raw[j : j + 1] != b"#":
                j += 1
            tokens.append(raw[i:j])
            i = j
    return tokens, i + 1


def build_dlt_system_strided(Pn1: np.ndarray, Pn2: np.ndarray) -> np.ndarray:
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


def solve_linear_full_svd(corr: CorrespondenceSet) -> tuple[np.ndarray, np.ndarray]:
    """(singular values, W') of the constrained linear solve, from the thin
    SVD of the (6n, 13) reduced system A Q itself, with A C-ordered
    (``build_dlt_system_strided``) and the sign of W' pinned as
    ``solve_linear`` pins it."""
    Pn1, N1 = normalize_points(corr.first)
    Pn2, N2 = normalize_points(corr.second)
    Q = constraint_matrix(corr.k1, corr.k2, N1, N2)
    _, s, Vt = np.linalg.svd(build_dlt_system_strided(Pn1, Pn2) @ Q, full_matrices=False)
    w16 = Q @ Vt[-1]
    w16 /= np.linalg.norm(w16)
    if w16[np.argmax(np.abs(w16))] < 0:
        w16 = -w16
    return s, w16.reshape(4, 4)


def normalize_points_broadcast(points) -> tuple[np.ndarray, np.ndarray]:
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


def detect_degeneracy_gathered(corr: CorrespondenceSet) -> DegeneracyReport:
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
    coplanar = diameter > 0 and residual_rms / diameter < lfpose._COPLANAR_RATIO
    return DegeneracyReport(
        coplanar=coplanar,
        normal=normal,
        offset=float(normal @ centroid),
        residual_rms=residual_rms,
        scene_diameter=diameter,
        excluded=int(usable.size - usable.sum()),
    )


def project_column_stack(k: LFIntrinsics, points, w=1.0) -> np.ndarray:
    """LF-points (n, 3) of (n, 3) scene points (X, Y, Z) with homogeneous
    weight ``w``, a scalar or (n,): (f_x X/Z + c_x, f_y Y/Z + c_y,
    -K1 - K2 w/Z).  Depth is not checked; callers keep Z > 0."""
    X, Y, Z = np.asarray(points, float).T
    return np.column_stack(
        [k.fx * X / Z + k.cx, k.fy * Y / Z + k.cy, -k.K1 - k.K2 * w / Z]
    )


def residuals_broadcast(corr: CorrespondenceSet, R, T):
    """Reprojection residuals (n, 3): predicted minus observed camera-2
    LF-point.  Inf cost signalled by returning None when a transformed
    point reaches zero depth scale."""
    p, e = corr.backprojection
    g = p @ R.T + e[:, None] * T
    if np.any(g[:, 2] <= 1e-12):
        return None
    return project_column_stack(corr.k2, g, e) - corr.second


def jacobian_zero_filled(corr: CorrespondenceSet, R, T):
    """Jacobian (3n, 6) of the residuals in (omega, T), where the rotation
    moves as R exp(skew(omega)) (right perturbation, relinearized at R).
    Per-point 3x3 blocks are stored point-last, (3, 3, n), so each product
    runs over n contiguous values; products of blocks sum over b = 0, 1, 2."""
    p, e = corr.backprojection
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


def refine_pose_nested(corr: CorrespondenceSet, initial: RelativePose, cost_trace=None):
    """(pose, final_cost, iterations, stop) of LM refinement with an outer
    loop per linearization and an inner loop per damping trial.  ``stop``
    names the exit: "cost floor", "gradient", "small decrease", "damping
    stall" or "budget".  The step budget and cost floor are read from
    ``lfrect.pose`` at call time, so a test can patch them for both forms."""
    R = initial.R.copy()
    T = initial.T.copy()
    r = _residuals(corr, R, T)
    if r is None or not np.all(np.isfinite(r)):
        raise NumericalFailure("non-finite residual at the initial pose")
    cost = float(r.reshape(-1) @ r.reshape(-1))
    if cost_trace is not None:
        cost_trace.append(cost)
    damping = 1e-3
    iterations = 0
    converged = False
    stop = "budget"
    while iterations < lfpose._MAX_ITERATIONS:
        if cost <= lfpose._COST_FLOOR:
            converged, stop = True, "cost floor"
            break
        J = _jacobian(corr, R, T)
        rv = r.reshape(-1)
        g = J.T @ rv
        if np.abs(g).max() < 1e-10:
            converged, stop = True, "gradient"
            break
        JtJ = J.T @ J
        accepted = False
        while iterations < lfpose._MAX_ITERATIONS:
            iterations += 1
            D = np.diag(np.maximum(np.diag(JtJ), 1e-12))
            try:
                delta = np.linalg.solve(JtJ + damping * D, -g)
            except np.linalg.LinAlgError:
                raise NumericalFailure("normal equations are singular")
            R_new = R @ so3_exp(delta[:3])
            T_new = T + delta[3:]
            r_new = _residuals(corr, R_new, T_new)
            new_cost = (
                float(r_new.reshape(-1) @ r_new.reshape(-1))
                if r_new is not None and np.all(np.isfinite(r_new))
                else np.inf
            )
            if new_cost < cost:
                decrease = (cost - new_cost) / max(cost, 1e-300)
                R, T, r = R_new, T_new, r_new
                cost = new_cost
                if cost_trace is not None:
                    cost_trace.append(cost)
                damping = max(damping * 0.1, 1e-15)
                accepted = True
                if decrease < 1e-12:
                    converged, stop = True, "small decrease"
                break
            damping *= 10.0
            if damping > 1e12:
                converged, stop = True, "damping stall"
                break
        if converged or not accepted:
            break
    if not np.isfinite(cost):
        raise NumericalFailure("cost is non-finite")
    R = project_to_SO3(R)
    return RelativePose(R, T), cost, iterations, stop


# --------------------------------------------------------------------------
# Geometric ray warp
# --------------------------------------------------------------------------


def warp_ray_geometric(ray: np.ndarray, R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Warp one (s, t, u, v) ray by moving its anchor points (s, t, 0) and
    (s+u, t+v, 1) through X -> R X + T and re-intersecting the moved line
    with the z = 0 and z = 1 planes.  Raises ValueError when the moved
    anchor points share a depth."""
    s, t, u, v = ray
    p1 = R @ np.array([s, t, 0.0]) + T
    p2 = R @ np.array([s + u, t + v, 1.0]) + T
    dz = p1[2] - p2[2]
    if abs(dz) <= _EPS:
        raise ValueError("transformed anchor points share a depth")
    lam1 = p1[2] / dz
    lam2 = (p1[2] - 1.0) / dz
    q1 = p1 + lam1 * (p2 - p1)  # on z = 0
    q2 = p1 + lam2 * (p2 - p1)  # on z = 1
    return np.array([q1[0], q1[1], q2[0] - q1[0], q2[1] - q1[1]])


# --------------------------------------------------------------------------
# Grid planning with a validity mask per sub-aperture
# --------------------------------------------------------------------------


def _warped_centers_masked(lf, R, T):
    """Warp every sub-aperture's central ray (s, t, 0, 0); returns
    (s', t', valid) arrays of shape (n_t, n_s)."""
    S, Tg = np.meshgrid(lf.s_mm, lf.t_mm)
    rays = np.column_stack([S.ravel(), Tg.ravel(), np.zeros((S.size, 2))])
    warped, valid = warp_rays(rays, R, T)
    return warped[:, 0].reshape(S.shape), warped[:, 1].reshape(S.shape), valid.reshape(S.shape)


def _row_representative(values: np.ndarray, valid: np.ndarray, center: int):
    """Representative coordinate of one grid row/column: the central entry
    when valid, otherwise the mean of the valid entries (NaN if none)."""
    if valid[center]:
        return float(values[center])
    if valid.any():
        return float(values[valid].mean())
    return float("nan")


def _representatives(values: np.ndarray, valid: np.ndarray, center: int) -> np.ndarray:
    """:func:`_row_representative` of every row of (values, valid)."""
    return np.array([_row_representative(v, ok, center) for v, ok in zip(values, valid)])


def _valid_range(values: np.ndarray, valid: np.ndarray) -> list:
    """[min, max] of the valid entries ignoring NaNs; NaNs if none is valid."""
    if not valid.any():
        return [float("nan"), float("nan")]
    return [float(np.nanmin(values[valid])), float(np.nanmax(values[valid]))]


def plan_aligned_grid_masked(left, right, setup) -> AlignedGrid:
    """The rectified grid of ``lfrect.resample.plan_aligned_grid``, planned
    from per-sub-aperture validity masks: a row or column whose central
    entry does not warp is represented by the mean of its valid entries,
    and rows or columns with none are left out."""
    sl, tl, vl = _warped_centers_masked(left, setup.R_l, setup.T_l)
    sr, tr, vr = _warped_centers_masked(right, setup.R_r, setup.T_r)
    diagnostics = {
        "left_t_range": _valid_range(tl, vl),
        "right_t_range": _valid_range(tr, vr),
        "left_mappable": int(vl.sum()),
        "right_mappable": int(vr.sum()),
    }
    if not vl.any() or not vr.any():
        raise NoOverlap(
            "a camera has no sub-aperture mappable into the common frame",
            diagnostics=diagnostics,
        )

    ctr_row_l, ctr_col_l = left.n_rows // 2, left.n_cols // 2
    ctr_row_r, ctr_col_r = right.n_rows // 2, right.n_cols // 2
    pitch = abs(left.pitch_s) if left.n_cols > 1 else abs(left.pitch_t)
    if pitch == 0:
        pitch = 1.0  # single sub-aperture per axis; arbitrary unit lattice

    # Rows: one target row per left grid row.
    row_vals = _representatives(tl, vl, ctr_col_l)
    row_keep = np.isfinite(row_vals)

    # Column lattice anchored at the warped left centre; each source column
    # snaps to lattice index k (meaningless where the column has no value).
    anchor = _row_representative(sl[ctr_row_l], vl[ctr_row_l], ctr_col_l)
    if not np.isfinite(anchor):
        anchor = float(sl[vl].mean())
    col_vals_l = _representatives(sl.T, vl.T, ctr_row_l)
    col_vals_r = _representatives(sr.T, vr.T, ctr_row_r)
    col_ok_l = np.isfinite(col_vals_l)
    col_ok_r = np.isfinite(col_vals_r)
    k_col_l = np.round((np.where(col_ok_l, col_vals_l, anchor) - anchor) / pitch).astype(int)
    k_col_r = np.round((np.where(col_ok_r, col_vals_r, anchor) - anchor) / pitch).astype(int)
    k_left = k_col_l[col_ok_l]
    k_right = k_col_r[col_ok_r]
    if k_left.size == 0 or k_right.size == 0:
        raise NoOverlap("no mappable columns on one side", diagnostics=diagnostics)
    k_min = int(min(k_left.min(), k_right.min()))
    k_max = int(max(k_left.max(), k_right.max()))
    cols_mm = anchor + np.arange(k_min, k_max + 1) * pitch

    rows_sorted_idx = np.argsort(row_vals[row_keep], kind="stable")
    rows_mm = row_vals[row_keep][rows_sorted_idx]
    # Map each surviving left row to its (sorted) target row slot.
    left_row_target = np.full(left.n_rows, -1)
    left_row_target[np.flatnonzero(row_keep)[rows_sorted_idx]] = np.arange(rows_mm.size)

    # Right rows snap to the nearest target row within half a row pitch.
    row_pitch = abs(float(np.diff(rows_mm).mean())) if rows_mm.size > 1 else pitch
    rep_t = _representatives(tr, vr, ctr_col_r)
    dist = np.abs(rows_mm[None, :] - rep_t[:, None])
    right_row_target = dist.argmin(axis=1)
    nearest = dist[np.arange(right.n_rows), right_row_target]
    right_row_keep = np.isfinite(rep_t) & (nearest <= 0.5 * row_pitch + _EDGE_TOL)

    # Each valid sub-aperture on a kept row and column marks its target
    # cell: bit 1 for the left source, bit 2 for the right.
    provenance = np.zeros((rows_mm.size, cols_mm.size), np.int8)
    i, j = np.nonzero(vl & (left_row_target >= 0)[:, None] & col_ok_l)
    provenance[left_row_target[i], k_col_l[j] - k_min] |= 1
    i, j = np.nonzero(vr & right_row_keep[:, None] & col_ok_r)
    provenance[right_row_target[i], k_col_r[j] - k_min] |= 2

    if not np.any(np.any(provenance & 1, axis=1) & np.any(provenance & 2, axis=1)):
        raise NoOverlap(
            "no target row receives sub-apertures from both cameras",
            diagnostics=diagnostics,
        )
    grid = AlignedGrid(rows_mm=rows_mm, cols_mm=cols_mm, provenance=provenance)
    # Where every central ray warps, as for the package's planner, each
    # source's snapped columns are those that provenance credits to it.
    if vl.all() and vr.all():
        assert np.array_equal(grid.left_cols_mm, np.unique(anchor + k_left * pitch))
        assert np.array_equal(grid.right_cols_mm, np.unique(anchor + k_right * pitch))
    return grid


# --------------------------------------------------------------------------
# Whole-bundle light-field renderer
# --------------------------------------------------------------------------


def render_synthetic_lf_whole(
    scene: list,
    k: LFIntrinsics,
    world_from_camera: RelativePose,
    grid: RenderGrid,
) -> SampledLF:
    """``lfrect.simulate.render_synthetic_lf`` as it traced each
    sub-aperture's whole supersampled ray bundle at once, the form that
    its bands of pixel rows replace; same arguments, same result."""
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


# --------------------------------------------------------------------------
# Test-scene textures
# --------------------------------------------------------------------------


def checkerboard_texture(square_mm: float, low: float = 0.15, high: float = 0.85):
    """Axis-aligned checkerboard with the given square size."""

    def tex(a, b):
        parity = (np.floor(a / square_mm) + np.floor(b / square_mm)) % 2
        return np.where(parity > 0.5, high, low)

    return tex


def blob_texture(centers_mm, sigma_mm: float, background: float = 0.1, amplitude: float = 0.8):
    """Isolated Gaussian bright spots on a uniform background."""
    centers = np.asarray(centers_mm, float).reshape(-1, 2)

    def tex(a, b):
        acc = np.full_like(np.asarray(a, float), background)
        for ca, cb in centers:
            acc = acc + amplitude * np.exp(
                -((a - ca) ** 2 + (b - cb) ** 2) / (2 * sigma_mm**2)
            )
        return np.clip(acc, 0.0, 1.0)

    return tex


# --------------------------------------------------------------------------
# Feature measurement on rendered images
# --------------------------------------------------------------------------


def refine_checkerboard_corner(
    image: np.ndarray,
    guess_xy,
    half_window: int = 6,
    iterations: int = 12,
) -> tuple[float, float]:
    """Sub-pixel corner position by the gradient-orthogonality criterion.

    At a checkerboard corner every image gradient in the neighborhood is
    orthogonal to the vector from the corner to the gradient's pixel, so
    the corner solves sum(g g^T) q = sum(g g^T p).  The window re-centres
    on the running estimate each iteration.  Coordinates are (x, y) =
    (column, row), pixel centres at integers.
    """
    img = np.asarray(image, float)
    x, y = float(guess_xy[0]), float(guess_xy[1])
    H, W = img.shape
    for _ in range(iterations):
        cx, cy = int(round(x)), int(round(y))
        x0, x1 = cx - half_window, cx + half_window
        y0, y1 = cy - half_window, cy + half_window
        if x0 < 1 or y0 < 1 or x1 >= W - 1 or y1 >= H - 1:
            raise ValueError("corner window leaves the image")
        gx = 0.5 * (img[y0:y1 + 1, x0 + 1:x1 + 2] - img[y0:y1 + 1, x0 - 1:x1])
        gy = 0.5 * (img[y0 + 1:y1 + 2, x0:x1 + 1] - img[y0 - 1:y1, x0:x1 + 1])
        px, py = np.meshgrid(np.arange(x0, x1 + 1, dtype=float), np.arange(y0, y1 + 1, dtype=float))
        d2 = (px - x) ** 2 + (py - y) ** 2
        w = np.exp(-d2 / (2.0 * (half_window / 2.0) ** 2))
        gxx = (w * gx * gx).sum()
        gyy = (w * gy * gy).sum()
        gxy = (w * gx * gy).sum()
        bx = (w * (gx * gx * px + gx * gy * py)).sum()
        by = (w * (gx * gy * px + gy * gy * py)).sum()
        det = gxx * gyy - gxy * gxy
        if abs(det) <= 1e-12 * max(gxx + gyy, 1e-300) ** 2:
            raise ValueError("gradient structure is degenerate at the corner")
        nx = (gyy * bx - gxy * by) / det
        ny = (gxx * by - gxy * bx) / det
        shift = max(abs(nx - x), abs(ny - y))
        x, y = nx, ny
        if shift < 1e-4:
            break
    return x, y


def fit_line_tls(x: np.ndarray, y: np.ndarray):
    """Total-least-squares line fit.

    Returns (point, direction, rms): the centroid, the unit direction of
    largest spread, and the RMS orthogonal residual.
    """
    pts = np.column_stack([np.asarray(x, float), np.asarray(y, float)])
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, s, Vt = np.linalg.svd(centered, full_matrices=False)
    rms = float(s[-1] / np.sqrt(pts.shape[0]))
    return centroid, Vt[0], rms


def blob_centroid(line: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Sub-pixel position of a single bright blob on one scan line, by the
    intensity-squared centroid above the line's median."""
    line = np.asarray(line, float)
    if mask is None:
        mask = np.ones(line.shape, bool)
    vals = np.where(mask, line, 0.0)
    base = np.median(vals[mask]) if mask.any() else 0.0
    w = np.clip(vals - base, 0.0, None) ** 2
    total = w.sum()
    if total <= 0:
        raise ValueError("no blob signal on the scan line")
    return float((w * np.arange(line.size)).sum() / total)
