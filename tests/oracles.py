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
- ``solve_linear_full_svd`` takes the SVD of the whole reduced system, the
  route that the QR-then-SVD of ``lfrect.pose.solve_linear`` replaces.
- ``refine_pose_nested`` is Levenberg-Marquardt as two nested loops steered
  by ``accepted`` and ``converged`` flags, the form that the single loop of
  ``lfrect.pose.refine_pose`` replaces; it also reports why it stopped.
"""

import csv
import io
from pathlib import Path

import numpy as np

from lfrect import pose as lfpose
from lfrect.errors import ConfigError, NumericalFailure
from lfrect.geometry import LFIntrinsics, RelativePose, so3_exp
from lfrect.lfio import CORRESPONDENCE_HEADER
from lfrect.pose import (
    CorrespondenceSet,
    _jacobian,
    _residuals,
    build_dlt_system,
    constraint_matrix,
    normalize_points,
    project_to_SO3,
)
from lfrect.simulate import _grid_offsets

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


def solve_linear_full_svd(corr: CorrespondenceSet) -> tuple[np.ndarray, np.ndarray]:
    """(singular values, W') of the constrained linear solve, from the thin
    SVD of the (6n, 13) reduced system A Q itself, with the sign of W' pinned
    as ``solve_linear`` pins it."""
    Pn1, N1 = normalize_points(corr.first)
    Pn2, N2 = normalize_points(corr.second)
    Q = constraint_matrix(corr.k1, corr.k2, N1, N2)
    _, s, Vt = np.linalg.svd(build_dlt_system(Pn1, Pn2) @ Q, full_matrices=False)
    w16 = Q @ Vt[-1]
    w16 /= np.linalg.norm(w16)
    if w16[np.argmax(np.abs(w16))] < 0:
        w16 = -w16
    return s, w16.reshape(4, 4)


def refine_pose_nested(corr: CorrespondenceSet, initial: RelativePose, cost_trace=None):
    """(pose, final_cost, iterations, stop) of LM refinement with an outer
    loop per linearization and an inner loop per damping trial.  ``stop``
    names the exit: "cost floor", "gradient", "small decrease", "damping
    stall" or "budget".  The step budget and cost floor are read from
    ``lfrect.pose`` at call time, so a test can patch them for both forms."""
    p, e = corr.k1.backproject(corr.first)
    R = initial.R.copy()
    T = initial.T.copy()
    r = _residuals(corr, p, e, R, T)
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
        J = _jacobian(corr, p, e, R, T)
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
            r_new = _residuals(corr, p, e, R_new, T_new)
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
