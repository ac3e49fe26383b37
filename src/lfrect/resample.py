"""Resampling of 4D light fields onto a rectified, row-aligned grid.

A :class:`SampledLF` stores sub-aperture images L[t-row, s-col, pixel-row,
pixel-col] together with the grid coordinates of the sub-apertures (mm on
the s/t plane) and the affine map from pixel indices to (u, v) ray slopes.
Luminance is float in [0, 1]; the boolean mask marks valid pixels.

``plan_aligned_grid`` decides where the sub-apertures of a rectified pair
should live: target rows are the left light field's warped rows, target
columns snap both cameras' warped columns to the left angular pitch, so that
sub-apertures of both sources end up interleaved on common horizontal lines.
``iter_aligned_sais`` then renders the target sub-apertures one at a time:
it back-warps every target pixel ray into its source camera and samples the
source light field by 4D multilinear interpolation (2x2 sub-apertures x 2x2
pixels).  Pixels whose interpolation neighborhood leaves the sampled
aperture, or touches any invalid source pixel, are masked out rather than
extrapolated.  ``render_aligned_sais`` gathers the sub-apertures into one
dense light field.

Sampling is split in two halves, and each half drops the queries that
fail its checks before any later work is done for them.  Every target
sub-aperture keeps the left camera's pixel slopes, and a ray's warped
slopes (u', v') depend only on its slopes and the source rotation, so the
first half runs once per source: the slope half of the warp
(``warp_slopes``) and the pixel-extent check, then the pixel-row and
pixel-column cell and fractions of the queries that pass both.  The second
half runs per target sub-aperture on those queries alone: the position
half of the warp (``warp_positions``) gives (s', t'), their sub-aperture
cell and fractions, the s/t extent check and one lookup in the source's
cell-valid mask (``SampledLF.cell_valid``, the AND of the mask over each
2x2x2x2 cell, built once per light field).  Only the queries that land
read the 16 corners of their cell, one ``take`` per corner from the flat
image shifted by the corner's offset, into reused buffers; their values
are then scattered into the output, whose other entries stay 0 and
invalid.  ``sample_rays`` runs both halves back to back for an arbitrary
ray bundle.  Each corner weight is ((w_t * w_s) * w_r) * w_c and the
corners are summed onto 0 in ``product((0, 1), repeat=4)`` order, so a
stored sample reproduces bit for bit, and dropping a query early changes
no bit of any other.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import IndexOutOfRange, NoOverlap
from .rectify import RectifiedSetup, warp_positions, warp_rays, warp_slopes

__all__ = [
    "SpatialMapping",
    "SampledLF",
    "AlignedGrid",
    "EpiImage",
    "plan_aligned_grid",
    "sample_rays",
    "iter_aligned_sais",
    "render_aligned_sais",
    "extract_epi",
]

# Absolute slack (in index units / mm) allowed at hull boundaries before a
# query counts as outside; covers warp round-off without real extrapolation.
_EDGE_TOL = 1e-9

# plan_aligned_grid accepts at most
#   int(_MAX_SPREAD * (baseline + left reach + right reach) / pitch) + 2
# lattice columns, a grid's reach being the hypot of its largest |s| and |t|.
# This guards against runaway allocation; it is not a geometric limit.  A
# camera whose optical axis tilts by theta from the rectified one spreads its
# columns by 1 / cos(theta), which near 90 degrees asks for millions of
# columns that no camera serves.  Two 3x3 grids at 2 mm pitch get 113 columns
# at the pose euler_xyz_intrinsic(0, theta, 0), T = [50, 0, 0] mm, which
# plans for theta up to 88.98 degrees.
_MAX_SPREAD = 4.0


@dataclass(frozen=True)
class SpatialMapping:
    """Affine map from pixel indices to ray slopes: u = u0 + du * col,
    v = v0 + dv * row (pixel centers at integer indices)."""

    u0: float
    du: float
    v0: float
    dv: float

    def __post_init__(self):
        if not np.isfinite([self.u0, self.du, self.v0, self.dv]).all():
            raise ValueError("mapping u0, du, v0, dv must be finite")
        if self.du == 0 or self.dv == 0:
            raise ValueError("pixel pitches du, dv must be nonzero")

    def slopes(self, rows_px, cols_px):
        return self.v0 + self.dv * np.asarray(rows_px, float), self.u0 + self.du * np.asarray(cols_px, float)


def _check_regular(coords: np.ndarray, name: str):
    if coords.ndim != 1 or coords.size == 0:
        raise ValueError(f"{name} must be a non-empty 1D array")
    if not np.isfinite(coords).all():
        raise ValueError(f"{name} must be finite")
    if coords.size >= 2:
        d = np.diff(coords)
        if np.abs(d - d.mean()).max() > 1e-9:
            raise ValueError(f"{name} is not a regular lattice (1e-9 mm)")
        if d.mean() == 0:
            raise ValueError(f"{name} has coincident entries")


@dataclass(frozen=True)
class SampledLF:
    """A sampled 4D light field.

    images: (n_t, n_s, H, W) luminance in [0, 1].
    mask:   same shape, True where the sample is valid.
    s_mm, t_mm: sub-aperture grid coordinates (regular lattices).
    mapping: pixel-to-slope affine map shared by all sub-apertures.
    """

    images: np.ndarray
    mask: np.ndarray
    s_mm: np.ndarray
    t_mm: np.ndarray
    mapping: SpatialMapping

    def __post_init__(self):
        img = np.ascontiguousarray(self.images, float)
        msk = np.asarray(self.mask, bool)
        s = np.asarray(self.s_mm, float)
        t = np.asarray(self.t_mm, float)
        if img.ndim != 4:
            raise ValueError("images must be (n_t, n_s, H, W)")
        if msk.shape != img.shape:
            raise ValueError("mask shape must match images")
        _check_regular(s, "s_mm")
        _check_regular(t, "t_mm")
        if img.shape[0] != t.size or img.shape[1] != s.size:
            raise ValueError("grid coordinate counts must match image layout")
        for arr, name in ((img, "images"), (msk, "mask"), (s, "s_mm"), (t, "t_mm")):
            object.__setattr__(self, name, arr)

    @property
    def n_rows(self) -> int:
        return self.t_mm.size

    @property
    def n_cols(self) -> int:
        return self.s_mm.size

    @property
    def height(self) -> int:
        return self.images.shape[2]

    @property
    def width(self) -> int:
        return self.images.shape[3]

    @property
    def pitch_s(self) -> float:
        return float(self.s_mm[1] - self.s_mm[0]) if self.n_cols > 1 else 0.0

    @property
    def pitch_t(self) -> float:
        return float(self.t_mm[1] - self.t_mm[0]) if self.n_rows > 1 else 0.0

    @cached_property
    def cell_valid(self) -> np.ndarray:
        """AND of ``mask`` over each 2x2x2x2 interpolation cell, indexed
        by the cell's low corner.  The high neighbour on an axis of n
        samples is min(lo + 1, n - 1), so a one-sample axis pairs each
        sample with itself; entries at index n - 1 of a longer axis are
        never a low corner.  Computed on first use; the arrays of a
        SampledLF must not be modified in place after that."""
        cells = self.mask.copy()
        for axis, n in enumerate(cells.shape):
            if n > 1:
                lo = [slice(None)] * 4
                hi = [slice(None)] * 4
                lo[axis] = slice(0, n - 1)
                hi[axis] = slice(1, n)
                cells[tuple(lo)] &= cells[tuple(hi)]
        return cells


@dataclass(frozen=True)
class AlignedGrid:
    """Placement of the rectified output sub-apertures.

    rows_mm: target t coordinates (ascending) = the left LF's warped rows.
    cols_mm: target s coordinates (ascending), a contiguous lattice at the
    left angular pitch covering both cameras' snapped columns.
    provenance: (n_rows, n_cols) int8; bit 1 = supplied by the left source,
    bit 2 = by the right source, 0 = no source (kept to make the lattice
    contiguous, rendered as masked).
    left_cols_mm / right_cols_mm: the snapped column positions contributed
    by each source (1D).

    rows_mm and cols_mm must be regular lattices, as the rendered light
    field's t_mm and s_mm are.  The grid holds read-only copies of all five
    arrays.
    """

    rows_mm: np.ndarray
    cols_mm: np.ndarray
    provenance: np.ndarray
    left_cols_mm: np.ndarray
    right_cols_mm: np.ndarray

    def __post_init__(self):
        rows, cols, left_cols, right_cols = (
            np.array(getattr(self, name), float)
            for name in ("rows_mm", "cols_mm", "left_cols_mm", "right_cols_mm")
        )
        prov = np.array(self.provenance)
        if prov.shape != (rows.size, cols.size):
            raise ValueError("provenance shape must be (n_rows, n_cols)")
        if not np.isin(prov, (0, 1, 2, 3)).all():
            raise ValueError("provenance entries must be 0, 1, 2 or 3")
        # The rendered light field's t_mm and s_mm: checked here, before
        # any sub-aperture is rendered or stored.
        _check_regular(rows, "rows_mm")
        _check_regular(cols, "cols_mm")
        for arr, name in ((left_cols, "left_cols_mm"), (right_cols, "right_cols_mm")):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1D array")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        # Read-only copies: the caller's arrays stay its own, and a writer
        # that reads the grid while it streams sees it unchanged.
        for arr, name in (
            (rows, "rows_mm"), (cols, "cols_mm"), (prov.astype(np.int8), "provenance"),
            (left_cols, "left_cols_mm"), (right_cols, "right_cols_mm"),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class EpiImage:
    """An epipolar-plane image: one scan line stacked over the sub-aperture
    columns of one grid row, ordered by s."""

    image: np.ndarray
    mask: np.ndarray
    s_mm: np.ndarray


def _axis_positions(values: np.ndarray, coords: np.ndarray):
    """Continuous index of each value along a regular coordinate axis, with
    validity against the axis extent."""
    c0 = float(coords[0])
    if coords.size == 1:
        idx = np.zeros_like(values)
        valid = np.abs(values - c0) <= _EDGE_TOL
        return idx, valid
    pitch = float(coords[1] - coords[0])
    idx = (values - c0) / pitch
    valid = (idx >= -_EDGE_TOL) & (idx <= coords.size - 1 + _EDGE_TOL)
    return idx, valid


class _SlopeTaps(NamedTuple):
    """The part of a batch of sample queries that depends only on the
    source light field and the query slopes (u, v), kept for the queries
    that pass the slope and pixel-extent checks: their positions in the
    batch (``keep``), the flat offsets of the 16 cell corners in
    ``product((0, 1), repeat=4)`` order, the flat index of each kept
    query's low (pixel-row, pixel-col) corner, and its row and column
    fractions."""

    keep: np.ndarray
    offsets: list
    base: np.ndarray
    r_f: np.ndarray
    c_f: np.ndarray


def _split(idx: np.ndarray, n: int):
    """Low lattice index and fraction of continuous indices on an axis of
    n samples.  The low index stops at n - 2, so the high neighbour
    min(lo + 1, n - 1) exists; NaN maps to 0 (such queries are invalid)."""
    idx = np.fmin(np.fmax(idx, 0.0), float(n - 1))
    lo = np.minimum(np.floor(idx).astype(np.intp), max(n - 2, 0))
    return lo, idx - lo


def _slope_taps(lf: SampledLF, u, v, valid=True) -> _SlopeTaps:
    """Prepare queries with slopes (u, v) into ``lf``; ``valid`` marks the
    queries to keep before the pixel-extent check."""
    W, H = lf.width, lf.height
    c_idx = (u - lf.mapping.u0) / lf.mapping.du
    r_idx = (v - lf.mapping.v0) / lf.mapping.dv
    c_ok = (c_idx >= -_EDGE_TOL) & (c_idx <= W - 1 + _EDGE_TOL)
    r_ok = (r_idx >= -_EDGE_TOL) & (r_idx <= H - 1 + _EDGE_TOL)
    keep = np.flatnonzero(valid & c_ok & r_ok)
    r_lo, r_f = _split(r_idx.take(keep), H)
    c_lo, c_f = _split(c_idx.take(keep), W)
    # Flat step to the high neighbour on each axis; 0 on a one-sample axis.
    n_t, n_s = lf.n_rows, lf.n_cols
    steps = [
        step if n > 1 else 0
        for n, step in zip((n_t, n_s, H, W), (n_s * H * W, H * W, W, 1))
    ]
    offsets = [
        bt * steps[0] + bs * steps[1] + br * steps[2] + bc * steps[3]
        for bt, bs, br, bc in product((0, 1), repeat=4)
    ]
    return _SlopeTaps(keep=keep, offsets=offsets, base=r_lo * W + c_lo, r_f=r_f, c_f=c_f)


def _sample_into(lf: SampledLF, taps: _SlopeTaps, s, t, values, valid):
    """Finish the kept queries of ``taps`` at aperture positions (s, t),
    one pair per kept query: 4D multilinear interpolation, the weight of
    each corner taken as ((w_t * w_s) * w_r) * w_c and the corners summed
    in product order onto 0.  Queries outside the s/t extent or on a cell
    with a masked sample are dropped before the corners are read; the
    rest are written to ``values`` and set in ``valid`` at their batch
    positions.  Entries of the flat outputs that no query reaches are left
    as they are."""
    s_idx, s_ok = _axis_positions(s, lf.s_mm)
    t_idx, t_ok = _axis_positions(t, lf.t_mm)
    t_lo, t_f = _split(t_idx, lf.n_rows)
    s_lo, s_f = _split(s_idx, lf.n_cols)
    base = (t_lo * lf.n_cols + s_lo) * (lf.height * lf.width) + taps.base
    hit = np.flatnonzero(s_ok & t_ok & lf.cell_valid.reshape(-1).take(base))
    base = base.take(hit)
    t_f, s_f, r_f, c_f = (f.take(hit) for f in (t_f, s_f, taps.r_f, taps.c_f))
    w_t = (1.0 - t_f, t_f)
    w_s = (1.0 - s_f, s_f)
    w_r = (1.0 - r_f, r_f)
    w_c = (1.0 - c_f, c_f)
    flat = lf.images.reshape(-1)
    acc = np.zeros(hit.size)
    gathered = np.empty(hit.size)
    weight = np.empty(hit.size)
    corner = iter(taps.offsets)
    for bt, bs in product((0, 1), repeat=2):
        w_ts = w_t[bt] * w_s[bs]
        for br in (0, 1):
            w_tsr = w_ts * w_r[br]
            for bc in (0, 1):
                # flat[off:][base] is flat[base + off].  _split stops every
                # low corner where its high neighbour exists, so no index
                # passes the end and mode="clip" moves none; it only spares
                # the buffered copy that take(out=...) makes under "raise".
                flat[next(corner):].take(base, out=gathered, mode="clip")
                np.multiply(w_tsr, w_c[bc], out=weight)
                weight *= gathered
                acc += weight
    dst = taps.keep.take(hit)
    values[dst] = acc
    valid[dst] = True


def sample_rays(lf: SampledLF, rays) -> tuple[np.ndarray, np.ndarray]:
    """4D multilinear interpolation of an (n, 4) ray bundle in the LF's own
    TPP.  Returns (values, valid); invalid entries are 0.  A query is valid
    only if all four coordinates lie inside the sampled extent and none of
    the 16 samples of its interpolation neighborhood is masked out; a ray
    exactly on a stored sample reproduces that sample's value."""
    rays = np.asarray(rays, float)
    values = np.zeros(rays.shape[0])
    valid = np.zeros(rays.shape[0], bool)
    taps = _slope_taps(lf, rays[:, 2], rays[:, 3])
    s, t = rays[:, 0].take(taps.keep), rays[:, 1].take(taps.keep)
    _sample_into(lf, taps, s, t, values, valid)
    return values, valid


def _warped_centers(lf: SampledLF, R, T):
    """Warp every sub-aperture's central ray (s, t, 0, 0); returns the
    (n_t, n_s) arrays (s', t'), or None when the central rays do not warp.
    A central ray warps iff |R[2, 2]| > 1e-12, so one camera's central
    rays warp all or none."""
    S, Tg = np.meshgrid(lf.s_mm, lf.t_mm)
    rays = np.column_stack([S.ravel(), Tg.ravel(), np.zeros((S.size, 2))])
    warped, valid = warp_rays(rays, R, T)
    if not valid.all():
        return None
    return warped[:, 0].reshape(S.shape), warped[:, 1].reshape(S.shape)


def plan_aligned_grid(
    left: SampledLF, right: SampledLF, setup: RectifiedSetup
) -> AlignedGrid:
    """Choose the rectified output grid.

    Target rows are the warped rows of the left light field, each read at
    its central column.  Both cameras' central rows snap to a contiguous
    column lattice at the left angular pitch, anchored at the warped left
    centre.  Each right row, read at its central column, joins the nearest
    target row within half a row pitch or is dropped.  The provenance map
    records which source feeds each target sub-aperture.  Raises NoOverlap
    when a camera's central rays do not warp (its rotation turns the
    optical axis parallel to the rectified planes), when the lattice would
    have more columns than the ``_MAX_SPREAD`` cap (an axis nearly parallel
    to those planes), or
    when no target row would receive sub-apertures from both sources.
    """
    lc = _warped_centers(left, setup.R_l, setup.T_l)
    rc = _warped_centers(right, setup.R_r, setup.T_r)
    nan = float("nan")
    diagnostics = {
        "left_t_range": [nan, nan] if lc is None else [float(lc[1].min()), float(lc[1].max())],
        "right_t_range": [nan, nan] if rc is None else [float(rc[1].min()), float(rc[1].max())],
        "left_mappable": 0 if lc is None else lc[0].size,
        "right_mappable": 0 if rc is None else rc[0].size,
    }
    if lc is None or rc is None:
        raise NoOverlap(
            "a camera has no sub-aperture mappable into the common frame",
            diagnostics=diagnostics,
        )
    (sl, tl), (sr, tr) = lc, rc
    ctr_row_l, ctr_col_l = left.n_rows // 2, left.n_cols // 2
    ctr_row_r, ctr_col_r = right.n_rows // 2, right.n_cols // 2
    # A 1x1 grid has no pitch; it gets an arbitrary unit lattice.
    pitch = abs(left.pitch_s if left.n_cols > 1 else left.pitch_t) or 1.0

    # Rows: one target row per left grid row, ascending.
    order = np.argsort(tl[:, ctr_col_l], kind="stable")
    rows_mm = tl[order, ctr_col_l]

    # Each source column snaps to index k of the lattice anchored at the
    # warped left centre.
    anchor = sl[ctr_row_l, ctr_col_l]
    k_left = np.round((sl[ctr_row_l] - anchor) / pitch).astype(int)
    k_right = np.round((sr[ctr_row_r] - anchor) / pitch).astype(int)
    k_min = int(min(k_left.min(), k_right.min()))
    k_max = int(max(k_left.max(), k_right.max()))
    n_cols = k_max - k_min + 1
    reach = sum(np.hypot(np.abs(lf.s_mm).max(), np.abs(lf.t_mm).max()) for lf in (left, right))
    max_cols = int(_MAX_SPREAD * (setup.baseline_mm + reach) / pitch) + 2
    if n_cols > max_cols:
        raise NoOverlap(
            f"the rectified lattice would span {n_cols} columns, more than {max_cols}: "
            "a camera's optical axis is nearly parallel to the rectified planes",
            diagnostics={**diagnostics, "lattice_cols": n_cols, "max_lattice_cols": max_cols},
        )
    cols_mm = anchor + np.arange(k_min, k_max + 1) * pitch

    # Right rows snap to the nearest target row within half a row pitch.
    row_pitch = abs(float(np.diff(rows_mm).mean())) if rows_mm.size > 1 else pitch
    dist = np.abs(rows_mm[None, :] - tr[:, ctr_col_r, None])
    right_row_keep = dist.min(axis=1) <= 0.5 * row_pitch + _EDGE_TOL
    # Every target row has left columns, so a row shared by both cameras
    # is one that a right row joins.
    if not right_row_keep.any():
        raise NoOverlap(
            "no target row receives sub-apertures from both cameras",
            diagnostics=diagnostics,
        )

    # Bit 1 marks the left source's columns on every target row, bit 2 the
    # right source's columns on the rows it joins.
    provenance = np.zeros((rows_mm.size, cols_mm.size), np.int8)
    provenance[:, k_left - k_min] = 1
    provenance[dist.argmin(axis=1)[right_row_keep, None], k_right - k_min] |= 2
    return AlignedGrid(
        rows_mm=rows_mm,
        cols_mm=cols_mm,
        provenance=provenance,
        left_cols_mm=np.unique(anchor + k_left * pitch),
        right_cols_mm=np.unique(anchor + k_right * pitch),
    )


def iter_aligned_sais(
    left: SampledLF,
    right: SampledLF,
    setup: RectifiedSetup,
    grid: AlignedGrid,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Render the target sub-apertures that a source supplies, one at a
    time, in row-major order.

    Yields ``(row, col, image, mask)`` for each cell of ``grid`` with a
    nonzero provenance, as a fresh (H, W) luminance image and validity
    mask.  Every target sub-aperture keeps the left camera's pixel mapping
    and image size.  For each target pixel, the ray (s, t, u, v) in the
    common TPP is warped back into the supplying camera (left preferred
    where both could serve) and the source light field is sampled by 4D
    multilinear interpolation; rays leaving the source aperture are masked
    out.  Cells without a source are not yielded.
    """
    H, W = left.height, left.width
    rows_px, cols_px = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    v_px, u_px = left.mapping.slopes(rows_px.ravel(), cols_px.ravel())

    prov = grid.provenance
    supplier = np.where(prov & 1, 1, prov & 2)  # the left source wins a shared cell
    # Every target pixel keeps its slopes, so the slope half of the warp
    # and of the sampling is done once per source, for the rays that pass
    # it; the position half runs per target sub-aperture on those alone.
    prepared = {}
    for side, source, R, T in ((1, left, setup.R_l, setup.T_l), (2, right, setup.R_r, setup.T_r)):
        if not (supplier == side).any():
            continue
        R_inv, T_inv = R.T, -R.T @ T
        u_p, v_p, ok = warp_slopes(u_px, v_px, R_inv)
        taps = _slope_taps(source, u_p, v_p, ok)
        prepared[side] = source, taps, u_p.take(taps.keep), v_p.take(taps.keep), R_inv, T_inv
    for i, j in np.argwhere(supplier):
        source, taps, u_p, v_p, R_inv, T_inv = prepared[supplier[i, j]]
        s_p, t_p = warp_positions(grid.cols_mm[j], grid.rows_mm[i], u_p, v_p, R_inv, T_inv)
        image = np.zeros((H, W))
        mask = np.zeros((H, W), bool)
        _sample_into(source, taps, s_p, t_p, image.reshape(-1), mask.reshape(-1))
        yield int(i), int(j), image, mask


def render_aligned_sais(
    left: SampledLF,
    right: SampledLF,
    setup: RectifiedSetup,
    grid: AlignedGrid,
) -> SampledLF:
    """Render the rectified pair onto the aligned grid as one dense light
    field: the sub-apertures of :func:`iter_aligned_sais`, with every
    sub-aperture that no source supplies fully masked."""
    shape = grid.provenance.shape + (left.height, left.width)
    images = np.zeros(shape)
    mask = np.zeros(shape, bool)
    for i, j, image, valid in iter_aligned_sais(left, right, setup, grid):
        images[i, j] = image
        mask[i, j] = valid
    return SampledLF(
        images=images,
        mask=mask,
        s_mm=grid.cols_mm.copy(),
        t_mm=grid.rows_mm.copy(),
        mapping=left.mapping,
    )


def extract_epi(lf: SampledLF, row: int, line: int) -> EpiImage:
    """Stack one pixel scan line across all sub-apertures of one grid row,
    ordered by s.  ``row`` indexes the sub-aperture rows, ``line`` the pixel
    scan lines.  Raises IndexOutOfRange for indices outside the grid."""
    if not 0 <= row < lf.n_rows:
        raise IndexOutOfRange(f"grid row {row} outside 0..{lf.n_rows - 1}")
    if not 0 <= line < lf.height:
        raise IndexOutOfRange(f"scan line {line} outside 0..{lf.height - 1}")
    order = np.argsort(lf.s_mm, kind="stable")
    return EpiImage(
        image=lf.images[row, order, line, :].copy(),
        mask=lf.mask[row, order, line, :].copy(),
        s_mm=lf.s_mm[order].copy(),
    )
