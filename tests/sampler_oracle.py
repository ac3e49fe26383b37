"""Reference implementations of the 4D light-field sampler and the
aligned-grid renderer, for tests to compare the package against.

The sampler reads every corner of each query's 2x2x2x2 interpolation cell
with its own 4D fancy index and ANDs the 16 mask samples one by one; the
renderer builds every target ray in full and warps it with ``warp_rays``.
Both are written for obviousness, not speed.  The package must match them
bit for bit on every query they accept.  A query with a NaN coordinate on
an axis of two or more samples makes this sampler raise IndexError (NaN
has no integer cell), so callers compare such queries separately.
"""

from itertools import product

import numpy as np

from lfrect.rectify import warp_rays
from lfrect.resample import _EDGE_TOL as EDGE_TOL
from lfrect.resample import SampledLF


def axis_positions(values, coords):
    """Continuous index of each value along a regular coordinate axis, with
    validity against the axis extent."""
    c0 = float(coords[0])
    if coords.size == 1:
        idx = np.zeros_like(values)
        valid = np.abs(values - c0) <= EDGE_TOL
        return idx, valid
    pitch = float(coords[1] - coords[0])
    idx = (values - c0) / pitch
    valid = (idx >= -EDGE_TOL) & (idx <= coords.size - 1 + EDGE_TOL)
    return idx, valid


def sample_many(lf: SampledLF, rays):
    """4D multilinear interpolation of an (n, 4) ray bundle in the LF's own
    TPP.  Returns (values, valid); invalid entries are 0.  A query is valid
    only if all four coordinates lie inside the sampled extent and none of
    the 16 samples of its interpolation neighborhood is masked out."""
    rays = np.asarray(rays, float)
    s_idx, s_ok = axis_positions(rays[:, 0], lf.s_mm)
    t_idx, t_ok = axis_positions(rays[:, 1], lf.t_mm)
    c_idx = (rays[:, 2] - lf.mapping.u0) / lf.mapping.du
    r_idx = (rays[:, 3] - lf.mapping.v0) / lf.mapping.dv
    W, H = lf.width, lf.height
    c_ok = (c_idx >= -EDGE_TOL) & (c_idx <= W - 1 + EDGE_TOL)
    r_ok = (r_idx >= -EDGE_TOL) & (r_idx <= H - 1 + EDGE_TOL)
    valid = s_ok & t_ok & c_ok & r_ok & np.all(np.isfinite(rays), axis=1)

    def split(idx, n):
        idx = np.clip(idx, 0.0, float(n - 1))
        lo = np.minimum(np.floor(idx).astype(np.intp), max(n - 2, 0))
        frac = idx - lo
        hi = np.minimum(lo + 1, n - 1)
        return lo, hi, frac

    t_lo, t_hi, t_f = split(t_idx, lf.n_rows)
    s_lo, s_hi, s_f = split(s_idx, lf.n_cols)
    r_lo, r_hi, r_f = split(r_idx, H)
    c_lo, c_hi, c_f = split(c_idx, W)

    values = np.zeros(rays.shape[0])
    ok = valid.copy()
    for bt, bs, br, bc in product((0, 1), repeat=4):
        ti = t_hi if bt else t_lo
        si = s_hi if bs else s_lo
        ri = r_hi if br else r_lo
        ci = c_hi if bc else c_lo
        w = (
            (t_f if bt else 1.0 - t_f)
            * (s_f if bs else 1.0 - s_f)
            * (r_f if br else 1.0 - r_f)
            * (c_f if bc else 1.0 - c_f)
        )
        values += w * lf.images[ti, si, ri, ci]
        ok &= lf.mask[ti, si, ri, ci]
    values[~ok] = 0.0
    return values, ok


def render_aligned_sais(left: SampledLF, right: SampledLF, setup, grid):
    """Images and masks of the rectified pair: every target ray of every
    sub-aperture built in full, warped with ``warp_rays`` into its source
    (left preferred) and sampled with :func:`sample_many`."""
    H, W = left.height, left.width
    rows_px, cols_px = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    v_px, u_px = left.mapping.slopes(rows_px.ravel(), cols_px.ravel())
    inv = {
        1: (left, setup.R_l.T, -setup.R_l.T @ setup.T_l),
        2: (right, setup.R_r.T, -setup.R_r.T @ setup.T_r),
    }
    n_rows, n_cols = grid.provenance.shape
    images = np.zeros((n_rows, n_cols, H, W))
    mask = np.zeros((n_rows, n_cols, H, W), bool)
    for i in range(n_rows):
        for j in range(n_cols):
            prov = int(grid.provenance[i, j])
            if prov == 0:
                continue
            source, R_inv, T_inv = inv[1] if prov & 1 else inv[2]
            rays = np.column_stack(
                [
                    np.full(u_px.size, grid.cols_mm[j]),
                    np.full(u_px.size, grid.rows_mm[i]),
                    u_px,
                    v_px,
                ]
            )
            back, ok = warp_rays(rays, R_inv, T_inv)
            vals, good = sample_many(source, back)
            good &= ok
            vals[~good] = 0.0
            images[i, j] = vals.reshape(H, W)
            mask[i, j] = good.reshape(H, W)
    return images, mask
