"""Light-field sampling, aligned-grid planning, and EPI extraction.

The synthetic-lattice tests pin the interpolation semantics exactly: stored
samples reproduce bit for bit, fields affine in (s, t, u, v) interpolate
without error, and any neighborhood that leaves the aperture or touches a
masked pixel is rejected rather than extrapolated.  The rendered-pair tests
close the loop on the whole rectification chain: checkerboard corners must
land on the same scan line in left- and right-sourced sub-apertures, and a
blob's EPI trace must be a straight line of the predicted slope.
"""

import math

import numpy as np
import pytest
import sampler_oracle
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lfrect import resample
from lfrect.errors import IndexOutOfRange, NoOverlap
from lfrect.geometry import LFIntrinsics, RelativePose, euler_xyz_intrinsic, so3_exp
from lfrect.lfio import load_sampled_lf, save_sampled_lf
from lfrect.rectify import RectifiedSetup, build_rectified_setup
from lfrect.resample import (
    _EDGE_TOL,
    AlignedGrid,
    SampledLF,
    SpatialMapping,
    extract_epi,
    plan_aligned_grid,
    render_aligned_sais,
    sample_rays,
)
from lfrect.simulate import (
    RenderGrid,
    TexturedPlane,
    render_synthetic_lf,
    soft_checkerboard_texture,
)
from oracles import blob_centroid, fit_line_tls, plan_aligned_grid_masked, refine_checkerboard_corner

# Dyadic lattice so index arithmetic in the sampler is exact.
S3 = np.array([-2.0, 0.0, 2.0])
MAP = SpatialMapping(u0=-0.25, du=0.0625, v0=-0.125, dv=0.03125)
H, W = 8, 10


def make_lf(images, s_mm=S3, t_mm=S3, mapping=MAP, mask=None):
    images = np.asarray(images, float)
    if mask is None:
        mask = np.ones(images.shape, bool)
    return SampledLF(images=images, mask=mask, s_mm=s_mm, t_mm=t_mm, mapping=mapping)


def random_lf(seed=0, s_mm=S3, t_mm=S3):
    rng = np.random.default_rng(seed)
    return make_lf(rng.uniform(0, 1, (t_mm.size, s_mm.size, H, W)), s_mm, t_mm)


def affine_field(c):
    """L(s, t, u, v) = c0 + c1 s + c2 t + c3 u + c4 v (vectorized)."""

    def field(s, t, u, v):
        return c[0] + c[1] * s + c[2] * t + c[3] * u + c[4] * v

    return field


def affine_lf(c, s_mm=S3, t_mm=S3, mapping=MAP):
    field = affine_field(c)
    v, u = mapping.slopes(np.arange(H), np.arange(W))
    images = field(
        s_mm[None, :, None, None],
        t_mm[:, None, None, None],
        u[None, None, None, :],
        v[None, None, :, None],
    )
    return make_lf(images, s_mm, t_mm, mapping)


def identity_setup(baseline):
    I = np.eye(3)
    return RectifiedSetup(
        R_rect=I, R_l=I, T_l=np.zeros(3), R_r=I,
        T_r=np.array([baseline, 0.0, 0.0]), baseline_mm=baseline,
    )


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def node_rays(lf):
    """Rays through every third stored pixel of every sub-aperture, and the
    stored samples they hit."""
    i, j, r, col = np.meshgrid(
        np.arange(lf.n_rows), np.arange(lf.n_cols), np.arange(0, H, 3), np.arange(0, W, 3),
        indexing="ij",
    )
    v, u = lf.mapping.slopes(r.ravel(), col.ravel())
    rays = np.column_stack([lf.s_mm[j.ravel()], lf.t_mm[i.ravel()], u, v])
    return rays, lf.images[i, j, r, col].ravel()


def affine_queries(rng, n):
    """n rays drawn inside the extent of ``affine_lf``, one (s, t, u, v) at
    a time."""
    return np.array(
        [
            [
                rng.uniform(-2, 2),
                rng.uniform(-2, 2),
                rng.uniform(MAP.u0, MAP.u0 + MAP.du * (W - 1)),
                rng.uniform(MAP.v0, MAP.v0 + MAP.dv * (H - 1)),
            ]
            for _ in range(n)
        ]
    )


def test_interpolation_at_nodes_is_exact():
    lf = random_lf()
    rays, stored = node_rays(lf)
    values, ok = sample_rays(lf, rays)
    assert ok.all()
    assert np.array_equal(values, stored)


def test_interpolation_of_affine_field_is_exact():
    c = np.array([0.3, 0.01, -0.02, 0.5, -0.4])
    lf = affine_lf(c)
    rays = affine_queries(np.random.default_rng(5), 500)
    values, ok = sample_rays(lf, rays)
    assert ok.all()
    assert np.abs(values - affine_field(c)(*rays.T)).max() <= 1e-12


def test_out_of_aperture_raises():
    lf = random_lf()
    v, u = lf.mapping.slopes(2, 3)
    rays = [
        [2.1, 0.0, u, v],  # past the s extent
        [0.0, -2.1, u, v],
        [0.0, 0.0, MAP.u0 - 0.001, v],
        [0.0, 0.0, u, MAP.v0 + MAP.dv * (H - 1) + 0.001],
    ]
    values, ok = sample_rays(lf, rays)
    assert not ok.any()
    assert np.all(values == 0.0)


def test_edge_tolerance_absorbs_roundoff_only():
    lf = random_lf()
    v, u = lf.mapping.slopes(0, 0)
    # a hair outside the corner: inside the documented slack; then past it
    values, ok = sample_rays(lf, [[-2.0 - 5e-10, -2.0, u, v], [-2.0 - 1e-5, -2.0, u, v]])
    assert ok.tolist() == [True, False]
    assert values[0] == pytest.approx(lf.images[0, 0, 0, 0], abs=1e-8)


def test_masked_neighbor_invalidates_cell():
    lf = random_lf()
    mask = lf.mask.copy()
    mask[1, 1, 4, 5] = False
    lf = make_lf(lf.images, mask=mask)
    v, u = lf.mapping.slopes(4, 5)
    rays = [
        # on the masked sample itself
        [0.0, 0.0, u, v],
        # fractional query whose 16-point neighborhood touches it
        [0.5, -0.5, u + 0.5 * MAP.du, v + 0.5 * MAP.dv],
        # s sub-apertures 0..1, pixel rows 5..6 and columns 6..7: a
        # neighborhood that misses the masked sample, so it stays valid
        [-1.5, 0.0, u + 1.5 * MAP.du, v + 1.5 * MAP.dv],
    ]
    values, ok = sample_rays(lf, rays)
    assert ok.tolist() == [False, False, True]
    assert math.isfinite(values[2])


def test_nan_ray_is_out_of_aperture():
    lf = random_lf()
    v, u = lf.mapping.slopes(2, 3)
    rays = np.tile([0.0, 0.0, u, v], (4, 1))
    rays[np.arange(4), np.arange(4)] = math.nan
    values, ok = sample_rays(lf, rays)
    assert not ok.any()
    assert np.all(values == 0.0)


# ---------------------------------------------------------------------------
# the prepared sampler against the 16-gather reference
# ---------------------------------------------------------------------------


def _axis_queries(rng, n, size):
    """Continuous indices on an axis of n samples: interior points, nodes,
    the two ends give or take a few edge tolerances, points a little
    outside, and now and then a non-finite value."""
    kind = rng.choice(5, size, p=[0.3, 0.2, 0.25, 0.2, 0.05])
    near = rng.choice([0.0, n - 1.0], size) + _EDGE_TOL * rng.choice(
        [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size
    )
    return np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [
            rng.uniform(0.0, n - 1.0, size),
            rng.integers(0, n, size).astype(float),
            near,
            rng.uniform(-0.6, n - 0.4, size),
        ],
        default=rng.choice([math.nan, math.inf, -math.inf], size),
    )


@st.composite
def lf_and_rays(draw):
    """A small random light field (one- and two-sample axes included,
    descending lattices, some masked samples) and 64 query rays."""
    n_t, n_s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masked = draw(st.sampled_from([0.0, 0.05, 0.3]))
    pitch_s, pitch_t = draw(st.sampled_from([2.0, -1.5, 0.7])), draw(st.sampled_from([2.0, -0.5]))
    shape = (n_t, n_s, h, w)
    mapping = SpatialMapping(
        u0=rng.uniform(-0.3, 0.3), du=draw(st.sampled_from([0.0625, -0.03, 0.011])),
        v0=rng.uniform(-0.3, 0.3), dv=draw(st.sampled_from([0.03125, -0.02])),
    )
    lf = SampledLF(
        images=rng.uniform(0.0, 1.0, shape),
        mask=rng.uniform(size=shape) >= masked,
        s_mm=rng.uniform(-3, 3) + pitch_s * np.arange(n_s),
        t_mm=rng.uniform(-3, 3) + pitch_t * np.arange(n_t),
        mapping=mapping,
    )
    m = 64
    rays = np.column_stack(
        [
            lf.s_mm[0] + _axis_queries(rng, n_s, m) * pitch_s,
            lf.t_mm[0] + _axis_queries(rng, n_t, m) * pitch_t,
            mapping.u0 + _axis_queries(rng, w, m) * mapping.du,
            mapping.v0 + _axis_queries(rng, h, m) * mapping.dv,
        ]
    )
    return lf, rays


@given(lf_and_rays())
@settings(max_examples=300, deadline=None)
def test_sampler_matches_reference(case):
    lf, rays = case
    values, ok = sample_rays(lf, rays)
    # The reference cannot place a NaN coordinate in a cell; those queries
    # must come out invalid and zero.
    nan = np.isnan(rays).any(axis=1)
    assert not ok[nan].any()
    assert np.all(values[nan] == 0.0)
    ref_values, ref_ok = sampler_oracle.sample_many(lf, rays[~nan])
    assert np.array_equal(values[~nan], ref_values)
    assert np.array_equal(ok[~nan], ref_ok)


def test_cell_valid_is_computed_once():
    lf = random_lf()
    assert lf.cell_valid is lf.cell_valid
    assert lf.cell_valid.all()


@pytest.mark.parametrize("n_t", [1, 3])
def test_masked_upper_edge_sample_invalidates_hi_corner_queries(n_t):
    """On the clipped upper edge the low corner is n - 2 and the query sits
    on the high corner with weight 1: masking that sample, and only it,
    invalidates the query, on a one-sample axis too."""
    t_mm = S3[:n_t]
    lf = random_lf(3, t_mm=t_mm)
    mask = np.ones(lf.mask.shape, bool)
    mask[-1, -1, H - 1, W - 1] = False
    lf = make_lf(lf.images, t_mm=t_mm, mask=mask)
    v_hi, u_hi = MAP.slopes(H - 1, W - 1)
    v_in, u_in = MAP.slopes(H - 2, W - 2)
    t = t_mm[-1]
    rays = np.array(
        [
            [2.0, t, u_hi, v_hi],  # on the masked sample
            [2.0, t, u_hi - 0.5 * MAP.du, v_hi],  # inside its cell
            [2.0, t, u_hi + 0.5 * _EDGE_TOL * MAP.du, v_hi],  # past the edge, within slack
            [2.0, t, u_in, v_in],  # the cell's low pixel corner
            [-2.0, t, u_hi, v_hi],  # a cell of sub-apertures without it
        ]
    )
    values, ok = sample_rays(lf, rays)
    ref_values, ref_ok = sampler_oracle.sample_many(lf, rays)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(ok, ref_ok)
    assert ok.tolist() == [False, False, False, False, True]


def test_render_matches_reference_at_wide_pose():
    """Rectification at a long baseline with strong vergence, where about
    half of the rays land, is bit-identical to warping every ray with
    warp_rays and sampling it with the reference sampler."""
    grid_spec = RenderGrid(
        sai_rows=5, sai_cols=5, pitch_mm=2.0, width_px=40, height_px=30, supersample=1
    )
    fx = 400.0 * 40 / 128
    k = LFIntrinsics(fx=fx, fy=fx, cx=19.5, cy=14.5, K1=0.0, K2=fx * 2.0)
    plane = TexturedPlane(
        origin=np.array([20.0, 0.0, 600.0]),
        axis_a=np.array([1.0, 0.0, 0.0]),
        axis_b=np.array([0.0, 1.0, 0.0]),
        texture=soft_checkerboard_texture(30.0, 2.0),
        half_a=600.0,
        half_b=450.0,
    )
    pose = RelativePose(euler_xyz_intrinsic(2.0, 10.0, 1.0), np.array([-120.0, -6.0, 4.0]))
    left = render_synthetic_lf([plane], k, RelativePose(np.eye(3), np.zeros(3)), grid_spec)
    right = render_synthetic_lf([plane], k, pose.inverse(), grid_spec)
    setup = build_rectified_setup(pose.inverse())
    grid = plan_aligned_grid(left, right, setup)
    out = render_aligned_sais(left, right, setup, grid)
    images, mask = sampler_oracle.render_aligned_sais(left, right, setup, grid)
    assert np.array_equal(out.images, images)
    assert np.array_equal(out.mask, mask)
    rendered = grid.provenance != 0
    assert np.any(grid.provenance & 2)
    assert 0.2 < mask[rendered].mean() < 0.8


def _assert_samples_match_reference(lf, rays):
    """sample_rays equals the reference bit for bit, on the float values
    and on the mask."""
    values, ok = sample_rays(lf, rays)
    ref_values, ref_ok = sampler_oracle.sample_many(lf, rays)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(ok, ref_ok)
    return values, ok


def _pixel_queries(lf, step=0.25):
    """Rays on a quarter-index lattice over the whole sampled extent,
    every axis from its first sample to its last."""
    t, s, r, c = (np.arange(0.0, n - 1 + step / 2, step) for n in lf.images.shape)
    T, S, R, C = np.meshgrid(t, s, r, c, indexing="ij")
    v, u = lf.mapping.slopes(R.ravel(), C.ravel())
    s_mm = lf.s_mm[0] + S.ravel() * (lf.pitch_s or 1.0)
    t_mm = lf.t_mm[0] + T.ravel() * (lf.pitch_t or 1.0)
    return np.column_stack([s_mm, t_mm, u, v])


def test_sampler_matches_reference_around_mask_holes():
    """Holes inside the aperture invalidate exactly the cells that touch
    them; every other query keeps the reference value."""
    lf = random_lf(11)
    mask = lf.mask.copy()
    mask[1, 1, 3, 4] = mask[0, 2, 5, 7] = mask[2, 0, 1, 1] = False
    lf = make_lf(lf.images, mask=mask)
    _, ok = _assert_samples_match_reference(lf, _pixel_queries(lf))
    assert 0.5 < ok.mean() < 1.0


@pytest.mark.parametrize("axis", ["s", "t"])
def test_sampler_matches_reference_on_one_sample_axis(axis):
    lf = random_lf(12, **{f"{axis}_mm": np.array([0.5])})
    _, ok = _assert_samples_match_reference(lf, _pixel_queries(lf))
    assert ok.all()


def test_sampler_matches_reference_on_far_edges():
    """Queries on the last sample of each axis, and on all four at once,
    read the last image sample through the highest corner offset; the
    clipped gathers must not move any of them."""
    lf = random_lf(13)
    last = np.array(lf.images.shape) - 1.0
    cases = [last * np.isin(np.arange(4), axes) for axes in ((0,), (1,), (2,), (3,), (0, 1, 2, 3))]
    cases += [last - 0.5, last + 0.5 * _EDGE_TOL]
    idx = np.array(cases)
    v, u = lf.mapping.slopes(idx[:, 2], idx[:, 3])
    rays = np.column_stack([lf.s_mm[0] + idx[:, 1] * lf.pitch_s, lf.t_mm[0] + idx[:, 0] * lf.pitch_t, u, v])
    values, ok = _assert_samples_match_reference(lf, rays)
    assert ok.all()
    assert values[4] == lf.images[-1, -1, -1, -1]


def test_sampler_rejects_nan_and_out_of_extent_queries():
    """Rays with a NaN coordinate or past any edge come back invalid and
    0 wherever they sit in the batch, and the valid rays between them keep
    their reference values."""
    lf = random_lf(14)
    rays = _pixel_queries(lf, step=0.5)[::7].copy()
    n = len(rays)
    bad = np.arange(0, n, 3)
    extent = np.array([[-2.0, 2.0], [-2.0, 2.0], [MAP.u0, MAP.u0 + MAP.du * (W - 1)], [MAP.v0, MAP.v0 + MAP.dv * (H - 1)]])
    for k, row in enumerate(bad):
        axis = k % 4
        rays[row, axis] = [math.nan, extent[axis, 0] - 0.01, extent[axis, 1] + 0.01][k % 3]
    values, ok = sample_rays(lf, rays)
    assert not ok[bad].any() and np.all(values[bad] == 0.0)
    good = np.setdiff1d(np.arange(n), bad)
    assert ok[good].all()
    ref_values, ref_ok = sampler_oracle.sample_many(lf, rays[good])
    assert np.array_equal(values[good], ref_values)
    assert np.array_equal(ok[good], ref_ok)
    # No query passes the pixel-extent check, then none passes the s/t check.
    for axis, past in ((2, extent[2, 1] + 0.01), (0, extent[0, 1] + 0.01)):
        out = rays[good].copy()
        out[:, axis] = past
        values, ok = sample_rays(lf, out)
        assert not ok.any() and np.all(values == 0.0)


def test_render_matches_reference_with_mask_holes_and_an_empty_target():
    """A hand-made grid whose second target column lies far outside the
    source aperture: no ray of it lands, so it renders blank, while the
    first column, sampled around holes in the source mask, equals the
    reference."""
    left = random_lf(15)
    mask = left.mask.copy()
    mask[1, :, 2:4, 3] = False
    left = make_lf(left.images, mask=mask)
    right = random_lf(16)
    grid = AlignedGrid(
        rows_mm=np.array([0.0, 1.0]),
        cols_mm=np.array([0.5, 100.5]),
        provenance=np.array([[1, 1], [1, 0]], np.int8),
        left_cols_mm=np.array([0.5, 100.5]),
        right_cols_mm=np.array([]),
    )
    setup = identity_setup(4.0)
    out = render_aligned_sais(left, right, setup, grid)
    images, mask = sampler_oracle.render_aligned_sais(left, right, setup, grid)
    assert np.array_equal(out.images, images)
    assert np.array_equal(out.mask, mask)
    assert mask[0, 0].any() and not mask[0, 0].all()
    for i, j in ((0, 1), (1, 1)):
        assert not out.mask[i, j].any() and not out.images[i, j].any()


@pytest.mark.parametrize(
    "provenance, sources", [([[1, 3], [0, 3]], ["left"]), ([[2, 3], [0, 2]], ["left", "right"])]
)
def test_render_prepares_only_the_sources_that_serve_a_cell(monkeypatch, provenance, sources):
    """The slope half of the sampler runs once per source that supplies
    some cell, and never for a source that every shared cell leaves to the
    left camera."""
    left, right = random_lf(15), random_lf(16)
    names = {id(left): "left", id(right): "right"}
    prepared = []
    slope_taps = resample._slope_taps

    def recording(lf, *args):
        prepared.append(names[id(lf)])
        return slope_taps(lf, *args)

    monkeypatch.setattr(resample, "_slope_taps", recording)
    grid = AlignedGrid(
        rows_mm=np.array([0.0, 1.0]),
        cols_mm=np.array([0.5, 1.5]),
        provenance=np.array(provenance, np.int8),
        left_cols_mm=np.array([0.5, 1.5]),
        right_cols_mm=np.array([0.5, 1.5]),
    )
    setup = identity_setup(4.0)
    out = render_aligned_sais(left, right, setup, grid)
    assert sorted(prepared) == sources
    images, mask = sampler_oracle.render_aligned_sais(left, right, setup, grid)
    assert np.array_equal(out.images, images)
    assert np.array_equal(out.mask, mask)


# ---------------------------------------------------------------------------
# grid planning
# ---------------------------------------------------------------------------


def test_plan_interleaves_columns_on_common_rows():
    left = random_lf(1)
    right = random_lf(2)
    grid = plan_aligned_grid(left, right, identity_setup(4.0))
    assert np.array_equal(grid.rows_mm, S3)
    assert np.array_equal(grid.cols_mm, [-2.0, 0.0, 2.0, 4.0, 6.0])
    assert np.array_equal(grid.left_cols_mm, [-2.0, 0.0, 2.0])
    assert np.array_equal(grid.right_cols_mm, [2.0, 4.0, 6.0])
    expect = np.array([[1, 1, 3, 2, 2]] * 3, np.int8)
    assert np.array_equal(grid.provenance, expect)


def test_plan_keeps_lattice_contiguous_through_gap():
    # With an 8 mm baseline the two aperture fans are disjoint; the lattice
    # still covers the hole with a source-less column.
    grid = plan_aligned_grid(random_lf(1), random_lf(2), identity_setup(8.0))
    assert np.array_equal(grid.cols_mm, [-2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    assert np.array_equal(grid.provenance, np.array([[1, 1, 1, 0, 2, 2, 2]] * 3, np.int8))


def test_plan_snaps_right_rows_within_half_pitch():
    left = random_lf(1)
    right = random_lf(2, t_mm=S3 + 0.8)
    grid = plan_aligned_grid(left, right, identity_setup(4.0))
    assert np.array_equal(grid.rows_mm, S3)  # rows stay the left rows
    assert np.array_equal(grid.provenance, np.array([[1, 1, 3, 2, 2]] * 3, np.int8))


def test_plan_drops_right_rows_beyond_half_pitch():
    left = random_lf(1)
    right = random_lf(2, t_mm=S3 + 1.2)
    grid = plan_aligned_grid(left, right, identity_setup(4.0))
    # right rows sit at -0.8, 1.2, 3.2: the first two snap to rows 0 and 2,
    # the last is over half a row pitch from any target and is dropped.
    expect = np.array(
        [[1, 1, 1, 0, 0], [1, 1, 3, 2, 2], [1, 1, 3, 2, 2]], np.int8
    )
    assert np.array_equal(grid.provenance, expect)


def test_plan_no_overlap_when_right_unmappable():
    setup = RectifiedSetup(
        R_rect=np.eye(3), R_l=np.eye(3), T_l=np.zeros(3),
        R_r=euler_xyz_intrinsic(90.0, 0.0, 0.0), T_r=np.array([4.0, 0.0, 0.0]),
        baseline_mm=4.0,
    )
    with pytest.raises(NoOverlap) as exc:
        plan_aligned_grid(random_lf(1), random_lf(2), setup)
    d = exc.value.diagnostics
    assert d["right_mappable"] == 0
    assert d["left_mappable"] == 9
    assert math.isnan(d["right_t_range"][0])


def test_plan_no_overlap_when_rows_disjoint():
    left = random_lf(1)
    right = random_lf(2, t_mm=S3 + 100.0)
    with pytest.raises(NoOverlap) as exc:
        plan_aligned_grid(left, right, identity_setup(4.0))
    d = exc.value.diagnostics
    assert d["left_t_range"] == [-2.0, 2.0]
    assert d["right_t_range"] == [98.0, 102.0]


def _planning_lf(n_t, n_s, s0=0.0, t0=0.0, pitch_s=2.0, pitch_t=2.0):
    """A light field of one blank pixel per sub-aperture; the planner reads
    only its grid."""
    shape = (n_t, n_s, 1, 1)
    return SampledLF(
        images=np.zeros(shape), mask=np.ones(shape, bool),
        s_mm=s0 + pitch_s * np.arange(n_s), t_mm=t0 + pitch_t * np.arange(n_t), mapping=MAP,
    )


# A quarter turn about x: the optical axis ends up parallel to the
# rectified planes, so R[2, 2] is exactly 0 and no central ray warps.
_QUARTER_TURN_X = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


@st.composite
def planning_cases(draw):
    """Two light fields of 1-7 x 1-7 sub-apertures at pitches of either
    sign, and a rectified setup: built from a random pose, the identity, or
    by hand with the left, the right or both cameras turned a quarter turn
    about x."""
    pitch = st.builds(lambda m, sign: m * sign, st.floats(0.5, 4.0), st.sampled_from([1.0, -1.0]))
    offset = st.floats(-5.0, 5.0)
    left, right = (
        _planning_lf(
            draw(st.integers(1, 7)), draw(st.integers(1, 7)),
            draw(offset), draw(offset), draw(pitch), draw(pitch),
        )
        for _ in range(2)
    )
    kind = draw(st.sampled_from(["pose"] * 3 + ["identity"] * 2 + ["left_turned", "right_turned", "both_turned"]))
    if kind == "pose":
        w = [draw(st.floats(-0.3, 0.3)) for _ in range(3)]
        T = [draw(pitch) * 15.0, draw(offset), draw(offset)]
        setup = build_rectified_setup(RelativePose(so3_exp(w), T))
        # Nearly flat optical axes would spread the columns over a huge lattice.
        assume(min(abs(setup.R_l[2, 2]), abs(setup.R_r[2, 2])) > 0.05)
        return left, right, setup
    turn = euler_xyz_intrinsic(0.0, 0.0, draw(st.floats(-180.0, 180.0))) @ _QUARTER_TURN_X
    R_l = turn if kind in ("left_turned", "both_turned") else np.eye(3)
    R_r = turn if kind in ("right_turned", "both_turned") else np.eye(3)
    baseline = draw(st.floats(0.5, 40.0))
    setup = RectifiedSetup(
        R_rect=R_l, R_l=R_l, T_l=np.zeros(3), R_r=R_r,
        T_r=np.array([baseline, 0.0, 0.0]), baseline_mm=baseline,
    )
    return left, right, setup


def _plan_outcome(plan, left, right, setup):
    """The bytes of every planned grid field, or the NoOverlap message and
    the repr of its diagnostics (so NaN ranges compare equal)."""
    try:
        grid = plan(left, right, setup)
    except NoOverlap as e:
        return str(e), repr(e.diagnostics)
    fields = ("rows_mm", "cols_mm", "provenance", "left_cols_mm", "right_cols_mm")
    return [(f, getattr(grid, f).dtype.str, getattr(grid, f).shape, getattr(grid, f).tobytes()) for f in fields]


@given(planning_cases())
@example((_planning_lf(1, 1), _planning_lf(1, 1, t0=0.3), identity_setup(4.0)))
@example((_planning_lf(1, 5, pitch_s=-1.5), _planning_lf(3, 1, t0=-2.0), identity_setup(3.0)))
@example((_planning_lf(4, 1, pitch_t=-2.0), _planning_lf(1, 4, t0=-4.0), identity_setup(5.0)))
@settings(max_examples=300, deadline=None)
def test_plan_matches_the_masked_planner(case):
    # Every central ray of one camera warps or none does, so reading each
    # plan off the central row and column gives the masked planner's grid,
    # or its NoOverlap message and diagnostics, byte for byte.
    assert _plan_outcome(plan_aligned_grid, *case) == _plan_outcome(plan_aligned_grid_masked, *case)


def test_aligned_grid_json_round_trip(tmp_path):
    grid = plan_aligned_grid(random_lf(1), random_lf(2), identity_setup(4.0))
    save_sampled_lf(tmp_path, random_lf(4), grid)
    lf, back = load_sampled_lf(tmp_path)
    assert lf.mapping == MAP
    for name in ("rows_mm", "cols_mm", "provenance", "left_cols_mm", "right_cols_mm"):
        assert np.array_equal(getattr(back, name), getattr(grid, name))


@pytest.mark.parametrize("value", [4, 7, -1, 258])
def test_aligned_grid_rejects_unknown_provenance(value):
    fields = vars(plan_aligned_grid(random_lf(1), random_lf(2), identity_setup(4.0))).copy()
    fields["provenance"] = fields["provenance"].astype(int)
    fields["provenance"][0, 0] = value  # 258 would wrap to 2 in int8
    with pytest.raises(ValueError, match="provenance entries must be 0, 1, 2 or 3"):
        AlignedGrid(**fields)


@pytest.mark.parametrize(
    "provenance", [np.ones((3, 3), bool), [[True, 3, 3], [3, 3, 3], [3, 3, 3]]],
    ids=["bool-array", "true-among-integers"],
)
def test_aligned_grid_rejects_boolean_provenance(provenance):
    """A bool is no provenance code, although numpy compares it equal to
    0 or 1 and reads a True among integers as 1."""
    with pytest.raises(ValueError, match="provenance entries must be 0, 1, 2 or 3"):
        AlignedGrid(rows_mm=S3, cols_mm=S3, provenance=provenance, left_cols_mm=S3, right_cols_mm=S3)


def test_aligned_grid_holds_read_only_copies():
    """Each of the five arrays is the grid's own read-only copy, of float64
    or (provenance) int8, whatever the caller passed, and a column list
    that is not 1D is refused."""
    arrays = dict(
        rows_mm=[0.0, 1.0],
        cols_mm=np.array([0.5, 1.5]),
        provenance=np.array([[1, 3], [1, 2]]),
        left_cols_mm=[0.5, 1.5],
        right_cols_mm=np.array([1.5]),
    )
    grid = AlignedGrid(**arrays)
    for name, given in arrays.items():
        value = getattr(grid, name)
        assert isinstance(value, np.ndarray), name
        assert value.dtype == (np.int8 if name == "provenance" else np.float64), name
        assert not value.flags.writeable, name
        assert not np.shares_memory(value, given), name
    arrays["cols_mm"][0] = 7.0
    assert grid.cols_mm[0] == 0.5
    for name in ("left_cols_mm", "right_cols_mm"):
        with pytest.raises(ValueError, match=f"{name} must be a 1D array"):
            AlignedGrid(**{**arrays, "cols_mm": [0.5, 1.5], name: [[-1.0], [1.0]]})


def test_sampled_lf_validation():
    with pytest.raises(ValueError, match="regular"):
        make_lf(np.zeros((3, 3, H, W)), s_mm=np.array([0.0, 1.0, 3.0]))
    with pytest.raises(ValueError, match="mask"):
        SampledLF(
            images=np.zeros((3, 3, H, W)), mask=np.ones((3, 3, H, W - 1), bool),
            s_mm=S3, t_mm=S3, mapping=MAP,
        )
    with pytest.raises(ValueError, match="s_mm must be a non-empty 1D array"):
        make_lf(np.zeros((3, 0, H, W)), s_mm=np.array([]))
    with pytest.raises(ValueError, match="t_mm has coincident entries"):
        make_lf(np.zeros((3, 3, H, W)), t_mm=np.ones(3))
    with pytest.raises(ValueError, match="images must be"):
        make_lf(np.zeros((3, H, W)))
    with pytest.raises(ValueError, match="grid coordinate counts"):
        make_lf(np.zeros((3, 3, H, W)), s_mm=S3[:2])
    with pytest.raises(ValueError):
        SpatialMapping(u0=0.0, du=0.0, v0=0.0, dv=1.0)
    with pytest.raises(ValueError, match="provenance shape"):
        AlignedGrid(rows_mm=S3, cols_mm=S3, provenance=np.ones((2, 3)), left_cols_mm=S3, right_cols_mm=S3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lattices_and_mappings_reject_non_finite_values(bad):
    """NaN passes a tolerance test such as ``abs(d - mean) > tol``, so
    non-finite entries are rejected before the regularity check."""
    with pytest.raises(ValueError, match="s_mm must be finite"):
        make_lf(np.zeros((3, 3, H, W)), s_mm=np.array([0.0, bad, 2.0]))
    with pytest.raises(ValueError, match="t_mm must be finite"):
        make_lf(np.zeros((3, 3, H, W)), t_mm=np.array([bad, 1.0, 2.0]))
    grid = dict(
        rows_mm=S3, cols_mm=S3, provenance=np.ones((3, 3), np.int8),
        left_cols_mm=S3, right_cols_mm=S3[1:],
    )
    for name in ("rows_mm", "cols_mm", "left_cols_mm", "right_cols_mm"):
        coords = grid[name].copy()
        coords[0] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AlignedGrid(**{**grid, name: coords})
    AlignedGrid(**grid)
    for name in ("u0", "du", "v0", "dv"):
        with pytest.raises(ValueError, match="must be finite"):
            SpatialMapping(**{**vars(MAP), name: bad})


# ---------------------------------------------------------------------------
# rendering onto the aligned grid
# ---------------------------------------------------------------------------


def test_render_on_node_grid_is_bit_exact():
    left = random_lf(1)
    right = random_lf(2)
    setup = identity_setup(4.0)
    grid = plan_aligned_grid(left, right, setup)
    out = render_aligned_sais(left, right, setup, grid)
    assert np.array_equal(out.s_mm, grid.cols_mm)
    assert np.array_equal(out.t_mm, grid.rows_mm)
    assert out.mapping == left.mapping
    # columns -2, 0, 2 come from left sub-apertures 0..2 unchanged
    for j_out, j_src in ((0, 0), (1, 1), (2, 2)):
        assert np.array_equal(out.images[:, j_out], left.images[:, j_src])
        assert out.mask[:, j_out].all()
    # columns 4, 6 come from right sub-apertures 1..2 (s = 0, 2 shifted by 4)
    for j_out, j_src in ((3, 1), (4, 2)):
        assert np.array_equal(out.images[:, j_out], right.images[:, j_src])
        assert out.mask[:, j_out].all()


def test_render_prefers_left_where_both_serve():
    left = make_lf(np.full((3, 3, H, W), 0.25))
    right = make_lf(np.full((3, 3, H, W), 0.75))
    setup = identity_setup(4.0)
    grid = plan_aligned_grid(left, right, setup)
    out = render_aligned_sais(left, right, setup, grid)
    shared = int(np.flatnonzero(grid.cols_mm == 2.0)[0])
    assert int(grid.provenance[1, shared]) == 3
    assert np.all(out.images[:, shared] == 0.25)
    assert np.all(out.images[:, shared + 1] == 0.75)


def test_render_masks_sourceless_column():
    left = random_lf(1)
    right = random_lf(2)
    setup = identity_setup(8.0)
    grid = plan_aligned_grid(left, right, setup)
    out = render_aligned_sais(left, right, setup, grid)
    hole = int(np.flatnonzero(grid.cols_mm == 4.0)[0])
    assert not grid.provenance[:, hole].any()
    assert not out.mask[:, hole].any()
    assert np.all(out.images[:, hole] == 0.0)


def test_render_interpolates_affine_field_exactly_off_lattice():
    """Right light field offset a fraction of a pitch in every coordinate:
    the resampler must interpolate (never snap or extrapolate) and an affine
    field must come through to 1e-12."""
    c = np.array([0.2, 0.03, -0.015, 0.8, 0.6])
    left = affine_lf(c)
    right_map = SpatialMapping(
        u0=MAP.u0 + 0.25 * MAP.du, du=MAP.du,
        v0=MAP.v0 + 0.25 * MAP.dv, dv=MAP.dv,
    )
    right = affine_lf(c, s_mm=S3 + 0.5, t_mm=S3 - 0.5, mapping=right_map)
    setup = identity_setup(4.0)
    grid = plan_aligned_grid(left, right, setup)
    assert np.array_equal(grid.rows_mm, S3)
    assert np.array_equal(grid.cols_mm, [-2.0, 0.0, 2.0, 4.0, 6.0])
    out = render_aligned_sais(left, right, setup, grid)

    field = affine_field(c)
    v_l, u_l = MAP.slopes(np.arange(H), np.arange(W))
    right_only = [j for j in range(5) if grid.provenance[0, j] == 2]
    assert right_only == [3, 4]
    for i in range(3):
        for j in right_only:
            # back-warped query in the right camera's own TPP
            s_q = grid.cols_mm[j] - 4.0
            t_q = grid.rows_mm[i]
            expect_valid = np.zeros((H, W), bool)
            if t_q <= 1.5:  # inside the right t extent [-2.5, 1.5]
                expect_valid[1:, 1:] = True  # first row/col fall off the
                # quarter-offset pixel lattice and must be masked
            assert np.array_equal(out.mask[i, j], expect_valid)
            if not expect_valid.any():
                continue
            expect = field(s_q, t_q, u_l[None, :], v_l[:, None])
            err = np.abs(out.images[i, j] - expect)[expect_valid].max()
            assert err <= 1e-12
    # left-sourced columns are node-exact as in the identity case
    for j_out, j_src in ((0, 0), (1, 1), (2, 2)):
        assert np.array_equal(out.images[:, j_out], left.images[:, j_src])


# ---------------------------------------------------------------------------
# EPI extraction
# ---------------------------------------------------------------------------


def test_extract_epi_orders_by_s():
    images = np.zeros((1, 3, H, W))
    for j, val in enumerate((0.3, 0.6, 0.9)):
        images[0, j] = val
    lf = make_lf(images, s_mm=np.array([4.0, 2.0, 0.0]), t_mm=np.array([0.0]))
    epi = extract_epi(lf, 0, 5)
    assert np.array_equal(epi.s_mm, [0.0, 2.0, 4.0])
    assert np.array_equal(epi.image[:, 0], [0.9, 0.6, 0.3])
    assert epi.image.shape == (3, W)
    assert epi.mask.all()


def test_extract_epi_index_errors():
    lf = random_lf()
    with pytest.raises(IndexOutOfRange):
        extract_epi(lf, 3, 0)
    with pytest.raises(IndexOutOfRange):
        extract_epi(lf, -1, 0)
    with pytest.raises(IndexOutOfRange):
        extract_epi(lf, 0, H)


# ---------------------------------------------------------------------------
# rendered pair: scan-line alignment and EPI slope
# ---------------------------------------------------------------------------

CORNERS = [
    np.array([x, y, 600.0])
    for x in (-10.0, 20.0, 50.0)
    for y in (-30.0, 0.0, 30.0)
]


def _predict_pixel(k, setup, P_world, s, t):
    Pc = setup.R_rect @ P_world
    col = k.fx * (Pc[0] - s) / Pc[2] + k.cx
    row = k.fy * (Pc[1] - t) / Pc[2] + k.cy
    return col, row


def _window_ok(lf, i, j, col, row, half=8):
    c, r = int(round(col)), int(round(row))
    if not (half <= c < lf.width - half and half <= r < lf.height - half):
        return False
    return bool(lf.mask[i, j, r - half : r + half + 1, c - half : c + half + 1].all())


def measure_corner_scan_alignment(k, out, grid, setup):
    """Locate every checkerboard corner that both cameras contribute to a
    grid row, one refined position per source camera.

    Returns a list of {source: (x, y, col_pred, row_pred)} dicts with both
    sources present, where source 1 is the left camera and 2 the right.
    """
    pairs = []
    for P in CORNERS:
        for i in range(out.n_rows):
            measured = {}
            for want in (1, 2):
                for j in range(out.n_cols):
                    if int(grid.provenance[i, j]) != want:
                        continue
                    col, row = _predict_pixel(k, setup, P, out.s_mm[j], out.t_mm[i])
                    if not _window_ok(out, i, j, col, row):
                        continue
                    try:
                        x, y = refine_checkerboard_corner(out.images[i, j], (col, row))
                    except ValueError:
                        continue
                    # reject a refinement that ran away from its prediction
                    if abs(x - col) > 1.0 or abs(y - row) > 1.0:
                        continue
                    measured[want] = (x, y, col, row)
                    break
            if len(measured) == 2:
                pairs.append(measured)
    return pairs


def measure_epi_trace(k, out, grid, setup, P_world):
    """Track a blob along the central-row EPI and fit a line to the trace.

    Returns (s_used, x_used, slope, slope_pred, max_resid) where slope_pred
    is the disparity the common-frame depth dictates and max_resid the worst
    vertical deviation of a centroid from the fitted line, in pixels.
    """
    Pc = setup.R_rect @ P_world
    i = out.n_rows // 2
    t = out.t_mm[i]
    line = int(round(k.fy * (Pc[1] - t) / Pc[2] + k.cy))
    epi = extract_epi(out, i, line)

    s_used, x_used = [], []
    for kk in range(epi.s_mm.size):
        colf = k.fx * (Pc[0] - epi.s_mm[kk]) / Pc[2] + k.cx
        c = int(round(colf))
        if not 8 <= c < out.width - 8:
            continue
        if not epi.mask[kk, c - 8 : c + 9].all():
            continue
        x = blob_centroid(epi.image[kk], epi.mask[kk])
        s_used.append(epi.s_mm[kk])
        x_used.append(x)
    s_used = np.array(s_used)
    x_used = np.array(x_used)

    centroid, direction, _rms = fit_line_tls(s_used, x_used)
    slope = direction[1] / direction[0]
    slope_pred = -k.fx / Pc[2]
    fit = centroid[1] + slope * (s_used - centroid[0])
    return s_used, x_used, slope, slope_pred, np.abs(x_used - fit).max()


def test_corners_land_on_common_scan_lines(checker_rectified):
    k, out, grid, setup = checker_rectified
    pairs = measure_corner_scan_alignment(k, out, grid, setup)
    assert len(pairs) >= 3
    for measured in pairs:
        y_left = measured[1][1]
        y_right = measured[2][1]
        assert abs(y_left - y_right) <= 0.1
        for x, y, col, row in measured.values():
            assert abs(y - row) <= 0.35
            assert abs(x - col) <= 0.35


def test_blob_epi_is_straight_with_predicted_slope(blob_rectified, blob_world):
    k, out, grid, setup = blob_rectified
    s_used, x_used, slope, slope_pred, max_resid = measure_epi_trace(
        k, out, grid, setup, blob_world
    )
    assert s_used.size >= 8
    # both cameras must contribute to the trace
    assert np.isin(s_used, grid.left_cols_mm).sum() >= 2
    assert np.isin(s_used, grid.right_cols_mm).sum() >= 2
    assert abs(slope - slope_pred) <= 0.02 * abs(slope_pred)
    assert max_resid <= 0.5
