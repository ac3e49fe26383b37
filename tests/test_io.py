"""File formats: JSON round trips, CSV layouts, Netpbm encoding, and the
light-field directory store.

Byte-level goldens pin the external formats (PGM sample order, PBM bit
polarity, CSV float formatting, every JSON document) so a change that
silently breaks interchange or run-to-run reproducibility fails here.
"""

import csv
import dataclasses
import errno
import itertools
import json
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfrect import cli, lfio
from lfrect.errors import ConfigError
from lfrect.geometry import LFIntrinsics, RelativePose, euler_xyz_intrinsic
from lfrect.lfio import (
    CORRESPONDENCE_HEADER,
    load_intrinsics,
    load_json,
    load_pose,
    load_sampled_lf,
    load_setup,
    load_sim_config,
    parse_pose_dict,
    parse_sim_config,
    read_correspondence_csv,
    read_pbm,
    read_pgm16,
    save_intrinsics,
    save_json,
    save_pose,
    save_sai_stream,
    save_sampled_lf,
    save_setup,
    write_bench_tables,
    write_correspondence_csv,
    write_pbm,
    write_pgm16,
)
from lfrect.rectify import RectifiedSetup, build_rectified_setup
from lfrect.pose import CorrespondenceSet, EstimationResult, ProjectiveSolution
from lfrect.resample import AlignedGrid, SampledLF, SpatialMapping
from lfrect.bench import noise_sweep_pose, noise_sweep_spec, run_bench
from lfrect.simulate import SimConfig, default_intrinsics_pair, make_sim_config, simulate_trial

from oracles import has_duplicate_pairs, read_correspondence_csv_by_line, read_pnm_tokens_bytewise

from test_resample import MAP, S3, H, W, make_lf, random_lf
from lfrect.resample import plan_aligned_grid
from test_resample import identity_setup


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_json_error_reports_line_and_column(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "a": 1,\n}\n')
    with pytest.raises(ConfigError) as exc:
        load_json(p)
    msg = str(exc.value)
    assert "bad.json" in msg
    assert "line 3" in msg
    assert "column" in msg


def test_json_requires_object_top_level(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2]\n")
    with pytest.raises(ConfigError, match="object"):
        load_json(p)
    with pytest.raises(ConfigError, match="cannot read"):
        load_json(tmp_path / "missing.json")


def test_intrinsics_pose_setup_round_trips(tmp_path, sweep_pose):
    """Intrinsics, pose and setup files read back what was written; a
    setup file without its layout is refused.  The per-type round trips
    live beside each type in test_geometry, test_rectify and
    test_resample."""
    k1, _ = default_intrinsics_pair()
    save_intrinsics(tmp_path / "k.json", k1)
    assert load_intrinsics(tmp_path / "k.json") == k1

    save_pose(tmp_path / "p.json", sweep_pose)
    back = load_pose(tmp_path / "p.json")
    assert np.array_equal(back.R, sweep_pose.R)
    assert np.array_equal(back.T, sweep_pose.T)

    setup = build_rectified_setup(sweep_pose.inverse())
    save_setup(tmp_path / "s.json", setup)
    back = load_setup(tmp_path / "s.json")
    assert np.array_equal(back.R_rect, setup.R_rect)
    assert np.array_equal(back.T_r, setup.T_r)

    doc = load_json(tmp_path / "s.json")
    del doc["layout"]
    save_json(tmp_path / "bad.json", doc)
    with pytest.raises(ConfigError, match="bad.json: setup JSON must declare layout 'row-major'"):
        load_setup(tmp_path / "bad.json")


# Byte goldens for every JSON document lfio writes.  Each document is given
# as compact JSON; the file holds it with sorted keys, two-space indents and
# a final newline, which the intrinsics golden spells out byte for byte.
QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
GOLDEN_K = LFIntrinsics(fx=400.0, fy=410.5, cx=320.0, cy=240.25, K1=0.1, K2=12.0)
GOLDEN_POSE = RelativePose(QUARTER_TURN, [80.0, 5.5, -0.25])
GOLDEN_SETUP = RectifiedSetup(
    R_rect=np.eye(3), R_l=np.eye(3), T_l=np.zeros(3), R_r=QUARTER_TURN,
    T_r=[62.5, 0.0, 0.0], baseline_mm=62.5,
)
GOLDEN_LF = SampledLF(
    images=np.zeros((1, 2, 1, 1)), mask=np.ones((1, 2, 1, 1), bool), s_mm=[-1.0, 1.0],
    t_mm=[0.0], mapping=SpatialMapping(u0=-0.5, du=0.25, v0=-0.375, dv=0.125),
)
GOLDEN_GRID = AlignedGrid(
    rows_mm=[0.0], cols_mm=[-1.0, 1.0], provenance=[[1, 3]],
    left_cols_mm=[-1.0, 1.0], right_cols_mm=[1.0],
)
GOLDEN_RESULT = EstimationResult(
    pose=GOLDEN_POSE,
    linear=ProjectiveSolution(
        W_prime=np.eye(4), W=np.eye(4), c=1.0, singular_values=np.array([3.5, 2.0, 1e-9])
    ),
    degeneracy=None, initial_cost=np.float64(0.125), final_cost=np.float64(0.0625),
    iterations=3, converged=True, refined=True,
)
POSE_GOLDEN = (
    '"R": [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0], "T": [80.0, 5.5, -0.25], '
    '"layout": "row-major"'
)
MAPPING_GOLDEN = (
    '"cols_mm": [-1.0, 1.0], "mapping": {"du": 0.25, "dv": 0.125, "u0": -0.5, "v0": -0.375}, '
    '"mask": "pbm-black-is-invalid", "rows_mm": [0.0]'
)
IDENTITY_GOLDEN = "[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]"
# Document -> (file it is written to, writer of that file, compact JSON).
JSON_GOLDENS = {
    "intrinsics": (
        "k.json", lambda p: save_intrinsics(p, GOLDEN_K),
        '{"K1": 0.1, "K2": 12.0, "cx": 320.0, "cy": 240.25, "fx": 400.0, "fy": 410.5}',
    ),
    "pose": ("p.json", lambda p: save_pose(p, GOLDEN_POSE), "{" + POSE_GOLDEN + "}"),
    "setup": (
        "s.json", lambda p: save_setup(p, GOLDEN_SETUP),
        f'{{"R_l": {IDENTITY_GOLDEN}, "R_r": [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0], '
        f'"R_rect": {IDENTITY_GOLDEN}, "T_l": [0.0, 0.0, 0.0], "T_r": [62.5, 0.0, 0.0], '
        '"baseline_mm": 62.5, "layout": "row-major"}',
    ),
    "grid": ("lf/grid.json", lambda p: save_sampled_lf(p.parent, GOLDEN_LF), "{" + MAPPING_GOLDEN + "}"),
    "grid-aligned": (
        "lf/grid.json", lambda p: save_sampled_lf(p.parent, GOLDEN_LF, GOLDEN_GRID),
        '{"aligned": {"cols_mm": [-1.0, 1.0], "left_cols_mm": [-1.0, 1.0], '
        '"provenance": [[1, 3]], "right_cols_mm": [1.0], "rows_mm": [0.0]}, ' + MAPPING_GOLDEN + "}",
    ),
}


def _golden_bytes(compact: str) -> bytes:
    return (json.dumps(json.loads(compact), indent=2, sort_keys=True) + "\n").encode()


def test_json_golden_layout():
    assert _golden_bytes(JSON_GOLDENS["intrinsics"][2]) == (
        b'{\n  "K1": 0.1,\n  "K2": 12.0,\n  "cx": 320.0,\n  "cy": 240.25,\n'
        b'  "fx": 400.0,\n  "fy": 410.5\n}\n'
    )


@pytest.mark.parametrize("name", sorted(JSON_GOLDENS))
def test_json_document_golden_bytes(tmp_path, name):
    file, save, compact = JSON_GOLDENS[name]
    save(tmp_path / file)
    assert (tmp_path / file).read_bytes() == _golden_bytes(compact)


def test_estimate_document_golden_bytes(tmp_path, monkeypatch, corr_noisy):
    """The estimate file is the pose document plus the solver's
    diagnostics, written by ``lfrect estimate``."""
    k1, k2 = default_intrinsics_pair()
    save_intrinsics(tmp_path / "k1.json", k1)
    save_intrinsics(tmp_path / "k2.json", k2)
    write_correspondence_csv(tmp_path / "c.csv", corr_noisy)
    monkeypatch.setattr(cli, "estimate_pose", lambda corr, refine=True: GOLDEN_RESULT)
    out = tmp_path / "est.json"
    argv = ["estimate", "--points", str(tmp_path / "c.csv"), "--out", str(out),
            "--intrinsics1", str(tmp_path / "k1.json"), "--intrinsics2", str(tmp_path / "k2.json")]
    assert cli.main(argv) == 0
    assert out.read_bytes() == _golden_bytes(
        "{" + POSE_GOLDEN + ', "converged": true, "final_cost": 0.0625, "initial_cost": 0.125, '
        '"iterations": 3, "refined": true, "singular_values": [3.5, 2.0, 1e-09]}'
    )


# ---------------------------------------------------------------------------
# correspondence CSV
# ---------------------------------------------------------------------------


def test_correspondence_csv_round_trip_is_exact(tmp_path, corr_noisy):
    p = tmp_path / "corr.csv"
    write_correspondence_csv(p, corr_noisy)
    first_line = p.read_text().splitlines()[0]
    assert first_line == ",".join(CORRESPONDENCE_HEADER)
    back = read_correspondence_csv(p, corr_noisy.k1, corr_noisy.k2)
    # repr() floats survive the text round trip bit for bit
    assert np.array_equal(back.first, corr_noisy.first)
    assert np.array_equal(back.second, corr_noisy.second)
    assert back.k1 == corr_noisy.k1

    write_correspondence_csv(tmp_path / "again.csv", corr_noisy)
    assert (tmp_path / "again.csv").read_bytes() == p.read_bytes()


def test_correspondence_csv_rejects_malformed(tmp_path):
    k1, k2 = default_intrinsics_pair()
    p = tmp_path / "c.csv"
    p.write_text("u,v\n1,2\n")
    with pytest.raises(ConfigError, match="first line"):
        read_correspondence_csv(p, k1, k2)

    head = ",".join(CORRESPONDENCE_HEADER)
    p.write_text(f"{head}\n1,2,3\n")
    with pytest.raises(ConfigError, match="6 columns"):
        read_correspondence_csv(p, k1, k2)

    p.write_text(f"{head}\n1,2,3,4,5,x\n")
    with pytest.raises(ConfigError, match=":2:"):
        read_correspondence_csv(p, k1, k2)

    # csv.reader refuses a field over its size limit while tokenizing.
    huge = '"' + "1" * (csv.field_size_limit() + 1) + '"'
    p.write_text(f"{head}\n1,2,3,4,5,6\n{huge},2,3,4,5,6\n")
    with pytest.raises(ConfigError, match=":3: field larger than field limit"):
        read_correspondence_csv(p, k1, k2)
    p.write_text(f"{huge}\n")
    with pytest.raises(ConfigError, match=":1: field larger than field limit"):
        read_correspondence_csv(p, k1, k2)

    # three points: structurally fine, semantically too few
    rows = "\n".join("0.1,0.2,-0.3,0.4,0.5,-0.6" for _ in range(3))
    p.write_text(f"{head}\n{rows}\n")
    with pytest.raises(ConfigError):
        read_correspondence_csv(p, k1, k2)


def test_correspondence_csv_skips_blank_lines(tmp_path):
    k1, k2 = default_intrinsics_pair()
    head = ",".join(CORRESPONDENCE_HEADER)
    rows = "\n\n".join(
        f"0.1,{0.2 + 0.01 * i},-0.3,0.4,{0.5 - 0.01 * i},-0.6" for i in range(4)
    )
    p = tmp_path / "c.csv"
    p.write_text(f"{head}\n{rows}\n\n")
    back = read_correspondence_csv(p, k1, k2)
    assert back.first.shape == (4, 3)


# Values drawn for data rows: 0.0 and -0.0 make pairs that differ only in
# the sign of a zero, which count as duplicates.
_CSV_VALUES = [0.0, -0.0, 1.5, -2.25, 1e-05, 317.0625]


@st.composite
def correspondence_csv_text(draw):
    """A correspondence CSV: data rows with padded and quoted fields,
    repeated rows with the sign of their zeros flipped, blank,
    whitespace-only and blank-field lines, and at most one row with a bad
    field, too few columns or a non-finite value, with LF or CRLF line
    ends."""
    header = ",".join(CORRESPONDENCE_HEADER)
    lines = [draw(st.sampled_from([header, f'"u_c", {header[4:]} ']))]
    kinds = draw(st.lists(st.sampled_from(
        ["row"] * 16 + ["repeat", "blank", "spaces", "blank-fields"]
    ), min_size=3, max_size=16))
    fault = draw(st.sampled_from([None, None, None, "bad", "short", "inf"]))
    if fault:
        kinds.insert(draw(st.integers(0, len(kinds))), fault)
    rows = []
    for kind in kinds:
        if kind == "row" or (kind == "repeat" and not rows):
            row = [repr(v) for v in draw(st.lists(st.sampled_from(_CSV_VALUES), min_size=6, max_size=6))]
            rows.append(row)
            fmt = draw(st.sampled_from(["{}", " {} ", '"{}"', '"{}\n"']))
            lines.append(",".join(fmt.format(c) if i == 0 else c for i, c in enumerate(row)))
        elif kind == "repeat":
            row = draw(st.sampled_from(rows))
            flip = {"0.0": "-0.0", "-0.0": "0.0"}
            lines.append(",".join(flip.get(c, c) for c in row))
        else:
            lines.append({
                "blank": "",
                "spaces": " \t ",
                "blank-fields": draw(st.sampled_from([" , ,,,, ", '""'])),
                "bad": "1.0,2.0,-0.5,4.0,x,-0.5",
                "short": "1.0,2.0,-0.5",
                "inf": "1.0,2.0,-0.5,inf,5.0,-0.5",
            }[kind])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


def _read_outcome(reader, path, k1, k2):
    """The pairs as bytes (so -0.0 differs from 0.0), or the error text."""
    try:
        corr = reader(path, k1, k2)
    except ConfigError as e:
        return str(e)
    return corr.first.tobytes() + corr.second.tobytes()


@given(correspondence_csv_text())
@settings(max_examples=300, deadline=None)
def test_correspondence_csv_matches_line_by_line_reader(tmp_path_factory, text):
    k1, k2 = default_intrinsics_pair()
    p = tmp_path_factory.mktemp("csv") / "c.csv"
    p.write_bytes(text.encode())
    want = _read_outcome(read_correspondence_csv_by_line, p, k1, k2)
    got = _read_outcome(read_correspondence_csv, p, k1, k2)
    if want == f"{p}: correspondences must be matching (n, 3) arrays":
        # A file with no data rows: the one-pass reader hands the set an
        # empty (0, 3) array where the old one handed it shape (0,).
        assert got == f"{p}: at least 4 correspondences are required"
    else:
        assert got == want


def _hand_formatted_csv():
    """Decimals as people type them: short, exponent, padded, signed zero."""
    head = ",".join(CORRESPONDENCE_HEADER)
    rows = [
        "64.4222,131.2756,-0.1769,326.4580,77.0080,-0.1531",
        "1e-5,1E+2, 3.5 ,-0.0,0.0,-.25",
        "  74.1058,131.1882,-0.1778,335.0921,77.3608,-0.1545  ",
        "83.91,+131.0998,-1.787e-1,343.9287,77.7218,-0.156",
        "93.8370,131.0102,-0.1797,352.9751,78.0915,-0.1575",
    ]
    return f"{head}\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("case", ["dense-repr", "hand-formatted"])
def test_plain_csv_fast_path_matches_line_by_line_reader(tmp_path, corr_dense, case):
    k1, k2 = corr_dense.k1, corr_dense.k2
    p = tmp_path / "c.csv"
    if case == "dense-repr":
        write_correspondence_csv(p, corr_dense)
    else:
        p.write_text(_hand_formatted_csv())
    # The file takes the one-pass np.loadtxt route, not the csv.reader one.
    assert lfio._plain_csv_pairs(p.read_text()) is not None
    got = _read_outcome(read_correspondence_csv, p, k1, k2)
    assert got == _read_outcome(read_correspondence_csv_by_line, p, k1, k2)
    assert isinstance(got, bytes)


@given(st.lists(st.lists(st.sampled_from(_CSV_VALUES), min_size=6, max_size=6), min_size=4, max_size=12))
@settings(max_examples=300, deadline=None)
def test_duplicate_check_matches_tuple_set(rows):
    k1, k2 = default_intrinsics_pair()
    pairs = np.array(rows)
    first, second = pairs[:, :3], pairs[:, 3:]
    if has_duplicate_pairs(first, second):
        with pytest.raises(ValueError, match="duplicate"):
            CorrespondenceSet(first=first, second=second, k1=k1, k2=k2)
    else:
        CorrespondenceSet(first=first, second=second, k1=k1, k2=k2)


def test_readme_correspondence_example_reads(tmp_path):
    """The README's correspondence example is a file the reader accepts."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```csv\n", 1)[1].split("```", 1)[0]
    lines = [line.strip() for line in block.splitlines() if line.strip()]
    assert lines[0] == ",".join(CORRESPONDENCE_HEADER)
    p = tmp_path / "readme.csv"
    p.write_text("\n".join(lines) + "\n")
    k1, k2 = default_intrinsics_pair()
    assert len(read_correspondence_csv(p, k1, k2)) == len(lines) - 1


# ---------------------------------------------------------------------------
# Netpbm
# ---------------------------------------------------------------------------


def test_pgm16_golden_bytes(tmp_path):
    p = tmp_path / "a.pgm"
    write_pgm16(p, np.array([[1.0, 0.0], [0.25, 258.0 / 65535.0]]))
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n2 2\n65535\n")
    payload = raw[len(b"P5\n2 2\n65535\n"):]
    # big-endian 16-bit samples, row-major: 65535, 0, 16384, 258
    assert payload == b"\xff\xff\x00\x00\x40\x00\x01\x02"


def test_pgm16_round_trip_quantizes_to_half_lsb(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (9, 13))
    p = tmp_path / "r.pgm"
    write_pgm16(p, img)
    back = read_pgm16(p)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 0.5 / 65535.0 + 1e-12
    # out-of-range input clips
    write_pgm16(p, np.array([[-0.5, 1.5]]))
    assert np.array_equal(read_pgm16(p), [[0.0, 1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_pixel_is_refused(tmp_path, bad):
    """A NaN pixel would be stored as 0 and an infinite one clipped to 0
    or 1, a silent wrong answer; both writers refuse it before writing."""
    image = np.full((2, 3), 0.5)
    image[1, 2] = bad
    with pytest.raises(ValueError, match="image pixels must be finite"):
        write_pgm16(tmp_path / "a.pgm", image)
    assert not (tmp_path / "a.pgm").exists()
    lf = random_lf(seed=11)
    lf.images[1, 1, 2, 3] = bad
    with pytest.raises(ValueError, match="image pixels must be finite"):
        save_sampled_lf(tmp_path / "lf", lf)
    assert not (tmp_path / "lf" / "grid.json").exists()


@pytest.mark.parametrize("shape", [(6,), (2, 3, 1)])
def test_image_or_mask_that_is_not_2d_is_refused(tmp_path, shape):
    with pytest.raises(ValueError, match="image must be 2D"):
        write_pgm16(tmp_path / "a.pgm", np.zeros(shape))
    with pytest.raises(ValueError, match="mask must be 2D"):
        write_pbm(tmp_path / "a.pbm", np.ones(shape, bool))
    assert not list(tmp_path.iterdir())


def test_pgm_reader_handles_comments_and_8bit(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n3 2\n255\n" + bytes([0, 51, 102, 153, 204, 255]))
    img = read_pgm16(p)
    assert img.shape == (2, 3)
    assert img[0, 1] == pytest.approx(0.2)
    assert img[1, 2] == 1.0
    (tmp_path / "bad").write_bytes(b"P6\n1 1\n255\nxxx")
    with pytest.raises(ValueError, match="not a binary PGM"):
        read_pgm16(tmp_path / "bad")


def _header_outcome(parse):
    """What a header parse gives: its fields and data offset, or None for
    a ValueError (a bad or truncated header)."""
    try:
        return parse()
    except ValueError:
        return None


def _bytewise_fields(raw: bytes, count: int):
    tokens, offset = read_pnm_tokens_bytewise(raw[2:], count)
    if 2 + offset > len(raw):  # no byte ends the header
        raise ValueError("truncated Netpbm header")
    return [int(t) for t in tokens], 2 + offset


_HEADER_BYTES = [b" ", b"\n", b"\r", b"\t", b"\x0b", b"\x0c", b"#", b"0", b"7", b"12", b"-", b"x"]


@given(
    st.sampled_from([(b"P5", 3, "PGM"), (b"P4", 2, "PBM")]),
    st.lists(st.sampled_from(_HEADER_BYTES), max_size=16),
)
@settings(max_examples=500, deadline=None)
def test_netpbm_header_pattern_matches_bytewise_scan(kind, body):
    magic, count, name = kind
    raw = magic + b"".join(body)
    header = lfio._PGM_HEADER if name == "PGM" else lfio._PBM_HEADER
    want = _header_outcome(lambda: _bytewise_fields(raw, count))
    assert _header_outcome(lambda: lfio._pnm_fields(header, raw, name)) == want


def test_pbm_polarity_black_is_invalid(tmp_path):
    p = tmp_path / "m.pbm"
    write_pbm(p, np.array([[True, False, True]]))
    raw = p.read_bytes()
    assert raw == b"P4\n3 1\n\x40"  # middle bit set = black = invalid
    assert np.array_equal(read_pbm(p), [[True, False, True]])


def test_pbm_round_trip_odd_width(tmp_path):
    rng = np.random.default_rng(1)
    mask = rng.uniform(size=(5, 11)) > 0.4
    p = tmp_path / "m.pbm"
    write_pbm(p, mask)
    assert np.array_equal(read_pbm(p), mask)


# ---------------------------------------------------------------------------
# light-field directories
# ---------------------------------------------------------------------------


def test_sampled_lf_directory_round_trip(tmp_path):
    lf = random_lf(seed=4)
    grid = plan_aligned_grid(random_lf(1), random_lf(2), identity_setup(4.0))
    d = tmp_path / "lf"
    save_sampled_lf(d, lf, grid)
    assert (d / "sai_r0_c0.pgm").exists()
    assert (d / "sai_r2_c2.pbm").exists()
    back, back_grid = load_sampled_lf(d)
    assert np.array_equal(back.s_mm, lf.s_mm)
    assert np.array_equal(back.t_mm, lf.t_mm)
    assert back.mapping == lf.mapping
    assert np.abs(back.images - lf.images).max() <= 0.5 / 65535.0 + 1e-12
    assert np.array_equal(back.mask, lf.mask)
    assert np.array_equal(back_grid.provenance, grid.provenance)
    assert np.array_equal(back_grid.cols_mm, grid.cols_mm)


def test_sampled_lf_rewrite_is_byte_identical(tmp_path):
    """Saving into a directory that already holds a light field replaces
    every file with the same bytes, and leaves no stale content when the
    new files are shorter."""
    lf = random_lf(seed=6)
    grid = plan_aligned_grid(random_lf(1), random_lf(2), identity_setup(4.0))
    first, d = tmp_path / "first", tmp_path / "lf"
    save_sampled_lf(first, lf, grid)
    save_sampled_lf(d, random_lf(seed=7, s_mm=S3 * 1000.0))  # longer grid.json
    old = (d / "sai_r0_c0.pgm").read_bytes()
    os.link(d / "sai_r0_c0.pgm", tmp_path / "old.pgm")
    save_sampled_lf(d, lf, grid)
    names = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in d.iterdir()) == names
    for name in names:
        assert (d / name).read_bytes() == (first / name).read_bytes(), name
    # The old file was unlinked and a new one created, not truncated.
    assert (tmp_path / "old.pgm").read_bytes() == old


def twin_lf():
    """A 3x3 light field with repeated contents: sub-apertures (0, 0) and
    (0, 1) share an image, row 2 is black and invalid as an unrendered
    sub-aperture is, and rows 0 and 1 are valid everywhere."""
    lf = random_lf(seed=8)
    images, mask = lf.images.copy(), lf.mask.copy()
    images[0, 1] = images[0, 0]
    images[2] = 0.0
    mask[2] = False
    return make_lf(images, mask=mask)


def _sai_files(d):
    return sorted(p for p in d.iterdir() if p.name.startswith("sai_"))


def test_sampled_lf_writes_through_symlinked_files(tmp_path):
    """Only regular files in the output directory are replaced; a symlink
    there stays a symlink and its target receives the data.  The target is
    never a link source: the symlink's twins stay separate files."""
    lf = twin_lf()
    d = tmp_path / "lf"
    save_sampled_lf(d, lf)
    targets = [tmp_path / "target.pgm", tmp_path / "target.pbm"]
    for target in targets:
        target.write_bytes(b"old")
        (d / f"sai_r2_c0{target.suffix}").unlink()
        (d / f"sai_r2_c0{target.suffix}").symlink_to(target)
    save_sampled_lf(d, lf)
    save_sampled_lf(tmp_path / "fresh", lf)
    for target in targets:
        assert (d / f"sai_r2_c0{target.suffix}").is_symlink()
        assert target.read_bytes() == (tmp_path / "fresh" / f"sai_r2_c0{target.suffix}").read_bytes()
        assert target.stat().st_nlink == 1
        twins = [d / f"sai_r2_c{j}{target.suffix}" for j in (1, 2)]
        assert not any(p.is_symlink() for p in twins)
        assert os.path.samefile(*twins)
        assert twins[0].read_bytes() == target.read_bytes()


def test_sampled_lf_files_equal_single_file_writes(tmp_path):
    lf = twin_lf()
    d = tmp_path / "lf"
    save_sampled_lf(d, lf)
    assert len(_sai_files(d)) == 2 * lf.n_rows * lf.n_cols
    for i, j in np.ndindex(lf.n_rows, lf.n_cols):
        write_pgm16(tmp_path / "one.pgm", lf.images[i, j])
        write_pbm(tmp_path / "one.pbm", lf.mask[i, j])
        for ext in ("pgm", "pbm"):
            assert (d / f"sai_r{i}_c{j}.{ext}").read_bytes() == (tmp_path / f"one.{ext}").read_bytes()


def test_sampled_lf_hard_links_equal_files(tmp_path):
    d = tmp_path / "lf"
    save_sampled_lf(d, twin_lf())
    files = _sai_files(d)
    for a, b in itertools.combinations(files, 2):
        same = a.read_bytes() == b.read_bytes()
        assert (a.stat().st_ino == b.stat().st_ino) == same, (a.name, b.name)
    # 4 distinct images, one shared pair, 3 black images and 3 invalid
    # masks (3 names each), 6 valid masks
    assert sorted(p.stat().st_nlink for p in files) == [1] * 4 + [2] * 2 + [3] * 6 + [6] * 6


def test_sampled_lf_without_hard_links_writes_every_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError(errno.EPERM, "Operation not permitted")

    lf = twin_lf()
    save_sampled_lf(tmp_path / "linked", lf)
    monkeypatch.setattr(os, "link", refuse)
    d = tmp_path / "lf"
    save_sampled_lf(d, lf)
    files = _sai_files(d)
    assert len({p.stat().st_ino for p in files}) == len(files)
    for p in files:
        assert stat.S_ISREG(p.lstat().st_mode) and p.stat().st_nlink == 1
        assert p.read_bytes() == (tmp_path / "linked" / p.name).read_bytes()


def test_sampled_lf_link_limit_starts_a_new_source(tmp_path, monkeypatch):
    """When a file cannot take another link (EMLINK), the twin is written
    and later twins link to it instead."""
    link = os.link

    def link_at_most_twice(src, dst):
        if os.stat(src).st_nlink >= 2:
            raise OSError(errno.EMLINK, "Too many links")
        link(src, dst)

    monkeypatch.setattr(os, "link", link_at_most_twice)
    d = tmp_path / "lf"
    save_sampled_lf(d, twin_lf())
    valid = [d / f"sai_r{i}_c{j}.pbm" for i in (0, 1) for j in (0, 1, 2)]
    assert [p.stat().st_nlink for p in valid] == [2] * 6
    assert len({p.stat().st_ino for p in valid}) == 3
    assert os.path.samefile(valid[2], valid[3])


def test_sampled_lf_rewrite_keeps_twins_apart(tmp_path):
    """Re-saving a directory where one of two linked twins changes gives
    each its own bytes: the changed file is replaced, not edited in place
    through the link."""
    lf = twin_lf()
    d = tmp_path / "lf"
    save_sampled_lf(d, lf)
    a, b = d / "sai_r0_c0.pgm", d / "sai_r0_c1.pgm"
    assert os.path.samefile(a, b)
    old = a.read_bytes()
    images = lf.images.copy()
    images[0, 1] = 1.0 - images[0, 1]
    changed = make_lf(images, mask=lf.mask)
    save_sampled_lf(d, changed)
    save_sampled_lf(tmp_path / "fresh", changed)
    assert a.read_bytes() == old
    assert b.read_bytes() != old
    for p in _sai_files(d):
        assert p.read_bytes() == (tmp_path / "fresh" / p.name).read_bytes(), p.name


def near_blank_lf():
    """A 3x3 light field where only row 2 is blank (zero image, invalid
    mask); (0, 0) is a zero image with valid pixels, (0, 1) a zero image
    with one valid pixel, (1, 0) an image with one non-zero sample under
    an all-invalid mask, and (1, 1) an image of -0.0 under an all-invalid
    mask, which encodes as zero."""
    lf = random_lf(seed=9)
    images, mask = lf.images.copy(), lf.mask.copy()
    images[0, :2] = images[2] = 0.0
    mask[0, 1] = mask[1, :2] = mask[2] = False
    mask[0, 1, 3, 4] = True
    images[1, 0] = 0.0
    images[1, 0, 7, 9] = 1e-3
    images[1, 1] = -0.0
    return make_lf(images, mask=mask)


def test_sampled_lf_bytes_equal_per_sai_encoding(tmp_path):
    """Every file holds the bytes of its own sub-aperture's encoding: the
    blank encoding is shared only by sub-apertures with a zero image and
    an all-invalid mask."""
    lf = near_blank_lf()
    d = tmp_path / "lf"
    save_sampled_lf(d, lf)
    for i, j in np.ndindex(lf.n_rows, lf.n_cols):
        assert (d / f"sai_r{i}_c{j}.pgm").read_bytes() == lfio._pgm16_bytes(lf.images[i, j])
        assert (d / f"sai_r{i}_c{j}.pbm").read_bytes() == lfio._pbm_bytes(lf.mask[i, j])
    blank_pgm, blank_pbm = d / "sai_r2_c0.pgm", d / "sai_r2_c0.pbm"
    # zero images share the blank image's file, all-invalid masks its mask
    assert os.path.samefile(d / "sai_r0_c0.pgm", blank_pgm)
    assert os.path.samefile(d / "sai_r1_c1.pgm", blank_pgm)
    assert os.path.samefile(d / "sai_r1_c0.pbm", blank_pbm)
    assert not os.path.samefile(d / "sai_r1_c0.pgm", blank_pgm)
    assert not os.path.samefile(d / "sai_r0_c1.pbm", blank_pbm)


def test_sampled_lf_encodes_the_blank_sub_aperture_once(tmp_path, monkeypatch):
    encoded = []
    for name in ("_pgm16_bytes", "_pbm_bytes"):
        encode = getattr(lfio, name)
        monkeypatch.setattr(lfio, name, lambda a, encode=encode: encoded.append(a) or encode(a))
    save_sampled_lf(tmp_path / "lf", near_blank_lf())
    # five sub-apertures of their own plus the blank one, image and mask
    # each; (1, 1), whose image is -0.0, is blank
    assert len(encoded) == 2 * 6


def tree_of(d):
    """Each file of directory ``d`` by name, with its bytes, and the
    groups of names that are hard links of one another."""
    files = {p.name: p.read_bytes() for p in d.iterdir()}
    inodes = {}
    for p in d.iterdir():
        inodes.setdefault(p.stat().st_ino, set()).add(p.name)
    return files, sorted(sorted(names) for names in inodes.values())


def test_sai_stream_stores_the_cells_never_yielded_as_blank(tmp_path):
    """A stream that skips cells writes the files, bytes and hard links of
    the dense light field that is blank at those cells."""
    lf = twin_lf()  # row 2 is blank
    images, mask = lf.images.copy(), lf.mask.copy()
    images[1, 1] = 0.0
    mask[1, 1] = False
    dense = make_lf(images, mask=mask)
    skipped = {(1, 1), (2, 0), (2, 1), (2, 2)}
    sais = (
        (i, j, dense.images[i, j], dense.mask[i, j])
        for i, j in np.ndindex(3, 3)
        if (i, j) not in skipped
    )
    save_sai_stream(tmp_path / "streamed", sais, S3, S3, MAP, (H, W))
    save_sampled_lf(tmp_path / "dense", dense)
    assert tree_of(tmp_path / "streamed") == tree_of(tmp_path / "dense")


@pytest.mark.parametrize(
    "cells", [[(0, 1), (0, 0)], [(0, 0), (0, 0)], [(0, 3)], [(3, 0)], [(-1, 2)]],
    ids=["backwards", "twice", "col-off-grid", "row-off-grid", "negative"],
)
def test_sai_stream_refuses_cells_out_of_order_or_off_the_grid(tmp_path, cells):
    image, mask = np.zeros((H, W)), np.ones((H, W), bool)
    sais = ((i, j, image, mask) for i, j in cells)
    with pytest.raises(ValueError, match="out of row-major order or off the grid"):
        save_sai_stream(tmp_path / "lf", sais, S3, S3, MAP, (H, W))
    assert not (tmp_path / "lf" / "grid.json").exists()


def test_sai_stream_refuses_a_mis_sized_sub_aperture(tmp_path):
    sais = [(0, 0, np.zeros((H, W - 1)), np.ones((H, W - 1), bool))]
    with pytest.raises(ValueError, match=f"sub-aperture \\(0, 0\\) is not {W}x{H} pixels"):
        save_sai_stream(tmp_path / "lf", sais, S3, S3, MAP, (H, W))
    assert not (tmp_path / "lf" / "grid.json").exists()


def test_sai_stream_that_fails_leaves_no_grid_json(tmp_path):
    """A rewrite whose sub-apertures stop arriving leaves the directory
    without grid.json, rather than beside the previous save's."""
    d = tmp_path / "lf"
    save_sampled_lf(d, random_lf(seed=12))

    def failing():
        yield 0, 0, np.zeros((H, W)), np.ones((H, W), bool)
        raise RuntimeError("renderer failed")

    with pytest.raises(RuntimeError, match="renderer failed"):
        save_sai_stream(d, failing(), S3, S3, MAP, (H, W))
    assert not (d / "grid.json").exists()


def test_sampled_lf_lists_the_directory_instead_of_lstat(tmp_path, monkeypatch):
    """A rewrite learns which names hold regular files from one listing of
    the directory: no os.lstat per file, and the same results as a fresh
    save."""
    lf = twin_lf()
    d = tmp_path / "lf"
    save_sampled_lf(d, random_lf(seed=10))
    target = tmp_path / "target.pgm"
    (d / "sai_r0_c2.pgm").unlink()
    (d / "sai_r0_c2.pgm").symlink_to(target)
    (d / "notes.txt").write_text("kept")

    def refuse(*args, **kwargs):
        raise AssertionError("os.lstat called")

    monkeypatch.setattr(os, "lstat", refuse)
    save_sampled_lf(d, lf)
    monkeypatch.undo()
    save_sampled_lf(tmp_path / "fresh", lf)
    assert (d / "sai_r0_c2.pgm").is_symlink()
    assert target.read_bytes() == (tmp_path / "fresh" / "sai_r0_c2.pgm").read_bytes()
    assert (d / "notes.txt").read_text() == "kept"
    for p in (tmp_path / "fresh").iterdir():
        assert (d / p.name).read_bytes() == p.read_bytes(), p.name


def test_sampled_lf_fails_on_a_directory_entry(tmp_path):
    """A directory where a sub-aperture file belongs is neither removed nor
    replaced: writing through it fails, as for any other non-regular
    entry that cannot take bytes."""
    d = tmp_path / "lf"
    (d / "sai_r1_c1.pbm").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        save_sampled_lf(d, twin_lf())
    assert (d / "sai_r1_c1.pbm").is_dir()


# Each writer of a file, as (path, version) -> None: the two versions write
# different bytes.
EVERY_WRITER = {
    "save_setup": lambda p, v: save_setup(p, build_rectified_setup(RelativePose(np.eye(3), [v + 4.0, 1.0, 0.5]))),
    "save_json": lambda p, v: save_json(p, {"a": v}),
    "write_pgm16": lambda p, v: write_pgm16(p, np.full((2, 3), 0.25 * (v + 1))),
    "write_pbm": lambda p, v: write_pbm(p, np.eye(2, 3, k=v, dtype=bool)),
    "write_correspondence_csv": lambda p, v: write_correspondence_csv(
        p, simulate_trial(make_sim_config(noise_sweep_pose(), sigma_px=0.3), v)
    ),
    "write_bench_tables": lambda p, v: write_bench_tables(p, run_bench(noise_sweep_spec(1, seed=v))),
}


@pytest.mark.parametrize("name", list(EVERY_WRITER))
def test_every_writer_replaces_a_regular_file(tmp_path, name):
    """A file is replaced, not edited in place, so a hard-linked copy of an
    old output keeps its bytes; a symlink there is written through."""
    write = EVERY_WRITER[name]
    path, copy = tmp_path / "out", tmp_path / "copy"
    write(path, 0)
    old = path.read_bytes()
    os.link(path, copy)
    write(path, 1)
    assert copy.read_bytes() == old
    assert path.read_bytes() != old
    path.unlink()
    path.symlink_to(copy)
    write(path, 1)
    assert path.is_symlink()
    write(tmp_path / "fresh", 1)
    assert copy.read_bytes() == (tmp_path / "fresh").read_bytes()


WRITERS = {
    "save_json": lambda p: save_json(p, {"a": 1}),
    "write_pgm16": lambda p: write_pgm16(p, np.full((2, 3), 0.5)),
    "write_pbm": lambda p: write_pbm(p, np.ones((2, 3), bool)),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_single_file_writers_write_in_place(tmp_path, monkeypatch, name):
    """A symlink or a device, such as the null device, at a user-named
    output is written through and never unlinked."""

    def refuse(*args, **kwargs):
        raise AssertionError("writer unlinked its output path")

    WRITERS[name](tmp_path / "plain")
    monkeypatch.setattr(os, "unlink", refuse)
    monkeypatch.setattr(os, "remove", refuse)
    target = tmp_path / "target"
    target.write_bytes(b"old")
    link = tmp_path / "link"
    link.symlink_to(target)
    WRITERS[name](link)
    assert link.is_symlink()
    assert target.read_bytes() == (tmp_path / "plain").read_bytes()
    WRITERS[name](os.devnull)
    assert not os.path.isfile(os.devnull)


@pytest.mark.parametrize(
    "name, shape",
    [("sai_r1_c1.pgm", (1, W)), ("sai_r1_c1.pbm", (1, W)), ("sai_r2_c0.pgm", (H, 1))],
    ids=["image-1-row", "mask-1-row", "image-1-column"],
)
def test_sampled_lf_refuses_a_mis_sized_sub_aperture(tmp_path, name, shape):
    """Decoding into the stacked arrays would broadcast a one-row or
    one-column file over its whole sub-aperture; any size other than the
    first image's is an error naming the file."""
    save_sampled_lf(tmp_path, random_lf(seed=3))
    (tmp_path / name).unlink()  # it may be a hard link of its twins
    write = write_pgm16 if name.endswith(".pgm") else write_pbm
    write(tmp_path / name, np.ones(shape))
    h, w = shape
    with pytest.raises(ConfigError, match=f"{name}: {w}x{h} pixels, expected {W}x{H}$"):
        load_sampled_lf(tmp_path)


def test_sampled_lf_without_grid_or_masks(tmp_path):
    lf = random_lf(seed=5)
    lf = make_lf(lf.images, mask=lf.images > 0.2)
    d = tmp_path / "lf"
    save_sampled_lf(d, lf)
    (d / "sai_r1_c1.pbm").unlink()  # a missing mask file means all-valid
    back, grid = load_sampled_lf(d)
    assert grid is None
    assert back.mask[1, 1].all()
    assert np.array_equal(back.images, np.round(lf.images * 65535.0) / 65535.0)
    mask = lf.mask.copy()
    mask[1, 1] = True
    assert np.array_equal(back.mask, mask)
    # Any other failure to read a mask file names it.
    (d / "sai_r1_c1.pbm").mkdir()
    with pytest.raises(ConfigError, match="sai_r1_c1.pbm"):
        load_sampled_lf(d)


def _header_claims_2048(d):
    """A 3x3 directory whose first image is a 31-byte file with a
    2048x2048 header."""
    save_sampled_lf(d, random_lf(seed=3))
    (d / "sai_r0_c0.pgm").unlink()  # it may be a hard link of its twins
    (d / "sai_r0_c0.pgm").write_bytes(b"P5\n2048 2048\n65535\n" + bytes(12))
    return "sai_r0_c0.pgm: "


def _grid_names_40x40(d):
    """A grid.json of 40x40 sub-apertures beside one 96x128 image."""
    d.mkdir()
    write_pgm16(d / "sai_r0_c0.pgm", np.zeros((96, 128)))
    lattice = [float(x) for x in range(40)]
    meta = {"rows_mm": lattice, "cols_mm": lattice, "mapping": dataclasses.asdict(MAP)}
    save_json(d / "grid.json", meta)
    return "sai_r0_c1.pgm: no such file$"


@pytest.mark.parametrize(
    "corrupt", [_header_claims_2048, _grid_names_40x40], ids=["header-2048", "grid-40x40"]
)
def test_sampled_lf_refuses_a_bad_directory_before_allocating(tmp_path, corrupt):
    """Neither a header nor grid.json sizes the light field alone: the
    stacked arrays (324 MiB and 177 MB here) are allocated only once every
    named image is listed and the first has decoded."""
    d = tmp_path / "lf"
    match = corrupt(d)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=match):
            load_sampled_lf(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sampled_lf_load_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_sampled_lf(tmp_path / "nowhere")
    d = tmp_path / "broken"
    d.mkdir()
    save_json(d / "grid.json", {"rows_mm": [], "cols_mm": [], "mapping": dataclasses.asdict(MAP)})
    with pytest.raises(ConfigError, match="no sub-aperture images"):
        load_sampled_lf(d)
    save_json(d / "grid.json", {"rows_mm": [0.0], "cols_mm": [0.0]})
    with pytest.raises(ConfigError, match="mapping"):
        load_sampled_lf(d)


# ---------------------------------------------------------------------------
# simulation configs
# ---------------------------------------------------------------------------


def matrix_doc(pose: RelativePose) -> dict:
    """A pose in the row-major matrix form of a pose file."""
    return {"layout": "row-major", "R": pose.R.ravel().tolist(), "T": pose.T.tolist()}


def test_parse_pose_euler_and_matrix_forms():
    pose_a = parse_pose_dict({"euler_deg": [5.0, 20.0, 5.0], "T_mm": [80.0, 5.0, 5.0]})
    assert np.abs(pose_a.R - euler_xyz_intrinsic(5.0, 20.0, 5.0)).max() <= 1e-15
    assert np.array_equal(pose_a.T, [80.0, 5.0, 5.0])

    pose_b = parse_pose_dict(matrix_doc(pose_a))
    assert np.array_equal(pose_b.R, pose_a.R)

    default_t = parse_pose_dict({"euler_deg": [0.0, 0.0, 0.0]})
    assert np.array_equal(default_t.T, np.zeros(3))

    with pytest.raises(ValueError, match="three angles"):
        parse_pose_dict({"euler_deg": [1.0, 2.0]})


def test_parse_sim_config_defaults_and_overrides():
    cfg = parse_sim_config({"pose": {"euler_deg": [5, 20, 5], "T_mm": [80, 5, 5]}})
    k1, k2 = default_intrinsics_pair()
    assert cfg.k1 == k1 and cfg.k2 == k2
    assert cfg.sai_rows == 13 and cfg.sai_cols == 13
    assert cfg.sigma_px == 0.0 and cfg.trials == 100 and cfg.seed == 0
    assert len(cfg.board_poses) == 4

    cfg = parse_sim_config(
        {
            "pose": {"euler_deg": [0, 0, 0], "T_mm": [50, 0, 0]},
            "board": {"rows": 3, "cols": 4, "spacing_mm": 30.0},
            "board_poses": [
                {"euler_deg": [0, 20, 0], "center_mm": [0, 0, 900]},
                {"euler_deg": [15, 0, 0], "center_mm": [100, 50, 1200]},
            ],
            "sigma_px": 0.4,
            "trials": 7,
            "seed": 5,
            "sai_rows": 9,
        }
    )
    assert cfg.board.rows == 3 and cfg.board.spacing_mm == 30.0
    assert len(cfg.board_poses) == 2
    assert cfg.sigma_px == 0.4 and cfg.trials == 7 and cfg.sai_rows == 9


def test_parse_sim_config_equals_make_sim_config(sweep_pose):
    parsed = parse_sim_config({"pose": matrix_doc(sweep_pose)})
    made = make_sim_config(sweep_pose)
    for f in dataclasses.fields(SimConfig):
        a, b = getattr(parsed, f.name), getattr(made, f.name)
        if f.name == "pose":
            assert np.array_equal(a.R, b.R) and np.array_equal(a.T, b.T)
        elif f.name == "board_poses":
            assert len(a) == len(b)
            for pa, pb in zip(a, b):
                assert np.array_equal(pa.R, pb.R)
                assert np.array_equal(pa.T, pb.T)
        else:
            assert a == b, f.name


def test_parse_sim_config_errors():
    with pytest.raises(ConfigError, match="pose"):
        parse_sim_config({})
    with pytest.raises(ConfigError):
        parse_sim_config({"pose": {"euler_deg": [0, 0, 0]}, "sigma_px": -1.0})
    with pytest.raises(ConfigError):
        parse_sim_config({"pose": {"euler_deg": [0, 0, 0]}, "trials": "many"})


def test_load_sim_config_names_file_in_errors(tmp_path):
    p = tmp_path / "sim.json"
    save_json(p, {"trials": 5})
    with pytest.raises(ConfigError, match="sim.json"):
        load_sim_config(p)
    save_json(p, {"pose": {"euler_deg": [1, 2, 3], "T_mm": [10, 0, 0]}, "trials": 5})
    cfg = load_sim_config(p)
    assert cfg.trials == 5
    assert cfg.pose.T[0] == 10.0
