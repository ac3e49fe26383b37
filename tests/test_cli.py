"""End-to-end command-line runs, in process via cli.main.

Covers the simulate -> estimate and rectify -> epi pipelines, every
documented exit code, and byte-identical benchmark output across runs
and worker counts.
"""

import dataclasses
import errno
import functools
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import RENDER_POSE
from lfrect import cli, errors, lfio, simulate
from lfrect.bench import BENCH_HEADER, bench_csv_lines, pose_grid_spec, run_bench
from lfrect.cli import main
from lfrect.errors import ConfigError, DegenerateGeometry, GenerationFailure, LfRectError, NoOverlap
from lfrect.geometry import (
    RelativePose,
    angular_error_rotation,
    angular_error_translation,
    euler_xyz_intrinsic,
)
from lfrect.lfio import (
    CORRESPONDENCE_HEADER,
    load_json,
    load_pose,
    load_sampled_lf,
    load_sim_config,
    read_correspondence_csv,
    read_pbm,
    read_pgm16,
    save_json,
    save_pose,
    save_sampled_lf,
    save_setup,
)
from lfrect.rectify import RectifiedSetup, build_rectified_setup
from lfrect.resample import SampledLF, SpatialMapping, plan_aligned_grid, render_aligned_sais

from test_io import tree_of
from test_resample import H, S3, W, random_lf

POSE_DOC = {"euler_deg": [5.0, 20.0, 5.0], "T_mm": [80.0, 5.0, 5.0]}


def _sim_config(tmp_path, **overrides):
    doc = dict({"pose": POSE_DOC, "sigma_px": 0.3}, **overrides)
    path = tmp_path / "sim.json"
    save_json(path, doc)
    return path


def _run_simulate(tmp_path, capsys, **overrides):
    cfg = _sim_config(tmp_path, **overrides)
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "3"])
    assert rc == 0
    assert "wrote 308 correspondences" in capsys.readouterr().out
    return out


def _run_estimate(tmp_path, sim_dir, *extra, out=None):
    pose_path = out or tmp_path / "estimated.json"
    rc = main(
        [
            "estimate",
            "--points",
            str(sim_dir / "correspondences.csv"),
            "--intrinsics1",
            str(sim_dir / "intrinsics1.json"),
            "--intrinsics2",
            str(sim_dir / "intrinsics2.json"),
            "--out",
            str(pose_path),
            *extra,
        ]
    )
    return rc, pose_path


def test_simulate_estimate_pipeline(tmp_path, capsys):
    sim_dir = _run_simulate(tmp_path, capsys)
    for name in ("correspondences.csv", "intrinsics1.json", "intrinsics2.json", "ground_truth.json"):
        assert (sim_dir / name).exists()

    rc, pose_path = _run_estimate(tmp_path, sim_dir)
    assert rc == 0
    assert "estimated pose from 308 correspondences" in capsys.readouterr().out

    doc = load_json(pose_path)
    assert doc["converged"] is True and doc["refined"] is True
    assert doc["final_cost"] <= doc["initial_cost"]
    assert len(doc["singular_values"]) == 13

    truth = load_pose(sim_dir / "ground_truth.json")
    est = load_pose(pose_path)
    assert angular_error_rotation(truth.R, est.R) <= 0.5
    assert angular_error_translation(truth.T, est.T) <= 2.0


def test_estimate_zero_noise_is_exact(tmp_path, capsys):
    sim_dir = _run_simulate(tmp_path, capsys, sigma_px=0.0)
    rc, pose_path = _run_estimate(tmp_path, sim_dir)
    assert rc == 0
    truth = load_pose(sim_dir / "ground_truth.json")
    est = load_pose(pose_path)
    assert angular_error_rotation(truth.R, est.R) <= 1e-6
    assert angular_error_translation(truth.T, est.T) <= 1e-6

    rc, pose_path = _run_estimate(tmp_path, sim_dir, "--no-refine")
    assert rc == 0
    doc = load_json(pose_path)
    assert doc["refined"] is False
    est = load_pose(pose_path)
    assert angular_error_rotation(truth.R, est.R) <= 1e-6


def test_config_problems_exit_2(tmp_path, capsys):
    rc = main(
        [
            "estimate",
            "--points",
            str(tmp_path / "missing.csv"),
            "--intrinsics1",
            str(tmp_path / "nope.json"),
            "--intrinsics2",
            str(tmp_path / "nope.json"),
            "--out",
            str(tmp_path / "o.json"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

    cfg = tmp_path / "sim.json"
    save_json(cfg, {"trials": 3})  # no pose
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert rc == 2


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_input_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    sim_dir = _run_simulate(tmp_path, capsys)
    if command == "estimate":
        path = sim_dir / "correspondences.csv"
        path.write_bytes(path.read_bytes() + b"\xff\n")
        rc, _ = _run_estimate(tmp_path, sim_dir)
    else:
        path = _sim_config(tmp_path)
        path.write_bytes(path.read_bytes() + b"\xff\n")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize("body", ["", "\n \n"])
def test_correspondence_csv_without_data_rows_exits_2(tmp_path, capsys, body):
    sim_dir = _run_simulate(tmp_path, capsys)
    path = sim_dir / "correspondences.csv"
    path.write_text(",".join(CORRESPONDENCE_HEADER) + "\n" + body)
    rc, pose_path = _run_estimate(tmp_path, sim_dir)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:")
    assert not pose_path.exists()


def test_generation_failure_exits_3(tmp_path, capsys):
    cfg = _sim_config(tmp_path, pose={"euler_deg": [0, 0, 0], "T_mm": [0.0, 0.0, -2000.0]})
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert rc == 3
    assert "BehindCamera" in capsys.readouterr().err


def test_coincident_corners_exit_3(tmp_path, capsys):
    """A placement listed twice, without noise, measures each corner twice
    to the bit: the draw is no correspondence set, and nothing is
    written."""
    placement = {"euler_deg": [-30.0, 15.0, 10.0], "center_mm": [-310.0, -50.0, 1060.0]}
    cfg = _sim_config(tmp_path, sigma_px=0.0, board_poses=[placement, placement])
    out = tmp_path / "s"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "GenerationFailure" in err and "duplicate correspondence pairs" in err
    assert not out.exists()


def test_coplanar_points_exit_4(tmp_path, capsys):
    sim_dir = _run_simulate(
        tmp_path,
        capsys,
        sigma_px=0.0,
        board={"rows": 14, "cols": 22, "spacing_mm": 22.5},
        board_poses=[{"euler_deg": [0, 15, 0], "center_mm": [0, 0, 1000]}],
    )
    rc, _ = _run_estimate(tmp_path, sim_dir)
    assert rc == 4
    err = capsys.readouterr().err
    assert "degenerate geometry" in err
    assert "CoplanarDegeneracy" in err
    assert "plane residual" in err


@pytest.mark.parametrize(
    "lam, error",
    [(1.0, "NonPositiveDepth"), (-0.03, "DegenerateDisparity")],
)
def test_unplaceable_depths_exit_4(tmp_path, capsys, lam, error):
    """Camera-1 disparities that put every point behind the camera, or at
    infinite depth (lambda = -K1), are degenerate geometry."""
    sim_dir = _run_simulate(tmp_path, capsys)
    csv_path = sim_dir / "correspondences.csv"
    header, *rows = csv_path.read_text().splitlines()
    rows = [",".join(r.split(",")[:2] + [repr(lam)] + r.split(",")[3:]) for r in rows]
    csv_path.write_text("\n".join([header, *rows]) + "\n")
    rc, _ = _run_estimate(tmp_path, sim_dir)
    assert rc == 4
    err = capsys.readouterr().err
    assert "degenerate geometry" in err
    assert error in err


def test_numerical_failure_exits_4(tmp_path, capsys):
    """A sigma = 3 px draw of the stock noise-sweep scene on which LM meets
    a non-finite residual at the initial pose."""
    cfg = _sim_config(tmp_path, sigma_px=3.0)
    sim_dir = tmp_path / "sim"
    rc = main(
        ["simulate", "--config", str(cfg), "--out", str(sim_dir), "--seed", "6000",
         "--trial", "23"]
    )
    assert rc == 0
    rc, _ = _run_estimate(tmp_path, sim_dir)
    assert rc == 4
    err = capsys.readouterr().err
    assert "degenerate geometry" in err
    assert "NumericalFailure" in err


def test_estimate_writes_to_null_device(tmp_path, capsys, monkeypatch):
    """--out may name an existing non-regular file such as the null
    device; it is written in place, never unlinked."""

    def refuse(*args, **kwargs):
        raise AssertionError("estimate unlinked its output path")

    sim_dir = _run_simulate(tmp_path, capsys)
    monkeypatch.setattr(os, "unlink", refuse)
    monkeypatch.setattr(os, "remove", refuse)
    rc, _ = _run_estimate(tmp_path, sim_dir, out=os.devnull)
    assert rc == 0
    assert not os.path.isfile(os.devnull)


def test_rectify_and_epi_pipeline(tmp_path, capsys, blob_pair, blob_rectified):
    _, left, right, _ = blob_pair
    save_sampled_lf(tmp_path / "left", left)
    save_sampled_lf(tmp_path / "right", right)
    save_pose(tmp_path / "pose.json", RENDER_POSE)

    rect_dir = tmp_path / "rect"
    rc = main(
        [
            "rectify",
            "--pose",
            str(tmp_path / "pose.json"),
            "--left",
            str(tmp_path / "left"),
            "--right",
            str(tmp_path / "right"),
            "--out",
            str(rect_dir),
        ]
    )
    assert rc == 0
    out_text = capsys.readouterr().out
    assert "rectified onto" in out_text and "baseline" in out_text
    assert (rect_dir / "setup.json").exists()

    _, ref_out, ref_grid, _ = blob_rectified
    out_lf, grid = load_sampled_lf(rect_dir)
    assert grid is not None
    assert np.array_equal(grid.cols_mm, ref_grid.cols_mm)
    assert np.array_equal(grid.provenance, ref_grid.provenance)
    assert np.array_equal(out_lf.mask, ref_out.mask)
    # inputs and outputs each pass once through 16-bit quantization
    assert np.abs(out_lf.images - ref_out.images).max() <= 1.5 / 65535.0

    row = grid.rows_mm.size // 2
    line = out_lf.images.shape[2] // 2
    epi_path = tmp_path / "epi.pgm"
    rc = main(
        ["epi", "--sais", str(rect_dir), "--row", str(row), "--line", str(line),
         "--out", str(epi_path)]
    )
    assert rc == 0
    epi = read_pgm16(epi_path)
    assert epi.shape == (grid.cols_mm.size, out_lf.images.shape[3])
    mask = read_pbm(epi_path.with_suffix(".pbm"))
    assert mask.shape == epi.shape
    assert mask.any()


@pytest.mark.parametrize(
    "row, line, message",
    [(9, 0, "grid row 9 outside 0..2"), (0, 8, "scan line 8 outside 0..7")],
    ids=["row", "line"],
)
def test_epi_index_out_of_range_exits_2(tmp_path, capsys, row, line, message):
    save_sampled_lf(tmp_path / "lf", random_lf(seed=5))
    rc = main(
        ["epi", "--sais", str(tmp_path / "lf"), "--row", str(row), "--line", str(line),
         "--out", str(tmp_path / "epi.pgm")]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "epi.pgm").exists()


def _drop_aligned_cols(d):
    meta = load_json(d / "grid.json")
    meta["aligned"] = {"rows_mm": meta["rows_mm"]}
    save_json(d / "grid.json", meta)


def _set_grid_value(*keys, value=float("nan")):
    """A corruption that sets one value of grid.json; json writes and
    reads NaN and Infinity."""

    def corrupt(d):
        meta = load_json(d / "grid.json")
        *path, last = keys
        node = meta
        for key in path:
            node = node[key]
        node[last] = value
        save_json(d / "grid.json", meta)

    return corrupt


LF_CORRUPTIONS = {
    "missing-pgm": ("sai_r1_c1.pgm", lambda d: (d / "sai_r1_c1.pgm").unlink()),
    "not-p5": ("sai_r1_c1.pgm", lambda d: (d / "sai_r1_c1.pgm").write_bytes(b"P2\n1 1\n255\n0\n")),
    "truncated": (
        "sai_r1_c1.pgm",
        lambda d: (d / "sai_r1_c1.pgm").write_bytes((d / "sai_r1_c1.pgm").read_bytes()[:-2]),
    ),
    "one-row": ("sai_r1_c1.pgm", lambda d: (d / "sai_r1_c1.pgm").write_bytes(b"P5\n10 1\n65535\n" + bytes(20))),
    "maxval-0": ("sai_r1_c1.pgm", lambda d: (d / "sai_r1_c1.pgm").write_bytes(b"P5\n1 1\n0\n" + bytes(1))),
    "maxval-65536": ("sai_r1_c1.pgm", lambda d: (d / "sai_r1_c1.pgm").write_bytes(b"P5\n1 1\n65536\n" + bytes(2))),
    "aligned-without-cols": ("grid.json", _drop_aligned_cols),
    "nan-col": ("grid.json", _set_grid_value("cols_mm", 1)),
    "inf-row": ("grid.json", _set_grid_value("rows_mm", 0, value=float("inf"))),
    "nan-pitch": ("grid.json", _set_grid_value("mapping", "du")),
    # An aligned grid that is valid but for one entry, which an int8 cast reads as 2.
    "fractional-provenance": ("grid.json", _set_grid_value("aligned", value={
        **dict.fromkeys(("rows_mm", "cols_mm", "left_cols_mm", "right_cols_mm"), S3.tolist()),
        "provenance": [[2.5, 3, 3], [3, 3, 3], [3, 3, 3]],
    })),
    # One JSON true among integers, which numpy reads as the integer 1.
    "boolean-provenance": ("grid.json", _set_grid_value("aligned", value={
        **dict.fromkeys(("rows_mm", "cols_mm", "left_cols_mm", "right_cols_mm"), S3.tolist()),
        "provenance": [[True, 3, 3], [3, 3, 3], [3, 3, 3]],
    })),
}


@pytest.mark.parametrize("case", LF_CORRUPTIONS)
def test_corrupt_light_field_exits_2(tmp_path, capsys, monkeypatch, case):
    """Each corruption exits 2 naming the file at fault; a bad grid.json
    is refused before any image or mask is read."""
    name, corrupt = LF_CORRUPTIONS[case]
    d = tmp_path / "lf"
    save_sampled_lf(d, random_lf(seed=5))
    corrupt(d)
    read, read_bytes = [], Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda p: read.append(p.suffix) or read_bytes(p))
    out = tmp_path / "e.pgm"
    rc = main(["epi", "--sais", str(d), "--row", "0", "--line", "0", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {d / name}: ")
    if name == "grid.json":
        assert not {".pgm", ".pbm"} & set(read)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("case", ["nan-col", "inf-row", "nan-pitch"])
def test_rectify_non_finite_lattice_exits_2(tmp_path, capsys, side, case):
    for name, seed in (("left", 6), ("right", 7)):
        save_sampled_lf(tmp_path / name, random_lf(seed=seed))
    LF_CORRUPTIONS[case][1](tmp_path / side)
    save_pose(tmp_path / "pose.json", RelativePose(np.eye(3), np.array([4.0, 0.0, 0.0])))
    rc = main(
        ["rectify", "--pose", str(tmp_path / "pose.json"), "--pose-direction", "2to1",
         "--left", str(tmp_path / "left"), "--right", str(tmp_path / "right"),
         "--out", str(tmp_path / "rect")]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / side / 'grid.json'}: ")
    assert not (tmp_path / "rect").exists()


@pytest.mark.parametrize("key, value", [("board", [1, 2]), ("pose", "abc")], ids=["board", "pose"])
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, key, value):
    cfg = _sim_config(tmp_path, **{key: value})
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert rc == 2
    assert f"sim.json: {key}: expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"sai_rows": 1, "sai_cols": 1}, "need at least two sub-apertures to measure disparity"),
        ({"sigma_px": float("nan")}, "noise sigma must be finite and non-negative, got nan"),
        ({"sigma_px": float("inf")}, "noise sigma must be finite and non-negative, got inf"),
    ],
    ids=["negative-seed", "one-sub-aperture", "nan-sigma", "infinite-sigma"],
)
def test_out_of_range_sim_config_value_exits_2(tmp_path, capsys, overrides, message):
    cfg = _sim_config(tmp_path, **overrides)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


# JSON reads NaN and Infinity as floats, so a config can carry either.
@pytest.mark.parametrize(
    "key, value",
    [
        ("board", {"spacing_mm": float("nan")}),
        ("board", {"spacing_mm": float("inf")}),
        ("board_poses", [{"euler_deg": [float("nan"), 0.0, 0.0], "center_mm": [0.0, 0.0, 1000.0]}]),
        ("board_poses", [{"euler_deg": [0.0, 15.0, 0.0], "center_mm": [0.0, float("nan"), 1000.0]}]),
    ],
    ids=["nan-spacing", "infinite-spacing", "nan-angle", "nan-center"],
)
def test_non_finite_board_value_exits_2(tmp_path, capsys, key, value):
    cfg = _sim_config(tmp_path, **{key: value})
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {key}: ")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("n", [2, 4])
def test_board_placement_without_three_angles_exits_2(tmp_path, capsys, n):
    cfg = _sim_config(tmp_path, board_poses=[{"euler_deg": [0.0] * n, "center_mm": [0.0, 0.0, 1000.0]}])
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}: board_poses: euler_deg needs exactly three angles\n"


# Each matrix breaks one part of the rotation rule that lfrect.geometry
# writes once: finite, orthonormal, det +1, 3x3.
BAD_ROTATIONS = {
    "nan-entry": np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "reflection": np.diag([1.0, 1.0, -1.0]),
    "scaled": 2.0 * np.eye(3),
    "2x3": np.eye(3)[:2],
}


@pytest.mark.parametrize("entry", ["pose", "R_rect", "R_l", "R_r", "board_poses"])
@pytest.mark.parametrize("bad", sorted(BAD_ROTATIONS))
def test_every_rotation_obeys_one_rule(tmp_path, capsys, monkeypatch, entry, bad):
    M = BAD_ROTATIONS[bad]
    if entry == "pose":
        with pytest.raises(ValueError, match="^R "):
            RelativePose(M, np.zeros(3))
    elif entry == "R_l":
        # R_l is R_rect, so only a setup file can hold another; its reader
        # refuses one that is not R_rect.
        path = tmp_path / "setup.json"
        save_setup(path, RectifiedSetup(np.eye(3), np.eye(3), [50.0, 0.0, 0.0], 50.0))
        save_json(path, {**load_json(path), "R_l": M.ravel().tolist()})
        with pytest.raises(ConfigError, match="setup.json: R_l: disagrees with R_rect$"):
            lfio.load_setup(path)
    elif entry.startswith("R_"):
        fields = dict(R_rect=np.eye(3), R_r=np.eye(3), T_r=np.array([50.0, 0.0, 0.0]), baseline_mm=50.0)
        with pytest.raises(ValueError, match=f"^{entry} "):
            RectifiedSetup(**dict(fields, **{entry: M}))
    else:
        # The camera pose is given as a matrix, so the only Euler angles the
        # config parser turns into a rotation are the board placement's.
        monkeypatch.setattr(cli.lfio, "euler_xyz_intrinsic", lambda *angles: M)
        pose = RelativePose(euler_xyz_intrinsic(*POSE_DOC["euler_deg"]), POSE_DOC["T_mm"])
        cfg = _sim_config(
            tmp_path, pose={"layout": "row-major", "R": pose.R.ravel().tolist(), "T": pose.T.tolist()},
            board_poses=[{"euler_deg": [0.0, 15.0, 0.0], "center_mm": [0.0, 0.0, 1000.0]}],
        )
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: board_poses: R ")


def test_bench_row_without_a_successful_trial_reads_nan(tmp_path, capsys):
    """Turned 180 degrees about y, camera 2 sees every board corner behind
    it: the row's statistics are NaN, without a warning (warnings fail the
    tests)."""
    spec_path = _bench_spec(tmp_path, {"euler_deg": [0.0, 180.0, 0.0]}, trials=3)
    out = tmp_path / "b.csv"
    assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "a,nan,nan,nan,nan,3,3"
    assert out.with_suffix(".dat").read_text().splitlines()[1] == "a nan nan nan nan 3 3"
    assert "a: err_R nan deg, err_T nan deg (3 failures)" in capsys.readouterr().out


def test_negative_seed_in_bench_spec_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    save_json(spec_path, {"seed": -1, "rows": [dict(POSE_DOC, label="a", sigma_px=0.2)]})
    rc = main(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {spec_path}: seed must be non-negative, got -1\n"
    assert not (tmp_path / "b.csv").exists()


def _bench_spec(tmp_path, row=(), **counts):
    """A one-row spec file; ``row`` overrides fields of the row."""
    path = tmp_path / "spec.json"
    save_json(path, {"rows": [{**POSE_DOC, "label": "a", "sigma_px": 0.2, **dict(row)}], **counts})
    return path


# json writes float("inf") as Infinity, which reads back as the same
# infinity that a JSON number such as 1e400 overflows to.
INF = float("inf")


@pytest.mark.parametrize("sigma_px", [float("nan"), INF], ids=["nan", "infinity"])
def test_non_finite_sigma_in_bench_spec_exits_2(tmp_path, capsys, monkeypatch, sigma_px):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli.bench_mod, "run_trials", no_trials)
    spec_path = _bench_spec(tmp_path, {"sigma_px": sigma_px})
    rc = main(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {spec_path}: noise sigma must be finite and non-negative, got {sigma_px}\n"
    )
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize(
    "command, key",
    [("simulate", "trials"), ("simulate", "seed"), ("simulate", "sai_rows"),
     ("bench", "trials"), ("bench", "seed")],
)
def test_infinite_count_exits_2(tmp_path, capsys, command, key):
    if command == "simulate":
        path = _sim_config(tmp_path, **{key: INF})
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "s")]
    else:
        path = _bench_spec(tmp_path, **{key: INF})
        argv = ["bench", "--spec", str(path), "--out", str(tmp_path / "b.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: {key}: cannot convert float infinity to integer\n"
    )


@pytest.mark.parametrize(
    "command, doc, key, value",
    [
        ("simulate", {"sai_rows": 13.7}, "sai_rows", "13.7"),
        ("simulate", {"sai_cols": True}, "sai_cols", "True"),
        ("simulate", {"seed": 1.5}, "seed", "1.5"),
        ("simulate", {"trials": 2.9}, "trials", "2.9"),
        ("simulate", {"board": {"rows": 7.5}}, "board", "7.5"),
        ("simulate", {"board": {"cols": 11.25}}, "board", "11.25"),
        ("bench", {"trials": 2.5}, "trials", "2.5"),
        ("bench", {"seed": 0.5}, "seed", "0.5"),
    ],
    ids=["sai_rows", "sai_cols-bool", "seed", "trials", "board-rows", "board-cols",
         "bench-trials", "bench-seed"],
)
def test_non_integral_count_exits_2(tmp_path, capsys, command, doc, key, value):
    """A count that int() would truncate, or a bool, is refused by name
    rather than run as some other count."""
    if command == "simulate":
        path = _sim_config(tmp_path, **doc)
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "s")]
    else:
        path = _bench_spec(tmp_path, **doc)
        argv = ["bench", "--spec", str(path), "--out", str(tmp_path / "b.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: {key}: expected an integer, got {value}\n"


def test_integral_float_count_is_a_count(tmp_path, capsys):
    path = _bench_spec(tmp_path, trials=2.0, seed=3.0)
    assert main(["bench", "--spec", str(path), "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "b.csv").read_text().splitlines()[1].split(",")[5] == "2"
    cfg = _sim_config(tmp_path, sai_rows=13.0, trials=100.0, board={"rows": 7.0})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert "wrote 308 correspondences" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"rows": 5}, "rows: 'int' object is not iterable"),
        ({"rows": [{**POSE_DOC, "sigma_px": 0.2}]}, "rows: missing key 'label'"),
        (
            {"rows": [{**POSE_DOC, "T_mm": "abc", "label": "a", "sigma_px": 0.2}]},
            "rows: could not convert string to float: 'abc'",
        ),
        ({"rows": []}, "benchmark needs at least one row"),
        # A lone surrogate, which json reads but UTF-8 cannot encode: the
        # label would fail as the table is written, after the sweep.
        (
            {"rows": [{**POSE_DOC, "label": "a\ud800", "sigma_px": 0.2}]},
            "label: 'utf-8' codec can't encode character '\\ud800' in position 1: "
            "surrogates not allowed",
        ),
        (
            {"name": "n\udc00", "rows": [{**POSE_DOC, "label": "a", "sigma_px": 0.2}]},
            "name: 'utf-8' codec can't encode character '\\udc00' in position 1: "
            "surrogates not allowed",
        ),
    ],
    ids=["rows-not-a-list", "row-without-label", "bad-translation", "no-rows",
         "label-not-utf8", "name-not-utf8"],
)
def test_bench_spec_errors_name_their_key(tmp_path, capsys, monkeypatch, spec, message):
    """Each refusal exits 2 naming its key, before any trial runs and
    before --out is touched."""
    monkeypatch.setattr(cli.bench_mod, "run_trials", None)  # no trial may run
    path = tmp_path / "spec.json"
    save_json(path, spec)
    assert main(["bench", "--spec", str(path), "--out", str(tmp_path / "b.csv")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("key", ["sigma_px", "euler_deg"])
@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_integer_too_large_for_a_float_exits_2(tmp_path, capsys, command, key):
    field = {"sigma_px": 10**400} if key == "sigma_px" else {"euler_deg": [10**400, 0.0, 0.0]}
    if command == "simulate":
        doc = field if key == "sigma_px" else {"pose": {**POSE_DOC, **field}}
        path = _sim_config(tmp_path, **doc)
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "s")]
    else:
        path = _bench_spec(tmp_path, field)
        argv = ["bench", "--spec", str(path), "--out", str(tmp_path / "b.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert err.endswith("int too large to convert to float\n")
    if key == "sigma_px":
        assert ": sigma_px: int too large" in err


@pytest.mark.parametrize("value", [300, 7, -1])
def test_unknown_provenance_in_grid_json_exits_2(tmp_path, capsys, value):
    """300 does not fit the int8 provenance; 7 and -1 fit but name no
    source."""
    rect = tmp_path / "rect"
    assert main(_rectify_argv(tmp_path, rect)) == 0
    capsys.readouterr()
    _set_grid_value("aligned", "provenance", 0, 0, value=value)(rect)
    rc = main(["epi", "--sais", str(rect), "--row", "0", "--line", "0",
               "--out", str(tmp_path / "e.pgm")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {rect / 'grid.json'}: ")
    assert not (tmp_path / "e.pgm").exists()


@pytest.mark.parametrize("key", ["left_cols_mm", "right_cols_mm"])
def test_grid_json_whose_source_columns_disagree_exits_2(tmp_path, capsys, key):
    """A rectified grid.json keeps each source's columns, which follow
    from cols_mm and provenance; an edited list is refused by name before
    any image is read."""
    rect = tmp_path / "rect"
    assert main(_rectify_argv(tmp_path, rect)) == 0
    capsys.readouterr()
    meta = load_json(rect / "grid.json")
    meta["aligned"][key] = meta["aligned"][key][1:]
    save_json(rect / "grid.json", meta)
    rc = main(["epi", "--sais", str(rect), "--row", "0", "--line", "0",
               "--out", str(tmp_path / "e.pgm")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {rect / 'grid.json'}: {key}: disagrees with cols_mm and provenance\n"
    assert not (tmp_path / "e.pgm").exists()


def test_verbose_rectify_and_epi_explain_each_stage(tmp_path, capsys, monkeypatch, request):
    """-v logs one INFO line per stage of rectify and one for epi, each
    figure read back from the written files; stdout and every output file
    keep the bytes of a quiet run, which logs nothing."""
    monkeypatch.setattr(logging.root, "handlers", [])
    lfrect_log = logging.getLogger("lfrect")
    request.addfinalizer(functools.partial(lfrect_log.setLevel, lfrect_log.level))
    rect, epi = tmp_path / "rect", tmp_path / "epi.pgm"
    runs = []
    for flags in ((), ("-v",)):
        assert main([*flags, *_rectify_argv(tmp_path, rect, T=(4.0, 0.5, 0.0))]) == 0
        argv = ["epi", "--sais", str(rect), "--row", "1", "--line", "2", "--out", str(epi)]
        assert main([*flags, *argv]) == 0
        captured = capsys.readouterr()
        files = tree_of(rect), epi.read_bytes(), epi.with_suffix(".pbm").read_bytes()
        runs.append((captured.out, files, captured.err))
    (quiet_out, quiet_files, quiet_err), (out, files, err) = runs
    assert (out, files) == (quiet_out, quiet_files)
    assert quiet_err == ""
    lf, grid = load_sampled_lf(rect)
    setup = lfio.load_setup(rect / "setup.json")
    counts = np.bincount(grid.provenance.ravel(), minlength=4)
    served = grid.provenance > 0
    valid = 100.0 * lf.mask[served].mean()
    epi_mask = read_pbm(epi.with_suffix(".pbm"))
    assert err.splitlines() == [
        f"INFO lfrect: {line}" for line in (
            f"read 3x3 and 3x3 sub-apertures of {H}x{W} px",
            f"rectifying frame: baseline {setup.baseline_mm:.6g} mm",
            f"planned {grid.rows_mm.size}x{grid.cols_mm.size} grid: {counts[1]} cells from the left only,"
            f" {counts[2]} from the right only, {counts[3]} from both, {counts[0]} from none",
            f"wrote {grid.provenance.size} sub-apertures, {served.sum()} rendered:"
            f" {valid:.4g}% of their rays valid",
            f"EPI of grid row 1, scan line 2: {epi_mask.shape[0]}x{epi_mask.shape[1]} px,"
            f" {100.0 * epi_mask.mean():.4g}% valid",
        )
    ]
    assert 0 < valid < 100 and counts[3] > 0


def test_simulate_writes_the_draw_run_trials_uses(tmp_path, capsys, monkeypatch):
    """``simulate --seed S --trial t`` and trial t of a run with seed S
    draw from one generator."""
    cfg_path = _sim_config(tmp_path, trials=3)
    out = tmp_path / "s"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seed", "11", "--trial", "2"]) == 0
    draws = []
    real = simulate.simulate_correspondences
    monkeypatch.setattr(simulate, "simulate_correspondences", lambda cfg, rng: draws.append(real(cfg, rng)) or draws[-1])
    cfg = dataclasses.replace(load_sim_config(cfg_path), seed=11)
    simulate.run_trials(cfg)
    written = read_correspondence_csv(out / "correspondences.csv", cfg.k1, cfg.k2)
    assert len(draws) == 3
    assert np.array_equal(written.first, draws[2].first)
    assert np.array_equal(written.second, draws[2].second)


def test_estimate_to_missing_directory_exits_2(tmp_path, capsys):
    sim_dir = _run_simulate(tmp_path, capsys)
    out = tmp_path / "nodir" / "pose.json"
    rc, _ = _run_estimate(tmp_path, sim_dir, out=out)
    assert rc == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


def test_epi_to_missing_directory_exits_2(tmp_path, capsys):
    lf_dir = tmp_path / "lf"
    save_sampled_lf(lf_dir, random_lf(seed=5))
    out = tmp_path / "nodir" / "e.pgm"
    rc = main(["epi", "--sais", str(lf_dir), "--row", "0", "--line", "0", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


def test_epi_out_that_is_its_own_mask_twin_exits_2(tmp_path, capsys):
    lf_dir = tmp_path / "lf"
    save_sampled_lf(lf_dir, random_lf(seed=5))
    out = tmp_path / "e.pbm"
    rc = main(["epi", "--sais", str(lf_dir), "--row", "0", "--line", "0", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --out {out} would be overwritten by its .pbm twin\n"
    assert not out.exists()


# The third --out is no file of the light field, but its .pbm twin is a mask.
@pytest.mark.parametrize("name", ["sai_r0_c0.pgm", "grid.json", "sai_r0_c0.epi"])
def test_epi_out_that_is_a_file_of_its_light_field_exits_2(tmp_path, capsys, name):
    lf_dir = tmp_path / "lf"
    save_sampled_lf(lf_dir, random_lf(seed=5))
    before = tree_of(lf_dir)
    rc = main(["epi", "--sais", str(lf_dir), "--row", "0", "--line", "0", "--out", str(lf_dir / name)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --out would overwrite the --sais input {lf_dir}\n"
    assert tree_of(lf_dir) == before


def test_epi_out_beside_its_light_field_is_written(tmp_path, capsys):
    """A new file in the --sais directory is no file of the light field, and
    writing it a second time replaces only it."""
    lf_dir = tmp_path / "lf"
    save_sampled_lf(lf_dir, random_lf(seed=5))
    files, _ = tree_of(lf_dir)
    argv = ["epi", "--sais", str(lf_dir), "--row", "0", "--line", "0", "--out", str(lf_dir / "epi.pgm")]
    assert main(argv) == 0
    assert main(argv) == 0
    after, _ = tree_of(lf_dir)
    assert sorted(set(after) - set(files)) == ["epi.pbm", "epi.pgm"]
    assert all(after[name] == data for name, data in files.items())


@pytest.mark.parametrize("flag", ["points", "intrinsics1", "intrinsics2"])
def test_estimate_out_that_is_an_input_exits_2(tmp_path, capsys, flag):
    sim_dir = _run_simulate(tmp_path, capsys)
    name = {"points": "correspondences.csv"}.get(flag, f"{flag}.json")
    before = (sim_dir / name).read_bytes()
    rc, _ = _run_estimate(tmp_path, sim_dir, out=sim_dir / name)
    assert rc == 2
    assert capsys.readouterr().err == f"error: --out would overwrite the --{flag} input {sim_dir / name}\n"
    assert (sim_dir / name).read_bytes() == before


@pytest.mark.parametrize("flag", ["left", "right"])
def test_rectify_out_that_is_an_input_exits_2(tmp_path, capsys, flag):
    argv = _rectify_argv(tmp_path, tmp_path / flag)
    before = tree_of(tmp_path / flag)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --out would overwrite the --{flag} input {tmp_path / flag}\n"
    assert tree_of(tmp_path / flag) == before


@pytest.mark.parametrize("out_name", ["spec.json", "spec.csv"], ids=["out", "dat-twin"])
def test_bench_out_that_is_its_spec_exits_2(tmp_path, capsys, monkeypatch, out_name):
    """Neither --out nor its .dat twin may be the spec file."""
    spec = _bench_spec(tmp_path)
    if out_name == "spec.csv":
        spec = spec.rename(tmp_path / "spec.dat")
    before = spec.read_bytes()
    monkeypatch.setattr("lfrect.bench.run_bench", lambda *a, **k: pytest.fail("the sweep ran"))
    rc = main(["bench", "--spec", str(spec), "--trials", "1", "--out", str(tmp_path / out_name)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --out would overwrite the --spec input {spec}\n"
    assert spec.read_bytes() == before


def _rectify_argv(tmp_path, out, T=(4.0, 0.0, 0.0)):
    """A rectify run of two random light fields under a pure translation,
    with the inputs written on first use."""
    for name, seed in (("left", 6), ("right", 7)):
        if not (tmp_path / name).exists():
            save_sampled_lf(tmp_path / name, random_lf(seed=seed))
    pose_path = tmp_path / f"pose_{T[0]}.json"
    save_pose(pose_path, RelativePose(np.eye(3), np.array(T)))
    return ["rectify", "--pose", str(pose_path), "--pose-direction", "2to1",
            "--left", str(tmp_path / "left"), "--right", str(tmp_path / "right"),
            "--out", str(out)]


UNWRITABLE_OUT = {
    "simulate": lambda tmp_path, out: [
        "simulate", "--config", str(_sim_config(tmp_path)), "--out", str(out)],
    "rectify": _rectify_argv,
    "bench": lambda tmp_path, out: [
        "bench", "--scenario", "noise-sweep", "--trials", "1", "--out", str(out / "b.csv")],
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUT))
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    """An output directory that cannot be created, because a regular file
    is in its way, exits 2 and names the path that failed."""
    blocker = tmp_path / "file"
    blocker.write_text("in the way")
    out = blocker / "out"
    rc = main(UNWRITABLE_OUT[command](tmp_path, out))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and str(blocker) in err
    assert blocker.read_text() == "in the way"


def test_rectify_replaces_setup_json(tmp_path, capsys):
    """Every file of a rectify output directory is replaced on a rerun, so a
    hard-linked snapshot of it (cp -al) keeps the first run's bytes."""
    out, snapshot = tmp_path / "rect", tmp_path / "snapshot"
    assert main(_rectify_argv(tmp_path, out)) == 0
    snapshot.mkdir()
    for p in out.iterdir():
        os.link(p, snapshot / p.name)
    first = {p.name: p.read_bytes() for p in snapshot.iterdir()}
    assert main(_rectify_argv(tmp_path, out, T=(5.0, 0.0, 0.0))) == 0
    assert (out / "setup.json").read_bytes() != first["setup.json"]
    for name, data in first.items():
        assert (snapshot / name).read_bytes() == data, name


def test_rectify_writes_setup_json_before_grid_json(tmp_path, capsys, monkeypatch):
    """A rerun into an earlier run's --out that fails at the grid.json
    write leaves no grid.json and the new setup.json: grid.json, which
    marks the directory finished, is written last."""
    out = tmp_path / "rect"
    assert main(_rectify_argv(tmp_path, out)) == 0
    argv = _rectify_argv(tmp_path, out, T=(5.0, 0.0, 0.0))
    save_setup(tmp_path / "expected.json", build_rectified_setup(load_pose(tmp_path / "pose_5.0.json")))
    write_bytes = lfio._write_bytes

    def fail_grid_json(path, chunks, listing=None):
        if os.path.basename(path) == "grid.json":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        write_bytes(path, chunks, listing)

    monkeypatch.setattr(lfio, "_write_bytes", fail_grid_json)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out / 'grid.json'}: {os.strerror(errno.ENOSPC)}\n"
    )
    assert not (out / "grid.json").exists()
    assert (out / "setup.json").read_bytes() == (tmp_path / "expected.json").read_bytes()


def _dense_rectify(tmp_path, out, T):
    """What ``lfrect rectify`` wrote before it streamed: the whole output
    rendered by render_aligned_sais, then stored by save_sampled_lf, then
    setup.json."""
    pose = load_pose(tmp_path / f"pose_{T[0]}.json")
    setup = build_rectified_setup(pose)
    left, _ = load_sampled_lf(tmp_path / "left")
    right, _ = load_sampled_lf(tmp_path / "right")
    grid = plan_aligned_grid(left, right, setup)
    save_sampled_lf(out, render_aligned_sais(left, right, setup, grid), grid)
    save_setup(out / "setup.json", setup)
    return grid


@pytest.mark.parametrize(
    "poses, provenance",
    [
        ([(4.0, 0.0, 0.0)], {3}),
        ([(8.0, 0.0, 0.0)], {0}),
        ([(8.0, 0.0, 0.0), (4.0, 0.0, 0.0)], {0, 3}),
    ],
    ids=["shared-cells", "unsupplied-cells", "rewrite"],
)
def test_rectify_streams_the_bytes_of_the_dense_store(tmp_path, capsys, poses, provenance):
    """The streamed output directory equals the dense library path file for
    file: names, bytes and hard-link groups, on a grid with shared cells
    (provenance 3), on one with unsupplied cells (provenance 0), and when a
    second run rewrites the directory of the first."""
    streamed, dense = tmp_path / "streamed", tmp_path / "dense"
    seen = set()
    for T in poses:
        assert main(_rectify_argv(tmp_path, streamed, T)) == 0
        seen |= set(_dense_rectify(tmp_path, dense, T).provenance.ravel().tolist())
        assert tree_of(streamed) == tree_of(dense)
    assert provenance <= seen


def _traced_peak(argv) -> int:
    """Peak bytes that Python allocates while ``main(argv)`` runs."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rectify_memory_does_not_grow_with_the_output_grid(tmp_path, capsys):
    """The output is rendered and stored one sub-aperture at a time: a
    grid of 23 columns peaks within two sub-apertures of one of 5 columns,
    where holding the output would add 54 sub-apertures.  Above the loaded
    inputs (images, masks and cell-valid masks of both sources), the peak
    is the sampler's working set: a fixed number of per-pixel arrays of one
    sub-aperture, about 39 sub-apertures' worth at 9 bytes a pixel, fewer
    than the 69 of the large grid.  The slope lattice is symmetric about 0,
    so every ray lands and the working set is at its largest."""
    h, w = 48, 64
    mapping = SpatialMapping(u0=-0.5, du=1.0 / (w - 1), v0=-0.5, dv=1.0 / (h - 1))
    rng = np.random.default_rng(8)
    for name in ("left", "right"):
        lf = SampledLF(
            images=rng.uniform(0, 1, (3, 3, h, w)), mask=np.ones((3, 3, h, w), bool),
            s_mm=S3, t_mm=S3, mapping=mapping,
        )
        save_sampled_lf(tmp_path / name, lf)
    sai_bytes = h * w * 9  # float64 image and boolean mask
    inputs = 2 * 9 * h * w * (8 + 1 + 1)
    _traced_peak(_rectify_argv(tmp_path, tmp_path / "warm-up"))  # first-use imports
    small = _traced_peak(_rectify_argv(tmp_path, tmp_path / "small", T=(4.0, 0.0, 0.0)))
    large = _traced_peak(_rectify_argv(tmp_path, tmp_path / "large", T=(40.0, 0.0, 0.0)))
    sizes = [load_json(tmp_path / d / "grid.json")["aligned"]["provenance"] for d in ("small", "large")]
    assert [(len(p), len(p[0])) for p in sizes] == [(3, 5), (3, 23)]
    assert large - small < 2 * sai_bytes
    assert large - inputs < 48 * sai_bytes < 3 * 23 * sai_bytes


def test_rectify_without_overlap_exits_5(tmp_path, capsys):
    left = random_lf(seed=6)
    right = random_lf(seed=7)
    right = dataclasses.replace(right, t_mm=right.t_mm + 100.0)
    save_sampled_lf(tmp_path / "left", left)
    save_sampled_lf(tmp_path / "right", right)
    save_pose(tmp_path / "pose.json", RelativePose(np.eye(3), np.array([4.0, 0.0, 0.0])))
    rc = main(
        [
            "rectify",
            "--pose",
            str(tmp_path / "pose.json"),
            "--pose-direction",
            "2to1",
            "--left",
            str(tmp_path / "left"),
            "--right",
            str(tmp_path / "right"),
            "--out",
            str(tmp_path / "rect"),
        ]
    )
    assert rc == 5
    err = capsys.readouterr().err
    assert "no overlap" in err
    assert "left_t_range" in err


def test_rectify_nearly_flat_axis_exits_5_before_rendering(tmp_path, capsys, monkeypatch):
    """At 89.9999 degrees the left camera's optical axis is nearly parallel
    to the rectified planes, which spreads its three columns over a lattice
    of 1,145,917; the planner refuses it before anything is rendered."""

    def no_render(*args):
        raise AssertionError("rendered")

    monkeypatch.setattr(cli, "iter_aligned_sais", no_render)
    for name, seed in (("left", 6), ("right", 7)):
        save_sampled_lf(tmp_path / name, random_lf(seed=seed))
    pose = RelativePose(euler_xyz_intrinsic(0.0, 89.9999, 0.0), np.array([50.0, 0.0, 0.0]))
    save_pose(tmp_path / "pose.json", pose)
    rc = main(
        ["rectify", "--pose", str(tmp_path / "pose.json"),
         "--left", str(tmp_path / "left"), "--right", str(tmp_path / "right"),
         "--out", str(tmp_path / "rect")]
    )
    assert rc == 5
    assert "\n  lattice_cols: 1145917\n" in capsys.readouterr().err
    assert not (tmp_path / "rect").exists()


def test_bench_output_is_reproducible(tmp_path, capsys):
    def run(name, *extra):
        out = tmp_path / name
        rc = main(
            ["bench", "--scenario", "noise-sweep", "--trials", "2", "--seed", "1",
             "--out", str(out), *extra]
        )
        assert rc == 0
        return out

    a = run("a.csv")
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("noise-sweep 0.1:")
    assert a.read_text().splitlines()[0] == BENCH_HEADER

    b = run("b.csv")
    assert b.read_bytes() == a.read_bytes()
    assert b.with_suffix(".dat").read_bytes() == a.with_suffix(".dat").read_bytes()

    c = run("c.csv", "--jobs", "2")
    assert c.read_bytes() == a.read_bytes()


def test_bench_out_that_is_its_own_dat_twin_exits_2(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(cli.bench_mod, "run_bench", no_sweep)
    out = tmp_path / "sweep.dat"
    rc = main(["bench", "--scenario", "noise-sweep", "--trials", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --out {out} would be overwritten by its .dat twin\n"
    assert not out.exists()


def test_bench_pose_grid_scenario(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(["bench", "--scenario", "pose-grid", "--trials", "2", "--out", str(out)])
    assert rc == 0
    labels = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert labels == [f"pose-grid {label}" for label in ("r15_t50", "r15_t100", "r30_t50", "r30_t100")]
    assert out.read_text() == "\n".join(bench_csv_lines(run_bench(pose_grid_spec(trials=2)))) + "\n"


def test_bench_custom_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    save_json(
        spec_path,
        {
            "name": "mini",
            "trials": 2,
            "seed": 4,
            "rows": [dict(POSE_DOC, label="a", sigma_px=0.2)],
        },
    )
    out = tmp_path / "mini.csv"
    rc = main(["bench", "--spec", str(spec_path), "--trials", "3", "--out", str(out)])
    assert rc == 0
    assert "mini a:" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("a,")
    assert lines[1].split(",")[5] == "3"  # --trials beats the file's value

    save_json(spec_path, {"rows": [{"label": "a", "euler_deg": [0, 0, 0]}]})
    rc = main(["bench", "--spec", str(spec_path), "--out", str(out)])
    assert rc == 2
    assert "spec.json" in capsys.readouterr().err


def test_argparse_rejects_bad_usage():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--out", "x.csv"])  # neither --scenario nor --spec
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bench", "--scenario", "noise-sweep", "--trials", "0"], "--trials"),
        (["bench", "--scenario", "noise-sweep", "--trials", "1", "--seed", "-1"], "--seed"),
        (["simulate", "--trial", "-1"], "--trial"),
        (["simulate", "--seed", "-3"], "--seed"),
        (["bench", "--scenario", "noise-sweep", "--jobs", "0"], "--jobs"),
        (["bench", "--scenario", "noise-sweep", "--jobs", "-5"], "--jobs"),
    ],
    ids=[
        "bench-trials-0",
        "bench-seed-negative",
        "simulate-trial-negative",
        "simulate-seed-negative",
        "bench-jobs-0",
        "bench-jobs-negative",
    ],
)
def test_out_of_range_integer_flag_exits_2(tmp_path, capsys, argv, flag):
    if argv[0] == "simulate":
        argv = [*argv, "--config", str(_sim_config(tmp_path))]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer >=" in capsys.readouterr().err


EXIT_CODES = {ConfigError: 2, GenerationFailure: 3, DegenerateGeometry: 4, NoOverlap: 5}


def test_every_error_has_exactly_one_exit_code_group():
    declared = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, LfRectError)
    }
    assert set(errors.__all__) == declared
    leaves = [getattr(errors, n) for n in errors.__all__]
    leaves = [c for c in leaves if c is not LfRectError and c not in EXIT_CODES]
    assert leaves
    for cls in leaves:
        groups = [base for base in EXIT_CODES if issubclass(cls, base)]
        assert len(groups) == 1, (cls.__name__, groups)


@pytest.mark.parametrize("base, code", EXIT_CODES.items(), ids=lambda x: getattr(x, "__name__", x))
def test_each_error_group_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, base, code):
    def fail(args):
        raise base("synthetic failure")

    monkeypatch.setattr(cli, "_cmd_simulate", fail)
    rc = main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")])
    assert rc == code
    assert "synthetic failure" in capsys.readouterr().err


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    """One parser serves every in-process call, and what one call parses
    does not leak into the next: --no-refine, then a plain estimate."""
    assert cli.build_parser() is cli.build_parser()
    sim_dir = _run_simulate(tmp_path, capsys)
    iterations = []
    for extra in (("--no-refine",), ()):
        rc, pose_path = _run_estimate(tmp_path, sim_dir, *extra)
        assert rc == 0
        iterations.append(load_json(pose_path)["iterations"])
    assert iterations[0] == 0 and iterations[1] > 0


@pytest.mark.parametrize("first, second", [((), ("-v",)), (("-v",), ())], ids=["quiet-first", "verbose-first"])
def test_verbose_flag_holds_for_its_own_call_only(tmp_path, capsys, monkeypatch, request, first, second):
    """-v logs INFO to stderr for the call that passes it and for no other:
    a later in-process call neither misses nor inherits it, and the calls
    share one stderr handler."""
    monkeypatch.setattr(logging.root, "handlers", [])  # as in a fresh process
    lfrect_log = logging.getLogger("lfrect")
    request.addfinalizer(functools.partial(lfrect_log.setLevel, lfrect_log.level))
    argv = ["bench", "--spec", str(_bench_spec(tmp_path, trials=1)), "--out", str(tmp_path / "b.csv")]
    for flags in (first, second):
        assert main([*flags, *argv]) == 0
        err = capsys.readouterr().err
        assert lfrect_log.isEnabledFor(logging.INFO) is bool(flags)
        assert ("INFO lfrect: running" in err) is bool(flags), err
    assert len(logging.root.handlers) == 1


@pytest.mark.parametrize("extra", [(), ("--no-refine",)], ids=["refined", "linear"])
def test_verbose_estimate_explains_each_stage(tmp_path, capsys, monkeypatch, request, extra):
    """-v logs one INFO line per stage of an estimate, each figure beside
    its threshold; stdout and the estimate file keep the bytes of a quiet
    run, which logs nothing."""
    monkeypatch.setattr(logging.root, "handlers", [])
    lfrect_log = logging.getLogger("lfrect")
    request.addfinalizer(functools.partial(lfrect_log.setLevel, lfrect_log.level))
    sim_dir = _run_simulate(tmp_path, capsys)
    argv = ["estimate", *extra]
    for name in ("points", "intrinsics1", "intrinsics2"):
        file = "correspondences.csv" if name == "points" else f"{name}.json"
        argv += [f"--{name}", str(sim_dir / file)]
    runs = []
    for flags in ((), ("-v",)):
        out = tmp_path / f"estimate{len(flags)}.json"
        assert main([*flags, *argv, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        runs.append((captured.out, out.read_bytes(), captured.err))
    (quiet_out, quiet_file, quiet_err), (out, file, err) = runs
    assert (out, file) == (quiet_out, quiet_file)
    assert "INFO" not in quiet_err
    estimate = load_json(tmp_path / "estimate1.json")
    lines = err.splitlines()
    assert len(lines) == 4 and all(line.startswith("INFO lfrect: ") for line in lines), err
    assert "read 308 correspondences; 0 left out of the plane fit" in lines[0]
    assert lines[1].startswith("INFO lfrect: plane fit: RMS ") and "(coplanar below 0.001)" in lines[1]
    assert "smallest singular values" in lines[2] and "(rank deficient below 1e-06)" in lines[2]
    if extra:
        assert lines[3].endswith(f"refinement skipped: cost {estimate['final_cost']:.6g}")
    else:
        assert lines[3].endswith(
            f"refinement: {estimate['iterations']} LM iterations, cost {estimate['initial_cost']:.6g}"
            f" -> {estimate['final_cost']:.6g}, converged True"
        )


def test_importing_the_cli_loads_only_the_runtime():
    """The package runs on numpy alone: importing it and its command line
    loads none of the test dependencies, and not ``hashlib``, which the
    light-field writer imports on first use (it loads OpenSSL)."""
    banned = ["scipy", "sympy", "hypothesis", "pytest", "hashlib"]
    code = f"import sys, lfrect, lfrect.cli; print(sorted(set({banned!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr
