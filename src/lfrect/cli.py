"""Command-line interface.

Subcommands::

    simulate   draw one noisy correspondence set from a config
    estimate   relative pose from a correspondence CSV
    rectify    resample two light-field directories onto a common grid
    epi        slice an epipolar-plane image out of a light field
    bench      run a trial sweep and write the summary table

Exit codes: 0 success, 2 bad configuration or arguments (including an
out-of-range ``epi`` index, an ``--out`` that cannot be created or
written, an ``--out`` that its own twin would overwrite, an ``--out``
that names one of the command's own inputs, and an ``epi`` ``--out`` or
twin that is a file of its ``--sais`` light field), 3 generation
failure, 4 degenerate geometry, 5 no rectified overlap.  Each code is one
group base in :mod:`lfrect.errors`, and ``main`` catches only those four
bases.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import lfio
from .errors import ConfigError, DegenerateGeometry, GenerationFailure, NoOverlap
from .pose import _COPLANAR_RATIO, _RANK_GAP, estimate_pose
from .rectify import build_rectified_setup
from .resample import extract_epi, iter_aligned_sais, plan_aligned_grid
# Not called here: rectify streams iter_aligned_sais into
# lfio.save_sai_stream instead.  perfbench/bench_trace.py still wraps this
# name (and lfio.save_sampled_lf), so it stays importable from this module.
from .resample import render_aligned_sais  # noqa: F401
from .simulate import simulate_trial

log = logging.getLogger("lfrect")


@contextmanager
def _writing(path):
    """Turn a failure to create or write the user-named output ``path``
    (a file, or a directory and what goes in it) into a ConfigError that
    names the file or directory that failed."""
    try:
        yield
    except OSError as e:
        name = path if e.filename is None else e.filename
        raise ConfigError(f"cannot write {name}: {e.strerror or e}") from e


def _check_twin(out: Path, suffix: str):
    """Refuse, before any work, an ``--out`` that is its own ``suffix``
    twin: ``out.with_suffix(suffix)`` would overwrite it."""
    if out.suffix == suffix:
        raise ConfigError(f"--out {out} would be overwritten by its {suffix} twin")


def _check_not_input(out: Path, **inputs):
    """Refuse, before any work, an ``--out`` path that is the same file or
    directory as an existing input, given by its flag name: writing it
    would destroy that input."""
    for flag, path in inputs.items():
        if out.exists() and os.path.exists(path) and os.path.samefile(out, path):
            raise ConfigError(f"--out would overwrite the --{flag} input {path}")


def _cmd_simulate(args) -> int:
    cfg = lfio.load_sim_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    corr = simulate_trial(cfg, args.trial)
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        lfio.write_correspondence_csv(out / "correspondences.csv", corr)
        lfio.save_intrinsics(out / "intrinsics1.json", cfg.k1)
        lfio.save_intrinsics(out / "intrinsics2.json", cfg.k2)
        lfio.save_pose(out / "ground_truth.json", cfg.pose)
    log.info("simulated %d correspondences at sigma=%g px", len(corr), cfg.sigma_px)
    print(f"wrote {len(corr)} correspondences to {out}")
    return 0


def _log_estimate(result, points: int):
    """One INFO line per stage of ``result``, each figure beside the
    threshold that it is judged against."""
    report = result.degeneracy
    log.info(
        "read %d correspondences; %d left out of the plane fit as unplaceable in depth",
        points,
        report.excluded,
    )
    diameter = report.scene_diameter
    log.info(
        "plane fit: RMS %.3g mm over scene diameter %.3g mm = %.3g (coplanar below %g)",
        report.residual_rms,
        diameter,
        report.residual_rms / diameter if diameter > 0 else float("inf"),
        _COPLANAR_RATIO,
    )
    s = result.linear.singular_values
    log.info(
        "linear solve: smallest singular values %.3e and %.3e, relative gap %.3g"
        " (rank deficient below %g)",
        s[-1],
        s[-2],
        (s[-2] - s[-1]) / s[-2],
        _RANK_GAP,
    )
    if result.refined:
        log.info(
            "refinement: %d LM iterations, cost %.6g -> %.6g, converged %s",
            result.iterations,
            result.initial_cost,
            result.final_cost,
            result.converged,
        )
    else:
        log.info("refinement skipped: cost %.6g", result.final_cost)


def _cmd_estimate(args) -> int:
    _check_not_input(
        Path(args.out), points=args.points, intrinsics1=args.intrinsics1, intrinsics2=args.intrinsics2
    )
    k1 = lfio.load_intrinsics(args.intrinsics1)
    k2 = lfio.load_intrinsics(args.intrinsics2)
    corr = lfio.read_correspondence_csv(args.points, k1, k2)
    result = estimate_pose(corr, refine=not args.no_refine)
    if log.isEnabledFor(logging.INFO):
        _log_estimate(result, len(corr))
    with _writing(args.out):
        lfio.save_estimate(args.out, result)
    print(
        f"estimated pose from {len(corr)} correspondences: "
        f"cost {result.initial_cost:.6g} -> {result.final_cost:.6g} "
        f"in {result.iterations} iterations"
    )
    return 0


def _counted(sais, tally: list):
    """Pass the sub-apertures of ``sais`` through, adding 1 to ``tally[0]``
    and the count of valid rays to ``tally[1]`` for each."""
    for i, j, image, mask in sais:
        tally[0] += 1
        tally[1] += int(mask.sum())
        yield i, j, image, mask


def _cmd_rectify(args) -> int:
    out = Path(args.out)
    _check_not_input(out, left=args.left, right=args.right)
    pose = lfio.load_pose(args.pose)
    if args.pose_direction == "1to2":
        # The estimator reports camera-1 -> camera-2; rectification wants
        # the map from camera-2 coordinates back into camera 1.
        pose = pose.inverse()
    setup = build_rectified_setup(pose)
    left, _ = lfio.load_sampled_lf(args.left)
    right, _ = lfio.load_sampled_lf(args.right)
    log.info(
        "read %dx%d and %dx%d sub-apertures of %dx%d px",
        left.n_rows, left.n_cols, right.n_rows, right.n_cols, left.height, left.width,
    )
    log.info("rectifying frame: baseline %.6g mm", setup.baseline_mm)
    # Every refusal (NoOverlap, a grid lattice that is not regular) comes
    # from planning, before the first file is written.  The output is then
    # rendered and stored one sub-aperture at a time, never held whole.
    grid = plan_aligned_grid(left, right, setup)
    counts = np.bincount(grid.provenance.ravel(), minlength=4)
    log.info(
        "planned %dx%d grid: %d cells from the left only, %d from the right only,"
        " %d from both, %d from none",
        grid.rows_mm.size, grid.cols_mm.size, counts[1], counts[2], counts[3], counts[0],
    )
    tally = [0, 0]
    sais = _counted(iter_aligned_sais(left, right, setup, grid), tally)
    size = (left.height, left.width)
    with _writing(out):
        lfio.save_sai_stream(out, sais, grid.rows_mm, grid.cols_mm, left.mapping, size, grid, setup)
    # Planning refused a grid without a cell that both cameras serve, so
    # at least one sub-aperture was rendered.
    log.info(
        "wrote %d sub-apertures, %d rendered: %.4g%% of their rays valid",
        grid.provenance.size, tally[0], 100.0 * tally[1] / (tally[0] * left.height * left.width),
    )
    print(
        f"rectified onto {grid.rows_mm.size}x{grid.cols_mm.size} grid "
        f"(baseline {setup.baseline_mm:.3f} mm, {counts[3]} shared sub-apertures)"
    )
    return 0


def _cmd_epi(args) -> int:
    out = Path(args.out)
    _check_twin(out, ".pbm")
    for target in (out, out.with_suffix(".pbm")):  # a file of the light field
        if lfio.LF_FILE_NAME.fullmatch(target.name):
            _check_not_input(target.parent, sais=args.sais)
    lf, _ = lfio.load_sampled_lf(args.sais)
    epi = extract_epi(lf, row=args.row, line=args.line)
    log.info(
        "EPI of grid row %d, scan line %d: %dx%d px, %.4g%% valid",
        args.row, args.line, epi.image.shape[0], epi.image.shape[1], 100.0 * epi.mask.mean(),
    )
    with _writing(out):
        lfio.write_pgm16(out, epi.image)
        lfio.write_pbm(out.with_suffix(".pbm"), epi.mask)
    print(f"wrote {epi.image.shape[0]}x{epi.image.shape[1]} EPI to {out}")
    return 0


def _cmd_bench(args) -> int:
    out = Path(args.out)
    _check_twin(out, ".dat")
    overrides = {k: getattr(args, k) for k in ("trials", "seed") if getattr(args, k) is not None}
    if args.spec is not None:
        for target in (out, out.with_suffix(".dat")):
            _check_not_input(target, spec=args.spec)
        spec = dataclasses.replace(lfio.load_bench_spec(args.spec), **overrides)
    elif args.scenario == "noise-sweep":
        spec = bench_mod.noise_sweep_spec(**overrides)
    else:
        spec = bench_mod.pose_grid_spec(**overrides)
    log.info("running %s: %d rows x %d trials", spec.name, len(spec.rows), spec.trials)
    result = bench_mod.run_bench(spec, jobs=args.jobs)
    with _writing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        lfio.write_bench_tables(out, result)
    for row, rep in zip(spec.rows, result.reports):
        print(
            f"{spec.name} {row.label}: err_R {rep.mean_err_R:.4f} deg, "
            f"err_T {rep.mean_err_T:.4f} deg ({rep.n_failures} failures)"
        )
    return 0


def _int_at_least(low: int):
    """An argparse type for integers no smaller than ``low``; argparse still
    reports a non-integer as an "invalid int value"."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
        return int(text)
    parse.__name__ = "int"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  It holds no
    handlers: ``main`` looks up ``_cmd_<command>`` on each call."""
    p = argparse.ArgumentParser(prog="lfrect", description=__doc__.split("\n")[0])
    p.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="draw a noisy correspondence set")
    ps.add_argument("--config", required=True, help="simulation config JSON")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--seed", type=_int_at_least(0), default=None, help="override the config seed")
    ps.add_argument("--trial", type=_int_at_least(0), default=0, help="which trial's noise draw")

    pe = sub.add_parser("estimate", help="estimate a relative pose")
    pe.add_argument("--points", required=True, help="correspondence CSV")
    pe.add_argument("--intrinsics1", required=True)
    pe.add_argument("--intrinsics2", required=True)
    pe.add_argument("--out", required=True, help="output pose JSON")
    pe.add_argument("--no-refine", action="store_true", help="linear solution only")

    pr = sub.add_parser("rectify", help="resample two light fields onto a common grid")
    pr.add_argument("--pose", required=True, help="pose JSON")
    pr.add_argument(
        "--pose-direction",
        choices=("1to2", "2to1"),
        default="1to2",
        help="direction of the pose file (estimator output is 1to2; default)",
    )
    pr.add_argument("--left", required=True, help="camera-1 light-field directory")
    pr.add_argument("--right", required=True, help="camera-2 light-field directory")
    pr.add_argument("--out", required=True, help="output directory")

    pp = sub.add_parser("epi", help="extract an epipolar-plane image")
    pp.add_argument("--sais", required=True, help="light-field directory")
    pp.add_argument("--row", type=int, required=True, help="sub-aperture grid row")
    pp.add_argument("--line", type=int, required=True, help="image scan line")
    pp.add_argument("--out", required=True, help="output PGM path (a .pbm mask twin is written too)")

    pb = sub.add_parser("bench", help="run a benchmark sweep")
    group = pb.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", choices=("noise-sweep", "pose-grid"))
    group.add_argument("--spec", help="custom sweep JSON")
    pb.add_argument("--trials", type=_int_at_least(1), default=None)
    pb.add_argument("--seed", type=_int_at_least(0), default=None)
    pb.add_argument(
        "--jobs", type=_int_at_least(1), default=1, help="worker processes (capped at the CPU count)"
    )
    pb.add_argument("--out", required=True, help="output CSV (a .dat twin is written too)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # basicConfig adds the one stderr handler on the first call and does
    # nothing after that, so the level is set on every call, on the logger.
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NoOverlap as e:
        print(f"error: no overlap after rectification: {e}", file=sys.stderr)
        for key, val in (e.diagnostics or {}).items():
            print(f"  {key}: {val}", file=sys.stderr)
        return 5
    except DegenerateGeometry as e:
        print(f"error: degenerate geometry: {type(e).__name__}: {e}", file=sys.stderr)
        report = getattr(e, "report", None)
        if report is not None:
            print(
                f"  plane residual {report.residual_rms:.6g} mm over scene "
                f"diameter {report.scene_diameter:.6g} mm",
                file=sys.stderr,
            )
        return 4
    except GenerationFailure as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
