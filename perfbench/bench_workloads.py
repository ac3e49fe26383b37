"""The three workloads: inputs made from a seed, one op, and its checks.

* ``pose-sweep``: the stock accuracy study (``lfrect bench`` noise sweep,
  7 sigma rows x 100 trials of 308 LF-points).  Many small estimates, so
  per-call overhead in ``simulate`` and ``pose`` dominates.  An op is one
  trial; the benchmark runs one ``run_bench`` call per sweep row, so a
  latency sample is the mean trial time of one row.
* ``pose-dense``: ``lfrect estimate`` in process on CSVs of 7,700 pairs
  (a 35 x 55 board at 4.5 mm pitch, the stock footprint, sigma 0.3 px).
  Per-point costs dominate: CSV parsing, the duplicate check, the solve.
* ``rectify``: ``lfrect rectify`` in process on rendered 9 x 9 light
  fields of 96 x 128 px (about 8 MB of float64 images per light field,
  above the 2 MiB per-core L2 and inside the 32 MiB L3 of the reference
  machine).  4D interpolation in ``resample`` dominates; ``lfio`` reads
  and writes around it.

Every op writes to a path that did not exist before (see NOTES.md).

Each op is checked.  The first output of every input is compared with
the recorded reference when the environment fingerprint and seed have
one (``exact``), and otherwise against ground truth within the stated
tolerances (``tolerance``).  Every later output of the same input must be
byte-identical to the first.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lfrect.bench
import lfrect.cli
import lfrect.simulate
from lfrect import lfio
from lfrect.bench import BenchSpec, noise_sweep_spec, pose_grid_presets
from lfrect.geometry import (
    LFIntrinsics,
    RelativePose,
    angular_error_rotation,
    angular_error_translation,
    euler_xyz_intrinsic,
)
from lfrect.simulate import (
    BoardSpec,
    RenderGrid,
    TexturedPlane,
    make_sim_config,
    sinusoid_texture,
    soft_checkerboard_texture,
)

# Problem sizes.  "tiny" serves the self-test only.
PROFILES = {
    "full": {
        "sweep_trials": 100,
        "dense_board": (35, 55, 4.5),
        "dense_inputs": 5,
        "rect_grid": (9, 9, 96, 128, 2),
        # Fallback-check tolerances that depend on the problem size: the
        # largest rotation and translation-direction errors (degrees)
        # against the true pose, and the largest mean |rendered - scene
        # texture| over the valid pixels of one sub-aperture.
        "dense_max_err_deg": (0.25, 1.0),
        "rect_max_sai_mae": 0.03,
    },
    "tiny": {
        "sweep_trials": 2,
        "dense_board": (7, 11, 22.5),
        "dense_inputs": 2,
        "rect_grid": (3, 3, 24, 32, 1),
        "dense_max_err_deg": (1.0, 4.0),
        "rect_max_sai_mae": 0.1,
    },
}

# Tolerances of the fallback check (no reference for this environment or
# seed).  Sweep row means must land within a factor of two of the frozen
# means, as in the package's acceptance tests.
SWEEP_MEAN_FACTOR = 2.0
SWEEP_MAX_FAILURES = 10  # per 100 trials; seed 0 has 3 at sigma 3.0
SWEEP_FAILURE_KINDS = ("NumericalFailure",)
RECT_VALID_FRAC_SLACK = 0.01

DENSE_SIGMA_PX = 0.3


@dataclass
class Item:
    """One input of a workload; ``ops`` is how many ops one run of it is."""

    key: str
    ops: int
    data: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# pose-sweep


class PoseSweep:
    name = "pose-sweep"

    def setup(self, seed: int, profile: dict, workdir: Path) -> list[Item]:
        spec = noise_sweep_spec(trials=profile["sweep_trials"], seed=seed)
        items = []
        for idx, row in enumerate(spec.rows):
            # The same per-row seed run_bench gives row idx of the whole sweep.
            one = BenchSpec(name=spec.name, rows=[row], trials=spec.trials, seed=spec.seed + 1000 * idx)
            items.append(Item(key=row.label, ops=spec.trials, data={"spec": one}))
        return items

    def run_op(self, item: Item, out: Path):
        return lfrect.bench.run_bench(item.data["spec"]).reports[0]

    def digest(self, item: Item, rep) -> str:
        rows = [
            f"{r!r},{t!r},{int(c)},{int(i)}"
            for r, t, c, i in zip(rep.err_R_deg, rep.err_T_deg, rep.converged, rep.iterations)
        ]
        rows += [f"{t}:{reason}" for t, reason in rep.failures]
        return hashlib.sha256("\n".join(rows).encode()).hexdigest()

    def check_tolerance(self, item: Item, rep, frozen: dict) -> str | None:
        trials = item.data["spec"].trials
        if rep.n_trials != trials:
            return f"{rep.n_trials} trials reported, {trials} run"
        if rep.n_failures > SWEEP_MAX_FAILURES * trials / 100:
            return f"{rep.n_failures} failed trials"
        for _, reason in rep.failures:
            if not reason.startswith(SWEEP_FAILURE_KINDS):
                return f"unexpected failure {reason}"
        ref = frozen.get("sweep_means", {}).get(item.key)
        if ref is None:
            return f"no frozen mean for row {item.key}"
        for got, want, what in ((rep.mean_err_R, ref[0], "R"), (rep.mean_err_T, ref[1], "T")):
            if not want / SWEEP_MEAN_FACTOR <= got <= want * SWEEP_MEAN_FACTOR:
                return f"mean err_{what} {got:.4g} deg outside x{SWEEP_MEAN_FACTOR} of {want:.4g}"
        return None

    def cleanup(self, out: Path):
        pass


# ----------------------------------------------------------------------
# pose-dense


class PoseDense:
    name = "pose-dense"

    def setup(self, seed: int, profile: dict, workdir: Path) -> list[Item]:
        rng = np.random.default_rng(seed)
        board = BoardSpec(*profile["dense_board"])
        presets = [("sweep", lfrect.bench.noise_sweep_pose())] + pose_grid_presets()
        items = []
        for d in range(profile["dense_inputs"]):
            label, base = presets[d % len(presets)]
            # Jitter each stock pose by up to 1 degree per axis.
            pose = RelativePose(
                base.R @ euler_xyz_intrinsic(*rng.uniform(-1.0, 1.0, 3)), base.T.copy()
            )
            cfg = make_sim_config(pose, sigma_px=DENSE_SIGMA_PX, board=board)
            corr = lfrect.simulate.simulate_correspondences(cfg, rng)
            stem = workdir / f"dense_{d}"
            lfio.write_correspondence_csv(f"{stem}.csv", corr)
            lfio.save_intrinsics(f"{stem}_k1.json", cfg.k1)
            lfio.save_intrinsics(f"{stem}_k2.json", cfg.k2)
            items.append(
                Item(
                    key=f"{label}#{d}",
                    ops=1,
                    data={"stem": str(stem), "truth": pose, "tol": profile["dense_max_err_deg"]},
                )
            )
        return items

    def run_op(self, item: Item, out: Path):
        stem = item.data["stem"]
        out_json = out.with_suffix(".json")
        rc = lfrect.cli.main(
            [
                "estimate",
                "--points", f"{stem}.csv",
                "--intrinsics1", f"{stem}_k1.json",
                "--intrinsics2", f"{stem}_k2.json",
                "--out", str(out_json),
            ]
        )
        if rc != 0:
            raise RuntimeError(f"lfrect estimate exited {rc}")
        return out_json

    def digest(self, item: Item, out_json: Path) -> str:
        return hashlib.sha256(out_json.read_bytes()).hexdigest()

    def check_tolerance(self, item: Item, out_json: Path, frozen: dict) -> str | None:
        doc = json.loads(out_json.read_text())
        R = np.array(doc["R"], float).reshape(3, 3)
        T = np.array(doc["T"], float)
        truth = item.data["truth"]
        tol_R, tol_T = item.data["tol"]
        err_R = angular_error_rotation(truth.R, R)
        err_T = angular_error_translation(truth.T, T)
        if not (err_R <= tol_R and err_T <= tol_T):
            return f"pose error {err_R:.4g}/{err_T:.4g} deg over {tol_R}/{tol_T}"
        if not (doc["converged"] and doc["refined"]):
            return "refinement did not converge"
        return None

    def cleanup(self, out: Path):
        out.with_suffix(".json").unlink(missing_ok=True)


# ----------------------------------------------------------------------
# rectify

# Camera 2 relative to camera 1 (X_2 = R X_1 + T), as the estimator
# reports it.  "fixture" is the package tests' rendering pose; "middle" and
# "wide" have longer baselines and more vergence, so the output grid grows
# and a smaller share of its rays land.  Output size, and with it op time,
# grows from pose to pose; with three poses the median op falls inside one
# pose's cluster rather than in the gap between two.
RECT_POSES = {
    "fixture": ((1.0, 3.0, 0.5), (-50.0, -4.0, 2.55)),
    "middle": ((1.0, 6.0, 1.0), (-80.0, -6.0, 4.0)),
    "wide": ((2.0, 10.0, 1.0), (-120.0, -6.0, 4.0)),
}
RECT_PITCH_MM = 2.0
RECT_PLANE_Z_MM = 600.0


def _render_camera(height: int, width: int) -> LFIntrinsics:
    # 400 px focal length at 128 px width; K1 = 0 and K2 = fx * pitch keep
    # the LF-point model consistent with the traced rays.
    fx = 400.0 * width / 128.0
    return LFIntrinsics(
        fx=fx, fy=fx, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0, K1=0.0, K2=fx * RECT_PITCH_MM
    )


def _scenes(seed: int) -> list[tuple[str, TexturedPlane]]:
    """A smooth sinusoid texture and a band-limited checkerboard, both
    fronto-parallel at 600 mm; the seed picks the waves and the board
    offset."""
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-15.0, 15.0, 2)
    ex, ey = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    return [
        (
            "sinusoid",
            TexturedPlane(
                origin=np.array([20.0, 0.0, RECT_PLANE_Z_MM]),
                axis_a=ex, axis_b=ey,
                texture=sinusoid_texture(int(rng.integers(2**31))),
                half_a=600.0, half_b=450.0,
            ),
        ),
        (
            "checker",
            TexturedPlane(
                origin=np.array([20.0 + shift[0], shift[1], RECT_PLANE_Z_MM]),
                axis_a=ex, axis_b=ey,
                texture=soft_checkerboard_texture(30.0, 2.0),
                half_a=600.0, half_b=450.0,
            ),
        ),
    ]


def _read_sai(d: Path, i: int, j: int):
    """Image and validity mask of one stored sub-aperture, parsed here
    rather than by the package: 16-bit P5 with header lines 'P5', 'w h',
    '65535', and P4 with 'P4', 'w h', black bits marking invalid pixels."""
    _, size, _, data = (d / f"sai_r{i}_c{j}.pgm").read_bytes().split(b"\n", 3)
    w, h = (int(x) for x in size.split())
    img = np.frombuffer(data, ">u2", count=w * h).reshape(h, w) / 65535.0
    _, size, data = (d / f"sai_r{i}_c{j}.pbm").read_bytes().split(b"\n", 2)
    w, h = (int(x) for x in size.split())
    bits = np.unpackbits(np.frombuffer(data, np.uint8).reshape(h, -1), axis=1)[:, :w]
    return img, bits == 0


class Rectify:
    name = "rectify"

    def setup(self, seed: int, profile: dict, workdir: Path) -> list[Item]:
        nr, nc, h, w, ss = profile["rect_grid"]
        grid = RenderGrid(sai_rows=nr, sai_cols=nc, pitch_mm=RECT_PITCH_MM, width_px=w, height_px=h, supersample=ss)
        k = _render_camera(h, w)
        items = []
        for tex_name, plane in _scenes(seed):
            left = lfrect.simulate.render_synthetic_lf([plane], k, RelativePose(np.eye(3), np.zeros(3)), grid)
            left_dir = workdir / f"{tex_name}_left"
            lfio.save_sampled_lf(left_dir, left)
            for pose_name, (euler, T) in RECT_POSES.items():
                pose = RelativePose(euler_xyz_intrinsic(*euler), np.array(T))
                right = lfrect.simulate.render_synthetic_lf([plane], k, pose.inverse(), grid)
                right_dir = workdir / f"{tex_name}_{pose_name}_right"
                lfio.save_sampled_lf(right_dir, right)
                pose_path = workdir / f"{tex_name}_{pose_name}_pose.json"
                lfio.save_pose(pose_path, pose)
                items.append(
                    Item(
                        key=f"{tex_name}/{pose_name}",
                        ops=1,
                        data={
                            "left": str(left_dir),
                            "right": str(right_dir),
                            "pose": str(pose_path),
                            "plane": plane,
                            "pose_name": pose_name,
                            "tol": profile["rect_max_sai_mae"],
                        },
                    )
                )
        return items

    def run_op(self, item: Item, out: Path):
        rc = lfrect.cli.main(
            [
                "rectify",
                "--pose", item.data["pose"],
                "--left", item.data["left"],
                "--right", item.data["right"],
                "--out", str(out),
            ]
        )
        if rc != 0:
            raise RuntimeError(f"lfrect rectify exited {rc}")
        return out

    def digest(self, item: Item, out: Path) -> str:
        h = hashlib.sha256()
        for name in sorted(os.listdir(out)):
            h.update(name.encode() + b"\0")
            h.update((out / name).read_bytes())
        return h.hexdigest()

    def valid_fraction(self, out: Path) -> float:
        """Valid share of the rays of the rendered target sub-apertures."""
        prov = np.array(json.loads((out / "grid.json").read_text())["aligned"]["provenance"])
        valid = total = 0
        for i, j in zip(*np.nonzero(prov)):
            _, mask = _read_sai(out, i, j)
            valid += int(mask.sum())
            total += mask.size
        return valid / total

    def check_tolerance(self, item: Item, out: Path, frozen: dict) -> str | None:
        meta = json.loads((out / "grid.json").read_text())
        setup = json.loads((out / "setup.json").read_text())
        R_l = np.array(setup["R_l"], float).reshape(3, 3)
        T_l = np.array(setup["T_l"], float)
        mp = meta["mapping"]
        prov = np.array(meta["aligned"]["provenance"])
        rows_mm, cols_mm = meta["rows_mm"], meta["cols_mm"]
        plane: TexturedPlane = item.data["plane"]
        for i, j in zip(*np.nonzero(prov)):
            img, mask = _read_sai(out, i, j)
            if not mask.any():
                continue
            r, c = np.nonzero(mask)
            # Ray (s, t, 0) + tau (u, v, 1) of the common frame, moved into
            # camera 1 (the scene frame) and intersected with the plane.
            n = r.size
            org = np.column_stack([np.full(n, cols_mm[j]), np.full(n, rows_mm[i]), np.zeros(n)])
            dirs = np.column_stack([mp["u0"] + mp["du"] * c, mp["v0"] + mp["dv"] * r, np.ones(n)])
            org = (org - T_l) @ R_l
            dirs = dirs @ R_l
            normal = plane.normal
            tau = ((plane.origin - org) @ normal) / (dirs @ normal)
            rel = org + tau[:, None] * dirs - plane.origin
            truth = plane.texture(rel @ plane.axis_a, rel @ plane.axis_b)
            mae = float(np.abs(img[r, c] - truth).mean())
            if not mae <= item.data["tol"]:
                return f"sub-aperture ({i},{j}) differs from the scene by {mae:.4g} on average"
        want = frozen.get("rect_valid_frac", {}).get(item.data["pose_name"])
        got = self.valid_fraction(out)
        if want is None or abs(got - want) > RECT_VALID_FRAC_SLACK:
            return f"valid fraction {got:.4f}, expected {want}"
        return None

    def cleanup(self, out: Path):
        if out.exists():
            for entry in os.scandir(out):
                os.unlink(entry.path)
            out.rmdir()


WORKLOADS = {w.name: w for w in (PoseSweep(), PoseDense(), Rectify())}
