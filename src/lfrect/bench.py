"""Benchmark sweeps over noise levels and pose presets.

Two built-in scenarios mirror the synthetic accuracy study:

* ``noise-sweep``: one pose (rotations 5/20/5 degrees about x/y/z, 80 mm
  baseline with small lateral offsets), pixel noise stepped over
  0.1 ... 0.5 then 2 and 3.
* ``pose-grid``: sigma fixed at 0.3 px, four pose presets crossing a
  15 or 30 degree y-rotation with a 50 or 100 mm pure-x baseline.

Each row of a sweep runs :func:`lfrect.simulate.run_trials` with its own
base seed (spec seed + 1000 * row index) so rows draw independent noise
while staying reproducible trial-by-trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import RelativePose, euler_xyz_intrinsic
from .simulate import TrialReport, make_sim_config, run_trials, trial_pool

__all__ = [
    "BenchRow",
    "BenchSpec",
    "BenchResult",
    "noise_sweep_pose",
    "pose_grid_presets",
    "noise_sweep_spec",
    "pose_grid_spec",
    "parse_bench_spec",
    "run_bench",
    "BENCH_HEADER",
    "bench_csv_lines",
    "bench_dat_lines",
]

BENCH_HEADER = "sigma_or_pose,mean_err_R,std_err_R,mean_err_T,std_err_T,trials,failures"

NOISE_SWEEP_SIGMAS = (0.1, 0.2, 0.3, 0.4, 0.5, 2.0, 3.0)


def noise_sweep_pose() -> RelativePose:
    return RelativePose(euler_xyz_intrinsic(5.0, 20.0, 5.0), np.array([80.0, 5.0, 5.0]))


def pose_grid_presets() -> list[tuple[str, RelativePose]]:
    r15 = euler_xyz_intrinsic(5.0, 15.0, 5.0)
    r30 = euler_xyz_intrinsic(5.0, 30.0, 5.0)
    t50 = np.array([50.0, 0.0, 0.0])
    t100 = np.array([100.0, 0.0, 0.0])
    return [
        ("r15_t50", RelativePose(r15, t50)),
        ("r15_t100", RelativePose(r15, t100)),
        ("r30_t50", RelativePose(r30, t50)),
        ("r30_t100", RelativePose(r30, t100)),
    ]


@dataclass(frozen=True)
class BenchRow:
    label: str
    pose: RelativePose
    sigma_px: float

    def __post_init__(self):
        if not 0 <= self.sigma_px < np.inf:
            raise ValueError(f"noise sigma must be finite and non-negative, got {self.sigma_px}")


@dataclass(frozen=True)
class BenchSpec:
    name: str
    rows: tuple
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("benchmark needs at least one row")
        if self.trials < 1:
            raise ValueError("at least one trial per row")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class BenchResult:
    spec: BenchSpec
    reports: tuple  # one TrialReport per spec row


def noise_sweep_spec(trials: int = 100, seed: int = 0) -> BenchSpec:
    pose = noise_sweep_pose()
    rows = [BenchRow(repr(float(s)), pose, float(s)) for s in NOISE_SWEEP_SIGMAS]
    return BenchSpec(name="noise-sweep", rows=rows, trials=trials, seed=seed)


def pose_grid_spec(trials: int = 100, seed: int = 0) -> BenchSpec:
    rows = [BenchRow(name, pose, 0.3) for name, pose in pose_grid_presets()]
    return BenchSpec(name="pose-grid", rows=rows, trials=trials, seed=seed)


def _spec_value(data: dict, key: str, cast):
    """``cast(data[key])``; a bad value raises ValueError naming the key."""
    try:
        return cast(data[key])
    except (ValueError, TypeError, OverflowError) as e:
        raise ValueError(f"{key}: {e}") from e


def parse_bench_spec(data: dict, source: str = "<spec>") -> BenchSpec:
    """Custom sweep from JSON: {"name": ..., "trials": N, "seed": S,
    "rows": [{"label", "euler_deg", "T_mm", "sigma_px"}, ...]}."""
    from .lfio import parse_pose_dict  # deferred so the modules stay independent

    try:
        rows = []
        for row in data["rows"]:
            rows.append(
                BenchRow(
                    label=str(row["label"]),
                    pose=parse_pose_dict(row),
                    sigma_px=_spec_value(row, "sigma_px", float),
                )
            )
        counts = {key: _spec_value(data, key, int) for key in ("trials", "seed") if key in data}
        return BenchSpec(name=str(data.get("name", "custom")), rows=rows, **counts)
    except (KeyError, ValueError, TypeError, OverflowError) as e:
        msg = e.args[0] if e.args else e
        raise ConfigError(f"{source}: {msg}") from e


def run_bench(spec: BenchSpec, jobs: int = 1) -> BenchResult:
    """Run every row of ``spec``; with ``jobs`` > 1 all rows share one pool
    of worker processes."""
    reports = []
    with trial_pool(jobs) as pool:
        for idx, row in enumerate(spec.rows):
            cfg = make_sim_config(
                pose=row.pose,
                sigma_px=row.sigma_px,
                trials=spec.trials,
                seed=spec.seed + 1000 * idx,
            )
            reports.append(run_trials(cfg, jobs=jobs, pool=pool))
    return BenchResult(spec=spec, reports=tuple(reports))


def _row_cells(row: BenchRow, rep: TrialReport) -> list[str]:
    return [
        row.label,
        repr(rep.mean_err_R),
        repr(rep.std_err_R),
        repr(rep.mean_err_T),
        repr(rep.std_err_T),
        str(rep.n_trials),
        str(rep.n_failures),
    ]


def bench_csv_lines(result: BenchResult) -> list[str]:
    lines = [BENCH_HEADER]
    for row, rep in zip(result.spec.rows, result.reports):
        lines.append(",".join(_row_cells(row, rep)))
    return lines


def bench_dat_lines(result: BenchResult) -> list[str]:
    """The same table as whitespace-separated columns for gnuplot."""
    lines = ["# " + BENCH_HEADER.replace(",", " ")]
    for row, rep in zip(result.spec.rows, result.reports):
        lines.append(" ".join(_row_cells(row, rep)))
    return lines
