#!/usr/bin/env python3
"""Record the reference outputs the benchmark's exact check compares with.

    python3 perfbench/record_reference.py

For seeds 0 to 31 at full sizes, and for seed 0 of the tiny
self-test sizes, each workload's inputs are generated and every input is
run once; the digest of each output is stored with the environment
fingerprint in ``perfbench/reference.json``.  Seed 0 also freezes the
values the fallback check needs: the sweep row means and the rectified
valid fractions.  Every recorded output must pass that fallback check,
which validates its tolerances on all recorded seeds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

RECORDED_SEEDS = 32


def record(size: str, seeds: int, root: Path) -> dict:
    import bench_workloads

    profile = bench_workloads.PROFILES[size]
    out = {"seeds": {}, "frozen": {}}
    bad = []
    for seed in range(seeds):
        digests = {}
        for wl in bench_workloads.WORKLOADS.values():
            work = Path(tempfile.mkdtemp(dir=root))
            try:
                items = wl.setup(seed, profile, work)
                outputs = [wl.run_op(item, work / f"op{i}") for i, item in enumerate(items)]
                digests[wl.name] = [wl.digest(it, o) for it, o in zip(items, outputs)]
                if seed == 0:
                    out["frozen"][wl.name] = frozen(wl, items, outputs)
                for item, o in zip(items, outputs):
                    why = wl.check_tolerance(item, o, out["frozen"][wl.name])
                    if why is not None:
                        bad.append(f"{size} seed {seed} {wl.name} {item.key}: {why}")
            finally:
                shutil.rmtree(work)
        out["seeds"][str(seed)] = digests
        print(f"{size} seed {seed} recorded", file=sys.stderr)
    for line in bad:
        print(f"fallback check fails: {line}", file=sys.stderr)
    return out


# Mean rotation / translation-direction errors (degrees) of 100-trial sweep
# rows, frozen in the package's acceptance tests.  The sigma 2 and 3 rows
# have no frozen value there and take this recording's seed 0.
TEST_SWEEP_MEANS = {
    "0.1": [0.0275, 0.1355],
    "0.2": [0.0789, 0.2997],
    "0.3": [0.1264, 0.4502],
    "0.4": [0.1571, 0.5578],
    "0.5": [0.2024, 0.7511],
}


def frozen(wl, items, outputs) -> dict:
    if wl.name == "pose-sweep":
        means = {it.key: [rep.mean_err_R, rep.mean_err_T] for it, rep in zip(items, outputs)}
        if items[0].ops == 100:
            means.update(TEST_SWEEP_MEANS)
        return {
            "sweep_means": means,
            "seed0_failures": {it.key: rep.failures for it, rep in zip(items, outputs) if rep.failures},
        }
    if wl.name == "rectify":
        return {"rect_valid_frac": {it.data["pose_name"]: wl.valid_fraction(o) for it, o in zip(items, outputs)}}
    return {}


def main() -> int:
    run._import_package()
    import bench_env

    run.SCRATCH.mkdir(exist_ok=True)
    try:
        env = bench_env.environment(run.ROOT, run.SCRATCH)
        doc = {
            "fingerprint": bench_env.fingerprint(env),
            "recorded_on": env,
            "profiles": {
                "tiny": record("tiny", 1, run.SCRATCH),
                "full": record("full", RECORDED_SEEDS, run.SCRATCH),
            },
        }
    finally:
        shutil.rmtree(run.SCRATCH, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
