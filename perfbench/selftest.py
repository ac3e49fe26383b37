#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; takes a few seconds.

    python3 perfbench/selftest.py

Checks that
1. the metric names each workload prints equal those in BENCHMARK.json,
   with and without tracing;
2. a perturbed output is counted as a failed op, under the exact check
   and under the tolerance check, and an unperturbed one is not;
3. every traced self time is non-negative.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

FAILURES: list[str] = []


def report(ok: bool, what: str):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_metric_names():
    spec = run._spec()
    for workload in run.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            res = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            if res.returncode != 0:
                report(False, f"{workload} trace {trace}: exit {res.returncode}: {res.stderr[-300:]}")
                continue
            out = json.loads(res.stdout.strip().splitlines()[-1])
            want = [m["name"] for m in spec[key]]
            units = {m["name"]: m["unit"] for m in spec[key]}
            names_ok = list(out["metrics"]) == want
            values_ok = all(
                isinstance(v["value"], (int, float)) and math.isfinite(v["value"]) and v["unit"] == units[k]
                for k, v in out["metrics"].items()
            )
            report(
                names_ok and values_ok and out["correct"] and out["attempted"] >= 1,
                f"{workload} trace {trace}: {len(out['metrics'])} metrics named as in BENCHMARK.json, "
                f"correct={out['correct']}, {out['attempted']} ops",
            )


def _perturb(workload: str):
    """Corrupt one op's output in place."""

    def sweep(item, rep):
        rep.err_R_deg += 10.0

    def dense(item, out_json: Path):
        doc = json.loads(out_json.read_text())
        doc["T"] = [-x for x in doc["T"]]
        out_json.write_text(json.dumps(doc))

    def rectify(item, out: Path):
        import bench_workloads

        meta = json.loads((out / "grid.json").read_text())
        for i, row in enumerate(meta["aligned"]["provenance"]):
            for j, prov in enumerate(row):
                if prov and bench_workloads._read_sai(out, i, j)[1].any():
                    path = out / f"sai_r{i}_c{j}.pgm"
                    magic, size, maxval, data = path.read_bytes().split(b"\n", 3)
                    inverted = bytes(255 - b for b in data)  # 65535 - v per 16-bit sample
                    path.write_bytes(b"\n".join([magic, size, maxval, inverted]))
                    return

    return {"pose-sweep": sweep, "pose-dense": dense, "rectify": rectify}[workload]


def check_perturbation_and_trace():
    import bench_trace
    import bench_workloads

    frozen_all = json.loads((run.HERE / "reference.json").read_text())["profiles"]["tiny"]["frozen"]
    profile = bench_workloads.PROFILES["tiny"]
    run.SCRATCH.mkdir(exist_ok=True)
    for name, wl in bench_workloads.WORKLOADS.items():
        work = Path(tempfile.mkdtemp(dir=run.SCRATCH))
        try:
            items = wl.setup(0, profile, work)
            frozen = frozen_all.get(name, {})
            # Reference digests recorded here, so the exact check runs on
            # any environment.
            probe = run.Checker(wl, "tolerance", None, frozen)
            run.Phase(wl, items, probe, work / "ref").run(0.0)
            report(probe.failed == 0, f"{name}: unperturbed outputs pass the tolerance check {probe.problems or ''}")
            if probe.failed:
                continue
            digests = [probe.first[i][0] for i in range(len(items))]
            for mode in ("exact", "tolerance"):
                checker = run.Checker(wl, mode, digests, frozen)
                run.Phase(wl, items, checker, work / mode).run(0.0, after_op=_perturb(name))
                report(
                    checker.attempted > 0 and checker.failed == checker.attempted,
                    f"{name}: perturbed outputs counted under the {mode} check "
                    f"({checker.failed} of {checker.attempted} ops failed)",
                )
            tracer = bench_trace.Tracer()
            checker = run.Checker(wl, "exact", digests, frozen)
            with bench_trace.installed(tracer):
                run.Phase(wl, items, checker, work / "traced").run(0.0, tracer=tracer)
            own = tracer.durations()[1]
            report(
                checker.failed == 0 and len(own) > 0 and min(own) >= 0,
                f"{name}: {len(own)} traced spans, minimum self time {min(own, default=0)} ns",
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
    try:
        run.SCRATCH.rmdir()
    except OSError:
        pass


def main() -> int:
    check_metric_names()
    run._import_package()
    check_perturbation_and_trace()
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
