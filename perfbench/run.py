#!/usr/bin/env python3
"""lfrect benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload pose-dense --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its
``src/`` directory and nowhere else.  Scratch files go to
``.perfbench/`` in the checkout and are removed at exit, apart from the
span file of a traced run.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

One run is: set-up (repeated, median reported), one warm-up pass over the
workload's inputs, then whole passes until the time spent inside ops
reaches ``--seconds``.  A single client runs ops back to back (closed
loop, one op in flight), in one process with single-threaded BLAS.  Times
are CPU time of the process and its reaped children, which equals wall
time on an idle machine and does not grow when other processes compete
for the cores.  See NOTES.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

# One BLAS thread, set before numpy loads: the benchmark measures the
# single-threaded cost of each op.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("pose-sweep", "pose-dense", "rectify")

SETUP_REPEATS = 3
# Latency tail: the highest of these percentiles with at least ten samples
# beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

_IMPORT_PROBE = (
    "import time; t = time.process_time(); import lfrect, lfrect.cli; "
    "print(time.process_time() - t)"
)


def cpu_s() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def _pin_malloc_thresholds():
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at 8 MiB.

    Left dynamic, glibc raises both after large frees, so arrays of up to
    32 MiB come from the heap, and a freed 30 MB rectified image may stay
    resident or be reused depending on the heap's layout: peak RSS on
    rectify read 130 or 158 MiB from run to run.  With the thresholds fixed,
    light fields and rectified images are mapped on their own and returned
    when freed, while the per-trial and per-estimate arrays (below 4 MiB)
    still reuse heap memory.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return  # not glibc: nothing to pin
    m_trim_threshold, m_mmap_threshold = -1, -3
    libc.mallopt(m_trim_threshold, 8 * 1024 * 1024)
    libc.mallopt(m_mmap_threshold, 4 * 1024 * 1024)


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "lfrect" / "__init__.py").is_file():
        _die(f"no package source at {SRC / 'lfrect'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import lfrect

    if Path(lfrect.__file__).resolve().parent != (SRC / "lfrect").resolve():
        _die(f"imported lfrect from {lfrect.__file__}, not from {SRC}")


def _child_import_s() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(res.stdout.strip().splitlines()[-1])


def tail(samples_ms: list[float]) -> tuple[float, float]:
    """(percentile, value) of the latency tail."""
    n = len(samples_ms)
    pct = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), 50.0)
    if n < 2:
        return pct, samples_ms[0]
    return pct, statistics.quantiles(samples_ms, n=1000, method="inclusive")[round(pct * 10) - 1]


# ----------------------------------------------------------------------
# Checking


class Checker:
    """Counts ops and the ops whose output is wrong or that raised."""

    def __init__(self, workload, mode: str, ref_digests, frozen: dict):
        self.wl = workload
        self.mode = mode
        self.ref = ref_digests
        self.frozen = frozen
        self.first: dict[int, tuple[str, bool]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, item, why: str):
        self.failed += item.ops
        if len(self.problems) < 20:
            self.problems.append(f"{item.key}: {why}")

    def check(self, idx: int, item, output, error: str | None):
        self.attempted += item.ops
        if error is not None:
            self._fail(item, f"raised {error}")
            return
        digest = self.wl.digest(item, output)
        if idx not in self.first:
            if self.mode == "exact":
                why = None if digest == self.ref[idx] else "output differs from the reference"
            else:
                why = self.wl.check_tolerance(item, output, self.frozen)
            self.first[idx] = (digest, why is None)
        else:
            first_digest, first_ok = self.first[idx]
            why = None
            if digest != first_digest:
                why = "output differs from this run's first output of the same input"
            elif not first_ok:
                why = "repeats a wrong output"
        if why is not None:
            self._fail(item, why)


def check_mode(reference: dict, fp: dict, size: str, seed: int, workload: str, n_items: int):
    """('exact' | 'tolerance', reason, digests, frozen) for one workload."""
    prof = reference.get("profiles", {}).get(size, {})
    frozen = prof.get("frozen", {}).get(workload, {})
    if reference.get("fingerprint") != fp:
        return "tolerance", "environment differs from the recorded reference", None, frozen
    digests = prof.get("seeds", {}).get(str(seed), {}).get(workload)
    if digests is None:
        return "tolerance", f"no recorded reference for seed {seed}", None, frozen
    if len(digests) != n_items:
        return "tolerance", "recorded reference has another number of inputs", None, frozen
    return "exact", f"recorded reference for seed {seed} on this environment", digests, frozen


# ----------------------------------------------------------------------
# Phases


class Phase:
    """Whole passes over the inputs until the time inside ops reaches the
    budget; at least one pass."""

    def __init__(self, workload, items, checker: Checker, out_root: Path):
        self.wl = workload
        self.items = items
        self.checker = checker
        self.out_root = out_root
        out_root.mkdir(parents=True, exist_ok=True)
        self.counter = 0
        self.sink = io.StringIO()

    def run(self, budget_s: float, tracer=None, after_op=None) -> dict:
        busy = 0.0
        ops = passes = 0
        samples_ms = []
        while passes == 0 or busy < budget_s:
            for idx, item in enumerate(self.items):
                out = self.out_root / f"op{self.counter}"
                self.counter += 1
                if tracer is not None:
                    tracer.op_id = self.counter
                output, error = None, None
                t0 = cpu_s()
                try:
                    with redirect_stdout(self.sink):
                        output = self.wl.run_op(item, out)
                except Exception as exc:  # counted as a failed op
                    error = f"{type(exc).__name__}: {exc}"
                dt = cpu_s() - t0
                self.sink.seek(0)
                self.sink.truncate()
                if tracer is not None:
                    tracer.settle()
                if after_op is not None and output is not None:
                    after_op(item, output)
                self.checker.check(idx, item, output, error)
                self.wl.cleanup(out)
                busy += dt
                ops += item.ops
                samples_ms.append(dt * 1e3 / item.ops)
            passes += 1
        return {"busy_s": busy, "ops": ops, "passes": passes, "samples_ms": samples_ms}


def per_layer(tracer, setup_tracer, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced phase, per pass over the inputs
    (render time per set-up)."""
    passes = traced["passes"]
    total, own = tracer.durations()
    calls: dict[str, int] = {}
    tot: dict[str, int] = {}
    slf: dict[str, int] = {}
    for i, name in enumerate(tracer.names):
        calls[name] = calls.get(name, 0) + 1
        tot[name] = tot.get(name, 0) + total[i]
        slf[name] = slf.get(name, 0) + own[i]
    top_ns = sum(t for t, p in zip(total, tracer.parent) if p < 0)

    def s(name):
        return tot.get(name, 0) / 1e9 / passes

    def self_s(name):
        return slf.get(name, 0) / 1e9 / passes

    def n(name):
        return calls.get(name, 0) / passes

    def c(name):
        return tracer.counts.get(name, 0) / passes

    render_s = sum(
        e - b for name, b, e in zip(setup_tracer.names, setup_tracer.start, setup_tracer.end)
        if name == "simulate.render_synthetic_lf"
    ) / 1e9
    rays = tracer.counts.get("resample.rays", 0)
    ops_untraced = untraced["ops"] / untraced["busy_s"]
    ops_traced = traced["ops"] / traced["busy_s"]
    return {
        "simulate.simulate_correspondences.calls": n("simulate.simulate_correspondences"),
        "simulate.simulate_correspondences.self_s": self_s("simulate.simulate_correspondences"),
        "simulate.run_trials.self_s": self_s("simulate.run_trials"),
        "simulate.render_synthetic_lf.s": render_s,
        "pose.estimate_pose.calls": n("pose.estimate_pose"),
        "pose.estimate_pose.self_s": self_s("pose.estimate_pose"),
        "pose.detect_degeneracy.s": s("pose.detect_degeneracy"),
        "pose.solve_linear.s": s("pose.solve_linear"),
        "pose.solve_translation.s": s("pose.solve_translation"),
        "pose.refine_pose.s": s("pose.refine_pose"),
        "pose.CorrespondenceSet.s": s("pose.CorrespondenceSet"),
        "pose.points": c("pose.points"),
        "pose.lm_iterations": c("pose.lm_iterations"),
        "pose.failures": c("pose.failures"),
        "rectify.build_rectified_setup.s": s("rectify.build_rectified_setup"),
        "rectify.warp_rays.calls": n("rectify.warp_rays"),
        "rectify.warp_rays.s": s("rectify.warp_rays"),
        "rectify.warp_rays.rays": c("rectify.warp_rays.rays"),
        "resample.plan_aligned_grid.s": s("resample.plan_aligned_grid"),
        "resample.render_aligned_sais.self_s": self_s("resample.render_aligned_sais"),
        "resample.rays": c("resample.rays"),
        "resample.valid_ray_frac": tracer.counts.get("resample.valid_rays", 0) / rays if rays else 0.0,
        "resample.sais_rendered": c("resample.sais_rendered"),
        "lfio.read_correspondence_csv.s": s("lfio.read_correspondence_csv"),
        "lfio.load_sampled_lf.s": s("lfio.load_sampled_lf"),
        "lfio.save_sampled_lf.s": s("lfio.save_sampled_lf"),
        "lfio.bytes_read": c("lfio.bytes_read"),
        "lfio.bytes_written": c("lfio.bytes_written"),
        "lfio.files_written": c("lfio.files_written"),
        "bench.run_bench.self_s": self_s("bench.run_bench"),
        "cli.main.self_s": self_s("cli.main"),
        # Time inside the op timers that no layer span covers.
        "trace.unaccounted_s": (traced["busy_s"] - top_ns / 1e9) / passes,
        "trace.ops_per_s": ops_traced,
        "trace.untraced_ops_per_s": ops_untraced,
        "trace.overhead_pct": 100.0 * (ops_untraced - ops_traced) / ops_untraced,
        "trace.spans": len(tracer.names) / passes,
    }


# ----------------------------------------------------------------------


def run_workload(args) -> dict:
    _import_package()
    import bench_env
    import bench_trace
    import bench_workloads

    wl = bench_workloads.WORKLOADS[args.workload]
    profile = bench_workloads.PROFILES[args.size]
    spec = _spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    work = SCRATCH / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = bench_env.environment(ROOT, work)
        print(f"lfrect benchmark: workload {wl.name}, seed {args.seed}, "
              f"{args.seconds} s, trace {args.trace}, size {args.size}")
        print("env " + json.dumps(env, sort_keys=True))

        # Set-up: imports (fresh interpreter) plus input generation.
        setup_tracer = bench_trace.Tracer()
        setups = []
        repeats = 1 if args.trace else SETUP_REPEATS
        for k in range(repeats):
            t_import = _child_import_s()
            inputs = work / f"inputs{k}"
            inputs.mkdir()
            t0 = cpu_s()
            if args.trace:
                with bench_trace.installed(setup_tracer):
                    items = wl.setup(args.seed, profile, inputs)
            else:
                items = wl.setup(args.seed, profile, inputs)
            setups.append(t_import + cpu_s() - t0)
            if k + 1 < repeats:
                shutil.rmtree(inputs)

        reference = json.loads((HERE / "reference.json").read_text())
        mode, reason, digests, frozen = check_mode(
            reference, bench_env.fingerprint(env), args.size, args.seed, wl.name, len(items)
        )
        checker = Checker(wl, mode, digests, frozen)
        print(f"check: {mode} ({reason})")
        phase = Phase(wl, items, checker, work / "out")
        phase.run(0.0)  # warm-up pass, checked but not timed

        if not args.trace:
            wall0 = time.perf_counter()
            res = phase.run(args.seconds)
            wall = time.perf_counter() - wall0
            samples = res["samples_ms"]
            pct, tail_ms = tail(samples)
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": res["ops"] / res["busy_s"],
                "op_p50_ms": statistics.median(samples),
                "op_tail_ms": tail_ms,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            notes = {
                "op_tail_ms": f"p{pct:g} of {len(samples)} samples",
                "setup_s": f"median of {len(setups)}",
                "ops_per_s": f"{res['ops']} ops in {res['busy_s']:.3f} CPU s inside ops "
                f"({wall:.3f} s wall for the phase, checks included)",
            }
        else:
            untraced = phase.run(args.seconds / 2)
            tracer = bench_trace.Tracer()
            with bench_trace.installed(tracer):
                traced = phase.run(args.seconds / 2, tracer=tracer)
            metrics = per_layer(tracer, setup_tracer, untraced, traced)
            notes = {}
            spans = SCRATCH / f"trace-{wl.name}-seed{args.seed}.jsonl"
            tracer.write(spans)
            print(f"spans: {len(tracer.names)} written to {spans.relative_to(ROOT)}; "
                  f"{traced['passes']} traced passes, min self time {min(tracer.durations()[1], default=0)} ns")

        metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:10s} {notes.get(name, '')}")
        error_frac = checker.failed / checker.attempted
        print(f"  error_frac {error_frac:g} ({checker.failed} of {checker.attempted} ops)")
        for p in checker.problems:
            print(f"  check failed: {p}")
        return {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            _die(f"{name} exited {res.returncode}")
        results[name] = json.loads(res.stdout.strip().splitlines()[-1])
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="problem sizes; 'tiny' is for the self-test")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.workload == "all":
        result = run_all(args)
    else:
        _pin_malloc_thresholds()
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
