"""Spans around the calls into each lfrect module, recorded from outside.

No file of the package changes: the tracer replaces a function with a
timing wrapper at the place where the package looks it up (a module
attribute such as ``lfrect.simulate.estimate_pose``), and puts the
original back afterwards.  Spans live in memory as (name, start, end,
parent, op id) and are written out once, at the end of the run.

Counts that need file sizes or array reductions are computed by deferred
callbacks that run in ``settle()``, after the op's timer has stopped, so
they add nothing to any span.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import lfrect.bench
import lfrect.cli
import lfrect.lfio
import lfrect.pose
import lfrect.resample
import lfrect.simulate

# The same clock as the op timers: CPU time of the process.
_now = time.process_time_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.pending: list = []
        self._lfio_depth = 0

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.start.append(_now())
        self.end.append(0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = _now()
        self.stack.pop()

    def settle(self):
        """Run the deferred count callbacks of the ops traced so far."""
        for fn in self.pending:
            fn(self.counts)
        self.pending.clear()

    # ------------------------------------------------------------------
    # Reductions

    def durations(self):
        """(total, self) nanoseconds per span.  Children of one span run
        one after another, so their durations add up to the part of the
        parent they cover."""
        total = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * len(total)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += total[i]
        return total, [t - c for t, c in zip(total, covered)]

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": self.start[i],
                            "end_ns": self.end[i],
                            "parent": self.parent[i],
                            "op": self.op[i],
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Count callbacks (run from Tracer.settle)


def _tree_bytes(path) -> tuple[int, int]:
    p = Path(path)
    if p.is_dir():
        sizes = [e.stat().st_size for e in os.scandir(p) if e.is_file()]
        return sum(sizes), len(sizes)
    return p.stat().st_size, 1


def _estimate_counts(args, kwargs, result, failed):
    corr = args[0] if args else kwargs["corr"]
    n = len(corr)

    def fn(counts):
        counts["pose.points"] += n
        if failed:
            counts["pose.failures"] += 1
        else:
            counts["pose.lm_iterations"] += result.iterations

    return fn


def _warp_counts(args, kwargs, result, failed):
    n = len(args[0] if args else kwargs["rays"])

    def fn(counts):
        counts["rectify.warp_rays.rays"] += n

    return fn


def _render_counts(args, kwargs, result, failed):
    grid = args[3] if len(args) > 3 else kwargs["grid"]

    def fn(counts):
        if failed:
            return
        rendered = grid.provenance != 0
        counts["resample.sais_rendered"] += int(rendered.sum())
        counts["resample.rays"] += int(rendered.sum()) * result.height * result.width
        counts["resample.valid_rays"] += int(result.mask[rendered].sum())

    return fn


def _read_counts(args, kwargs, result, failed):
    path = args[0]

    def fn(counts):
        counts["lfio.bytes_read"] += _tree_bytes(path)[0]

    return fn


def _write_counts(args, kwargs, result, failed):
    path = args[0]

    def fn(counts):
        if failed:
            return
        nbytes, nfiles = _tree_bytes(path)
        counts["lfio.bytes_written"] += nbytes
        counts["lfio.files_written"] += nfiles

    return fn


# Where the package looks each function up, the span name, and the count
# callback.  Several sites of one function share one wrapper.
_LFIO_READS = ("read_correspondence_csv", "load_intrinsics", "load_pose", "load_sampled_lf")
_LFIO_WRITES = ("save_sampled_lf", "save_json", "save_setup")

SITES = [
    ("bench.run_bench", [(lfrect.bench, "run_bench")], None),
    ("simulate.run_trials", [(lfrect.bench, "run_trials")], None),
    ("simulate.simulate_correspondences", [(lfrect.simulate, "simulate_correspondences")], None),
    ("simulate.render_synthetic_lf", [(lfrect.simulate, "render_synthetic_lf")], None),
    (
        "pose.estimate_pose",
        [(lfrect.simulate, "estimate_pose"), (lfrect.cli, "estimate_pose")],
        _estimate_counts,
    ),
    ("pose.detect_degeneracy", [(lfrect.pose, "detect_degeneracy")], None),
    ("pose.solve_linear", [(lfrect.pose, "solve_linear")], None),
    ("pose.solve_translation", [(lfrect.pose, "solve_translation")], None),
    ("pose.refine_pose", [(lfrect.pose, "refine_pose")], None),
    (
        "pose.CorrespondenceSet",
        [(lfrect.simulate, "CorrespondenceSet"), (lfrect.lfio, "CorrespondenceSet")],
        None,
    ),
    ("rectify.build_rectified_setup", [(lfrect.cli, "build_rectified_setup")], None),
    ("rectify.warp_rays", [(lfrect.resample, "warp_rays")], _warp_counts),
    ("resample.plan_aligned_grid", [(lfrect.cli, "plan_aligned_grid")], None),
    ("resample.render_aligned_sais", [(lfrect.cli, "render_aligned_sais")], _render_counts),
    *[(f"lfio.{n}", [(lfrect.lfio, n)], "read") for n in _LFIO_READS],
    *[(f"lfio.{n}", [(lfrect.lfio, n)], "write") for n in _LFIO_WRITES],
    ("cli.main", [(lfrect.cli, "main")], None),
]


def _wrap(tracer: Tracer, name: str, fn, counter):
    is_lfio = counter in ("read", "write")
    if is_lfio:
        counter = _read_counts if counter == "read" else _write_counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # lfio functions call one another (save_setup -> save_json); only
        # the outermost call counts bytes.
        outer = not (is_lfio and tracer._lfio_depth)
        if is_lfio:
            tracer._lfio_depth += 1
        idx = tracer.open(name)
        failed, result = True, None
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            tracer.close(idx)
            if is_lfio:
                tracer._lfio_depth -= 1
            if counter is not None and outer:
                tracer.pending.append(counter(args, kwargs, result, failed))

    return traced


class installed:
    """Context manager: wrappers in place for its duration."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        for name, sites, counter in SITES:
            original = getattr(*sites[0])
            wrapper = _wrap(self.tracer, name, original, counter)
            for module, attr in sites:
                self.saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()
        return False
