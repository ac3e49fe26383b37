"""Environment block recorded with every benchmark result.

Timings and the last bits of floating-point results both depend on the
interpreter, the numpy build, the BLAS library (its kernel is chosen at
run time for the CPU) and the thread count, so the reference outputs are
keyed by the subset of this block that can change result bits
(``fingerprint``).
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def _openblas():
    """(runtime config string, thread count) of the OpenBLAS numpy loaded,
    or (None, None) when it cannot be queried."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", "", "_64"):
            for prefix in ("scipy_openblas", "openblas"):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode().strip(), int(get_threads())
    return None, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fs_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount-point match)."""
    path = path.resolve()
    best, best_len = "unknown", -1
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mnt = fields[1].replace("\\040", " ")
                if (path == Path(mnt) or Path(mnt) in path.parents) and len(mnt) > best_len:
                    best, best_len = fields[2], len(mnt)
    except OSError:
        pass
    return best


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git directly; 'unknown' outside a
    git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, out_dir: Path) -> dict:
    import numpy as np

    blas_config, blas_threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config or "unknown",
        "blas_threads": blas_threads,
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(root),
        "out_fs": _fs_type(out_dir),
    }


FINGERPRINT_KEYS = ("python", "numpy", "blas", "blas_threads", "machine")


def fingerprint(env: dict) -> dict:
    return {k: env[k] for k in FINGERPRINT_KEYS}
