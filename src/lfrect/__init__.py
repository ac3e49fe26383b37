"""Relative pose estimation and rectification for plenoptic cameras.

The package works on LF-points: a feature's pixel position in the central
sub-aperture image plus its disparity slope across the sub-aperture grid.
``estimate_pose`` recovers the rigid transform between two such cameras
from LF-point correspondences (linear solve plus manifold refinement);
``build_rectified_setup`` / ``render_aligned_sais`` resample both light
fields onto one common two-plane grid with row-aligned sub-apertures.

Only the errors load with the package.  Every other name below loads its
module on first use (PEP 562), so ``import lfrect`` loads no numpy and
``lfrect.cli`` can fix numpy's BLAS thread count before numpy loads.
"""

import importlib

from . import errors
from .errors import *  # noqa: F403  (the error classes load no numpy)

# The thread-count variables of the BLAS libraries numpy may be built on.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The names that load on first use, by the submodule that defines them.
_LAZY = {
    "geometry": (
        "LFIntrinsics",
        "RelativePose",
        "angular_error_rotation",
        "angular_error_translation",
        "euler_xyz_intrinsic",
        "skew",
        "so3_exp",
    ),
    "pose": (
        "CorrespondenceSet",
        "DegeneracyReport",
        "EstimationResult",
        "ProjectiveSolution",
        "build_dlt_system",
        "constraint_matrix",
        "detect_degeneracy",
        "estimate_pose",
        "normalize_points",
        "project_to_SO3",
        "refine_pose",
        "solve_linear",
        "solve_translation",
    ),
    "rectify": ("RectifiedSetup", "build_rectified_setup", "rectifying_rotation", "warp_rays"),
    "resample": (
        "AlignedGrid",
        "EpiImage",
        "SampledLF",
        "SpatialMapping",
        "extract_epi",
        "plan_aligned_grid",
        "render_aligned_sais",
        "sample_rays",
    ),
    "simulate": (
        "BoardSpec",
        "SimConfig",
        "TrialReport",
        "default_board_poses",
        "default_intrinsics_pair",
        "make_sim_config",
        "run_trials",
        "simulate_correspondences",
        "simulate_trial",
    ),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(["errors", *errors.__all__, *_LAZY, *_SOURCE])


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
