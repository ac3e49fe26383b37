"""Relative pose estimation and rectification for plenoptic cameras.

The package works on LF-points: a feature's pixel position in the central
sub-aperture image plus its disparity slope across the sub-aperture grid.
``estimate_pose`` recovers the rigid transform between two such cameras
from LF-point correspondences (linear solve plus manifold refinement);
``build_rectified_setup`` / ``render_aligned_sais`` resample both light
fields onto one common two-plane grid with row-aligned sub-apertures.
"""

from .errors import (
    BehindCamera,
    CollinearConstruction,
    ConfigError,
    CoplanarDegeneracy,
    DegenerateDisparity,
    DegenerateGeometry,
    DegenerateSpread,
    GenerationFailure,
    IllConditioned,
    IndexOutOfRange,
    LfRectError,
    NoOverlap,
    NonPositiveDepth,
    NumericalFailure,
    RankDeficient,
    SingularInput,
    ZeroBaseline,
    ZeroVector,
)
from .geometry import (
    LFIntrinsics,
    RelativePose,
    angular_error_rotation,
    angular_error_translation,
    euler_xyz_intrinsic,
    skew,
    so3_exp,
)
from .pose import (
    CorrespondenceSet,
    DegeneracyReport,
    EstimationResult,
    ProjectiveSolution,
    build_dlt_system,
    constraint_matrix,
    detect_degeneracy,
    estimate_pose,
    normalize_points,
    project_to_SO3,
    refine_pose,
    solve_linear,
    solve_translation,
)
from .rectify import (
    RectifiedSetup,
    build_rectified_setup,
    rectifying_rotation,
    warp_rays,
)
from .resample import (
    AlignedGrid,
    EpiImage,
    SampledLF,
    SpatialMapping,
    extract_epi,
    plan_aligned_grid,
    render_aligned_sais,
    sample_rays,
)
from .simulate import (
    BoardSpec,
    SimConfig,
    TrialReport,
    default_board_poses,
    default_intrinsics_pair,
    make_sim_config,
    run_trials,
    simulate_correspondences,
    simulate_trial,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
