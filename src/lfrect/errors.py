"""Exception hierarchy for light-field pose estimation and rectification.

Every condition the library treats as unrecoverable in the current call is a
subclass of :class:`LfRectError`, so callers can catch the whole family or a
specific failure.  Functions that can tolerate a bad sample (resampling,
rendering) report it through masks instead of raising.

Each specific error derives from exactly one of four group bases, one per
``lfrect`` exit code:

    ConfigError          2   malformed configuration, file or argument
    GenerationFailure    3   the synthetic data cannot be generated
    DegenerateGeometry   4   the input cannot determine a pose or a warp
    NoOverlap            5   the rectified light fields share no grid row
"""

__all__ = [
    "LfRectError",
    "ConfigError",
    "GenerationFailure",
    "DegenerateGeometry",
    "NoOverlap",
    "IndexOutOfRange",
    "BehindCamera",
    "NonPositiveDepth",
    "DegenerateDisparity",
    "ZeroVector",
    "DegenerateSpread",
    "RankDeficient",
    "CoplanarDegeneracy",
    "SingularInput",
    "IllConditioned",
    "NumericalFailure",
    "ZeroBaseline",
    "CollinearConstruction",
]


class LfRectError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(LfRectError):
    """A configuration file or CLI argument set is malformed."""


class GenerationFailure(LfRectError):
    """The configured synthetic experiment cannot be generated."""


class DegenerateGeometry(LfRectError):
    """The input geometry cannot determine the requested quantity."""


class NoOverlap(LfRectError):
    """The warped aperture hulls of the two light fields share no grid row;
    no aligned grid exists.  Carries hull diagnostics when available."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class IndexOutOfRange(ConfigError, IndexError):
    """A grid row / scan-line index is outside the sampled range."""


class BehindCamera(GenerationFailure):
    """A generated scene point fell behind one of the cameras."""


class NonPositiveDepth(DegenerateGeometry):
    """A scene point lies on or behind the camera plane (Z <= 0)."""


class DegenerateDisparity(DegenerateGeometry):
    """The disparity is at the value that maps to infinite depth."""


class ZeroVector(DegenerateGeometry):
    """A direction-valued argument has (numerically) zero length."""


class DegenerateSpread(DegenerateGeometry):
    """Point coordinates have zero variance along an axis; they cannot be
    scaled to unit RMS."""


class RankDeficient(DegenerateGeometry):
    """The linear system admits no unique null vector: its two smallest
    singular values are (nearly) equal."""


class CoplanarDegeneracy(DegenerateGeometry):
    """The scene points are coplanar, so the linear pose solution is not
    unique.  Carries the degeneracy report that triggered the diagnosis."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SingularInput(DegenerateGeometry):
    """A matrix that must be invertible is singular to working precision."""


class IllConditioned(DegenerateGeometry):
    """A least-squares system is too badly conditioned to trust."""


class NumericalFailure(DegenerateGeometry):
    """An iterative solver produced non-finite values."""


class ZeroBaseline(DegenerateGeometry):
    """The two cameras share a centre; no rectifying frame exists."""


class CollinearConstruction(DegenerateGeometry):
    """The rectifying-frame construction degenerates: the baseline is
    parallel to the auxiliary direction used to fix the second axis."""
