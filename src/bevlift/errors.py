"""Error types raised by the lifting pipeline.

Configuration problems (bad specs, unreadable files) raise ConfigError;
everything else is a numeric/geometric failure raised as a PipelineError
subclass.  The CLI maps ConfigError to exit code 2 and any other
PipelineError to exit code 3.
"""
import math


class PipelineError(Exception):
    """Base class for all pipeline failures."""


class ConfigError(PipelineError):
    """Invalid or inconsistent configuration input."""


def config_int(name: str, value) -> int:
    """An integer config field: only a JSON integer (an int that is not a
    bool) is accepted, never a float, string or boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def config_float(name: str, value, lo: float | None = None, hi: float | None = None) -> float:
    """A real config field: only a finite JSON number (an int or float that
    is not a bool) is accepted, inside [lo, hi] where a bound is given."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if lo is not None and number < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {number!r}")
    if hi is not None and number > hi:
        raise ConfigError(f"{name} must be <= {hi}, got {number!r}")
    return number


def config_seed(name: str, value) -> int:
    """A seed config field: a JSON integer that is not negative, as
    np.random.SeedSequence requires."""
    seed = config_int(name, value)
    if seed < 0:
        raise ConfigError(f"{name} must be non-negative, got {seed}")
    return seed


class DegenerateOrientation(PipelineError):
    """Camera optical axis is (numerically) parallel to the ground normal."""


class CameraBelowGround(PipelineError):
    """Camera center is on or below the ground plane."""


class HorizonRay(PipelineError):
    """Pixel ray does not descend toward the ground plane."""


class AboveCamera(PipelineError):
    """Requested height is at or above the camera center height."""


class NonPositiveDepth(PipelineError):
    """Depth value must be strictly positive."""


class ShapeMismatch(PipelineError):
    """Array dimensions of two map/grid operands disagree."""


class OutOfRange(PipelineError):
    """Value falls outside the configured bin range."""


class IndexOutOfRange(PipelineError):
    """Bin index falls outside [0, n_bins)."""


class EmptyInput(PipelineError):
    """Operation received no usable values."""


class ExtentTooSmall(PipelineError):
    """Scene extent cannot accommodate the requested boxes."""


class NoVisibleObjects(PipelineError):
    """No scene object projects into the image."""


class InvalidGeometry(PipelineError):
    """Geometric precondition violated (e.g. biased height reaches camera)."""
