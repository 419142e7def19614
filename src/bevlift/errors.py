"""Error types raised by the lifting pipeline.

Configuration problems (bad specs, unreadable files) raise ConfigError;
everything else is a numeric/geometric failure raised as a PipelineError
subclass.  The CLI maps ConfigError to exit code 2 and any other
PipelineError to exit code 3.

A config count is checked at load by two rules: config_int takes its
lower bound, and config_size bounds the bytes of the float64 array the
count sizes, which numpy requires to fit np.intp (sys.maxsize), so a
count too large for an array is a ConfigError, never numpy's ValueError.
"""
import functools
import inspect
import json
import math
import sys


class PipelineError(Exception):
    """Base class for all pipeline failures."""


class ConfigError(PipelineError):
    """Invalid or inconsistent configuration input."""


def config_int(name: str, value, lo: int | None = None) -> int:
    """An integer config field: only a JSON integer (an int that is not a
    bool) is accepted, never a float, string or boolean, and not below lo
    where it is given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {value}")
    return value


def config_size(name: str, *counts: int) -> None:
    """Reject counts whose float64 array, of math.prod(counts) elements,
    has more bytes than np.intp holds; name says what the counts are."""
    if math.prod(counts) * 8 > sys.maxsize:
        raise ConfigError(
            f"{name} x 8 bytes must fit np.intp, got {' x '.join(map(str, counts))}"
        )


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


def config_floats(obj, *names: str, lo: float | None = None) -> None:
    """Check each named field of the frozen dataclass obj with config_float
    and store the float it returns."""
    for name in names:
        object.__setattr__(obj, name, config_float(name, getattr(obj, name), lo))


@functools.cache
def _parameters(build):
    # Cached per build, which is why builds are classes or module-level
    # functions, never closures made per call.
    return inspect.signature(build).parameters


def config_object(build, doc, path: str = "", **given):
    """build(**doc) for a JSON object doc, where build is a config class or
    a module-level reader function whose parameters are the object's keys;
    given holds values for keys that doc leaves out.

    A key of doc that is not a parameter of build is a ConfigError, and so
    is a parameter without a default that neither doc nor given holds.
    Any ConfigError that build raises is raised again with path in front,
    so a message names its field from the document root
    (noise.sigma_bins, scene.boxes[0].h).
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object, got {type(doc).__name__}")
    params = _parameters(build)
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in params:
            raise ConfigError(
                f"{prefix}{key} is not a known key; expected one of {', '.join(params)}"
            )
    fields = {**given, **doc}
    for name, param in params.items():
        if param.default is param.empty and name not in fields:
            raise ConfigError(f"{prefix}{name} is required")
    try:
        return build(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def read_config_file(path):
    """The JSON document in the file at path; an unreadable file or text
    that is not JSON is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


class DegenerateOrientation(PipelineError):
    """Camera optical axis is (numerically) parallel to the ground normal."""


class CameraBelowGround(ConfigError):
    """Camera center is on or below the ground plane: a bad rig config,
    so a ConfigError (exit 2)."""


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


class EmptyInput(PipelineError):
    """Operation received no usable values."""


class ExtentTooSmall(PipelineError):
    """Scene extent cannot accommodate the requested boxes."""


class NoVisibleObjects(PipelineError):
    """No scene object projects into the image."""


class InvalidGeometry(PipelineError):
    """Geometric precondition violated (e.g. biased height reaches camera)."""
