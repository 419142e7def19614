"""Discretization strategies for height and depth ranges.

A BinSpec carves [range_min, range_max) into n_bins contiguous intervals.
Strategies:

* UD: uniform intervals.
* SID: geometric (log-space) intervals, computed after shifting the range
  by s = 1 - range_min so the lower edge sits at 1 and logs are defined
  for ranges containing zero or negatives.
* LID: linearly increasing widths; width of bin i is proportional to
  (i + 1), which fixes the base width at 2 * span / (n * (n + 1)).
* DID: alpha-warped intervals, edge(i) = range_min + span * (i/n)**alpha.
  A value maps to bin floor(n * t**(1/alpha)) with t its normalized
  position in the range.  alpha = 1 reduces to UD; larger alpha packs
  bins more densely toward range_min.
* DEPTH_UD: identical arithmetic to UD, tagged as a depth discretization
  so lifting can tell height and depth bin specs apart.

Values outside the configured range raise OutOfRange rather than being
clamped; the exact upper edge maps to the last bin.  Bin representatives
are interval midpoints.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    OutOfRange,
    config_floats,
    config_int,
)

STRATEGIES = ("UD", "SID", "LID", "DID", "DEPTH_UD")


@dataclass(frozen=True)
class BinSpec:
    strategy: str
    n_bins: int
    range_min: float
    range_max: float
    alpha: float | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        config_int("n_bins", self.n_bins, lo=1)
        config_floats(self, "range_min", "range_max")
        if not (self.range_min < self.range_max):
            raise ConfigError("range_min must be strictly below range_max")
        if self.strategy == "DID":
            config_floats(self, "alpha")
            if not self.alpha > 0:
                raise ConfigError(f"alpha must be > 0 for the DID strategy, got {self.alpha}")
        elif self.alpha is not None:
            raise ConfigError(f"alpha is read only by the DID strategy, not by {self.strategy}")
        # Finite bounds can still overflow the bin arithmetic: a span or
        # LID base width past the largest double, or two adjacent edges
        # whose sum is.  Each shows as a midpoint that is not finite (as is
        # any next to an edge that is not), or as a range end that
        # value_to_bin does not map to its end bin.  The edges ascend, and
        # so do the sums of adjacent ones, so only the first and the last
        # midpoint can fail; the other edges are never built here.  LID's
        # value_to_bin also forms 8 * (value - range_min), which can
        # overflow inside the range while both ends still bin right; its
        # largest is 8 * span.
        n = self.n_bins
        with np.errstate(all="ignore"):
            ends = value_to_bin(np.array([self.range_min, self.range_max]), self)
            edges = _edges(self, np.array([0.0, 1.0, n - 1.0, n]))
            sound = (
                ends.tolist() == [0, n - 1]
                and np.isfinite(0.5 * (edges[[0, 2]] + edges[[1, 3]])).all()
                and (self.strategy != "LID" or np.isfinite(8.0 * self.span))
            )
        if not sound:
            raise ConfigError(
                f"range [{self.range_min!r}, {self.range_max!r}] overflows the "
                f"{self.strategy} bin arithmetic"
            )

    @property
    def span(self) -> float:
        return self.range_max - self.range_min

    def check_kind(self, kind: str, name: str) -> None:
        """The rule on what a spec discretizes: heights ("height") take a
        height strategy, depths ("depth") take DEPTH_UD.  Raises a
        ConfigError naming the spec by name otherwise."""
        if (self.strategy == "DEPTH_UD") != (kind == "depth"):
            wanted = "the DEPTH_UD strategy" if kind == "depth" else "a height strategy"
            raise ConfigError(f"{name} must use {wanted}, not {self.strategy}")


def _sid_shift(spec: BinSpec) -> float:
    # Shift making the lower edge exactly 1, so log(lo) == 0.
    return 1.0 - spec.range_min


def bin_edges(spec: BinSpec) -> np.ndarray:
    """All n_bins + 1 edges, strictly increasing, spanning the range."""
    return _edges(spec, np.arange(spec.n_bins + 1, dtype=np.float64))


def _edges(spec: BinSpec, i: np.ndarray) -> np.ndarray:
    """The edges of indices i (floats in [0, n_bins]), each as bin_edges
    computes it: index 0 is range_min and index n_bins range_max exactly."""
    n = spec.n_bins
    if spec.strategy in ("UD", "DEPTH_UD"):
        edges = spec.range_min + spec.span * (i / n)
    elif spec.strategy == "DID":
        edges = spec.range_min + spec.span * (i / n) ** spec.alpha
    elif spec.strategy == "SID":
        shift = _sid_shift(spec)
        hi = spec.range_max + shift
        edges = np.exp(np.log(hi) * (i / n)) - shift
    else:  # LID
        base = 2.0 * spec.span / (n * (n + 1.0))
        edges = spec.range_min + base * (i * (i + 1.0) / 2.0)
    edges[i == 0] = spec.range_min
    edges[i == n] = spec.range_max
    return edges


def value_to_bin(value, spec: BinSpec):
    """Bin index of a value (scalar or array).

    Raises OutOfRange when any value lies outside [range_min, range_max];
    the upper edge itself maps to the last bin.
    """
    arr = np.asarray(value, dtype=np.float64)
    bad = (arr < spec.range_min) | (arr > spec.range_max) | ~np.isfinite(arr)
    if np.any(bad):
        offender = float(arr[bad].flat[0])
        raise OutOfRange(
            f"value {offender!r} outside bin range [{spec.range_min}, {spec.range_max}]"
        )
    n = spec.n_bins
    if spec.strategy in ("UD", "DEPTH_UD"):
        t = (arr - spec.range_min) / spec.span
        idx = np.floor(n * t)
    elif spec.strategy == "DID":
        t = (arr - spec.range_min) / spec.span
        idx = np.floor(n * t ** (1.0 / spec.alpha))
    elif spec.strategy == "SID":
        shift = _sid_shift(spec)
        hi = spec.range_max + shift
        idx = np.floor(n * np.log(arr + shift) / np.log(hi))
    else:  # LID
        base = 2.0 * spec.span / (n * (n + 1.0))
        idx = np.floor(0.5 * (-1.0 + np.sqrt(1.0 + 8.0 * (arr - spec.range_min) / base)))
    idx = np.clip(idx, 0, n - 1).astype(np.int64)
    if arr.ndim == 0:
        return int(idx)
    return idx


def bin_midpoints(spec: BinSpec) -> np.ndarray:
    """Midpoints of all bins, ascending."""
    edges = bin_edges(spec)
    return 0.5 * (edges[:-1] + edges[1:])
