"""Positive step functions on the base space [0, 1)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Most inner edges _piece_index counts by comparison; above it, binary search.
# Measured on a 2-vCPU Xeon VM: on 2048 x 160 to 8192 x 48 matrices (the
# estimator kernels' shapes) the comparison loop plus the value gather took
# 0.2-0.4x the time of searchsorted plus the gather at 2 edges, 0.6x at 64,
# and caught up at 128 to 160.  Each comparison is also one ufunc call
# (~1.5 us), so on arrays under ~1000 entries searchsorted wins at any count;
# 64 edges keeps that cost under 0.1 ms a call.  A uint8 count holds at most
# 255.
_LOOP_EDGES = 64


def _piece_index(edges: np.ndarray, x) -> np.ndarray:
    """Count of ``edges`` <= x, elementwise, for non-decreasing ``edges``.

    With ``edges`` the inner breakpoints of a grid on [0, 1), this is the
    index of the piece that holds each x, the same integers as
    ``np.searchsorted(edges, x, side="right")``.  Short edge lists are counted
    with one comparison per edge into a uint8 array, which beats the binary
    search's per-element call; long ones fall back to that search.
    """
    x = np.asarray(x)
    if edges.size > _LOOP_EDGES:
        return np.searchsorted(edges, x, side="right")
    index = np.zeros(x.shape, dtype=np.uint8)
    for edge in edges:
        index += x >= edge
    return index


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant, strictly positive function on [0, 1).

    ``breakpoints`` is the full grid 0 = b0 < b1 < ... < bn = 1 and ``values``
    holds the constant taken on each [b_{i-1}, b_i).  Functions with a value
    <= 0 anywhere are rejected at construction, so downstream log/ratio
    arithmetic never has to special-case signs.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size + 1 or vals.size < 1:
            raise DomainError("step function needs n+1 breakpoints for n values")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise DomainError("step function entries must be finite")
        if bp[0] != 0.0 or bp[-1] != 1.0 or np.any(np.diff(bp) <= 0.0):
            raise DomainError("breakpoints must increase strictly from 0 to 1")
        if np.any(vals <= 0.0):
            raise DomainError("step function values must be strictly positive")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        return cls(np.array([0.0, 1.0]), np.array([float(value)]))

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        # A NaN propagates through min/max and fails both comparisons.
        if arr.size and not (arr.min() >= 0.0 and arr.max() < 1.0):
            raise DomainError("step functions are defined on [0, 1)")
        # take() gathers the same floats as values[index], without first
        # converting _piece_index's uint8 counts to a wider index array.
        out = np.take(self.values, _piece_index(self.breakpoints[1:-1], arr), mode="clip")
        return float(out) if arr.ndim == 0 else out

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            grid, values = _common_grid([self, other])
            return StepFunction(grid, values[:, 0] * values[:, 1])
        return StepFunction(self.breakpoints, self.values * float(other))

    __rmul__ = __mul__

    def reciprocal(self) -> "StepFunction":
        return StepFunction(self.breakpoints, 1.0 / self.values)

    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)


def _common_grid(fs) -> tuple[np.ndarray, np.ndarray]:
    """The union of the grids of ``fs``: (breakpoints, values), values[j, k] being fs[k] on piece j.

    Each piece of the union lies inside one piece of every f, so a point's
    value of f_k is its piece's value in column k: the same float as f_k(x).
    A piece takes each f's value at its left edge; a midpoint can round onto
    the right edge.
    """
    grid = np.unique(np.concatenate([f.breakpoints for f in fs]))
    return grid, np.column_stack([f(grid[:-1]) for f in fs])
