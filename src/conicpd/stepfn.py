"""Positive step functions on the base space [0, 1)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

def _piece_index(edges: np.ndarray, x) -> np.ndarray:
    """Count of ``edges`` <= x, elementwise, for non-decreasing ``edges``.

    With ``edges`` the inner breakpoints of a grid on [0, 1), this is the
    index of the piece that holds each x.
    """
    return np.searchsorted(edges, x, side="right")


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
        out = self.values[_piece_index(self.breakpoints[1:-1], arr)]
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
