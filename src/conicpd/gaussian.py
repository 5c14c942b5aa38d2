"""Gaussian baseline: uniform measures on spheres of radius sqrt(n) do converge.

This is the classical contrast case for the divergence experiment: the
characteristic function of a coordinate under the uniform measure on the
sphere of radius sqrt(n) in R^n tends to the standard Gaussian e^{-s^2/2}.
It is computed in closed form, 0F1(; n/2; -(radius s)^2/4) (the ``quad``
column of ``mp-demo``), and by Monte Carlo, one batch of draws per s grid.
The Monte Carlo draws the coordinate's own law, one normal and one
chi-square value per sample, so its work and memory are O(rows) at any
n >= 2; only the direction-vector route draws whole points.  The acceptance
battery checks the convergence table for a shrinking sup-gap.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import processes
from .errors import DomainError
from .estimation import CHUNK_ROWS, EstimatorResult, pooled_mean
from .processes import RngStream

# Largest (rows x s points) cosine matrix one Monte Carlo call of
# charfun_gap_rows builds: 2^22 cells, 128 columns at 32768 rows.
_BLOCK_CELLS = 1 << 22


@dataclass(frozen=True)
class SphereConfig:
    """Dimension n >= 2 of the sphere, whose radius is sqrt(n)."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", processes._integer(self.n, "sphere dimension", lower=2))

    @property
    def radius(self) -> float:
        return math.sqrt(self.n)


def gaussian_charfun(s_norm: float) -> float:
    """Characteristic function of the standard Gaussian, e^{-s^2/2}."""
    s = float(s_norm)
    if not math.isfinite(s):
        raise DomainError("s must be finite")
    return math.exp(-0.5 * s * s)


def _check_s(s_norm, radius: float = 1.0) -> np.ndarray:
    """``s_norm`` as a float array, each s finite, non-negative, and finite times ``radius``."""
    s = np.asarray(s_norm, dtype=float)
    # The least and the largest s find a NaN, an inf or a negative s in two
    # reductions.  The largest s * radius is the product of the largest s; a
    # Python float product overflows to inf without a warning.
    top = float(s.max()) if s.size else 0.0
    if s.ndim > 1 or not (math.isfinite(top) and (s.size == 0 or s.min() >= 0.0)):
        raise DomainError("s must be a finite non-negative real or a 1-D array of them")
    if math.isinf(top * radius):
        raise DomainError(f"s * sqrt(n) overflows a float at s = {top!r} and "
                          f"sqrt(n) = {radius!r}")
    return s


def _sphere_coordinate(gen, rows: int, n: int) -> np.ndarray:
    """``rows`` draws of x_1 / radius for x uniform on the sphere in R^n.

    For g ~ N(0, I_n), g_1 / |g| is the coordinate, and the other n - 1
    squares sum to a chi-square with n - 1 degrees of freedom independent
    of g_1.  So one normal g and one chi-square c per row, drawn in that
    order, give g / sqrt(g^2 + c) with the same law in O(rows).
    """
    g = gen.standard_normal(rows)
    c = gen.chisquare(n - 1, rows)
    return g / np.sqrt(g * g + c)


# Windows of z in which scipy 1.17's hyp0f1(b, z) is off by more than 2e-15,
# by order b: at b = 21.5 (n = 43) by up to 1.3e-12 on [-43.4, -26.3], with
# a margin here.  There the value is formed from the contiguous relation
# F(b) = F(b+1) + z F(b+2) / (b (b+1)), within 5e-16 of mpmath on [-50, -20].
_HYP0F1_DETOURS = {21.5: (-43.5, -26.2)}


# Debye's polynomials u_k(p) = p^k poly(p^2) / denominator, k = 1..6 (DLMF 10.41.10).
_DEBYE = (
    ((3, -5), 24),
    ((81, -462, 385), 1152),
    ((30375, -369603, 765765, -425425), 414720),
    ((4465125, -94121676, 349922430, -446185740, 185910725), 39813120),
    ((1519035525, -49286948607, 284499769554, -614135872350, 566098157625,
      -188699385875), 6688604160),
    ((2757049477875, -127577298354750, 1050760774457901, -3369032068261860,
      5104696716244125, -3685299006138750, 1023694168371875), 4815794995200),
)


def _hyp0f1_large_order(nu: float, x: np.ndarray) -> np.ndarray:
    """0F1(; nu + 1; -x^2/4) = Gamma(nu + 1) (2/x)^nu J_nu(x) for nu >= 114.

    For x < 0.9 nu, Debye's expansion of J_nu and Stirling's series are
    combined so that no large exponent cancels; beyond, the far-field
    product serves.
    """
    value = np.empty_like(x)
    near = x < 0.9 * nu
    w = x[near] / nu
    t = np.sqrt((1.0 - w) * (1.0 + w))
    d = w * w / (1.0 + t)
    p = 1.0 / t
    debye = 1.0 + sum(np.polynomial.polynomial.polyval(p * p, c) * p**k / (den * nu**k)
                      for k, (c, den) in enumerate(_DEBYE, 1))
    stirling = 1 / (12 * nu) - 1 / (360 * nu**3) + 1 / (1260 * nu**5) - 1 / (1680 * nu**7)
    value[near] = np.exp(stirling - nu * (d + np.log1p(-0.5 * d))) * debye / np.sqrt(t)
    value[~near] = _hyp0f1_far(nu, x[~near])
    return value


def _hyp0f1_far(nu: float, x: np.ndarray) -> np.ndarray:
    """0F1(; nu + 1; -x^2/4) as the product Gamma(nu + 1) (2/x)^nu J_nu(x), for x >= 0.9 nu.

    There the prefactor is below one, so the product is safe; it also serves
    an x past 2.7e154, where -x^2/4 overflows.
    """
    return np.exp(special.gammaln(nu + 1.0) + nu * np.log(2.0 / x)) * special.jv(nu, x)


def sphere_charfun_quad(cfg: SphereConfig, s_norm):
    """E[cos(s * x_1)] on the sphere in closed form, 0F1(; n/2; -(radius s)^2 / 4).

    The x_1 / radius marginal has density proportional to (1 - r^2)^{(n-3)/2}
    on [-1, 1], whose cosine transform is this Bessel-type series (J_0 at
    n = 2).  A scalar s gives a float, a 1-D array of s an array.
    """
    s = _check_s(s_norm, cfg.radius)
    x = np.atleast_1d(cfg.radius * s)
    b = 0.5 * cfg.n
    # Where |z| < 1e-4 b, three terms of the series are exact to 5e-18.  Beyond,
    # scipy's hyp0f1 serves n < 230 up to the z that overflows, and the
    # far-field product past it; hyp0f1 forms Gamma(b) (2/x)^(b-1) apart from
    # J_{b-1}(x), which would overflow at those small x from n = 176 on.  From
    # n = 230, Debye's expansion is within 1e-15 of mpmath, while hyp0f1 loses
    # digits in J_{b-1} at odd n and returns NaN past n = 343.  The series
    # overflows from x = 8.6e51 (n = 2), and z from 2.7e154; neither value is
    # kept there, and only a grid that reaches x = 1e51 pays for the guards.
    big = x.size > 0 and x.max() >= 1e51
    with np.errstate(over="ignore") if big else contextlib.nullcontext():
        z = -0.25 * x * x
        value = 1.0 + z / b * (1.0 + z / (2.0 * (b + 1.0)) * (1.0 + z / (3.0 * (b + 2.0))))
    rest = -z >= 1e-4 * b
    if cfg.n < 230:
        if big:
            far = np.isinf(z)
            value[far] = _hyp0f1_far(b - 1.0, x[far])
            rest &= ~far
        value[rest] = special.hyp0f1(b, z[rest])
        if b in _HYP0F1_DETOURS:
            lo, hi = _HYP0F1_DETOURS[b]
            window = (z >= lo) & (z <= hi)
            zw = z[window]
            value[window] = (special.hyp0f1(b + 1.0, zw)
                             + zw * special.hyp0f1(b + 2.0, zw) / (b * (b + 1.0)))
    else:
        value[rest] = _hyp0f1_large_order(b - 1.0, x[rest])
    return value.item() if s.ndim == 0 else value


def sphere_charfun_mc(cfg: SphereConfig, s_norm, n_samples: int,
                      rng: RngStream, *, streams: int = 1):
    """Monte Carlo E[cos(s * x_1)] with x uniform on the sphere.

    Each sample draws the coordinate x_1 / radius directly (see
    :func:`_sphere_coordinate`), so a chunk costs O(rows) at any n.  A scalar
    s gives one EstimatorResult; a 1-D array of s gives one per entry, all
    from the same draws, each as the scalar call would give it.
    """
    s = _check_s(s_norm, cfg.radius)
    if s.size == 0:
        raise DomainError("a characteristic function needs at least one s")
    k = np.atleast_1d(s) * cfg.radius

    def kernel(gen, rows):
        first = _sphere_coordinate(gen, rows, cfg.n)
        # Contiguous columns: pooled_mean reduces each like a 1-D array.
        return np.cos(k[:, None] * first[None, :]).T

    results = pooled_mean(n_samples, rng, streams, kernel, columns=k.size)
    return results[0] if s.ndim == 0 else results


def sphere_charfun_mc_vector(cfg: SphereConfig, s_vec, n_samples: int,
                             rng: RngStream, *, streams: int = 1) -> EstimatorResult:
    """Monte Carlo E[cos(<s, x>)] for an arbitrary direction vector s.

    It draws whole points from rows x n normals, within the sampler's cell
    budget.  By rotational invariance it must agree with the axis-aligned
    route at |s|, so it is that route's independent oracle.
    """
    s = np.asarray(s_vec, dtype=float)
    if s.shape != (cfg.n,) or not np.all(np.isfinite(s)):
        raise DomainError("s must be a finite vector of length n")

    def kernel(gen, rows):
        if rows * cfg.n > processes._CELL_BUDGET:
            raise DomainError(
                f"{rows} rows of dimension {cfg.n} exceed the {processes._CELL_BUDGET}-cell "
                "sampler budget; lower n, or the samples per stream to lower the rows")
        z = gen.standard_normal((rows, cfg.n))
        points = cfg.radius * z / np.linalg.norm(z, axis=1)[:, None]
        return np.cos(points @ s)

    (result,) = pooled_mean(n_samples, rng, streams, kernel)
    return result


def mp_convergence_table() -> list[dict]:
    """Sup over 61 points s in [0, 3] of |sphere charfun - Gaussian charfun|, per n.

    The dimensions are n = 5, 10, 20, 50, 100 and 200.
    """
    width = 61
    rows = charfun_gap_rows(np.linspace(0.0, 3.0, width), (5, 10, 20, 50, 100, 200))
    return [{"n": rows[i]["n"], "sup_gap": max(r["gap"] for r in rows[i:i + width])}
            for i in range(0, len(rows), width)]


def charfun_gap_rows(s_grid, n_list, samples: int = 0,
                     rng: RngStream | None = None, streams: int = 1) -> list[dict]:
    """Per-(n, s) table with closed-form, optional Monte Carlo, and Gaussian columns.

    ``samples`` = 0 skips the Monte Carlo columns.  Every argument, each
    dimension of ``n_list`` included, is checked before anything is drawn.
    The Monte Carlo columns of one n come from one set of draws, taken in
    blocks of s points that keep each cosine matrix within _BLOCK_CELLS;
    every block redraws the same coordinates, one normal and one chi-square
    value per sample at any n >= 2, so blocking changes no bit.
    """
    samples = processes._integer(samples, "samples", lower=0)
    streams = processes._integer(streams, "stream count")
    if rng is None and samples > 0:
        raise DomainError("Monte Carlo columns need an RngStream")
    if rng is not None and not isinstance(rng, RngStream):
        raise DomainError("rng must be an RngStream")
    configs = [SphereConfig(n=n) for n in n_list]
    s_grid = _check_s(s_grid, max((cfg.radius for cfg in configs), default=1.0)).ravel()
    block = _BLOCK_CELLS // min(CHUNK_ROWS, max(samples, 1))
    rows = []
    for cfg in configs:
        quad = sphere_charfun_quad(cfg, s_grid).tolist()
        mc = [None] * s_grid.size
        if samples > 0:
            mc = [est for i in range(0, s_grid.size, block) for est in sphere_charfun_mc(
                cfg, s_grid[i:i + block], samples, rng, streams=streams)]
        for s, quad_val, est in zip(s_grid.tolist(), quad, mc):
            gauss = gaussian_charfun(s)
            rows.append({"n": cfg.n, "s": s, "quad": quad_val,
                         "mc": None if est is None else est.estimate,
                         "stderr": None if est is None else est.stderr,
                         "gauss": gauss, "gap": abs(quad_val - gauss)})
    return rows
