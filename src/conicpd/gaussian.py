"""Gaussian baseline: uniform measures on spheres of radius sqrt(n) do converge.

This is the classical contrast case for the divergence experiment: the
characteristic function of a coordinate under the uniform measure on the
sphere of radius sqrt(n) in R^n tends to the standard Gaussian e^{-s^2/2}.
Both a one-dimensional quadrature route and a Monte Carlo route are provided,
plus the convergence table that the acceptance battery checks for a strictly
shrinking sup-gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import DomainError
from .estimation import EstimatorResult, pooled_mean
from .processes import RngStream


@dataclass(frozen=True)
class SphereConfig:
    """Dimension and radius of the sphere; radius defaults to sqrt(n)."""

    n: int
    radius: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise DomainError("sphere dimension must be an integer >= 2")
        r = self.radius if self.radius else math.sqrt(self.n)
        if not (math.isfinite(r) and r > 0.0):
            raise DomainError("sphere radius must be a positive real")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "radius", float(r))


def gaussian_charfun(s_norm: float) -> float:
    """Characteristic function of the standard Gaussian, e^{-s^2/2}."""
    s = float(s_norm)
    if not math.isfinite(s):
        raise DomainError("s must be finite")
    return math.exp(-0.5 * s * s)


def sphere_charfun_quad(cfg: SphereConfig, s_norm: float) -> float:
    """E[cos(s * x_1)] on the sphere via the one-dimensional marginal integral.

    The x_1 / radius marginal has density proportional to (1 - r^2)^{(n-3)/2}
    on [-1, 1]; the normalizing constant is computed numerically rather than
    taken from a closed form.  n = 2 hits a non-integrable-looking endpoint
    exponent and is served by the exact closed form J_0(radius * s).
    """
    s = float(s_norm)
    if not (math.isfinite(s) and s >= 0.0):
        raise DomainError("s must be a finite non-negative real")
    if cfg.n == 2:
        return float(special.j0(cfg.radius * s))
    power = 0.5 * (cfg.n - 3)

    def kernel(r):
        return (1.0 - r * r) ** power

    scale, _ = integrate.quad(kernel, -1.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)
    value, _ = integrate.quad(
        lambda r: kernel(r) * math.cos(s * cfg.radius * r),
        -1.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=200,
    )
    return value / scale


def sphere_charfun_mc(cfg: SphereConfig, s_norm: float, n_samples: int,
                      rng: RngStream, *, streams: int = 1) -> EstimatorResult:
    """Monte Carlo E[cos(s * x_1)] with x uniform on the sphere (normalized Gaussians)."""
    s = float(s_norm)
    if not (math.isfinite(s) and s >= 0.0):
        raise DomainError("s must be a finite non-negative real")

    def kernel(gen, rows):
        z = gen.standard_normal((rows, cfg.n))
        first = z[:, 0] / np.linalg.norm(z, axis=1)
        return np.cos(s * cfg.radius * first)

    (result,) = pooled_mean(n_samples, rng, streams, kernel)
    return result


def sphere_charfun_mc_vector(cfg: SphereConfig, s_vec, n_samples: int,
                             rng: RngStream, *, streams: int = 1) -> EstimatorResult:
    """Monte Carlo E[cos(<s, x>)] for an arbitrary direction vector s.

    By rotational invariance this must agree with the axis-aligned route at
    |s|; the test battery uses it to confirm the one-dimensional reduction.
    """
    s = np.asarray(s_vec, dtype=float)
    if s.shape != (cfg.n,) or not np.all(np.isfinite(s)):
        raise DomainError("s must be a finite vector of length n")

    def kernel(gen, rows):
        z = gen.standard_normal((rows, cfg.n))
        points = cfg.radius * z / np.linalg.norm(z, axis=1)[:, None]
        return np.cos(points @ s)

    (result,) = pooled_mean(n_samples, rng, streams, kernel)
    return result


def mp_convergence_table(s_grid=None, n_list=(5, 10, 20, 50, 100, 200)) -> list[dict]:
    """Sup over the s grid of |sphere charfun - Gaussian charfun| for each n."""
    if s_grid is None:
        s_grid = np.linspace(0.0, 3.0, 61)
    s_grid = np.asarray(s_grid, dtype=float)
    if np.any(s_grid < 0.0):
        raise DomainError("s grid must be non-negative")
    rows = []
    for n in n_list:
        cfg = SphereConfig(n=int(n))
        gap = max(
            abs(sphere_charfun_quad(cfg, s) - gaussian_charfun(s)) for s in s_grid
        )
        rows.append({"n": int(n), "sup_gap": float(gap)})
    return rows


def charfun_gap_rows(s_grid, n_list, samples: int = 0,
                     rng: RngStream | None = None, streams: int = 1) -> list[dict]:
    """Per-(n, s) table with quadrature, optional Monte Carlo, and Gaussian columns."""
    s_grid = np.asarray(s_grid, dtype=float)
    rows = []
    for n in n_list:
        cfg = SphereConfig(n=int(n))
        for s in s_grid:
            quad_val = sphere_charfun_quad(cfg, float(s))
            gauss = gaussian_charfun(float(s))
            row = {"n": int(n), "s": float(s), "quad": quad_val,
                   "mc": None, "stderr": None,
                   "gauss": gauss, "gap": abs(quad_val - gauss)}
            if samples > 0:
                if rng is None:
                    raise DomainError("Monte Carlo columns need an RngStream")
                est = sphere_charfun_mc(cfg, float(s), samples, rng, streams=streams)
                row["mc"] = est.estimate
                row["stderr"] = est.stderr
            rows.append(row)
    return rows
