"""Laplace transforms of the sigma-finite flat measure and their checks.

Convention: the base measure on [0, 1) is m = theta * (uniform), so the
closed form for a positive step function f is

    Psi_theta(f) = exp( - integral of log f against m ),

and the constant f = d gives d^{-theta}, matching the one-dimensional
marginal.  The Monte Carlo route estimates the same quantity under the
unnormalized (gamma) law with the importance weight e^{total mass} folded
into the integrand: E[ exp( -sum c_k (f(x_k) - 1) ) ].

Every estimator reads the gamma process xi only through its masses on the
pieces of a step function's grid, or of a partition: those are independent
Gamma(theta |I_j|) variables (the independent splitting of the gamma
process), so each draw is one row of piece masses, drawn exactly, with no
stick-breaking and no truncation.

Finite variance rule: the weighted second moment equals Psi_theta(2f - 1),
so it is finite exactly when min f > 1/2.  Estimators refuse configurations
below that line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfiniteVarianceError
from .estimation import EstimatorResult, pooled_mean, stream_counts
from .processes import RngStream, _finite_exp, _positive_real
from .stepfn import StepFunction, _common_grid


def log_mean(f: StepFunction, theta: float = 1.0) -> float:
    """Integral of log f against the base measure of total mass theta."""
    theta = _positive_real(theta, "theta")
    if not isinstance(f, StepFunction):
        raise DomainError("f must be a StepFunction")
    return theta * float(np.sum(f.widths() * np.log(f.values)))


def phi(a: StepFunction, theta: float = 1.0) -> float:
    """Multiplicator cocycle exp(integral of log a dm); equals 1 on the kernel group."""
    return _finite_exp(log_mean(a, theta), "the cocycle phi(a)")


def analytic_laplace(theta: float, f: StepFunction) -> float:
    """Closed-form transform exp(-integral of log f dm)."""
    return _finite_exp(-log_mean(f, theta), "the transform Psi(f)")


def mc_laplace(theta: float, f: StepFunction, n_samples: int, rng: RngStream, *,
               streams: int = 1) -> EstimatorResult:
    """Importance-weighted Monte Carlo estimate of the flat-measure transform.

    Each draw is exp(sum_j G_j (1 - f_j)) over the pieces of f, with G_j the
    draw's Gamma(theta |I_j|) mass on piece j (see ``_kernel``).
    """
    theta = _positive_real(theta, "theta")
    if not isinstance(f, StepFunction):
        raise DomainError("f must be a StepFunction")
    _check_variance(f)
    (result,) = pooled_mean(n_samples, rng, streams, _laplace_kernel(theta, [f]))
    return result


def _check_variance(f):
    if f.min_value <= 0.5:
        raise InfiniteVarianceError("second moment Psi(2f-1) diverges for min f <= 1/2; "
                                    "raise f above 1/2 everywhere")


# Most cells a row block of piece masses holds: 512 KB of float64, so a
# block and its integrand's work stay in a core's cache.
_BLOCK_CELLS = 1 << 16


def _kernel(shapes, integrand, columns):
    """The one kernel of every estimator: ``integrand(masses)`` per row block of piece masses.

    A draw is one row of independent Gamma(shapes_j) masses, one per piece:
    theta |I_j| on the pieces I_j of a step function's grid, theta_i on a
    partition's parts.  The rows are drawn by ``gen.standard_gamma`` in row
    blocks of at most ``_BLOCK_CELLS`` cells (and at least one row), so no
    (rows, pieces) matrix is held, and ``integrand`` reduces each block to
    its (block rows, ``columns``) values.  Consecutive calls on one
    generator draw what one call would, and each row is reduced on its own,
    so the bytes do not depend on the block size; the result is an F-ordered
    (rows, columns) array, whose columns ``pooled_mean`` reduces alike
    whatever the column count.
    """
    def kernel(gen, rows):
        out = np.empty((rows, columns), order="F")
        step = max(1, _BLOCK_CELLS // shapes.size)
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            out[lo:hi] = integrand(gen.standard_gamma(shapes, (hi - lo, shapes.size)))
        return out

    return kernel


def _laplace_kernel(theta, fs):
    """Integrand of Psi(f) for each f of ``fs``: exp(sum_j G_j (1 - f_j)) on their common grid.

    Each column is an elementwise product summed along the row, never a
    matrix product, whose order of summation would depend on the block
    shape and the CPU.
    """
    grid, values = _common_grid(fs)
    slopes = (1.0 - values).T
    return _kernel(theta * np.diff(grid), lambda masses: np.exp(
        np.column_stack([(masses * slope).sum(axis=1) for slope in slopes])), len(fs))


@dataclass(frozen=True)
class QuasiInvarianceReport:
    """Exact and Monte Carlo sides of one multiplicator-invariance identity."""

    theta: float
    phi_a: float
    analytic_f: float
    analytic_af: float
    analytic_residual: float
    mc: EstimatorResult
    z_score: float


def quasi_invariance_pairs(theta: float, pairs, n_samples: int = 100_000,
                           rng: RngStream = RngStream(0), *,
                           streams: int = 1) -> list[QuasiInvarianceReport]:
    """Check Psi(a f) * phi(a) = Psi(f) exactly, and Psi(a f) by Monte Carlo, per (a, f).

    The reports come in pair order.  One batch of draws serves every pair,
    as ``weighted_box_mass``'s serves every b: each draw's piece masses on
    the union of the a f's grids serve every a f, and the pairs' z-scores
    are correlated.  When every a f has that one grid, as the CLI's random
    pairs do, pair k's report is that of the pair of one,
    ``quasi_invariance_pairs(theta, [(a_k, f_k)], n_samples, rng)[0]``, bit
    for bit, and its ``mc`` is ``mc_laplace(theta, a_k f_k, n_samples,
    rng)``; otherwise a finer grid splits some pieces' masses, and the two
    agree in law only.  The exact sides are formed first, in pair order,
    and an empty ``pairs`` draws nothing.
    """
    theta = _positive_real(theta, "theta")
    stream_counts(n_samples, streams)  # refuses bad counts, even with no pairs
    exact = []
    for a, f in pairs:
        af = a * f
        value_f = analytic_laplace(theta, f)
        value_af = analytic_laplace(theta, af)
        cocycle = phi(a, theta)
        _check_variance(af)
        exact.append((af, cocycle, value_f, value_af))
    if not exact:
        return []

    estimates = pooled_mean(n_samples, rng, streams,
                            _laplace_kernel(theta, [af for af, *_ in exact]), columns=len(exact))
    reports = []
    for (_af, cocycle, value_f, value_af), mc in zip(exact, estimates):
        reports.append(QuasiInvarianceReport(
            theta=theta, phi_a=cocycle, analytic_f=value_f, analytic_af=value_af,
            analytic_residual=abs(value_af * cocycle - value_f), mc=mc, z_score=mc.z(value_af),
        ))
    return reports


@dataclass(frozen=True)
class FunctionalWindowReport:
    """Weighted distribution of <f, xi> on a window, against the tilted power law."""

    theta: float
    c_f: float
    t_grid: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    exact: np.ndarray
    z_scores: np.ndarray


def functional_distribution_check(theta: float, f: StepFunction, b: float,
                                  n_samples: int, rng: RngStream, *,
                                  streams: int = 1) -> FunctionalWindowReport:
    """Compare the weighted law of <f, xi> below b with e^{-c(f)} t^theta / Gamma(theta+1).

    The law is read at the eight points t = b/8, 2b/8, ..., b.  Each draw
    gives <f, xi> = sum_j G_j f_j and the total mass sum_j G_j from its
    piece masses G_j on f's grid.  The indicator window keeps the weighted
    integrand bounded (total mass is at most t / min f on the event), so the
    estimator has finite variance for any positive step function.  The
    arguments are checked, and the exact side formed, before anything is
    drawn.
    """
    from .densities import _log_power_ratio   # scipy comes with it; keeps it off the CLI start-up

    theta = _positive_real(theta, "theta")
    if not isinstance(f, StepFunction):
        raise DomainError("f must be a StepFunction")
    b = _positive_real(b, "window bound b")
    t_grid = np.linspace(b / 8.0, b, 8)
    c_f = log_mean(f, theta)
    exact = _finite_exp(_log_power_ratio(theta, np.log(t_grid), -c_f),
                        "the window law e^{-c(f)} t^theta / Gamma(theta + 1)")

    kernel = _kernel(theta * f.widths(), lambda masses: _window_weights(
        (masses * f.values).sum(axis=1), t_grid, masses.sum(axis=1)), t_grid.size)
    results = pooled_mean(n_samples, rng, streams, kernel, columns=t_grid.size)
    est = np.array([r.estimate for r in results])
    err = np.array([r.stderr for r in results])
    return FunctionalWindowReport(
        theta=theta, c_f=c_f, t_grid=t_grid, estimates=est, stderrs=err, exact=exact,
        z_scores=np.array([r.z(value) for r, value in zip(results, exact)]),
    )


def weighted_box_mass(spec, b_values, n_samples: int, rng: RngStream, *,
                      streams: int = 1) -> list[EstimatorResult]:
    """Weighted mass of the box [0, b]^n under independent splitting of the atoms.

    One batch of draws serves every requested b.  Each draw's part sums are
    independent Gamma(theta_i) masses, the gamma process's masses on the
    pieces of [0, 1) between ``spec.breakpoints``; the kernel keeps each
    row's largest part and its total, and weights the all-parts-below-b
    indicator by e^{total mass}.  ``spec``, the edges and the counts are
    checked before anything is drawn.
    """
    from .densities import PartitionSpec   # scipy comes with it; keeps it off the CLI start-up

    if not isinstance(spec, PartitionSpec):
        raise DomainError("spec must be a PartitionSpec")
    b_arr = np.array([_positive_real(b, "box edge b")
                      for b in (b_values if np.ndim(b_values) else [b_values])], dtype=float)
    if b_arr.size == 0:
        raise DomainError("a box mass needs at least one box edge b")

    kernel = _kernel(spec.weights, lambda masses: _window_weights(
        masses.max(axis=1), b_arr, masses.sum(axis=1)), b_arr.size)
    return pooled_mean(n_samples, rng, streams, kernel, columns=b_arr.size)


def _window_weights(stat, grid, totals):
    """Weight e^{total} where ``stat`` <= t, else 0: a (rows, grid.size) array.

    Only the rows inside some window are exponentiated, so a row outside
    every window, whose total may be large, cannot overflow exp.
    """
    inside = stat[:, None] <= grid[None, :]
    kept = inside.any(axis=1)
    weights = np.zeros(stat.size)
    weights[kept] = np.exp(totals[kept])
    return np.where(inside, weights[:, None], 0.0)
