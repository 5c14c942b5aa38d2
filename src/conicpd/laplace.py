"""Laplace transforms of the sigma-finite flat measure and their checks.

Convention: the base measure on [0, 1) is m = theta * (uniform), so the
closed form for a positive step function f is

    Psi_theta(f) = exp( - integral of log f against m ),

and the constant f = d gives d^{-theta}, matching the one-dimensional
marginal.  The Monte Carlo route estimates the same quantity under the
unnormalized (gamma) law with the importance weight e^{total mass} folded
into the integrand: E[ exp( -sum c_k (f(x_k) - 1) ) ].

Finite variance rule: the weighted second moment equals Psi_theta(2f - 1),
so it is finite exactly when min f > 1/2.  Estimators refuse configurations
below that line unless explicitly overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfiniteVarianceError
from .estimation import EstimatorResult, pooled_mean, stream_counts
from .processes import (
    RngStream,
    _by_rows,
    _check_theta_eps,
    _gamma_totals,
    _positive_real,
    _scratch,
    _skip_uniforms,
    gamma_batch,
    stick_masses_batch,
)
from .stepfn import StepFunction

TRUNCATION_EPS = 1e-10


def log_mean(f: StepFunction, theta: float = 1.0) -> float:
    """Integral of log f against the base measure of total mass theta."""
    theta = _positive_real(theta, "theta")
    if not isinstance(f, StepFunction):
        raise DomainError("f must be a StepFunction")
    return theta * float(np.sum(f.widths() * np.log(f.values)))


def phi(a: StepFunction, theta: float = 1.0) -> float:
    """Multiplicator cocycle exp(integral of log a dm); equals 1 on the kernel group."""
    return math.exp(log_mean(a, theta))


def analytic_laplace(theta: float, f: StepFunction) -> float:
    """Closed-form transform exp(-integral of log f dm)."""
    return math.exp(-log_mean(f, theta))


def mc_laplace(theta: float, f: StepFunction, n_samples: int, rng: RngStream, *,
               eps: float = TRUNCATION_EPS, streams: int = 1,
               allow_infinite_variance: bool = False) -> EstimatorResult:
    """Importance-weighted Monte Carlo estimate of the flat-measure transform."""
    theta = _positive_real(theta, "theta")
    if not isinstance(f, StepFunction):
        raise DomainError("f must be a StepFunction")
    _check_variance(f, allow_infinite_variance)
    (result,) = pooled_mean(n_samples, rng, streams, _laplace_kernel(theta, [f], eps))
    return result


def _check_variance(f, allow_infinite_variance=False):
    if f.min_value <= 0.5 and not allow_infinite_variance:
        raise InfiniteVarianceError(
            "second moment Psi(2f-1) diverges for min f <= 1/2; "
            "raise f or pass allow_infinite_variance=True to force the estimate"
        )


def _laplace_kernel(theta, fs, eps):
    """Estimator kernel of Psi(f) for each f of ``fs``: exp(total * (1 - <f, P>)) per draw.

    One draw serves every f: column k of the F-ordered (rows, len(fs))
    output is f_k's, the same floats as a kernel of f_k alone.  The draws
    are ``gamma_batch``'s, without its location matrix.
    """
    def kernel(gen, rows):
        masses, _tails = stick_masses_batch(theta, eps, rows, gen)
        pairing = _pairing(masses, fs, gen)
        np.subtract(1.0, pairing, out=pairing)
        pairing *= _gamma_totals(theta, rows, gen)[:, None]
        return np.exp(pairing, out=pairing)

    return kernel


def _pairing(masses, fs, gen):
    """<f, P> per row and per f of ``fs``: an F-ordered (rows, len(fs)) array.

    Each row of ``masses`` is paired with every f at its draw's locations:
    the (rows, K) uniforms that follow the sticks in ``gen``, as
    ``gamma_batch`` draws them.  They are drawn row block by row block into
    scratch and reduced at once, so no location or f-value matrix exists; if
    every f is constant none of them is read, and ``gen`` skips them.
    Either way ``gen`` ends where ``gamma_batch``'s draw leaves it, and
    column k holds the floats ``(masses * f_k(locations)).sum(axis=1)``
    gives.  The last f's products overwrite the block's uniforms or, for a
    constant f, ``masses``; the others' go to scratch of their own, since a
    later f still reads both.
    """
    rows, cols = masses.shape
    pairing = np.empty((rows, len(fs)), order="F")
    lookup = any(f.values.size > 1 for f in fs)
    if not lookup:
        _skip_uniforms(gen, masses.size)
    last = len(fs) - 1

    def integrand(lo, hi, u):
        block = masses[lo:hi]
        for k, f in enumerate(fs):
            if f.values.size == 1:
                # The lookup is skipped; the products are the same floats.
                out = block if k == last else _scratch("products", block.shape)
                products = np.multiply(block, f.values[0], out=out)
            else:
                # Uniforms lie in [0, 1), so f is read without its domain
                # check; its values, and then the products, go to ``out``.
                out = u if k == last else _scratch("products", block.shape)
                products = np.multiply(block, f._at(u, out=out), out=out)
            products.sum(axis=1, out=pairing[lo:hi, k])

    _by_rows(rows, cols, integrand, gen if lookup else None)
    return pairing


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
                           rng: RngStream = RngStream(0), *, eps: float = TRUNCATION_EPS,
                           streams: int = 1) -> list[QuasiInvarianceReport]:
    """Check Psi(a f) * phi(a) = Psi(f) exactly, and Psi(a f) by Monte Carlo, per (a, f).

    The reports come in pair order.  One batch of draws serves every pair,
    as ``weighted_box_mass``'s serves every b: each draw is paired with
    every a f, so pair k's report is that of the pair of one,
    ``quasi_invariance_pairs(theta, [(a_k, f_k)], n_samples, rng)[0]``, bit
    for bit, its ``mc`` is ``mc_laplace(theta, a_k f_k, n_samples, rng)``,
    and the pairs' z-scores are correlated.  The exact sides are formed
    first, in pair order, and an empty ``pairs`` draws nothing.
    """
    theta, eps = _check_theta_eps(theta, eps)
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

    kernel = _laplace_kernel(theta, [af for af, *_ in exact], eps)
    estimates = pooled_mean(n_samples, rng, streams, kernel, columns=len(exact))
    reports = []
    for (_af, cocycle, value_f, value_af), mc in zip(exact, estimates):
        z = (mc.estimate - value_af) / mc.stderr if mc.stderr > 0 else 0.0
        reports.append(QuasiInvarianceReport(
            theta=theta, phi_a=cocycle, analytic_f=value_f, analytic_af=value_af,
            analytic_residual=abs(value_af * cocycle - value_f), mc=mc, z_score=z,
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
                                  t_grid=None, eps: float = TRUNCATION_EPS,
                                  streams: int = 1) -> FunctionalWindowReport:
    """Compare the weighted law of <f, xi> below b with e^{-c(f)} t^theta / Gamma(theta+1).

    The indicator window keeps the weighted integrand bounded (total mass is at
    most t / min f on the event), so the estimator has finite variance for any
    positive step function.  The arguments are checked before anything is
    drawn.
    """
    from scipy.special import gammaln   # the only scipy use here; keeps it off the CLI start-up

    theta, eps = _check_theta_eps(theta, eps)
    if not isinstance(f, StepFunction):
        raise DomainError("f must be a StepFunction")
    b = _positive_real(b, "window bound b")
    if t_grid is None:
        t_grid = np.linspace(b / 8.0, b, 8)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise DomainError("the t grid of a window needs at least one point")
    if not np.all((t_grid > 0.0) & (t_grid <= b)):
        raise DomainError("t grid must lie in (0, b]")

    def kernel(gen, rows):
        masses, _tails = stick_masses_batch(theta, eps, rows, gen)
        pairing = _pairing(masses, [f], gen)
        totals = _gamma_totals(theta, rows, gen)
        pairing *= totals[:, None]
        return _window_weights(pairing[:, 0], t_grid, totals)

    results = pooled_mean(n_samples, rng, streams, kernel, columns=t_grid.size)
    c_f = log_mean(f, theta)
    exact = np.exp(-c_f + theta * np.log(t_grid) - gammaln(theta + 1.0))
    est = np.array([r.estimate for r in results])
    err = np.array([r.stderr for r in results])
    z = np.where(err > 0, (est - exact) / np.where(err > 0, err, 1.0), 0.0)
    return FunctionalWindowReport(
        theta=theta, c_f=c_f, t_grid=t_grid,
        estimates=est, stderrs=err, exact=exact, z_scores=z,
    )


def weighted_box_mass(spec, b_values, n_samples: int, rng: RngStream, *,
                      eps: float = TRUNCATION_EPS, streams: int = 1) -> list[EstimatorResult]:
    """Weighted mass of the box [0, b]^n under independent splitting of the atoms.

    One batch of draws serves every requested b: the kernel marks each atom
    with part i with probability theta_i / theta, forms the part sums, and
    weights the all-parts-below-b indicator by e^{total mass}.  ``spec``,
    ``eps``, the edges and the counts are checked before anything is drawn.
    """
    from .densities import PartitionSpec   # scipy comes with it; keeps it off the CLI start-up

    if not isinstance(spec, PartitionSpec):
        raise DomainError("spec must be a PartitionSpec")
    _check_theta_eps(spec.theta, eps)
    b_arr = np.array([_positive_real(b, "box edge b")
                      for b in (b_values if np.ndim(b_values) else [b_values])], dtype=float)

    def kernel(gen, rows):
        masses, _locations, totals, _tails = gamma_batch(spec.theta, eps, rows, gen,
                                                         locations=False)
        largest_part = np.zeros(rows)

        def part_sums(lo, hi, u):
            marks = spec.marks(u)
            scaled = np.multiply(masses[lo:hi], totals[lo:hi, None], out=masses[lo:hi])
            largest = largest_part[lo:hi]
            for i in range(spec.n):
                part = np.where(marks == i, scaled, 0.0).sum(axis=1)
                np.maximum(largest, part, out=largest)

        # The marks' uniforms are drawn into scratch, row block by row block.
        _by_rows(rows, masses.shape[1], part_sums, gen)
        return _window_weights(largest_part, b_arr, totals)

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
