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
from .estimation import CHUNK_ROWS, EstimatorResult, _pooled_mean, pooled_mean, stream_counts
from .processes import (
    RngStream,
    _by_items,
    _by_rows,
    _check_theta_eps,
    _first_width,
    _gamma_totals,
    _positive_real,
    _skip_uniforms,
    _stick_masses,
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
    kernel = _laplace_kernel(theta, f, eps, stick_masses_batch)
    (result,) = pooled_mean(n_samples, rng, streams, kernel)
    return result


def _check_variance(f, allow_infinite_variance=False):
    if f.min_value <= 0.5 and not allow_infinite_variance:
        raise InfiniteVarianceError(
            "second moment Psi(2f-1) diverges for min f <= 1/2; "
            "raise f or pass allow_infinite_variance=True to force the estimate"
        )


def _laplace_kernel(theta, f, eps, sticks):
    """Estimator kernel of Psi(f): exp(total * (1 - <f, P>)) per draw.

    ``sticks`` draws the normalized masses: the public ``stick_masses_batch``,
    so that a tracer sees one stick batch per chunk, or ``_stick_masses`` for
    a kernel that must call no public function.  The draws are
    ``gamma_batch``'s, without its location matrix.
    """
    def kernel(gen, rows):
        masses, _tails = sticks(theta, eps, rows, gen)
        pairing = _pairing(masses, f, gen)
        return np.exp(_gamma_totals(theta, rows, gen) * (1.0 - pairing))

    return kernel


def _pairing(masses, f, gen):
    """Per-row <f, P>: each row of ``masses`` against f at its draw's locations.

    The locations are the (rows, K) uniforms that follow the sticks in
    ``gen``, as ``gamma_batch`` draws them.  They are drawn row block by row
    block into scratch and reduced at once, so no location or f-value
    matrix exists; a constant f reads none of them, and ``gen`` skips them.
    Either way ``gen`` ends where ``gamma_batch``'s draw leaves it, and each
    row's sum is the float ``(masses * f(locations)).sum(axis=1)`` gives.
    A constant f's products overwrite ``masses``.
    """
    rows, cols = masses.shape
    pairing = np.empty(rows)
    if f.values.size == 1:
        _skip_uniforms(gen, masses.size)

        def integrand(lo, hi, _u):
            # The lookup is skipped; the products are the same floats.
            np.multiply(masses[lo:hi], f.values[0], out=masses[lo:hi]).sum(
                axis=1, out=pairing[lo:hi])

        _by_rows(rows, cols, integrand)
    else:
        def integrand(lo, hi, u):
            # Uniforms lie in [0, 1), so f is read without its domain check;
            # its values, and then the products, take the uniforms' place.
            values = f._at(u, out=u)
            np.multiply(masses[lo:hi], values, out=values).sum(axis=1, out=pairing[lo:hi])

        _by_rows(rows, cols, integrand, gen)
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


def quasi_invariance_check(theta: float, a: StepFunction, f: StepFunction,
                           n_samples: int = 100_000, rng: RngStream = RngStream(0), *,
                           eps: float = TRUNCATION_EPS, streams: int = 1) -> QuasiInvarianceReport:
    """Check Psi(a f) * phi(a) = Psi(f) exactly, and Psi(a f) by Monte Carlo."""
    return quasi_invariance_pairs(theta, [(a, f)], n_samples, rng, eps=eps, streams=streams)[0]


def quasi_invariance_pairs(theta: float, pairs, n_samples: int = 100_000,
                           rng: RngStream = RngStream(0), *, eps: float = TRUNCATION_EPS,
                           streams: int = 1) -> list[QuasiInvarianceReport]:
    """``quasi_invariance_check`` for each (a, f) of ``pairs``, in pair order.

    Pair k estimates Psi(a f) on the streams of ``rng.child(k * streams)``.
    The exact sides are formed first, in pair order, on the calling thread.
    The estimates run one after another when each one's passes are large
    enough to split into row blocks, else at once on the row-block pool;
    the reports are the same bytes either way.
    """
    theta, eps = _check_theta_eps(theta, eps)
    counts = stream_counts(n_samples, streams)
    exact = []
    for a, f in pairs:
        af = a * f
        value_f = analytic_laplace(theta, f)
        value_af = analytic_laplace(theta, af)
        cocycle = phi(a, theta)
        _check_variance(af)
        exact.append((af, cocycle, value_f, value_af))

    estimates = [None] * len(exact)

    def estimate(k):
        # Private code only: this may run on a pool thread.
        kernel = _laplace_kernel(theta, exact[k][0], eps, _stick_masses)
        (estimates[k],) = _pooled_mean(n_samples, rng.child(k * streams), streams, kernel)

    _by_items(len(exact), estimate, min(CHUNK_ROWS, counts[0]) * _first_width(theta, eps))
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
    positive step function.
    """
    from scipy.special import gammaln   # the only scipy use here; keeps it off the CLI start-up

    theta = _positive_real(theta, "theta")
    b = _positive_real(b, "window bound b")
    if t_grid is None:
        t_grid = np.linspace(b / 8.0, b, 8)
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all((t_grid > 0.0) & (t_grid <= b)):
        raise DomainError("t grid must lie in (0, b]")

    def kernel(gen, rows):
        masses, _tails = stick_masses_batch(theta, eps, rows, gen)
        pairing = _pairing(masses, f, gen)
        totals = _gamma_totals(theta, rows, gen)
        pairing *= totals
        return np.where(pairing[:, None] <= t_grid[None, :],
                        np.exp(totals)[:, None], 0.0)

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
    weights the all-parts-below-b indicator by e^{total mass}.
    """
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
        inside = largest_part[:, None] <= b_arr[None, :]
        return np.where(inside, np.exp(totals)[:, None], 0.0)

    return pooled_mean(n_samples, rng, streams, kernel, columns=b_arr.size)
