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

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, InfiniteVarianceError
from .estimation import EstimatorResult, pooled_mean, stream_counts
from .processes import (
    RngStream,
    _by_rows,
    _check_theta_eps,
    _finite_exp,
    _gamma_totals,
    _positive_real,
    _scratch,
    _skip_uniforms,
    stick_masses_batch,
)
from .stepfn import StepFunction, _common_grid, _piece_index

TRUNCATION_EPS = 1e-10


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
               eps: float = TRUNCATION_EPS, streams: int = 1,
               allow_infinite_variance: bool = False) -> EstimatorResult:
    """Importance-weighted Monte Carlo estimate of the flat-measure transform."""
    theta = _positive_real(theta, "theta")
    if not isinstance(f, StepFunction):
        raise DomainError("f must be a StepFunction")
    _check_variance(f, allow_infinite_variance)
    kernel = _kernel(theta, eps, *_common_grid([f]), _laplace_weights)
    (result,) = pooled_mean(n_samples, rng, streams, kernel)
    return result


def _check_variance(f, allow_infinite_variance=False):
    if f.min_value <= 0.5 and not allow_infinite_variance:
        raise InfiniteVarianceError(
            "second moment Psi(2f-1) diverges for min f <= 1/2; "
            "raise f or pass allow_infinite_variance=True to force the estimate"
        )


def _kernel(theta, eps, grid, values, finish, fold=None):
    """The one kernel of every estimator: ``finish(pairing, totals)`` per draw.

    Four steps on ``gamma_batch``'s draws: the stick pass, one streamed
    pairing of the atoms' locations with the piece ``grid`` and value table
    ``values`` (``_pairing``, which folds the columns with ``fold`` if one is
    given), the gamma totals, and ``finish``.  Column k of the pairing is
    <f_k, P> for the step function f_k whose values column k holds; with an
    identity table it is the normalized mass of the atoms in piece k.
    """
    def kernel(gen, rows):
        masses, _tails = stick_masses_batch(theta, eps, rows, gen)
        pairing = _pairing(masses, grid, values, gen, fold)
        return finish(pairing, _gamma_totals(theta, rows, gen))

    return kernel


def _laplace_weights(pairing, totals):
    """Integrand of Psi(f) per draw and f: exp(total * (1 - <f, P>)), formed in ``pairing``."""
    np.subtract(1.0, pairing, out=pairing)
    pairing *= totals[:, None]
    return np.exp(pairing, out=pairing)


def _pairing(masses, grid, values, gen, fold=None):
    """Each row's masses summed against each column at the atoms: an F-ordered (rows, columns).

    The atoms' locations are the (rows, K) uniforms that follow the sticks
    in ``gen``, as ``gamma_batch`` draws them; piece j of ``grid``, the
    breakpoints from 0 to 1, gives column k the value values[j, k].  Each
    row block of uniforms is drawn into scratch and finds its pieces once;
    each column is then taken, multiplied by the masses and summed in the
    block's cells, so no location, value or product matrix exists.  A grid
    of one piece reads no location, and ``gen`` skips them.  Either way
    ``gen`` ends where ``gamma_batch`` leaves it, and column k holds the
    floats of ``(masses * values[pieces, k]).sum(axis=1)``, ``pieces`` being
    the locations' piece indices: for a step function f's column,
    ``(masses * f(locations)).sum(axis=1)``'s.  A ``fold``, such as
    np.maximum, folds each block's column sums into one column that starts
    at 0, as they are formed: (rows, 1), however many columns there are.
    """
    rows, cols = masses.shape
    edges = grid[1:-1]
    pairing = np.empty((rows, values.shape[1]), order="F") if fold is None else np.zeros((rows, 1))
    if not edges.size:
        _skip_uniforms(gen, masses.size)

    def integrand(lo, hi, u):
        block = masses[lo:hi]
        # Uniforms lie in [0, 1), so no domain check is needed; once their
        # pieces are found, the products go to their cells.
        index = None if u is None else _piece_index(edges, u)
        out = _scratch("block", block.shape) if u is None else u
        for k, column in enumerate(values.T):
            # take() gathers the same floats as column[index], without first
            # widening _piece_index's uint8 counts.
            factor = column[0] if index is None else np.take(column, index, out=out, mode="clip")
            products = np.multiply(block, factor, out=out)
            if fold is None:
                products.sum(axis=1, out=pairing[lo:hi, k])
            else:
                fold(pairing[lo:hi, 0], products.sum(axis=1), out=pairing[lo:hi, 0])

    _by_rows(rows, cols, integrand, gen if edges.size else None)
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

    kernel = _kernel(theta, eps, *_common_grid([af for af, *_ in exact]), _laplace_weights)
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
                                  eps: float = TRUNCATION_EPS,
                                  streams: int = 1) -> FunctionalWindowReport:
    """Compare the weighted law of <f, xi> below b with e^{-c(f)} t^theta / Gamma(theta+1).

    The law is read at the eight points t = b/8, 2b/8, ..., b.  The
    indicator window keeps the weighted integrand bounded (total mass is at
    most t / min f on the event), so the estimator has finite variance for any
    positive step function.  The arguments are checked, and the exact side
    formed, before anything is drawn.
    """
    from scipy.special import gammaln   # the only scipy use here; keeps it off the CLI start-up

    theta, eps = _check_theta_eps(theta, eps)
    if not isinstance(f, StepFunction):
        raise DomainError("f must be a StepFunction")
    b = _positive_real(b, "window bound b")
    t_grid = np.linspace(b / 8.0, b, 8)
    c_f = log_mean(f, theta)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN is refused below
        exponent = -c_f + theta * np.log(t_grid) - gammaln(theta + 1.0)
    exact = _finite_exp(exponent, "the window law e^{-c(f)} t^theta / Gamma(theta + 1)")

    kernel = _kernel(theta, eps, *_common_grid([f]), lambda pairing, totals: _window_weights(
        pairing[:, 0] * totals, t_grid, totals))
    results = pooled_mean(n_samples, rng, streams, kernel, columns=t_grid.size)
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

    One batch of draws serves every requested b.  The parts are the pieces
    of [0, 1) between ``spec.breakpoints``, so an atom falls in part i, with
    probability theta_i / theta, where its location lies: the kernel pairs
    the masses with an identity table on that grid, keeping only each row's
    largest part as it goes, scales it by the draw's total, and weights the
    all-parts-below-b indicator by e^{total mass}.  ``spec``, ``eps``, the
    edges and the counts are checked before anything is drawn.
    """
    from .densities import PartitionSpec   # scipy comes with it; keeps it off the CLI start-up

    if not isinstance(spec, PartitionSpec):
        raise DomainError("spec must be a PartitionSpec")
    _check_theta_eps(spec.theta, eps)
    b_arr = np.array([_positive_real(b, "box edge b")
                      for b in (b_values if np.ndim(b_values) else [b_values])], dtype=float)
    if b_arr.size == 0:
        raise DomainError("a box mass needs at least one box edge b")

    # The identity table as a read-only view of 2n - 1 floats, not n * n.
    identity = sliding_window_view(np.eye(1, 2 * spec.n - 1, spec.n - 1)[0], spec.n)[::-1]
    kernel = _kernel(spec.theta, eps, spec.breakpoints, identity, lambda largest, totals:
                     _window_weights(largest[:, 0] * totals, b_arr, totals), np.maximum)
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
