"""The stick path as whole batches, the reference the tests check it against.

``stick_masses_batch`` and ``gamma_batch`` draw what ``sample``'s series
draws take, in the same order: the stick pass (each row's stick count,
the (rows, K) exponentials and each row's cut exponential), the (rows, K)
location uniforms and the gamma totals.  No library code calls them.
"""

from conicpd import processes


def stick_masses_batch(theta, eps, rows, gen):
    """Normalized stick-breaking masses for ``rows`` draws at once, as (masses, tails).

    ``masses`` is (rows, K), zero right of each row's truncation column,
    with K the longest row's stick count; ``tails`` holds each row's
    residual mass at its cut.
    """
    theta, eps = processes._check_theta_eps(theta, eps)
    return processes._stick_rows(theta, eps, rows, gen)[:2]


def gamma_batch(theta, eps, rows, gen):
    """Batch of unnormalized draws as (normalized masses, locations, totals, tails)."""
    masses, tails = stick_masses_batch(theta, eps, rows, gen)
    return masses, gen.random(masses.shape), processes._gamma_totals(theta, rows, gen), tails
