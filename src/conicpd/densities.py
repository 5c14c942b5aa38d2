"""Finite-dimensional log-densities of the three companion systems.

For a weight vector (theta_1..theta_n) the package works with three mutually
related families: the Dirichlet density on the simplex, the product-gamma
density on the orthant, and the scale-free variant obtained by dropping the
exponential factor.  The latter is an infinite (sigma-finite) density -- it
integrates box masses, not probabilities -- and satisfies the convolution
semigroup property in the total weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, SingularityError
from .processes import _finite_exp, _positive_real
from .stepfn import _piece_index


@dataclass(frozen=True)
class PartitionSpec:
    """Positive weight vector theta_1..theta_n; ``theta`` is their sum."""

    weights: np.ndarray
    theta: float = field(init=False)

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1 or w.size < 1 or not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise DomainError("partition weights must be a non-empty vector of positive reals")
        with np.errstate(over="ignore"):  # an overflow is refused below, not warned about
            theta = float(w.sum())
        if not math.isfinite(theta):
            raise DomainError("partition weights must have a finite total")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "theta", theta)

    @property
    def n(self) -> int:
        return self.weights.size

    def probabilities(self) -> np.ndarray:
        return self.weights / self.theta

    @property
    def breakpoints(self) -> np.ndarray:
        """The parts' pieces of [0, 1): 0, the cumulative probabilities but the last, and 1."""
        return np.r_[0.0, np.cumsum(self.probabilities())[:-1], 1.0]

    def marks(self, u) -> np.ndarray:
        """Part index of each uniform u in [0, 1): i with probability theta_i / theta.

        Only the inner breakpoints are compared, so a u above a last cumulative
        probability that rounds below 1 still lands in the last part.
        """
        return _piece_index(self.breakpoints[1:-1], u)


def _check_vector(point, n, name):
    x = np.atleast_1d(np.asarray(point, dtype=float))
    if x.ndim != 1 or x.size != n:
        raise DomainError(f"{name} must be a vector of length {n}")
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{name} must be finite")
    return x


def _check_simplex(point, n):
    u = _check_vector(point, n, "simplex point")
    if np.any(u < 0.0):
        raise DomainError("simplex coordinates must be non-negative")
    if abs(u.sum() - 1.0) > 1e-12 * max(1, n):
        raise DomainError("simplex coordinates must sum to 1")
    return u


def _check_orthant(point, n):
    x = _check_vector(point, n, "orthant point")
    if np.any(x <= 0.0):
        raise DomainError("orthant coordinates must be strictly positive")
    return x


def dirichlet_log_density(spec: PartitionSpec, point) -> float:
    """Log of Gamma(theta) * prod u_i^{theta_i - 1} / Gamma(theta_i) on the simplex.

    The reference measure is Lebesgue measure in the first n-1 coordinates, so
    the density integrates to one.  Boundary zeros paired with a weight < 1
    sit on a non-integrable singularity and raise; zeros with weight > 1 give
    a genuine -inf (the density vanishes there).
    """
    u = _check_simplex(point, spec.n)
    zero = u == 0.0
    if np.any(zero & (spec.weights < 1.0)):
        raise SingularityError("density is unbounded at a zero coordinate with weight < 1")
    head = float(gammaln(spec.theta) - np.sum(gammaln(spec.weights)))
    if np.any(zero & (spec.weights > 1.0)):
        return -math.inf
    live = ~zero
    return head + float(np.sum((spec.weights[live] - 1.0) * np.log(u[live])))


def lebesgue_log_density(spec: PartitionSpec, point) -> float:
    """Log of prod x_i^{theta_i - 1} / Gamma(theta_i) on the open orthant."""
    x = _check_orthant(point, spec.n)
    return float(np.sum((spec.weights - 1.0) * np.log(x) - gammaln(spec.weights)))


def gamma_log_density(spec: PartitionSpec, point) -> float:
    """Log of prod x_i^{theta_i - 1} e^{-x_i} / Gamma(theta_i) on the open orthant."""
    x = _check_orthant(point, spec.n)
    return lebesgue_log_density(spec, x) - float(x.sum())


def _gamma_log_density_1d(theta: float, s: float) -> float:
    return (theta - 1.0) * math.log(s) - s - float(gammaln(theta))


def box_mass_L(spec: PartitionSpec, b: float) -> float:
    """Scale-free mass of the box [0, b]^n: prod b^{theta_i} / Gamma(theta_i + 1)."""
    log_b = math.log(_positive_real(b, "box edge"))
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN is refused below
        exponent = float(np.sum(spec.weights * log_b - gammaln(spec.weights + 1.0)))
    return _finite_exp(exponent, "the box mass prod b^theta_i / Gamma(theta_i + 1)")


def lemma1_pointwise_check(spec: PartitionSpec, point) -> float:
    """Residual of the polar factorisation at one orthant point.

    Splitting x into (s, u) with s the coordinate sum and u = x/s, the
    product-gamma log-density must equal the Dirichlet part plus the
    one-dimensional gamma part in s minus the Jacobian term (n-1) log s.
    Returns |lhs - rhs|; exact arithmetic cancels to rounding error.
    """
    x = _check_orthant(point, spec.n)
    s = float(x.sum())
    lhs = gamma_log_density(spec, x)
    rhs = (
        dirichlet_log_density(spec, x / s)
        + _gamma_log_density_1d(spec.theta, s)
        - (spec.n - 1) * math.log(s)
    )
    return abs(lhs - rhs)


def semigroup_convolution_check(theta1: float, theta2: float) -> float:
    """Max deviation of (L_theta1 * L_theta2)(z) from L_(theta1+theta2)(z) on a grid.

    The grid is 20 evenly spaced points z in [0.25, 5].  The convolution
    side is adaptive quadrature of the kernel x^{theta1-1} (z-x)^{theta2-1}
    with the algebraic-endpoint rule, so the sub-unit shapes are handled
    without manual subtraction of singularities.
    """
    t1, t2 = _positive_real(theta1, "shape theta1"), _positive_real(theta2, "shape theta2")
    from scipy import integrate   # only this check integrates; keeps it off the CLI start-up
    log_norm = float(gammaln(t1) + gammaln(t2))
    worst = 0.0
    for z in np.linspace(0.25, 5.0, 20):
        raw, _ = integrate.quad(
            lambda _x: 1.0, 0.0, z, weight="alg", wvar=(t1 - 1.0, t2 - 1.0),
            epsabs=1e-13, epsrel=1e-12, limit=200,
        )
        conv = raw * math.exp(-log_norm)
        target = math.exp((t1 + t2 - 1.0) * math.log(z) - gammaln(t1 + t2))
        worst = max(worst, abs(conv - target))
    return worst
