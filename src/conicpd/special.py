"""Public aliases of the log-gamma family and of the Bessel functions J and K0.

Each name evaluates the matching :mod:`scipy.special` function after a domain
check that raises :class:`~conicpd.errors.DomainError`, and returns a Python
float for a scalar argument.  The library modules call :mod:`scipy.special`
directly; these names exist for callers of the package.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError


def _positive(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{name} requires finite, strictly positive arguments")
    return arr


def _out(arr, value):
    return float(value) if arr.ndim == 0 else value


def log_gamma(x):
    """Natural log of the Gamma function for real x > 0 (scalar or array)."""
    arr = _positive(x, "log_gamma")
    return _out(arr, special.gammaln(arr))


def digamma(x):
    """Logarithmic derivative of Gamma for real x > 0 (scalar or array)."""
    arr = _positive(x, "digamma")
    return _out(arr, special.psi(arr))


def trigamma(x):
    """Second logarithmic derivative of Gamma for real x > 0 (scalar or array)."""
    arr = _positive(x, "trigamma")
    return _out(arr, special.polygamma(1, arr))


def log_beta(a, b):
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a + b)."""
    aa, bb = _positive(a, "log_beta"), _positive(b, "log_beta")
    return _out(np.broadcast(aa, bb), special.betaln(aa, bb))


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x), real order >= 0, x >= 0."""
    nu, xx = float(order), float(x)
    if not (math.isfinite(nu) and nu >= 0.0):
        raise DomainError("bessel_j requires a finite order >= 0")
    if not math.isfinite(xx) or xx < 0.0:
        raise DomainError("bessel_j requires a finite argument x >= 0")
    return float(special.jv(nu, xx))


def bessel_k0(x):
    """Modified Bessel function K0 for x > 0 (scalar or array)."""
    arr = _positive(x, "bessel_k0")
    return _out(arr, special.k0(arr))
