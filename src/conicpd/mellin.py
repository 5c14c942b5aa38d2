"""Exponential-sum integrals over the zero-sum hyperplane and their asymptotics.

F_n(lambda) integrates exp(-lambda * sum_k e^{x_k}) over the hyperplane
sum x_k = 0, parametrized by its first n-1 coordinates.  Two independent
routes are provided: direct coordinate-space quadrature (small n) and the
inverse-Mellin contour

    F_n(lambda) = (1 / 2 pi) * integral  Gamma(s)^n lambda^{-n s} dt,
    s = gamma + i t,

whose integrand exp(n z(t)), z(t) = log Gamma(s) - s log lambda, is built
from scipy's branch-continuous complex log-gamma, so it is single-valued
along the vertical line.  The integrand is analytic and decays like a
Gaussian around the saddle, so the trapezoid rule on a uniform grid converges
exponentially (Trefethen & Weideman, SIAM Review 56, 2014).  One evaluation
of z on a grid shared by every n serves a whole table of n at once.  The
a-posteriori error is the difference between the step-h sum and the step-2h
sum over every other node; a cancellation guard refuses sums that rounding
alone could account for.

The exponential growth rate L(lambda) = lim (log F_n)/n is read off the
saddle point psi(gamma) = log lambda.  Laplace's method (Olver, Asymptotics
and Special Functions, ch. 3) gives, with a = psi'(gamma),

    log F_n = n L - (1/2) log(2 pi n a) + log(1 + kappa_1 / n) + O(n^-2),
    kappa_1 = psi'''(gamma) / (8 a^2) - 5 psi''(gamma)^2 / (24 a^3),

so (log F_n)/n with both corrections removed is within O(n^-3) of L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, NumericalError
from .processes import _integer, _positive_real

# Integrand magnitude, relative to the peak, that the grid treats as zero.
_LOG_NEGLIGIBLE = math.log(1e-18)
# A trapezoid sum S_h is accepted when |S_h - S_2h| <= max(_ATOL, _RTOL * S_h),
# and F_direct's Gauss-Legendre refinements when they agree to _RTOL.
_RTOL, _ATOL = 1e-9, 1e-12
_MAX_HALVINGS = 8
_MAX_NODES = 1 << 22     # nodes on one grid level: bounds the time of a table
_BLOCK = 1 << 14         # nodes, and row-by-node cells, formed at once: bounds a table's memory
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SaddleSolution:
    """Saddle point of the contour integrand at one lambda.

    ``L_value`` is the exponential rate in log form, log Gamma(gamma)
    - gamma log lambda; ``ratio_form`` exposes the same rate as the plain
    ratio Gamma(gamma) / lambda^gamma.
    """

    lam: float
    gamma: float
    L_value: float
    curvature: float

    def __post_init__(self):
        if abs(special.digamma(self.gamma) - math.log(self.lam)) > 1e-10:
            raise DomainError("gamma does not solve the saddle equation for lambda")
        if not self.curvature > 0.0:
            raise DomainError("saddle curvature must be positive")

    @property
    def ratio_form(self) -> float:
        return math.exp(self.L_value)


def solve_saddle(lam: float) -> SaddleSolution:
    """Solve psi(gamma) = log lambda by safeguarded Newton iteration."""
    lam = _positive_real(lam, "lambda")
    target = math.log(lam)
    lo, hi = 1.0, 2.0
    while special.digamma(lo) > target:
        lo *= 0.5
        if lo < 1e-300:
            raise NumericalError("saddle bracket collapsed at the lower end")
    while special.digamma(hi) < target:
        hi *= 2.0
        if hi > 1e300:
            raise NumericalError("saddle bracket ran away at the upper end")
    g = 0.5 * (lo + hi)
    # psi'(g) is zeta(2, g), the bits of scipy's polygamma(1, g) without its dispatch.
    for _ in range(200):
        resid = float(special.digamma(g)) - target
        if abs(resid) <= 1e-13:
            return SaddleSolution(
                lam=lam, gamma=g,
                L_value=float(special.gammaln(g)) - g * target,
                curvature=float(special.zeta(2.0, g)),
            )
        if resid > 0.0:
            hi = g
        else:
            lo = g
        step = g - resid / float(special.zeta(2.0, g))
        g = step if lo < step < hi else 0.5 * (lo + hi)
    raise NumericalError("saddle iteration did not reach tolerance 1e-13")


@dataclass(frozen=True)
class ContourRows:
    """log F_n(lambda) for several n from one trapezoid grid, with diagnostics.

    ``error`` is the accepted |S_h - S_2h| / S_h, the a-posteriori error of
    log F_n (equivalently the relative error of F_n); ``nodes`` counts the
    grid nodes that carried each row's sum.
    """

    ns: np.ndarray
    log_F: np.ndarray
    error: np.ndarray
    nodes: np.ndarray


def log_F_contour_rows(ns, lam: float, abscissa: float | None = None) -> ContourRows:
    """log F_n(lambda) for every n in ``ns`` on the contour Re s = abscissa.

    The abscissa defaults to the saddle point; by contour independence any
    abscissa > 0 gives the same value, which the tests exercise.  With
    u(t) = z(t) - z(0),

        log F_n = n z(0) + log(S_n / pi),   S_n = integral_0^inf Re e^{n u(t)} dt,

    so the peak magnitude is factored out and the value stays finite even
    when n L(lambda) would overflow exp().

    S_n is a trapezoid sum on one uniform grid shared by all rows, with step
    h = 0.25 / sqrt(n_max psi'(abscissa)), a quarter of the narrowest peak
    width.  The grid reaches no further than where the n_min integrand has
    decayed to 1e-18 of its peak, and since |e^{n u(t)}| decreases in t,
    each row stops at its own first node below that level.  Each grid level
    forms only the nodes up to that reach, in blocks of at most 2^14, and
    forms every row's terms of a block in one pass over a (rows, nodes)
    matrix of at most 2^14 cells; only per-row sums are kept, so memory does
    not grow with the grid.  A row is accepted once
    |S_h - S_2h| <= max(1e-12, 1e-9 S_h), where S_2h sums every other node,
    and its phase Im(n u) turns by less than pi between neighbouring nodes
    of the step-2h grid (else both grids can alias the same oscillation and
    agree on a wrong value).  Otherwise h is halved, evaluating only the new
    midpoints, at most eight times and up to 2^22 nodes, before
    NumericalError.

    Off the saddle the integrand oscillates, and S_n can sit far below
    integral |e^{n u}| dt; the step test then passes on rounding noise.
    eps * integral |e^{n u}| (4 + |n u|) dt bounds the rounding in S_n, and
    a row whose bound exceeds 1e-9 S_n raises NumericalError rather than
    return a value without correct digits.  So does S_n <= 0.
    """
    lam = _positive_real(lam, "lambda")
    ns = _check_ns(ns)
    gamma = (solve_saddle(lam).gamma if abscissa is None
             else _positive_real(abscissa, "contour abscissa"))
    unique, inverse = np.unique(ns, return_inverse=True)
    log_f, error, nodes = _trapezoid_rows(unique, lam, gamma)
    return ContourRows(ns=ns, log_F=log_f[inverse], error=error[inverse],
                       nodes=nodes[inverse])


def _trapezoid_rows(ns: np.ndarray, lam: float, gamma: float):
    """log F_n, error and node count for sorted distinct ``ns``."""
    log_lam = math.log(lam)
    log_gamma0 = float(special.gammaln(gamma))
    curvature = float(special.zeta(2.0, gamma))
    if not math.isfinite(curvature):  # a tiny abscissa: the decay search would never move
        raise NumericalError(f"psi'(abscissa) = {curvature} is not finite at abscissa={gamma}")
    n_min, n_max = int(ns[0]), int(ns[-1])
    cutoff = 8.0 / math.sqrt(n_min * curvature)
    while n_min * (special.loggamma(complex(gamma, cutoff)).real - log_gamma0) > _LOG_NEGLIGIBLE:
        cutoff *= 1.5
        if cutoff > 1e6:
            raise NumericalError(
                f"contour integrand failed to decay within |t| <= 1e6 (n={n_min}, "
                f"lambda={lam}, abscissa={gamma})"
            )

    def node_sums(rows, offset, step):
        # Per row, over the nodes t = offset + k step <= cutoff before the
        # row's integrand is negligible: the sums of Re e^{n u} and of the
        # rounding weight |e^{n u}| (4 + |n u|), the node count, and the
        # largest phase turn between neighbouring nodes.  ``rows`` is
        # ascending, so the first row reaches furthest and the rows that
        # reach no node of a block come last.
        out = np.zeros((4, rows.size))
        phase = np.zeros(rows.size)
        first = 0
        while True:
            t = _grid_block(offset, step, first, cutoff)
            u = special.loggamma(gamma + 1j * t) - log_gamma0 - 1j * log_lam * t
            lengths = np.searchsorted(-u.real, _LOG_NEGLIGIBLE / -rows)
            out[2] += lengths
            start, live = 0, np.count_nonzero(lengths)
            while start < live:
                # Rows start..stop-1 as one matrix of at most _BLOCK cells
                # (one row at least), as wide as the longest of them.
                reach = int(lengths[start])
                stop = min(live, start + max(1, _BLOCK // reach))
                w = rows[start:stop, None] * u[None, :reach]
                mag = np.exp(w.real)
                terms = np.empty((2, stop - start, reach))
                np.multiply(mag, np.cos(w.imag), out=terms[0])
                np.multiply(mag, 4.0 + np.abs(w), out=terms[1])
                # Each row's phases after its last one of the previous block, and their turns.
                angle = np.concatenate((phase[start:stop, None], w.imag), axis=1)
                turns = np.abs(angle[:, 1:] - angle[:, :-1])
                # Each row sums its own prefix as a 1-D array of that length,
                # so padding past its end cannot move the pairwise rounding.
                for j, end in enumerate(lengths[start:stop].tolist()):
                    i = start + j
                    out[:2, i] += terms[:, j, :end].sum(axis=1)
                    out[3, i] = max(out[3, i], turns[j, :end].max())
                    phase[i] = angle[j, end]
                start = stop
            first += _BLOCK
            # A level past _MAX_NODES is refused below; forming the rest of
            # it (some 10^10 nodes at an abscissa of 1e-9) would never end.
            if t.size < _BLOCK or lengths[0] < t.size or first >= _MAX_NODES:
                return out

    rows = ns.astype(float)
    # The step-2h sum; t = 0 contributes e^0 = 1 (rounding weight 4) at half weight.
    step = 0.5 / math.sqrt(n_max * curvature)
    sums = node_sums(rows, step, step)[:3]
    sums[:2] = step * (sums[:2] + np.array([[0.5], [2.0]]))
    sums[2] += 1.0
    log_f = np.empty(rows.size)
    error = np.empty(rows.size)
    nodes = np.empty(rows.size, dtype=int)
    active = np.arange(rows.size)
    for _ in range(_MAX_HALVINGS + 1):
        if 2.0 * sums[2, active].max() > _MAX_NODES:
            break
        previous = sums[0, active]
        step *= 0.5
        # The midpoints are spaced 2h, so their phase turn stands in for the
        # step-2h grid's.
        mids = node_sums(rows[active], step, 2.0 * step)
        sums[:2, active] = 0.5 * sums[:2, active] + step * mids[:2]
        sums[2, active] += mids[2]
        value = sums[0, active]
        diff = np.abs(value - previous)
        done = (diff <= np.maximum(_ATOL, _RTOL * value)) & (mids[3] < math.pi)
        for i, d in zip(active[done], diff[done]):
            n = int(ns[i])
            rounding = _EPS * sums[1, i]
            if sums[0, i] <= 0.0 or rounding > _RTOL * sums[0, i]:
                raise NumericalError(
                    f"contour sum is below its rounding error (value={sums[0, i]:.3e}, "
                    f"rounding bound={rounding:.3e}, n={n}, lambda={lam}, abscissa={gamma})"
                )
            log_f[i] = n * (log_gamma0 - gamma * log_lam) + math.log(sums[0, i] / math.pi)
            error[i] = d / sums[0, i]
            nodes[i] = int(sums[2, i])
        active = active[~done]
        if active.size == 0:
            return log_f, error, nodes
    i = active[0]
    raise NumericalError(
        f"contour quadrature did not converge in {int(sums[2, i])} nodes "
        f"(value={sums[0, i]:.3e}, n={int(ns[i])}, lambda={lam}, abscissa={gamma})"
    )


def _grid_block(offset: float, step: float, first: int, cutoff: float) -> np.ndarray:
    """The nodes t = offset + k step <= cutoff for k = first, ..., first + _BLOCK - 1.

    t rises with k, so the kept nodes are a prefix of the block.  Its length
    is counted from the cutoff, with a margin for rounding, and only that
    many nodes are formed; the trim below then gives the same floats as
    forming the whole block and filtering it.
    """
    reach = (cutoff - offset) / step - first + 2.0
    count = max(0, int(reach)) if reach < _BLOCK else _BLOCK
    t = offset + step * np.arange(first, first + count)
    return t[t <= cutoff]


def F_contour(n: int, lam: float) -> float:
    """F_n(lambda) from the contour through the saddle, on the linear scale.

    It is one row of :func:`log_F_contour_rows`, exponentiated.
    """
    return math.exp(log_F_contour_rows([n], lam).log_F[0])


def F_direct(n: int, lam: float) -> float:
    """Direct quadrature of exp(-lambda sum e^{x_k}) over the zero-sum hyperplane.

    The free coordinates are truncated to a box chosen so the discarded mass
    is negligible, then integrated on tensor Gauss-Legendre grids of
    increasing order until two consecutive refinements agree to a relative
    _RTOL (1e-9).
    Supported for n <= 4; larger n belongs to the contour route.
    """
    n = _integer(n, "direct quadrature n", upper=4)
    lam = _positive_real(lam, "lambda")
    if n == 1:
        return math.exp(-lam)
    # The worst spot on the truncation boundary puts one free coordinate at
    # -B and splits the compensation over the rest, leaving only
    # (n-1) e^{B/(n-1)} in the exponent, so B must grow linearly with n.
    threshold = 50.0 + 10.0 * lam * n
    box = (n - 1) * math.log(threshold / (lam * (n - 1)))
    box = max(box, math.log(n + 50.0 / lam) + 1.0)
    previous = None
    for order in (48, 72, 108, 162, 243):
        value = _tensor_quad(n - 1, box, lam, order)
        if previous is not None and abs(value - previous) <= _RTOL * abs(value):
            return value
        previous = value
    raise NumericalError(f"direct quadrature for n={n} did not stabilize to {_RTOL}")


def _tensor_quad(dims: int, box: float, lam: float, order: int) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = box * nodes
    w = box * weights
    ex = np.exp(x)
    if dims == 1:
        return float(w @ np.exp(-lam * (ex + 1.0 / ex)))
    if dims == 2:
        total = ex[:, None] + ex[None, :] + np.exp(-(x[:, None] + x[None, :]))
        return float(w @ np.exp(-lam * total) @ w)
    total = 0.0
    for i in range(order):  # slab over the first coordinate to bound memory
        inner = ex[i] + ex[:, None] + ex[None, :] + np.exp(-(x[i] + x[:, None] + x[None, :]))
        total += w[i] * float(w @ np.exp(-lam * inner) @ w)
    return total


@dataclass(frozen=True)
class LimitStudy:
    """Convergence of (log F_n)/n toward the saddle rate L(lambda)."""

    lam: float
    saddle: SaddleSolution
    ns: np.ndarray
    log_F: np.ndarray
    ratios: np.ndarray          # (log F_n) / n
    gaps: np.ndarray            # ratios - L
    corrected: np.ndarray       # ratios with the known 1/2 log(2 pi n psi') term added back
    series: np.ndarray          # corrected less the Laplace term log(1 + kappa_1/n)/n
    extrapolated_limit: float   # series at the largest n
    extrapolated_gap: float
    envelope_constant: float    # max_n |gap_n| * n / log n
    log_F_error: np.ndarray     # a-posteriori contour error of log F_n
    nodes: np.ndarray           # contour grid nodes per row

    def rows(self) -> list[dict]:
        return _table_rows(self.lam, self.ns, 1.0, self.saddle.gamma, self.saddle.L_value,
                           self.ratios)


def _table_rows(lam, ns, radii, gammas, limits, rates) -> list[dict]:
    """The printed rows of a (log F_n)/n table; a scalar column is shared by every row."""
    columns = (c.tolist() for c in np.broadcast_arrays(ns, radii, gammas, limits, rates))
    return [{"n": n, "lambda": lam, "r": r, "gamma": g, "L": L, "lnFn_over_n": q, "gap": q - L}
            for n, r, g, L, q in zip(*columns)]


def L_limit_study(lam: float, n_max: int = 40, n_min: int = 2) -> LimitStudy:
    """Tabulate (log F_n)/n for n_min..n_max and its n -> inf limit.

    The whole table comes from one :func:`log_F_contour_rows` grid at the
    saddle.  The raw ratio sits -(1/2) log(2 pi n a)/n away from L, about
    0.07 at n = 40.  ``corrected`` adds that term back and leaves the O(1/n^2)
    Laplace term log(1 + kappa_1/n)/n (module docstring); ``series`` removes
    it too and is within O(n^-3) of L.  Its last row is the extrapolated
    limit: for every n_max from 2 to 40 at lambda = 0.3, 1 and 3 it lies
    within 0.05 / n_max^3 of L.
    """
    if not (2 <= n_min <= n_max <= 60):
        raise DomainError("limit study supports 2 <= n_min <= n_max <= 60")
    sol = solve_saddle(lam)
    ns = np.arange(n_min, n_max + 1)
    contour = log_F_contour_rows(ns, lam, abscissa=sol.gamma)
    log_f = contour.log_F
    ratios = log_f / ns
    gaps = ratios - sol.L_value
    a = sol.curvature
    corrected = ratios + 0.5 * np.log(2.0 * math.pi * ns * a) / ns
    # psi''(g) and psi'''(g): scipy's polygamma(n, x) is (-1)^(n+1) n! zeta(n+1, x),
    # so these are its bits without its dispatch.
    c3, c4 = -2.0 * special.zeta(3.0, sol.gamma), 6.0 * special.zeta(4.0, sol.gamma)
    kappa1 = c4 / (8.0 * a * a) - 5.0 * c3 * c3 / (24.0 * a ** 3)
    series = corrected - np.log1p(kappa1 / ns) / ns
    limit = float(series[-1])
    return LimitStudy(
        lam=sol.lam, saddle=sol, ns=ns, log_F=log_f, ratios=ratios, gaps=gaps,
        corrected=corrected, series=series, extrapolated_limit=limit,
        extrapolated_gap=limit - sol.L_value,
        envelope_constant=float(np.max(np.abs(gaps) * ns / np.log(ns))),
        log_F_error=contour.error, nodes=contour.nodes,
    )


def find_L_zero() -> float:
    """Bisection for the unique lambda where L crosses zero (L is strictly decreasing).

    The bracket is [0.5, 1.5]: L(0.5) > 0 > L(1.5), and the zero lies near 0.918.
    """
    lo, hi = 0.5, 1.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if solve_saddle(mid).L_value > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RadiusSchedule:
    """Radius sequence r_n: the constant c, or c * sqrt(n)."""

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "sqrt_n"):
            raise DomainError("schedule kind must be constant or sqrt_n")
        object.__setattr__(self, "scale", _positive_real(self.scale, "schedule scale"))

    def radius(self, n: int) -> float:
        r = self.scale if self.kind == "constant" else self.scale * math.sqrt(n)
        if not (math.isfinite(r) and r > 0.0):
            raise DomainError(f"schedule produced a radius that is not a finite positive real "
                              f"at n={n}")
        return r


@dataclass(frozen=True)
class DivergenceTable:
    """(log D_n)/n along a radius schedule for constant test value lambda.

    D_n = F_n(lambda r_n) is the candidate normalization at radius r_n.
    """

    lam: float
    schedule: RadiusSchedule
    ns: np.ndarray
    radii: np.ndarray
    rates: np.ndarray        # (log D_n)/n
    limits: np.ndarray       # L(lambda * r_n)
    gammas: np.ndarray       # saddle of lambda * r_n
    log_F_error: np.ndarray  # a-posteriori contour error of log D_n
    nodes: np.ndarray        # contour grid nodes per row

    def rows(self) -> list[dict]:
        return _table_rows(self.lam, self.ns, self.radii, self.gammas, self.limits, self.rates)


def divergence_experiment(lam: float, schedule: RadiusSchedule, ns) -> DivergenceTable:
    """Track (log D_n)/n for f = const lambda along a radius schedule.

    For a constant schedule the rate tends to L(lambda r), which is nonzero
    off a single crossing point -- so D_n itself runs to 0 or infinity
    geometrically and no constant-radius normalization can converge.  For the
    sqrt-n schedule the effective argument grows and L heads to -infinity.
    Rows sharing an effective argument lambda r_n share one saddle solve and
    one contour grid.
    """
    lam = _positive_real(lam, "lambda")
    ns = _check_ns(ns)
    radii = [schedule.radius(n) for n in ns.tolist()]
    # Python floats overflow to inf and underflow to 0 without a warning.
    args = [lam * r for r in radii]
    for n, arg in zip(ns.tolist(), args):
        if not (math.isfinite(arg) and arg > 0.0):
            raise DomainError(f"lambda * r_n = {arg!r} is not a finite positive real at n={n}")
    radii, args = np.array(radii), np.array(args)
    log_f, limits, gammas, errors, nodes = (np.empty(ns.size) for _ in range(5))
    for arg in dict.fromkeys(args.tolist()):
        at = args == arg
        sol = solve_saddle(arg)
        contour = log_F_contour_rows(ns[at], arg, abscissa=sol.gamma)
        log_f[at], errors[at], nodes[at] = contour.log_F, contour.error, contour.nodes
        limits[at], gammas[at] = sol.L_value, sol.gamma
    return DivergenceTable(lam=lam, schedule=schedule, ns=ns, radii=radii,
                           rates=log_f / ns, limits=limits, gammas=gammas,
                           log_F_error=errors, nodes=nodes.astype(int))


def _check_ns(ns) -> np.ndarray:
    """``ns`` as a non-empty 1-D int array of positive integers, each entry checked as given."""
    array = np.asarray(ns)
    if array.ndim != 1 or array.size == 0:
        raise DomainError("ns must be a non-empty list of positive integers")
    # The entries as given: np.asarray turns [True, 2] into [1, 2].
    for n in array if isinstance(ns, np.ndarray) else ns:
        _integer(n, "n", upper=2**63 - 1)
    return array.astype(int)
