"""Samplers on the cone of summable discrete measures.

The chain is: stick draws (GEM) -> stick-breaking masses -> decreasing
rearrangement (the normalized law) -> scaling by an independent gamma total
(the unnormalized random measure).  The sigma-finite targets are realized by
importance weights e^{total mass} attached to the unnormalized draws; nothing
here ever tries to sample an infinite measure directly.

Truncation policy: stick-breaking stops at the first stick that takes the
residual stick product to ``eps`` or below; the discarded mass is recorded on
the draw as ``tail_bound`` so estimator bias can always be budgeted against
the Monte Carlo error.  Every draw goes through one pass, ``_stick_rows``.
The log-residuals of a GEM(theta) draw are the points of a rate-theta
Poisson process, so the pass first draws each row's count of points in
[0, log(1/eps)], 1 + that count being its sticks, and then the points
themselves, as normalised exponential spacings, and the cut point past
them: one matrix as wide as the longest row, with no extension.  A draw
whose mean count, or whose matrix once the counts are drawn, exceeds a
fixed cell budget is refused with ``DomainError`` before the matrix is
allocated, and so is an eps at which a kept mass could round to 0.

Series draws: ``_draw_rows`` builds ``rows`` draws at once, and
``sample_dirichlet_process`` and ``sample_gamma_process`` are its one-row
case.  The stick pass forms the masses and each row's cut; the locations
and, for unnormalized draws, the gamma totals follow, in that order.  Each
row's masses are sorted in place, read in decreasing order and scaled by
its total, and its locations stay in draw order: i.i.d. uniforms,
independent of the masses, keep their law whatever mass each one is paired
with.  A row skips ``WeightedAtomSeries``'s O(K) checks that its
construction implies: the sort orders finite masses, scaling by a positive
total keeps the order, and ``gen.random`` puts every location in [0, 1).
It keeps the O(1) end checks (the last kept mass positive, which NaN fails
too, and the first finite), the total, the tail and, for normalized draws,
the sum.  A kept mass of zero is a zero stick, refused as such; a kept
mass that scaling by the total takes to zero is a ``NumericalError``.

Threads: conicpd starts none.  Each stick pass draws its counts, its
(rows, cols) exponentials and its cut exponentials with one call each and
turns the matrix into masses in place, with one array of its own for the
running sums; so callers on several threads at once each get the bytes
they get alone.  The Monte Carlo estimators draw no sticks (see
``laplace._kernel``), so the series draws of ``sample`` are what run here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .stepfn import StepFunction


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Distinct keys give statistically independent streams, and a fixed key
    reproduces its draws bit-for-bit on any machine, which is what makes
    byte-identical reruns possible.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        # Philox is keyed by two 64-bit words.
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 0, 2**64 - 1))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id + offset)


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError("rng must be an RngStream or a numpy Generator")


@dataclass(frozen=True)
class WeightedAtomSeries:
    """Finitely many atoms (mass, location) of a discrete measure on [0, 1).

    ``masses`` is sorted in decreasing order.  ``total_mass`` includes the
    truncated tail, so total_mass == masses.sum() + tail_bound for freshly
    sampled series.  ``log_weight`` carries the importance weight (log scale)
    when the series stands for a draw re-weighted toward a sigma-finite law.
    """

    masses: np.ndarray
    locations: np.ndarray
    total_mass: float
    tail_bound: float
    log_weight: float = 0.0
    normalized: bool = False

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        x = np.asarray(self.locations, dtype=float)
        if m.ndim != 1 or x.ndim != 1 or m.size != x.size or m.size < 1:
            raise DomainError("masses and locations must be matching non-empty vectors")
        # Ndarray methods, not np.any/np.all wrappers: these checks are a
        # large share of a small series' cost.  Every comparison is False on
        # NaN, so NaN masses and locations fail too.
        _check_mass_range(m.min(), m.max())
        if (m[1:] > m[:-1]).any():
            raise DomainError("atom masses must be non-increasing")
        if not (x.min() >= 0.0 and x.max() < 1.0):
            raise DomainError("atom locations must lie in [0, 1)")
        _check_totals(m, self.total_mass, self.tail_bound, self.normalized)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "locations", x)


_MASS_RANGE = "atom masses must be finite and strictly positive"
_STICK_RANGE = "stick fractions must lie strictly inside (0, 1)"


def _check_mass_range(smallest, largest):
    """``WeightedAtomSeries``'s check of its smallest and largest mass."""
    if not (smallest > 0.0 and largest < math.inf):
        raise DomainError(_MASS_RANGE)


def _check_totals(masses, total, tail, normalized):
    """``WeightedAtomSeries``'s checks of total_mass, tail_bound and the normalized sum."""
    if not (math.isfinite(total) and total > 0.0):
        raise DomainError("total_mass must be a positive real")
    if not (math.isfinite(tail) and tail >= 0.0):
        raise DomainError("tail_bound must be a non-negative real")
    if normalized and not (1.0 - tail - 1e-9 <= masses.sum() <= 1.0 + 1e-9):
        raise DomainError("normalized series must carry unit total mass")


def _unchecked(cls, **fields):
    """Instance of a frozen dataclass built from fields already checked."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


# numpy's ``standard_exponential`` draws 0 or at least 7.08e-18 (its
# narrowest ziggurat layer times the least positive integer it scales) and
# at most 44.44 (the tail, 7.697 - log(2^-53)).
_EXP_LEAST = 7.08e-18
_EXP_MOST = 44.44

# Only a theta below this can take a cut step e / theta past the float range.
_TINY_THETA = _EXP_MOST / np.finfo(float).max

# Most cells (rows x columns) a draw's matrix may hold; 2^26 cells are 512 MB
# per float array.
_CELL_BUDGET = 1 << 26


def _buffer_width(theta, eps):
    """Columns ``_batch_rows`` sizes a row for: ceil(1 + m + 4 sqrt(m)) + 4, m = theta log(1/eps).

    A row needs 1 + Poisson(m) columns; fewer than 3 rows in 10^5 need more.
    """
    m = -theta * math.log(eps)
    return math.ceil(min(1.0 + m + 4.0 * math.sqrt(m), _CELL_BUDGET)) + 4


def _budgeted(theta, eps, rows, width):
    """``width``, refused when ``rows`` rows of it exceed ``_CELL_BUDGET`` cells.

    Fewer rows can help only when one row fits the budget, so only then does
    the message advise them.
    """
    if rows * width > _CELL_BUDGET:
        fix = ("lower theta or raise eps" if width > _CELL_BUDGET else
               "lower theta, raise eps, or use fewer --samples per stream to lower the rows")
        raise DomainError(
            f"theta*log(1/eps) = {-theta * math.log(eps):.4g} expected sticks per draw over "
            f"{rows} rows exceeds the {_CELL_BUDGET}-cell sampler budget; {fix}")
    return width


def _batch_rows(theta, eps, cells):
    """Rows of a batch of at most ``cells`` cells of ``_buffer_width`` at (theta, eps), at least one.

    Checks theta and eps, and refuses a draw whose single row outgrows the
    cell budget at that width, so a caller can refuse before it draws
    anything.
    """
    theta, eps = _check_theta_eps(theta, eps)
    return max(1, cells // _budgeted(theta, eps, 1, _buffer_width(theta, eps)))


def _stick_rows(theta, eps, rows, gen):
    """Masses of ``rows`` independent GEM(theta) draws, each cut where its residual reaches eps.

    Returns (masses, tails, cuts).  The log-residuals E_k = -log R_k of a
    draw, R_k its residual after k sticks, are the points of a rate-theta
    Poisson process.  So with L = log(1/eps) a row keeps N + 1 sticks, N ~
    Poisson(theta L) the points in [0, L].  Given N, those points are
    uniform order statistics on [0, L]: E_k = L S_k / S, S_k the running
    sum of k exponentials and S that of N + 1 (Devroye 1986, ch. V 2).  The
    process is memoryless, so the cut point is L + Exp(theta).  The draws
    come in that order: the counts N (``cuts``), one (rows, max N + 1)
    matrix of exponentials, of which a row keeps its first N + 1, and one
    cut exponential per row, which over theta joins the row's step N.

    ``masses`` holds c_k = exp(-E_{k-1}) (-expm1(-step_k)) for the steps
    E_k - E_{k-1}, each formed as L e_k / S, and zeros right of a row's
    cut; ``tails`` holds exp(-(L + the cut step)).  Each row's sums run
    from its left, so a row gets the bytes of a pass over that row alone.

    Memory: a mean theta L past ``_CELL_BUDGET`` is refused with
    ``DomainError`` before any draw, as is a matrix past it once the counts
    are drawn.  The pass holds the steps, which become the masses, and
    their running sums at once.  ``theta`` and ``eps`` must be checked
    floats.
    """
    log_eps = math.log(eps)
    # A mean past the budget is refused before it reaches numpy's Poisson.
    counts = gen.poisson(_budgeted(theta, eps, 1, -theta * log_eps), rows)
    width = _budgeted(theta, eps, rows, int(counts.max()) + 1)
    steps = gen.standard_exponential((rows, width))
    np.copyto(steps, 0.0, where=np.arange(width) > counts[:, None])
    # Column k of run holds the running sum left of it, the one step k
    # meets; a row's total adds its last exponential to its last column.
    run = np.zeros_like(steps)
    steps[:, :-1].cumsum(axis=1, out=run[:, 1:])
    # Scaled to sum to L, and held negated, -step_k and -E_{k-1}, so that
    # the exponentials take them as they are.
    scale = log_eps / (run[:, -1:] + steps[:, -1:])
    steps *= scale
    run *= scale
    cut = gen.standard_exponential(rows)
    if theta > _TINY_THETA:
        cut /= -theta
    else:  # a cut step of inf is the exact limit: a stick of 1, and no tail
        with np.errstate(over="ignore"):
            cut /= -theta
    steps[np.arange(rows), counts] += cut
    tails = np.exp(log_eps + cut)
    np.exp(run, out=run)
    np.expm1(steps, out=steps)
    np.negative(steps, out=steps)
    steps *= run
    return steps, tails, counts


def _positive_real(value, name, upper=math.inf) -> float:
    """``value`` as a float in (0, upper); bool is refused, numpy scalars are not."""
    message = (f"{name} must lie in (0, {upper:g})" if upper < math.inf
               else f"{name} must be a positive real")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(message)
    try:
        x = float(value)
    except OverflowError:  # an int too large for a float
        raise DomainError(message) from None
    if not 0.0 < x < upper:  # False on NaN
        raise DomainError(message)
    return x


def _finite_exp(exponent, quantity):
    """The closed form e^exponent: math.exp of a float, np.exp of an array.

    A value that is not a finite float raises NumericalError naming
    ``quantity``, in place of an OverflowError or an inf.
    """
    if isinstance(exponent, np.ndarray):
        with np.errstate(over="ignore"):
            value = np.exp(exponent)
        finite = np.isfinite(value).all()
    else:
        try:
            value = math.exp(exponent)
        except OverflowError:
            value = math.inf
        finite = math.isfinite(value)
    if not finite:
        raise NumericalError(f"{quantity} = exp({np.max(exponent):.6g}) is not a finite float")
    return value


def _integer(value, name, lower=1, upper=None) -> int:
    """``value`` as a Python int in [lower, upper]; bool is refused, numpy integers are not."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)
        if lower <= value and (upper is None or value <= upper):
            return value
    kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
        lower, f"an integer >= {lower}")
    if upper is None:
        limit = ""
    elif upper >= 1 << 32 and upper & (upper + 1) == 0:  # 2**k - 1
        limit = f" below 2**{upper.bit_length()}"
    else:
        limit = f" <= {upper}"
    raise DomainError(f"{name} must be {kind}{limit}")


def _check_theta_eps(theta, eps):
    """theta and eps as floats; eps is refused where a kept mass could round to 0.

    A kept mass is exp(-E_{k-1}) (1 - exp(-step_k)), E_{k-1} <= L =
    log(1/eps) up to rounding (see ``_stick_rows``).  A positive step is at
    least L e_min / (e_max W), for e_min and e_max the least positive and
    the largest exponential numpy draws (``_EXP_LEAST``, ``_EXP_MOST``) and
    a row of W <= ``_CELL_BUDGET`` columns, or, at the cut, e_min / theta >=
    e_min L / ``_CELL_BUDGET``.  So no kept mass is below eps L e_min /
    (e_max ``_CELL_BUDGET``), and an eps at which half of that, for the
    rounding of the mass's two factors, rounds to 0 is refused: every eps
    below about 4.5e-300 at the default budget.  A kept mass of 0 is then
    a zero step, which only a zero exponential gives.
    """
    theta = _positive_real(theta, "theta")
    eps = _positive_real(eps, "truncation eps", 1.0)
    least = eps * -math.log(eps) * _EXP_LEAST / (_EXP_MOST * _CELL_BUDGET)
    if not least * 0.5 > 0.0:
        raise DomainError(f"truncation eps {eps!r} lets a kept atom mass underflow to 0; "
                          f"raise eps")
    return theta, eps


def sample_dirichlet_process(theta: float, eps: float, rng) -> WeightedAtomSeries:
    """Normalized draw: sorted stick-breaking masses with i.i.d. uniform locations."""
    return _one_draw(theta, eps, rng, normalized=True)


def sample_gamma_process(theta: float, eps: float, rng) -> WeightedAtomSeries:
    """Unnormalized draw: a normalized series scaled by an independent gamma total."""
    return _one_draw(theta, eps, rng, normalized=False)


def _one_draw(theta, eps, rng, *, normalized):
    """The one-row case of ``_draw_rows``, as a ``WeightedAtomSeries``."""
    gen = as_generator(rng)
    masses, locations, total, tail = next(_draw_rows(theta, eps, 1, gen, normalized=normalized))
    return _unchecked(WeightedAtomSeries, masses=masses, locations=locations, total_mass=total,
                      tail_bound=tail, log_weight=0.0, normalized=normalized)


def _draw_rows(theta, eps, rows, gen, *, normalized):
    """Yield ``rows`` draws as (masses, locations, total, tail), each checked as it is reached.

    The batch draws the stick pass, then the (rows, K) location uniforms,
    then, unless ``normalized``, the gamma totals, which scale each row's
    masses and tail (a normalized draw has total 1.0 and draws no totals).
    Each row's masses are sorted in place and read in decreasing order, and
    its locations are its uniforms in draw order: they are i.i.d. and
    independent of the masses, so pairing them by rank keeps the law.  Both
    are cut to the row's own atoms, as views of the batch's matrices.  Only
    the checks the construction does not imply run (see the module
    docstring), through the constructor's own helpers, so a refusal stops
    the draws at the row that fails it.
    """
    theta, eps = _check_theta_eps(theta, eps)
    masses, tails, cuts = _stick_rows(theta, eps, rows, gen)
    # Read decreasing, each row's zeros right of its cut follow its atoms.
    masses.sort(axis=1)
    masses = masses[:, ::-1]
    locations = gen.random(masses.shape)
    smallest = masses[np.arange(rows), cuts].tolist()
    if normalized:
        totals = [1.0] * rows
    else:
        totals = _gamma_totals(theta, rows, gen)
        masses *= totals[:, None]
        tails = tails * totals
        totals = totals.tolist()
    for row, (cut, low, total, tail) in enumerate(zip(cuts.tolist(), smallest, totals,
                                                      tails.tolist())):
        if not low > 0.0:
            # ``_check_theta_eps`` keeps every positive step's mass above 0,
            # so a kept mass of 0 is a zero step: a zero stick.
            raise DomainError(_MASS_RANGE if np.isnan(masses[row]).any() else _STICK_RANGE)
        kept = masses[row, :cut + 1]
        if not kept[-1] > 0.0:  # a positive mass times a positive total
            raise NumericalError(f"atom masses underflow to 0 when scaled by the draw's "
                                 f"total mass {total!r}")
        _check_mass_range(kept[-1], kept[0])
        _check_totals(kept, total, tail, normalized)
        yield kept, locations[row, :cut + 1], total, tail


def apply_multiplicator(a: StepFunction, series: WeightedAtomSeries) -> WeightedAtomSeries:
    """Multiply each atom mass by a(location) and re-sort jointly by new mass.

    The importance weight is left untouched: the weight belongs to the draw
    being transported, not to the transported image.
    """
    if not isinstance(a, StepFunction):
        raise DomainError("multiplicator must be a StepFunction")
    scaled = series.masses * a(series.locations)
    order = np.argsort(-scaled, kind="stable")
    tail = series.tail_bound * a.max_value
    return WeightedAtomSeries(
        masses=scaled[order],
        locations=series.locations[order],
        total_mass=float(scaled.sum() + tail),
        tail_bound=float(tail),
        log_weight=series.log_weight,
        normalized=False,
    )


def partition_sums(series: WeightedAtomSeries, spec) -> np.ndarray:
    """The part sums xi(A_1), ..., xi(A_n): each atom's mass goes to the part its location marks.

    Part i is the i-th piece of [0, 1) between ``spec.breakpoints``, of
    width theta_i / theta, the rule of ``partition-sums`` and the box
    kernel.  Uniform locations make that the law of independent marks, each
    atom in part i with probability theta_i / theta, so the sums of a gamma
    draw of weight theta are independent Gamma(theta_i).  The tail mass
    beyond the truncation point is unassigned, so each sum is biased low by
    at most tail_bound.
    """
    return np.bincount(spec.marks(series.locations), weights=series.masses, minlength=spec.n)


def series_from_record(record: dict) -> WeightedAtomSeries:
    return WeightedAtomSeries(
        masses=np.asarray(record["masses"], dtype=float),
        locations=np.asarray(record["locations"], dtype=float),
        total_mass=float(record["total_mass"]),
        tail_bound=float(record["tail_bound"]),
        log_weight=float(record.get("log_weight", 0.0)),
        normalized=bool(record.get("normalized", False)),
    )


def _gamma_totals(theta, rows, gen):
    """Gamma(theta) totals of ``rows`` draws, drawn after their locations; a zero becomes tiny."""
    totals = gen.standard_gamma(theta, rows)
    return np.where(totals == 0.0, np.finfo(float).tiny, totals)
