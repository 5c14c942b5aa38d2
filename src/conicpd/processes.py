"""Samplers on the cone of summable discrete measures.

The chain is: stick draws (GEM) -> stick-breaking masses -> decreasing
rearrangement (the normalized law) -> scaling by an independent gamma total
(the unnormalized random measure).  The sigma-finite targets are realized by
importance weights e^{total mass} attached to the unnormalized draws; nothing
here ever tries to sample an infinite measure directly.

Truncation policy: stick-breaking stops at the first stick that takes the
residual stick product to ``eps`` or below; the discarded mass is recorded on
the draw as ``tail_bound`` so estimator bias can always be budgeted against
the Monte Carlo error.  Every draw goes through one recursion,
``_stick_rows``.  The steps of a row's running sum of log(1 - y) form a
rate-theta Poisson process, so a draw needs 1 + Poisson(theta log(1/eps))
sticks: the first block is that mean plus four standard deviations and
four columns wide, which fewer than 3 rows in 10^5 outrun, and the rows
still open are extended in short rounds.  A draw is budgeted for its rows
at that width and refused, with ``DomainError``, beyond a fixed cell
budget, as is the rare round that would take it over the budget.  The
first block and each extension round are one stick pass, ``_stick_pass``,
over a matrix of their own; an extension starts from the run its rows
reached before it.  Only when some row extended are the passes copied once
into one zero-padded matrix.

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
the sum.  A kept mass of zero is a zero stick, refused as such, unless eps
is so small that the least mass a kept stick can carry underflows; that,
and a kept mass that scaling by the total takes to zero, are a
``NumericalError``.

Threads: conicpd starts none.  Each stick pass draws its (rows, cols)
uniforms with one ``gen.random(rows * cols)`` call and turns the whole
matrix into sticks, running sums, cuts, tails and masses in place, with
arrays of its own for the running sums and the cut test; so callers on
several threads at once each get the bytes they get alone.  The Monte
Carlo estimators draw no sticks (see ``laplace._kernel``), so the series
draws of ``sample`` are what run here.
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


# log(1 - u) >= log(2^-53) > -37 for a uniform u < 1, so only a theta below
# this can take a step log(1 - u) / theta past the float range.
_TINY_THETA = 37.0 / np.finfo(float).max


def _stick_block(u, theta, steps):
    # Inverse CDF of Beta(1, theta): a stick y has log(1 - y) = log(1 - u) /
    # theta, which goes to ``steps`` as the step of its row's running sum,
    # and y is -expm1 of it, so that large theta (sticks near zero) keeps
    # full precision; at theta = 1 the step is log(u) and y = 1 - u.  The
    # sticks overwrite the uniforms.
    if theta != 1.0:
        np.subtract(1.0, u, out=steps)
        np.log(steps, out=steps)
        if theta > _TINY_THETA:
            np.divide(steps, theta, out=steps)
        else:  # a step of -inf is the exact limit: a stick of 1, and no tail
            with np.errstate(over="ignore"):
                np.divide(steps, theta, out=steps)
        np.expm1(steps, out=u)
        np.negative(u, out=u)
    else:
        np.log(u, out=steps)
        np.subtract(1.0, u, out=u)
    return steps


# Most cells (rows x columns) a draw is budgeted for: its rows at
# ``_buffer_width`` columns, and again at the width each extension round
# takes them to.  2^26 cells are 512 MB per float array.
_CELL_BUDGET = 1 << 26


def _buffer_width(theta, eps):
    """Columns of a draw's first stick block at (theta, eps), the width it is budgeted for."""
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


def _round_width(theta, eps):
    """Columns each extension round adds to the rows still open: 2 sqrt(m), at least 4."""
    return max(4, math.ceil(2.0 * math.sqrt(-theta * math.log(eps))))


def _batch_rows(theta, eps, cells):
    """Rows of a batch of at most ``cells`` buffer cells at (theta, eps), at least one.

    Checks theta and eps, and refuses, as ``_stick_rows`` would, a draw
    whose single row outgrows the cell budget, so a caller can refuse
    before it draws anything.
    """
    theta, eps = _check_theta_eps(theta, eps)
    return max(1, cells // _budgeted(theta, eps, 1, _buffer_width(theta, eps)))


def _stick_rows(theta, eps, rows, gen):
    """Masses of ``rows`` independent draws, each cut where its residual reaches eps.

    Returns (masses, tails, cuts).  ``masses`` is (rows, K) with K =
    max(cuts) + 1, where a row's cut is its first column with run <=
    log(eps), run being the row's running sum of log(1 - y) over its sticks
    y.  It holds c_0 = y_0, c_j = y_j * exp(run_{j-1}), zero right of a
    row's cut, and ``tails`` is exp(run) at each row's cut.

    Sizing: -log(1 - y) ~ Exp(theta) for a Beta(1, theta) stick, so the
    steps of run form a rate-theta Poisson process, and a draw needs
    1 + Poisson(m) sticks with m = theta * log(1/eps).  The first block is
    the budgeted width, ``_buffer_width``: ceil(1 + m + 4 sqrt(m)) + 4
    columns, which fewer than 3 rows in 10^5 outrun.  The rows still open
    are extended in rounds of max(4, ceil(2 sqrt(m))) columns
    (``_round_width``), each one ``_stick_pass`` over those rows only, so
    the work stays linear in the sticks drawn.

    Memory: a draw whose rows x ``_buffer_width`` cells exceed
    ``_CELL_BUDGET`` is refused with ``DomainError`` before anything is
    allocated, and so is a round that would take the rows' width past it.
    The first block and each round are matrices of their own.  Only when
    some row extended are they copied once into a zeroed (rows, K) matrix;
    otherwise the first block, trimmed to K columns, is returned.
    ``theta`` and ``eps`` must be checked floats.
    """
    log_eps = math.log(eps)
    width = _budgeted(theta, eps, rows, _buffer_width(theta, eps))
    first = gen.random(rows * width).reshape(rows, width)
    tails, cut, last = _stick_pass(theta, log_eps, first)
    grow = (last > log_eps).nonzero()[0]
    rounds, add, start = [], _round_width(theta, eps), width
    while grow.size:
        # A row still open here has no cut yet; it is found in the round
        # that closes the row.
        _budgeted(theta, eps, rows, start + add)
        ext = gen.random(grow.size * add).reshape(grow.size, add)
        ext_tails, ext_cut, ext_last = _stick_pass(theta, log_eps, ext, before=last[grow])
        rounds.append((grow, start, ext))
        closing = ext_last <= log_eps
        cut[grow[closing]] = start + ext_cut[closing]
        tails[grow[closing]] = ext_tails[closing]
        last[grow] = ext_last
        grow, start = grow[~closing], start + add
    cols = int(cut.max()) + 1
    if not rounds:
        return first[:, :cols], tails, cut
    masses = np.zeros((rows, cols))
    masses[:, :width] = first
    for grow, start, ext in rounds:
        masses[grow, start:start + add] = ext[:, :cols - start]
    return masses, tails, cut


def _stick_pass(theta, log_eps, u, before=None):
    """One stick pass: the sticks of uniforms ``u``, formed as masses in place.

    Returns (tails, cuts, ends) of the pass's columns: exp(run) at the cut;
    the cut's column in the pass (0 for a row that stays open); and run at
    the pass's last column.  ``u`` is a C-contiguous (rows, cols) matrix of
    uniforms, one row per draw, and receives the masses, zero right of a
    row's cut.  ``before`` holds each row's run just left of the pass (a
    draw's first block has none); it is added to the pass's running sums
    after their cumsum, and scales the pass's first mass.  Cells right of
    the cut are the ones whose left neighbour has run <= log(eps): the
    comparison that finds the cut, shifted one column.

    Memory: besides ``u``, the pass holds its running sums, a matrix of the
    same shape, and its cut test, an eighth of one, at once.
    """
    # ndarray methods, not their np.* wrappers: a one-row draw's cost is
    # mostly per-call overhead.
    run = _stick_block(u, theta, np.empty_like(u))
    run.cumsum(axis=1, out=run)
    if before is not None:
        run += before[:, None]
    closed = run <= log_eps
    cuts = closed.argmax(axis=1)
    ends = run[:, -1].copy()
    tails = np.exp(run[np.arange(u.shape[0]), cuts])
    _form_masses(u, run, closed, before)
    return tails, cuts, ends


def _form_masses(y, run, closed, run_before=None):
    """Turn a block of sticks y into masses in place: y_j * exp(run_{j-1}), zero right of the cut.

    ``run`` holds the block's running sums of log(1 - y) and ``closed`` the
    test run <= log(eps); all three are C-contiguous and of one shape, and
    ``run`` is overwritten.  Column 0 is multiplied by exp(run_before), the
    running sum just left of the block, or kept as it is without it: a
    draw's first mass is its first stick.  No row is closed left of a block.
    """
    first = y[:, 0].copy() if run_before is None else y[:, 0] * np.exp(run_before)
    # One pass over the flat block shifted by a cell, so each cell meets its
    # left neighbour's exp(run) and cut test; column 0 meets the previous
    # row's last, and is put back after.
    flat, before = y.reshape(-1)[1:], run.reshape(-1)[:-1]
    np.multiply(flat, np.exp(before, out=before), out=flat)
    flat[closed.reshape(-1)[:-1]] = 0.0
    y[:, 0] = first


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
    return _positive_real(theta, "theta"), _positive_real(eps, "truncation eps", 1.0)


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
            if np.isnan(masses[row]).any():
                raise DomainError(_MASS_RANGE)
            # Every kept stick's residual exceeds eps, and a stick is at
            # least 2^-53 / theta unless its uniform is 0, so a kept mass
            # of 0 is a zero stick unless that bound itself underflows.
            if eps * 2.0**-53 / theta > 0.0:
                raise DomainError(_STICK_RANGE)
            raise NumericalError(f"atom masses underflow to 0 at truncation eps {eps!r}; "
                                 f"raise eps")
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
