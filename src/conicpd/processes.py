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
sticks: the first block holds about that mean plus a margin that is wide
for few rows and narrow for many, and the rows still open are extended in
short rounds.  The masses live in one buffer, sized at the Poisson count's
far quantile and refused, with ``DomainError``, beyond a fixed cell budget;
every block is written at the buffer's stride, and the buffer is grown by
realloc, under the same budget, only in the rare round past it.  The first
block and each extension round are one stick step, ``_stick_pass``; an
extension starts from the run its rows reached before it.

Series draws: ``_draw_rows`` builds ``rows`` draws at once, and
``sample_dirichlet_process`` and ``sample_gamma_process`` are its one-row
case.  The stick pass forms the masses and each row's cut; the locations
and, for unnormalized draws, the gamma totals follow in ``gamma_batch``'s
order, so the rows are ``gamma_batch``'s, each sorted by decreasing mass
with one stable argsort and scaled by its total.  A row skips
``WeightedAtomSeries``'s O(K) checks that its construction implies: the
sort orders finite masses, scaling by a positive total keeps the order,
and ``gen.random`` puts every location in [0, 1).  It keeps the O(1) end
checks (the last kept mass positive, which NaN fails too, and the first
finite), the total, the tail and, for normalized draws, the sum.  A kept
mass of zero is a zero stick, refused as such.

Threads: conicpd starts none.  Each stick step (``_stick_pass``) is a
pass over contiguous row blocks of at most 2^16 cells, through
``_by_rows``, which runs them in turn on the caller's thread.  It draws
each block's uniforms into per-thread scratch and, while the block is in
cache, turns them into sticks, running sums, cuts, tails and masses, and
copies the masses to the buffer.  The scratch is per thread, so callers
on several threads at once each get the bytes they get alone, and the
bytes do not depend on the block count.  The Monte Carlo estimators draw
no sticks (see ``laplace._kernel``), so the series draws of ``sample``
and the batch kernels ``stick_masses_batch`` and ``gamma_batch`` are what
run here.
"""

from __future__ import annotations

import math
import numbers
import threading
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


# Largest stick buffer, in cells (rows x columns), that a draw may hold: 2^26
# cells are 512 MB per float array.  At 32768-row batches and eps = 1e-10
# the buffer fits up to theta = 80, and a round past it up to theta = 77.
_CELL_BUDGET = 1 << 26


# Most cells a row block holds: 512 KB per float64 array, so a block's
# uniforms and its work's scratch stay in a core's cache.
_BLOCK_CELLS = 1 << 16
# Per thread: ``arena``, the thread's scratch arrays (see ``_scratch``).
_local = threading.local()


def _scratch(name, shape, dtype=float):
    """This thread's scratch array ``name``, viewed as ``shape``.

    The buffer is kept for the thread's later passes and grows only when a
    block needs more cells than any before it.  A row block holds at most
    ``_BLOCK_CELLS`` cells unless a single row is longer; such a block gets
    a fresh array that is not kept, so a thread keeps at most
    ``_BLOCK_CELLS`` cells per name.  Names in use: ``"block"`` (a block's
    uniforms), ``"run"`` (the stick pass's running sums) and ``"closed"``
    (the stick pass's cut test).  Each thread has its own, so library
    callers on several threads at once never share scratch.
    """
    cells = shape[0] * shape[1]
    if cells > _BLOCK_CELLS:
        return np.empty(shape, dtype)
    try:
        buf = _local.arena[name]
        if buf.size >= cells:
            return buf[:cells].reshape(shape)
    except AttributeError:
        _local.arena = {}
    except KeyError:
        pass
    buf = _local.arena[name] = np.empty(cells, dtype)
    return buf.reshape(shape)


def _by_rows(rows, cols, work, gen):
    """Run ``work(lo, hi, u)`` on contiguous row blocks of a (rows, cols) pass, in turn.

    A block holds at most ``_BLOCK_CELLS`` cells (and at least one row), so
    what its work reads and writes stays in a core's cache.  ``u`` is the
    block's rows of a (rows, cols) matrix of uniforms drawn from ``gen`` in
    row-major order, C-contiguous and free for ``work`` to overwrite.
    numpy's own Generator draws each block's uniforms, in turn, into the
    thread's scratch block (``_scratch("block", ...)``, which ``work`` must
    then not take itself), so the pass never holds the matrix.  Any other
    generator draws the whole matrix at once with ``gen.random(count)``
    before any block runs.  Either way ``gen`` ends where one draw of the
    matrix leaves it, and the results are the same bytes for any block
    count.
    """
    blocks = -(-rows // max(1, _BLOCK_CELLS // cols))
    in_turn = type(gen) is np.random.Generator
    whole = None if in_turn else gen.random(rows * cols).reshape(rows, cols)
    for b in range(blocks):
        lo, hi = rows * b // blocks, rows * (b + 1) // blocks
        if in_turn:
            part = _scratch("block", (hi - lo, cols))
            gen.random(out=part)
        else:
            part = whole[lo:hi]
        work(lo, hi, part)


def _buffer_width(theta, eps):
    """Columns of the stick buffer a draw at (theta, eps) holds (see ``_stick_rows``)."""
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


# Margin of a draw's first stick block, in standard deviations of its stick
# count: wide for few rows, whose extension round would cost more than the
# cells it saves, and narrow for many, which extend a few rows anyway.  The
# switch goes by rows * sqrt(m), the cells one unit of margin costs.
_WIDE_MARGIN, _NARROW_MARGIN = 4.0, 0.75
_WIDE_CELLS, _NARROW_CELLS = 1 << 8, 1 << 12


def _first_width(theta, eps, rows):
    """Columns of the first stick block of a ``rows``-row draw at (theta, eps) (see ``_stick_rows``).

    At most ``_buffer_width(theta, eps)``, since the margin is at most 4.
    """
    m = -theta * math.log(eps)
    scale = rows * math.sqrt(m)
    if scale <= _WIDE_CELLS:
        margin = _WIDE_MARGIN
    elif scale >= _NARROW_CELLS:
        margin = _NARROW_MARGIN
    else:
        share = math.log(scale / _WIDE_CELLS) / math.log(_NARROW_CELLS / _WIDE_CELLS)
        margin = _WIDE_MARGIN + share * (_NARROW_MARGIN - _WIDE_MARGIN)
    return math.ceil(1.0 + m + margin * math.sqrt(m))


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
    1 + Poisson(m) sticks with m = theta * log(1/eps).  The first block has
    ceil(1 + m + a sqrt(m)) columns (``_first_width``): a = 4 while rows *
    sqrt(m) is at most 2^8, so one-row draws and small batches seldom
    extend; a = 0.75 from 2^12 on, where some rows extend anyway and a
    narrow block saves more cells than the rounds cost; log-linear between.
    The rows still open are extended in rounds of max(4, ceil(2 sqrt(m)))
    columns (``_round_width``), each one ``_stick_pass`` over those rows
    only, so the work stays linear in the sticks drawn.

    Memory: the masses live in one buffer of rows x ``_buffer_width``
    cells, ceil(1 + m + 4 sqrt(m)) + 4 columns, which fewer than 3 rows in
    10^5 outrun; a draw whose buffer exceeds ``_CELL_BUDGET`` cells is
    refused with ``DomainError`` before anything is allocated.  The first
    block is written at the buffer's stride, and if a row stays open the
    columns right of it are zeroed once; each round then writes its rows'
    columns in place.  A round that starts at the buffer's end grows it by
    one round with ``ndarray.resize`` (a realloc, refused like the buffer
    beyond the budget) and moves the rows to the new stride (``_restride``),
    so an extending draw holds one matrix, never two; only while something
    else refers to the buffer (a tracer reading locals, say) is it grown by
    a copy.  ``theta`` and ``eps`` must be checked floats.
    """
    log_eps = math.log(eps)
    stride = _budgeted(theta, eps, rows, _buffer_width(theta, eps))
    width = _first_width(theta, eps, rows)
    buffer = np.empty(rows * stride)
    tails, cut, last = _stick_pass(theta, log_eps, buffer.reshape(rows, stride)[:, :width], gen)
    grow = (last > log_eps).nonzero()[0]
    if grow.size:
        buffer.reshape(rows, stride)[:, width:] = 0.0  # the padding right of the closed rows
    add, start = _round_width(theta, eps), width
    while grow.size:
        # A row still open here has no cut yet; it is found in the round
        # that closes the row.  A round ends at the buffer's last column,
        # and only a round that starts there grows the buffer.
        if start == stride:
            _budgeted(theta, eps, rows, stride + add)
            try:
                buffer.resize(rows * (stride + add))  # a realloc: no second matrix
            except ValueError:  # something else refers to it (a tracer, say): copy
                buffer = np.concatenate((buffer, np.empty(rows * (stride + add) - buffer.size)))
            _restride(buffer, rows, stride, stride + add)
            stride += add
        end = min(start + add, stride)
        ext = np.empty((grow.size, end - start))
        ext_tails, ext_cut, ext_last = _stick_pass(theta, log_eps, ext, gen, before=last[grow])
        buffer.reshape(rows, stride)[grow, start:end] = ext
        closing = ext_last <= log_eps
        cut[grow[closing]] = start + ext_cut[closing]
        tails[grow[closing]] = ext_tails[closing]
        last[grow] = ext_last
        grow, start = grow[~closing], end
    return buffer.reshape(rows, stride)[:, :int(cut.max()) + 1], tails, cut


def _restride(buffer, rows, old, new):
    """Move the (rows, old) matrix at the front of ``buffer`` to stride ``new`` >= old, in place.

    Used only when a round grows the stick buffer past its end.  The rows
    move in descending blocks, each to cells at or after its own, so no row
    is overwritten before it has moved.  The new columns are zeroed: the
    padding right of the rows that are closed.
    """
    step = max(1, _BLOCK_CELLS // new)
    for hi in range(rows, 0, -step):
        lo = max(0, hi - step)
        moved = buffer[lo * new:hi * new].reshape(hi - lo, new)
        moved[:, :old] = buffer[lo * old:hi * old].reshape(hi - lo, old)
        moved[:, old:] = 0.0


def _stick_pass(theta, log_eps, out, gen, before=None):
    """One stick step: ``out``'s columns of sticks for each of its rows, formed as masses in place.

    Returns (tails, cuts, ends) of the step's columns: exp(run) at the cut;
    the cut's column in the step (0 for a row that stays open); and run at
    the step's last column.  ``out``, which may be a view with a wider row
    stride, receives the masses, zero right of a row's cut.  ``before``
    holds each row's run just left of the step (a draw's first block has
    none); it is added to the step's running sums after their cumsum, and
    scales the step's first mass.

    One pass of row blocks forms all of this while a block is in cache: the
    masses in the block's uniforms, the running sums and the cut test in
    per-thread scratch; then the block is copied to ``out``.  Cells right
    of the cut are the ones whose left neighbour has run <= log(eps): the
    comparison that finds the cut, shifted one column.
    """
    rows, cols = out.shape
    cuts, tails, ends = np.empty(rows, np.intp), np.empty(rows), np.empty(rows)

    def step(lo, hi, u):
        # ndarray methods, not their np.* wrappers: a one-row draw's cost is
        # mostly per-call overhead.
        run = _stick_block(u, theta, _scratch("run", u.shape))
        run.cumsum(axis=1, out=run)
        left = None if before is None else before[lo:hi]
        if left is not None:
            run += left[:, None]
        closed = np.less_equal(run, log_eps, out=_scratch("closed", u.shape, bool))
        cut = closed.argmax(axis=1, out=cuts[lo:hi])
        ends[lo:hi] = run[:, -1]
        np.exp(run[np.arange(hi - lo), cut], out=tails[lo:hi])
        _form_masses(u, run, closed, left)
        out[lo:hi] = u

    _by_rows(rows, cols, step, gen)
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

    The rows are ``gamma_batch(theta, eps, rows, gen)``'s: the stick pass,
    then the (rows, K) location uniforms, then, unless ``normalized``, the
    gamma totals, which scale each row's masses and tail (a normalized draw
    has total 1.0 and draws no totals).  Each row's masses and locations
    are sorted by decreasing mass and cut to the row's own atoms; they are
    views of the batch's matrices.  Only the checks the construction does
    not imply run (see the module docstring), through the constructor's own
    helpers, so a refusal stops the draws at the row that fails it.
    """
    theta, eps = _check_theta_eps(theta, eps)
    masses, tails, cuts = _stick_rows(theta, eps, rows, gen)
    # One stable argsort orders each row by decreasing mass: the zeros right
    # of its cut follow its atoms, and NaN sorts last.  (Not negated in place:
    # numpy 2.4 negates a one-column view of an 8-column matrix wrongly.)
    order = np.argsort(-masses, axis=1, kind="stable")
    index = np.arange(rows)
    masses = masses[index[:, None], order]
    locations = gen.random(masses.shape)[index[:, None], order]
    smallest = masses[index, cuts].tolist()
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
            # A kept mass of 0 is a zero stick (u = 0 at theta != 1): every
            # kept cell's stick product exceeds eps, so it does not underflow
            # unless eps is below about 1e-290.
            if not np.isnan(masses[row]).any():
                raise DomainError(_STICK_RANGE)
            raise DomainError(_MASS_RANGE)
        kept = masses[row, :cut + 1]
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


# ---------------------------------------------------------------------------
# Stick batches as whole matrices: no estimator reads them since the
# estimators draw their piece masses exactly; the tests keep them as the
# stick path's reference.


def stick_masses_batch(theta: float, eps: float, rows: int, gen) -> tuple[np.ndarray, np.ndarray]:
    """Normalized stick-breaking masses for ``rows`` draws at once.

    Returns (masses, tails): a (rows, K) matrix zero-padded after each row's
    truncation column, with K the longest row's stick count, and the per-row
    residual mass at the cut.  Zero padding keeps downstream reductions
    branch-free.
    """
    theta, eps = _check_theta_eps(theta, eps)
    return _stick_rows(theta, eps, _integer(rows, "rows"), gen)[:2]


def gamma_batch(theta: float, eps: float, rows: int, gen):
    """Batch of unnormalized draws as (normalized masses, locations, totals, tails).

    The draws are the stick pass, the (rows, K) location uniforms and the
    gamma totals, in that order, as ``sample``'s series draws take them.
    No estimator reads it: the tests keep it as the reference of the stick
    path, such as the oracle that the estimators' exact piece masses are
    checked against.
    """
    masses, tails = stick_masses_batch(theta, eps, rows, gen)
    return masses, gen.random(masses.shape), _gamma_totals(theta, rows, gen), tails


def _gamma_totals(theta, rows, gen):
    """Gamma(theta) totals of ``rows`` draws, drawn after their locations; a zero becomes tiny."""
    totals = gen.standard_gamma(theta, rows)
    return np.where(totals == 0.0, np.finfo(float).tiny, totals)
