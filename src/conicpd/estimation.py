"""Pooled Monte Carlo estimation over deterministic stream fan-out.

Estimators hand this module a kernel ``kernel(gen, rows) -> (rows, m) array``
that samples and evaluates its own integrand; the harness splits the sample
budget across streams, walks each stream in fixed-size chunks, and pools
means and standard errors in stream order.  The merge is a pure function of
(seed, stream count, per-stream counts), which is what the byte-identical
rerun guarantee rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import processes
from .errors import DomainError, NumericalError
from .processes import RngStream, _integer

CHUNK_ROWS = 32768


@dataclass(frozen=True)
class EstimatorResult:
    """A Monte Carlo mean with its standard error and sample count."""

    estimate: float
    stderr: float
    n_samples: int

    def __post_init__(self):
        if not (math.isfinite(self.estimate) and math.isfinite(self.stderr)):
            raise DomainError("estimate and stderr must be finite")
        if self.stderr < 0.0 or self.n_samples < 1:
            raise DomainError("stderr must be >= 0 and the sample count must be positive")

    def z(self, exact: float) -> float:
        """The z-score (estimate - exact) / stderr against ``exact``; 0.0 when the stderr is 0.

        A zero stderr comes from one sample, or from a constant integrand,
        whose estimate is then its own exact value.
        """
        return (self.estimate - exact) / self.stderr if self.stderr > 0 else 0.0


def stream_counts(n_samples: int, streams: int) -> list[int]:
    """Deterministic split of the sample budget across streams: stream s draws entry s.

    Only the min(n_samples, streams) streams that draw are listed; the
    others would draw nothing.  Both counts must be positive integers (bool
    is refused, numpy integers are not), and the entries are Python ints.
    """
    n_samples = _integer(n_samples, "sample count")
    streams = _integer(streams, "stream count")
    base, extra = divmod(n_samples, streams)
    return [base + (1 if s < extra else 0) for s in range(min(n_samples, streams))]


def _stream_chunks(rng: RngStream, counts, chunk: int):
    """The stream walk of the byte-determinism contract, as (stream, gen, rows) per chunk.

    Stream s draws from ``rng.child(s)``'s generator, ``counts[s]`` rows in
    chunks of ``chunk`` and a last one of the rest; every chunk of a stream
    shares its generator.
    """
    for stream, count in enumerate(counts):
        gen = rng.child(stream).generator()
        for start in range(0, count, chunk):
            yield stream, gen, min(chunk, count - start)


def pooled_mean(n_samples: int, rng: RngStream, streams: int, kernel,
                columns: int = 1) -> list[EstimatorResult]:
    """Pooled mean/stderr per column of the kernel output, merged in stream order.

    Each stream is walked in chunks of ``CHUNK_ROWS``, the chunk size the
    CLI's meta line records.  Each chunk contributes (count, mean, sum of
    squared deviations), combined with the pairwise update of Chan, Golub &
    LeVeque (1979), which keeps the variance accurate when the spread is
    tiny against the mean.  A column reduces the same way whether it is a
    one-column kernel's or a column of an F-ordered (rows, columns) array; a
    C-ordered one sums row by row.  The counts, ``rng`` and ``columns`` are
    checked before anything is drawn, and so is the chunk matrix: a chunk's
    rows times ``columns`` must fit the sampler's cell budget.  Each chunk's
    values must be (rows, columns), or (rows,) for one column: a column
    count that is not ``columns`` is refused, not broadcast.  A mean or sum
    of squared deviations that overflows a float raises NumericalError.
    """
    counts = stream_counts(n_samples, streams)
    if not isinstance(rng, RngStream):
        raise DomainError("rng must be an RngStream")
    columns = _integer(columns, "columns")
    rows = min(CHUNK_ROWS, counts[0])
    if rows * columns > processes._CELL_BUDGET:
        raise DomainError(
            f"{rows} rows of {columns} columns exceed the {processes._CELL_BUDGET}-cell "
            "sampler budget; estimate fewer pairs or box edges at once, or lower the "
            "samples per stream")
    count = 0
    mean = np.zeros(columns)
    m2 = np.zeros(columns)
    for _stream, gen, rows in _stream_chunks(rng, counts, CHUNK_ROWS):
        vals = np.asarray(kernel(gen, rows), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (rows, columns):
            raise DomainError(f"the kernel returned a {vals.shape} array for {rows} rows "
                              f"of {columns} column(s)")
        with np.errstate(over="ignore", invalid="ignore"):
            chunk_mean = vals.mean(axis=0)
            dev = vals - chunk_mean
            chunk_m2 = (dev * dev).sum(axis=0)
            delta = chunk_mean - mean
            merged = count + rows
            mean = mean + delta * (rows / merged)
            m2 = m2 + chunk_m2
            if count:  # a first chunk's mean past 1e154 would make 0 * inf
                m2 += delta * delta * (count * rows / merged)
        count = merged
    if not (np.isfinite(mean).all() and np.isfinite(m2).all()):
        raise NumericalError("the sample mean or variance of the estimate overflows a float")
    err = np.sqrt(m2 / max(count - 1, 1) / count)  # one sample: its m2 is 0
    return [EstimatorResult(float(m), float(e), count) for m, e in zip(mean, err)]
