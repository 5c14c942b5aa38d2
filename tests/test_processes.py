"""Stick-breaking samplers, deterministic RNG streams, transported series,
and the pooled Monte Carlo harness, with distributional checks via KS."""

import collections
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc, gammainc
from scipy.stats import ks_2samp, kstest, pearsonr

from conicpd import (
    PartitionSpec,
    RngStream,
    WeightedAtomSeries,
    apply_multiplicator,
    partition_sums,
    sample_dirichlet_process,
    sample_gamma_process,
    series_from_record,
)
from conicpd import processes
from conicpd.errors import DomainError
from conicpd.estimation import EstimatorResult, pooled_mean, stream_counts
from conicpd.laplace import log_mean, mc_laplace, quasi_invariance_pairs
from conicpd.processes import gamma_batch, stick_masses_batch
from conicpd.stepfn import StepFunction

EPS = 1e-10


# ---------------------------------------------------------------------------
# RNG streams


def test_rng_stream_reproducible_and_forkable():
    a = RngStream(42, 3).generator().random(8)
    b = RngStream(42, 3).generator().random(8)
    assert np.array_equal(a, b)
    other = RngStream(42, 4).generator().random(8)
    assert not np.array_equal(a, other)
    child = RngStream(42, 3).child(1)
    assert child.stream_id == 4
    assert np.array_equal(child.generator().random(8), other)


def test_rng_stream_validation():
    with pytest.raises(DomainError):
        RngStream(-1)
    with pytest.raises(DomainError):
        RngStream(0, -2)


@pytest.mark.parametrize("key", [(True,), (1, True), (np.bool_(True),), (2.0,), ("3",),
                                 (2**64,), (0, 2**64), (None,)])
def test_rng_stream_refuses_bool_and_non_integer_keys(key):
    # True was taken as seed 1 until 0.10.0.
    with pytest.raises(DomainError, match="seed|stream_id"):
        RngStream(*key)


@pytest.mark.parametrize("key, want", [
    ((np.int64(5),), (5, 0)),
    ((np.uint64(3),), (3, 0)),
    ((np.int32(7), np.uint64(2**64 - 1)), (7, 2**64 - 1)),
])
def test_rng_stream_takes_numpy_integer_keys_as_python_ints(key, want):
    # numpy integers were refused until 0.10.0.
    stream = RngStream(*key)
    assert stream == RngStream(*want)
    assert type(stream.seed) is int and type(stream.stream_id) is int
    assert np.array_equal(stream.generator().random(8), RngStream(*want).generator().random(8))


@pytest.mark.parametrize("value, lower, upper, match", [
    (True, 1, None, "n must be a positive integer$"),
    (np.bool_(False), 0, None, "n must be a non-negative integer$"),
    (2.0, 1, None, "positive integer"),
    (0, 1, None, "positive integer"),
    (1, 2, None, "n must be an integer >= 2$"),
    (5, 1, 4, "n must be a positive integer <= 4$"),
    (2**64, 0, 2**64 - 1, "n must be a non-negative integer below 2[*][*]64$"),
    (-1, 0, 2**64 - 1, "below 2[*][*]64"),
])
def test_integer_refuses_bool_fractions_and_values_out_of_range(value, lower, upper, match):
    with pytest.raises(DomainError, match=match):
        processes._integer(value, "n", lower, upper)


@pytest.mark.parametrize("rows", [2.5, True, 0, np.float64(3.0)])
def test_batch_kernels_refuse_a_row_count_that_is_not_a_positive_integer(rows):
    # 2.5 and True failed with TypeError inside numpy, and 0 with ValueError.
    for kernel in (stick_masses_batch, gamma_batch):
        with pytest.raises(DomainError, match="rows must be a positive integer"):
            kernel(1.0, 1e-3, rows, RngStream(0).generator())


def test_integer_returns_python_ints():
    for value in (3, np.int8(3), np.uint64(3), np.int64(3)):
        got = processes._integer(value, "n", 3, 3)
        assert got == 3 and type(got) is int
    assert processes._integer(2**64 - 1, "n", 0, 2**64 - 1) == 2**64 - 1


# ---------------------------------------------------------------------------
# GEM / stick-breaking


def test_gem_first_stick_mean():
    # sticks are Beta(1, theta): E[y1] = 1/(1+theta).  This is the only stick
    # law consistent with gamma(theta_i) partition marginals and the
    # prod b^theta_i / Gamma(theta_i + 1) box masses asserted downstream.
    gen = RngStream(2).generator()
    for theta, want in [(1.0, 0.5), (2.0, 1.0 / 3.0)]:
        masses, _tails = stick_masses_batch(theta, EPS, 30_000, gen)
        first = masses[:, 0]
        err = first.std(ddof=1) / math.sqrt(first.size)
        assert abs(first.mean() - want) <= 4.0 * err, (theta, first.mean(), want)


def test_gem_expected_residual_after_k_sticks():
    # E[prod_{j<=K}(1-y_j)] = (E[1-y])^K = (theta/(theta+1))^K by independence
    gen = RngStream(3).generator()
    for theta, k in [(1.0, 2), (2.0, 4)]:
        masses, _tails = stick_masses_batch(theta, EPS, 50_000, gen)
        residual = 1.0 - masses[:, :k].sum(axis=1)
        want = (theta / (theta + 1.0)) ** k
        err = residual.std(ddof=1) / math.sqrt(residual.size)
        assert abs(residual.mean() - want) <= 4.0 * err


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
def test_stick_rows_stop_at_the_first_residual_below_eps(theta):
    # Each row's masses are positive up to its cut and zero after it; its
    # tail, the residual after the cut, is at most eps, and the residual
    # before the cut's stick is above it.
    masses, tails = stick_masses_batch(theta, 1e-3, 2000, RngStream(1).generator())
    cut = np.count_nonzero(masses, axis=1) - 1
    index = np.arange(masses.shape[0])
    assert np.all(masses[np.arange(masses.shape[1]) <= cut[:, None]] > 0.0)
    assert np.all(masses <= 1.0)
    assert np.all((tails > 0.0) & (tails <= 1e-3))
    assert np.all(tails + masses[index, cut] > 1e-3)
    assert np.allclose(masses.sum(axis=1) + tails, 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("u, eps, want_masses, want_tail", [
    (0.5, 0.35, [0.5, 0.25], 0.25),
    (0.3, 0.35, [0.7], 0.3),
])
def test_known_sticks_break_into_known_masses(u, eps, want_masses, want_tail):
    # At theta = 1 a uniform u is the stick 1 - u, so a constant u gives
    # equal sticks: c_j = y (1 - y)^j up to the first residual at most eps.
    gen = _Uniforms(1, lambda call, v: np.full_like(v, u) if call == 1 else v)
    masses, tails = stick_masses_batch(1.0, eps, 1, gen)
    assert np.allclose(masses[0], want_masses, rtol=0.0, atol=1e-15)
    assert abs(tails[0] - want_tail) <= 1e-15


# ---------------------------------------------------------------------------
# Dirichlet / gamma processes


def test_dirichlet_process_shape():
    gen = RngStream(5).generator()
    series = sample_dirichlet_process(1.0, EPS, gen)
    assert np.all(np.diff(series.masses) <= 0.0)
    assert np.all((series.locations >= 0.0) & (series.locations < 1.0))
    assert series.masses.size == series.locations.size
    assert series.total_mass == 1.0 and series.normalized
    assert abs(series.masses.sum() + series.tail_bound - 1.0) <= 1e-12


def test_dirichlet_process_halves_are_beta_distributed():
    # aggregated mass over [0, 1/2) at theta=1 is Beta(1/2, 1/2); cross-check
    # against numpy's beta sampler with a two-sample KS
    gen = RngStream(6).generator()
    halves = []
    for _ in range(4000):
        s = sample_dirichlet_process(1.0, 1e-8, gen)
        halves.append(s.masses[s.locations < 0.5].sum())
    reference = gen.beta(0.5, 0.5, size=4000)
    _d, p = ks_2samp(np.array(halves), reference)
    assert p >= 1e-3
    # and against the closed-form CDF
    _d, p1 = kstest(np.array(halves), lambda x: betainc(0.5, 0.5, x))
    assert p1 >= 1e-3


def test_gamma_process_total_law():
    gen = RngStream(7).generator()
    theta = 1.7
    totals = np.array([sample_gamma_process(theta, EPS, gen).total_mass
                       for _ in range(4000)])
    assert abs(totals.mean() - theta) <= 4.0 * totals.std(ddof=1) / math.sqrt(totals.size)
    _d, p = kstest(totals, lambda x: gammainc(theta, x))
    assert p >= 1e-3


def test_gamma_process_truncation_bias():
    gen = RngStream(8).generator()
    for _ in range(50):
        s = sample_gamma_process(0.8, EPS, gen)
        assert s.tail_bound <= EPS * s.total_mass * (1.0 + 1e-12)
        assert abs(s.masses.sum() + s.tail_bound - s.total_mass) <= 1e-12 * s.total_mass


def test_gamma_totals_moments_and_sub_unit_shape():
    gen = RngStream(9).generator()
    draws = processes._gamma_totals(1.0, 20_000, gen)
    assert abs(draws.mean() - 1.0) <= 4.0 * draws.std(ddof=1) / math.sqrt(draws.size)
    # shape 0.3: KS distance against the regularized-incomplete-gamma CDF;
    # a total that underflows to zero is replaced by the smallest normal float.
    small = processes._gamma_totals(0.3, 1_000_000, gen)
    assert small.min() > 0.0
    d = kstest(small, lambda x: gammainc(0.3, x)).statistic
    assert d <= 0.002


def test_lebesgue_weighting():
    # `sample --process lebesgue` writes the gamma draws with the flat-measure
    # importance weight filled in: log_weight is the total mass.
    from conicpd import cli

    records = {}
    for process in ("gamma", "lebesgue"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["sample", "--theta", "1", "--seed", "10", "--process", process,
                             "--samples", "4"]) == 0
        records[process] = [json.loads(line) for line in out.getvalue().splitlines()[1:]]
    assert len(records["lebesgue"]) == 4
    for gamma, weighted in zip(records["gamma"], records["lebesgue"]):
        assert gamma["log_weight"] == 0.0
        assert weighted["log_weight"] == weighted["total_mass"] == gamma["total_mass"]
        assert {**weighted, "log_weight": 0.0} == gamma


@pytest.mark.parametrize("sticks, order", [
    ([0.2, 0.5, 0.3], [1, 2, 0]),
    ([0.5, 0.3, 0.2], [0, 1, 2]),
    ([0.25, 0.5, 0.25], [1, 0, 2]),  # ties keep their stick order
])
def test_draws_sort_masses_and_locations_together(monkeypatch, sticks, order):
    # Masses in stick order come back decreasing, each with its own location.
    monkeypatch.setattr(processes, "_stick_rows",
                        lambda *args: (np.array([sticks]), np.array([0.0]), np.array([2])))
    locations = RngStream(8).generator().random((1, 3))[0]
    series = sample_dirichlet_process(1.0, EPS, RngStream(8))
    assert np.array_equal(series.masses, np.array(sticks)[order])
    assert np.array_equal(series.locations, locations[order])


@pytest.mark.parametrize("process", ["dirichlet", "gamma", "lebesgue"])
def test_sample_records_round_trip_to_the_stream_draws(process):
    # With one sample per stream, each record `sample` writes is that
    # stream's one-row draw, and reads back into the same series.
    from conicpd import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sample", "--theta", "0.9", "--eps", repr(EPS), "--seed", "11",
                         "--process", process, "--samples", "3", "--streams", "3"]) == 0
    records = [json.loads(line) for line in out.getvalue().splitlines()[1:]]
    assert [(r["seed"], r["stream_id"]) for r in records] == [(11, 0), (11, 1), (11, 2)]
    sampler = sample_dirichlet_process if process == "dirichlet" else sample_gamma_process
    for record in records:
        want = sampler(0.9, EPS, RngStream(11, record["stream_id"]))
        if process == "lebesgue":
            want = dataclasses.replace(want, log_weight=want.total_mass)
        back = series_from_record({**record, "normalized": process == "dirichlet"})
        assert np.array_equal(back.masses, want.masses)
        assert np.array_equal(back.locations, want.locations)
        assert (back.total_mass, back.tail_bound, back.log_weight) == (
            want.total_mass, want.tail_bound, want.log_weight)


# ---------------------------------------------------------------------------
# Multiplicator action


def test_apply_multiplicator_identity_and_constant():
    gen = RngStream(12).generator()
    series = sample_gamma_process(1.0, EPS, gen)
    same = apply_multiplicator(StepFunction.constant(1.0), series)
    assert np.array_equal(same.masses, series.masses)
    assert np.array_equal(same.locations, series.locations)
    doubled = apply_multiplicator(StepFunction.constant(2.0), series)
    assert np.allclose(doubled.masses, 2.0 * series.masses, rtol=1e-15)
    assert np.array_equal(doubled.locations, series.locations)
    assert doubled.total_mass == pytest.approx(2.0 * series.total_mass, rel=1e-14)


def test_apply_multiplicator_group_inverse():
    gen = RngStream(13).generator()
    series = sample_gamma_process(1.0, EPS, gen)
    a = StepFunction(np.array([0.0, 0.3, 1.0]), np.array([2.0, 0.5]))
    back = apply_multiplicator(a.reciprocal(), apply_multiplicator(a, series))
    # multiset equality: sort both atom lists by location
    lhs = sorted(zip(series.locations, series.masses))
    rhs = sorted(zip(back.locations, back.masses))
    assert np.allclose([p[1] for p in lhs], [p[1] for p in rhs], rtol=1e-12)
    assert np.allclose([p[0] for p in lhs], [p[0] for p in rhs], rtol=0, atol=0)
    assert back.log_weight == series.log_weight


def test_zero_log_mean_multiplicator_preserves_weighted_law():
    # For a with zero log-mean the sigma-finite measure is invariant, so any
    # bounded windowed functional agrees before/after transport when weighted
    # by the originating draw's e^{total}.
    theta, b, rows = 1.0, 2.0, 120_000
    a = StepFunction(np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
                     np.array([2.0, 0.5, 1.25, 0.8]))  # log-mean 0 on equal pieces
    assert abs(math.log(2.0) + math.log(0.5) + math.log(1.25) + math.log(0.8)) <= 1e-15
    gen = RngStream(14).generator()
    masses, locs, totals, tails = gamma_batch(theta, EPS, rows, gen)
    scaled = masses * totals[:, None]
    weight = np.exp(totals)

    def windowed_top_share(atom_masses, total_vec):
        share = atom_masses.max(axis=1) / total_vec
        return np.where(total_vec <= b, weight * share, 0.0)

    plain = windowed_top_share(scaled, totals)
    moved = scaled * a(locs)
    moved_totals = moved.sum(axis=1) + tails * totals * a.max_value
    transported = windowed_top_share(moved, moved_totals)
    gap = plain.mean() - transported.mean()
    se = math.sqrt(plain.var(ddof=1) / rows + transported.var(ddof=1) / rows)
    assert abs(gap) <= 3.0 * se, (gap, se)


# ---------------------------------------------------------------------------
# Partition sums


def test_partition_sums_single_part_is_total():
    gen = RngStream(15).generator()
    series = sample_gamma_process(1.0, EPS, gen)
    sums = partition_sums(series, PartitionSpec(np.array([1.0])))
    assert sums.shape == (1,)
    assert sums[0] == pytest.approx(series.total_mass, rel=EPS * 10)


def test_partition_sums_marginals_and_independence():
    gen = RngStream(16).generator()
    spec = PartitionSpec(np.array([0.5, 1.5]))
    masses, _locs, totals, _tails = gamma_batch(spec.theta, EPS, 30_000, gen)
    marks = np.minimum(
        np.searchsorted(np.cumsum(spec.probabilities()), gen.random(masses.shape),
                        side="right"), spec.n - 1)
    scaled = masses * totals[:, None]
    g1 = np.where(marks == 0, scaled, 0.0).sum(axis=1)
    g2 = np.where(marks == 1, scaled, 0.0).sum(axis=1)
    assert kstest(g1, lambda x: gammainc(0.5, x)).pvalue >= 1e-3
    assert kstest(g2, lambda x: gammainc(1.5, x)).pvalue >= 1e-3
    assert abs(pearsonr(g1, g2).statistic) * math.sqrt(g1.size) <= 4.0


def test_partition_sums_of_gamma_draws_split_by_location_are_independent_gammas():
    # Each atom goes to the part its location lies in, the rule of the box
    # kernel; uniform locations make the parts' sums independent Gamma(theta_i).
    gen = RngStream(19).generator()
    spec = PartitionSpec(np.array([0.5, 1.0, 1.5]))
    sums = np.array([partition_sums(sample_gamma_process(spec.theta, EPS, gen), spec)
                     for _ in range(5000)])
    for part, weight in zip(sums.T, spec.weights):
        assert kstest(part, lambda x, w=weight: gammainc(w, x)).pvalue >= 1e-3
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert abs(pearsonr(sums[:, i], sums[:, j]).statistic) * math.sqrt(len(sums)) <= 4.0


def test_partition_sums_series_route_matches_spec():
    gen = RngStream(17).generator()
    spec = PartitionSpec(np.array([1.0, 1.0]))
    series = sample_gamma_process(spec.theta, EPS, gen)
    sums = partition_sums(series, spec)
    assert sums.shape == (2,)
    assert sums.sum() == pytest.approx(series.masses.sum(), rel=1e-12)


# ---------------------------------------------------------------------------
# Batch kernels vs one-at-a-time sampler


@pytest.mark.parametrize("theta", [0.7, 4.0])
def test_sticks_recovered_from_the_masses_are_beta(theta):
    # y_j = c_j / (1 - sum_{i<j} c_i) is the j-th stick, Beta(1, theta) with
    # CDF 1 - (1 - y)^theta, on every row still open at column j.
    masses, _tails = stick_masses_batch(theta, EPS, 20_000, RngStream(18).generator())
    residual = 1.0 - np.cumsum(masses, axis=1)
    for j in (0, 1, 5):
        open_rows = masses[:, j] > 0.0
        before = 1.0 if j == 0 else residual[open_rows, j - 1]
        sticks = masses[open_rows, j] / before
        p = kstest(sticks, lambda y: 1.0 - (1.0 - y) ** theta).pvalue
        assert p >= 1e-3, (theta, j, p)


def test_gamma_batch_layout():
    gen = RngStream(19).generator()
    masses, locs, totals, tails = gamma_batch(1.2, EPS, 500, gen)
    assert masses.shape == locs.shape
    assert totals.shape == (500,) and tails.shape == (500,)
    assert np.all(totals > 0.0)
    assert np.abs(masses.sum(axis=1) + tails - 1.0).max() <= 1e-12


def _block_ends(theta, eps, rows):
    """Columns at which a draw's first block and each later extension round end, endlessly.

    The layout of ``_stick_rows``: a round adds ``_round_width`` columns, but
    ends at the buffer's last column; a round that starts there grows the
    buffer by one round.
    """
    end = processes._first_width(theta, eps, rows)
    stride, add = processes._buffer_width(theta, eps), processes._round_width(theta, eps)
    while True:
        yield end
        if end == stride:
            stride += add
        end = min(end + add, stride)


def _rounds(theta, eps, rows, sticks):
    """Extension rounds that a row of ``sticks`` sticks takes in a ``rows``-row draw."""
    return next(k for k, end in enumerate(_block_ends(theta, eps, rows)) if sticks <= end)


def _recursion_step(theta, log_eps, u, before):
    """One block of sticks, column by column: (masses, cuts, tails, runs at its end).

    ``u`` holds the block's uniforms, a row per open draw, and ``before``
    each row's run just left of the block (None for a first block).  A stick
    y has log(1 - y) = log(1 - u) / theta (log u and y = 1 - u at theta = 1);
    the block's runs add up from its first column and then add ``before``.
    A row's mass is y times exp(run) left of it, or y alone in a first
    block's first column, and zero right of the cut, the first column whose
    run is at most log(eps).  A cut of -1 marks a row still open.
    """
    rows, cols = u.shape
    masses, cuts, tails = np.zeros((rows, cols)), np.full(rows, -1), np.zeros(rows)
    columns = np.ascontiguousarray(u.T)
    total, run = None, before
    for j in range(cols):
        if theta != 1.0:
            step = np.log(1.0 - columns[j]) / theta
            y = -np.expm1(step)
        else:
            step, y = np.log(columns[j]), 1.0 - columns[j]
        total = step if total is None else total + step
        left, run = run, total if before is None else total + before
        still = cuts < 0
        masses[still, j] = (y if left is None else y * np.exp(left))[still]
        closing = still & (run <= log_eps)
        cuts[closing], tails[closing] = j, np.exp(run[closing])
    return masses, cuts, tails, run


def _recursion_batch(theta, eps, rows, gen):
    """``stick_masses_batch`` by ``_recursion_step`` over the same uniform layout.

    The first block's uniforms come first, then each round's, for the rows
    still open, in row order.
    """
    log_eps = math.log(eps)
    masses, cuts, tails, runs = np.zeros((rows, 0)), np.full(rows, -1), np.zeros(rows), None
    live, start = np.arange(rows), 0
    for end in _block_ends(theta, eps, rows):
        if not live.size:
            break
        u = gen.random(live.size * (end - start)).reshape(live.size, end - start)
        block, cut, tail, run = _recursion_step(theta, log_eps, u,
                                                None if runs is None else runs[live])
        masses = np.hstack([masses, np.zeros((rows, end - start))])
        masses[live, start:] = block
        runs = np.zeros(rows) if runs is None else runs
        runs[live] = run
        closed = cut >= 0
        cuts[live[closed]], tails[live[closed]] = start + cut[closed], tail[closed]
        live, start = live[~closed], end
    return masses[:, :cuts.max() + 1], tails


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(0.05, 80.0), log10_eps=st.floats(-12.0, -2.0), rows=st.integers(1, 300),
       seed=st.integers(0, 2**32), block_cells=st.sampled_from([1 << 16, 1 << 7, 1 << 3]))
@example(theta=0.3, log10_eps=-2.0, rows=2, seed=23, block_cells=1 << 16)
@example(theta=1.0, log10_eps=-10.0, rows=300, seed=5, block_cells=1 << 3)
def test_stick_batches_are_the_stick_by_stick_recursion(theta, log10_eps, rows, seed,
                                                        block_cells):
    # The vectorized stick step (uniforms drawn into the buffer, a cumsum of
    # the steps, masses formed on the flat block shifted by a cell, rows
    # moved to the buffer's stride, rounds written in place) gives the very
    # floats of a column-by-column recursion.  The first example keeps one
    # atom per row of an 8-column first block, a (2, 1) view of it; numpy
    # 2.4 negates such a view wrongly in place.
    eps = 10.0 ** log10_eps
    want_masses, want_tails = _recursion_batch(theta, eps, rows, RngStream(seed).generator())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(processes, "_BLOCK_CELLS", block_cells)
        masses, tails = stick_masses_batch(theta, eps, rows, RngStream(seed).generator())
    assert np.array_equal(masses, want_masses) and np.array_equal(tails, want_tails)


def _poisson_moment_gaps(counts, m):
    # z-scores of the sample mean and variance of Poisson(m) counts
    n = counts.size
    mean_z = (counts.mean() - m) / math.sqrt(m / n)
    var_z = (counts.var(ddof=1) - m) / math.sqrt((m + 2.0 * m * m) / n)
    return mean_z, var_z


@pytest.mark.parametrize("theta", [0.5, 4.0])
def test_stick_count_is_one_plus_poisson(theta):
    # -log(1 - y) ~ Exp(theta) for a Beta(1, theta) stick, so the number of
    # sticks before the residual reaches eps is Poisson(theta log(1/eps)).
    m = theta * math.log(1.0 / EPS)
    masses, _tails = stick_masses_batch(theta, EPS, 20_000, RngStream(27).generator())
    counts = np.count_nonzero(masses, axis=1) - 1
    mean_z, var_z = _poisson_moment_gaps(counts, m)
    assert abs(mean_z) <= 5.0 and abs(var_z) <= 5.0, (theta, counts.mean(), counts.var())


@pytest.mark.parametrize("theta, rows", [(0.5, 1), (0.5, 4000), (1.0, 3), (8.0, 500)])
def test_stick_matrix_is_as_wide_as_its_longest_row(theta, rows):
    masses, tails = stick_masses_batch(theta, EPS, rows, RngStream(29).generator())
    sticks = np.count_nonzero(masses, axis=1)
    assert masses.shape == (rows, sticks.max())
    assert np.count_nonzero(masses[:, -1]) >= 1
    # zero padding sits only after each row's cut
    inside = np.arange(masses.shape[1])[None, :] < sticks[:, None]
    assert np.all(masses[inside] > 0.0) and np.all(masses[~inside] == 0.0)
    assert tails.shape == (rows,)


def test_stick_rows_that_outgrow_the_first_block_stay_exact():
    # The first block of 20000 rows at theta = 4 ends 0.75 standard
    # deviations past the mean stick count, so about a fifth of the rows
    # extend; this stream's longest row takes three rounds, the last of
    # them past the buffer.
    theta, rows = 4.0, 20_000
    masses, tails = stick_masses_batch(theta, EPS, rows, RngStream(4).generator())
    sticks = np.count_nonzero(masses, axis=1)
    assert _rounds(theta, EPS, rows, sticks.max()) == 3
    assert 0.1 < np.mean(sticks > processes._first_width(theta, EPS, rows)) < 0.4
    assert masses.shape[1] == sticks.max()
    assert np.abs(masses.sum(axis=1) + tails - 1.0).max() <= 1e-12
    # the cut is the first stick that takes the residual to eps
    last = masses[np.arange(rows), sticks - 1]
    assert np.all(tails <= EPS) and np.all(tails + last > EPS)


class _TinyFirstBlock:
    """Generator whose first batch of uniforms gives theta=1 sticks below 1e-3."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0

    def random(self, size):
        self.calls += 1
        u = self.gen.random(size)
        return 1.0 - 1e-3 * u if self.calls == 1 else u


def test_stick_rows_extend_over_several_rounds():
    # Every row is still open after the first block, and the rows close in
    # different extension rounds, so the open set shrinks between rounds;
    # the later rounds grow the buffer.
    rows = 64
    gen = _TinyFirstBlock(RngStream(32).generator())
    masses, tails = stick_masses_batch(1.0, EPS, rows, gen)
    sticks = np.count_nonzero(masses, axis=1)
    rounds = {_rounds(1.0, EPS, rows, count) for count in sticks}
    assert gen.calls == 1 + max(rounds) and min(rounds) >= 1 and len(rounds) >= 3
    assert sticks.max() > processes._buffer_width(1.0, EPS)
    assert masses.shape[1] == sticks.max()
    assert np.abs(masses.sum(axis=1) + tails - 1.0).max() <= 1e-12
    last = masses[np.arange(rows), sticks - 1]
    assert np.all(tails <= EPS) and np.all(tails + last > EPS)


def _peak_traced_bytes(call):
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_stick_sampler_refuses_oversized_blocks_before_allocating():
    gen = RngStream(30).generator()

    def batch():
        with pytest.raises(DomainError, match="--samples"):
            stick_masses_batch(1e4, EPS, 32768, gen)

    def scalar():
        with pytest.raises(DomainError, match="budget"):
            sample_dirichlet_process(1e8, EPS, gen)

    for call in (batch, scalar):
        start = time.perf_counter()
        assert _peak_traced_bytes(call) < 1 << 20
        assert time.perf_counter() - start < 1.0
    # the same theta fits at fewer rows
    masses, tails = stick_masses_batch(1e4, EPS, 8, gen)
    assert np.abs(masses.sum(axis=1) + tails - 1.0).max() <= 1e-12


def test_stick_batch_peak_memory_is_two_matrices():
    # The masses are formed in the stick buffer, the running sums live in
    # scratch blocks of at most 2^16 cells per thread, and the rows that
    # outgrow the first block extend inside the buffer, so the peak stays
    # near one matrix (of the buffer's width) when no row outgrows the buffer.
    gen = RngStream(3).generator()
    out = []
    peak = _peak_traced_bytes(lambda: out.append(stick_masses_batch(4.0, EPS, 20_000, gen)))
    masses, _tails = out[0]
    assert processes._first_width(4.0, EPS, 20_000) < masses.shape[1]
    assert masses.shape[1] <= processes._buffer_width(4.0, EPS)
    assert peak <= 1.3 * masses.nbytes


@pytest.mark.parametrize("theta, rows, seed", [(4.0, 20_000, 4), (1.0, 8192, 9)])
def test_extending_stick_batch_peak_memory_is_two_matrices(theta, rows, seed):
    # Rows still open after the first block grow in the buffer, beside
    # per-round arrays that hold only those rows.  The warm-up call makes
    # every scratch block the measured call uses; they are kept between
    # calls.
    stick_masses_batch(theta, EPS, rows, RngStream(seed).generator())
    gen = RngStream(seed).generator()
    out = []
    peak = _peak_traced_bytes(lambda: out.append(stick_masses_batch(theta, EPS, rows, gen)))
    masses, _tails = out[0]
    assert masses.shape[1] > processes._first_width(theta, EPS, rows)
    assert peak <= 2.1 * masses.nbytes


def test_rows_that_extend_inside_the_buffer_are_never_moved(monkeypatch):
    # The first block is written at the buffer's stride, so rows that
    # outgrow it but not the buffer extend where they lie: only a round past
    # the buffer's end moves the rows.
    theta, rows = 4.0, 4096
    moves = []
    restride = processes._restride
    monkeypatch.setattr(processes, "_restride", lambda *args: (moves.append(args), restride(*args)))
    masses, tails = stick_masses_batch(theta, EPS, rows, RngStream(1).generator())
    sticks = np.count_nonzero(masses, axis=1)
    assert processes._first_width(theta, EPS, rows) < sticks.max() <= masses.shape[1]
    assert masses.shape[1] <= processes._buffer_width(theta, EPS)
    assert moves == []
    assert np.abs(masses.sum(axis=1) + tails - 1.0).max() <= 1e-12


def test_a_batch_that_outgrows_its_buffer_grows_in_place():
    # Fewer than 3 rows in 10^5 outrun the buffer; this stream has some
    # among 32768 rows at theta = 4.  The buffer is grown by realloc and its
    # rows moved in place, so the peak stays near one matrix, and the rows
    # stay exact.
    theta, rows = 4.0, 32768
    stick_masses_batch(theta, EPS, rows, RngStream(1).generator())
    out = []
    peak = _peak_traced_bytes(
        lambda: out.append(stick_masses_batch(theta, EPS, rows, RngStream(1).generator())))
    masses, tails = out[0]
    sticks = np.count_nonzero(masses, axis=1)
    assert masses.shape[1] == sticks.max() > processes._buffer_width(theta, EPS)
    assert peak <= 1.3 * masses.nbytes
    assert np.abs(masses.sum(axis=1) + tails - 1.0).max() <= 1e-12
    last = masses[np.arange(rows), sticks - 1]
    assert np.all(tails <= EPS) and np.all(tails + last > EPS)


def test_a_buffer_that_cannot_be_resized_grows_by_a_copy():
    # A tracer that reads the frame's locals holds a reference to the stick
    # buffer, and ndarray.resize refuses a buffer referred to elsewhere: the
    # buffer is then grown by a copy, to the same bytes.
    want = stick_masses_batch(4.0, EPS, 20_000, RngStream(4).generator())
    lines, first = inspect.getsourcelines(processes._stick_rows)
    copy = first + next(k for k, text in enumerate(lines) if "np.concatenate" in text)
    seen = set()

    def tracer(frame, _event, _arg):
        if frame.f_code is not processes._stick_rows.__code__:
            return None
        seen.add(frame.f_lineno)
        frame.f_locals  # noqa: B018  (refers to every local, the buffer too)
        return tracer

    sys.settrace(tracer)
    try:
        got = stick_masses_batch(4.0, EPS, 20_000, RngStream(4).generator())
    finally:
        sys.settrace(None)
    assert copy in seen
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_round_past_the_cell_budget_is_refused_before_it_is_allocated(monkeypatch):
    # The same batch with a budget that holds its buffer and no more: the
    # round that would grow the buffer is refused, and nothing past the
    # buffer is allocated.
    theta, rows = 4.0, 32768
    cells = rows * processes._buffer_width(theta, EPS)
    monkeypatch.setattr(processes, "_CELL_BUDGET", cells)

    def refused():
        with pytest.raises(DomainError, match="budget"):
            stick_masses_batch(theta, EPS, rows, RngStream(1).generator())

    assert _peak_traced_bytes(refused) <= 1.1 * 8 * cells
    monkeypatch.setattr(processes, "_CELL_BUDGET", cells + rows * processes._round_width(theta, EPS))
    masses, _tails = stick_masses_batch(theta, EPS, rows, RngStream(1).generator())
    assert masses.shape[1] > processes._buffer_width(theta, EPS)


# sha256 of (shape, masses, tails) bytes, with the extension rounds the
# longest row takes.  Re-frozen at 0.9.0, when the first block narrowed to
# the Poisson mean and the runs came straight from the uniforms; the
# recursion test below checks the same layout stick by stick.  Every batch
# here extends, and the two largest grow their buffer in their third round.
_STICK_BATCH_DIGESTS = {
    (0.5, 2000, 9): (2, "dbe2604caa0a709854c9af9382a285f0577e9644276ed127342c1d25df544916"),
    (1.0, 2000, 9): (2, "9919ad2cbcfa26ea41eddba73c3305043f12da3954337bc86d89bd43d8d145a5"),
    (4.0, 2000, 9): (2, "623ce9879ab83005b633e0aeee3284644259e23d4e41ae449f73432331cc8df9"),
    (64.0, 64, 9): (1, "e8c27a353918301670c29068c781eb2b5afe8023d2f797e731fa151300874189"),
    (4.0, 20000, 4): (3, "4d6b1b3502b0e7af9d6c5f8b4465fbb305d45f634355aec0b16419f49d101997"),
    (4.0, 32768, 1): (3, "b9fb10492b03fc44c7f4b9dd86afe763d862b476ba6682a9c48625301e317adb"),
}


@pytest.mark.parametrize("theta, rows, seed", list(_STICK_BATCH_DIGESTS))
def test_stick_batch_outputs_are_frozen(theta, rows, seed):
    masses, tails = stick_masses_batch(theta, EPS, rows, RngStream(seed).generator())
    rounds, want = _STICK_BATCH_DIGESTS[theta, rows, seed]
    assert _rounds(theta, EPS, rows, masses.shape[1]) == rounds
    digest = hashlib.sha256(np.asarray(masses.shape, dtype=np.int64).tobytes())
    digest.update(masses.tobytes())
    digest.update(tails.tobytes())
    assert digest.hexdigest() == want


# ---------------------------------------------------------------------------
# Pooled estimation harness


def test_stream_counts_split():
    assert stream_counts(7, 2) == [4, 3]
    assert stream_counts(6, 3) == [2, 2, 2]
    with pytest.raises(DomainError):
        stream_counts(0, 1)


@pytest.mark.parametrize("rng, chunk, match", [
    (np.random.default_rng(3), 100, "RngStream"),
    (np.random.Generator(np.random.Philox(3)), 100, "RngStream"),
    (3, 100, "RngStream"),
    (RngStream(3), 0, "chunk"),
    (RngStream(3), -1, "chunk"),
    (RngStream(3), 2.5, "chunk"),
    (RngStream(3), True, "chunk"),
])
def test_pooled_mean_refuses_before_any_draw(rng, chunk, match):
    # A numpy Generator failed on its missing child(), chunk 0 divided by
    # zero and -1 failed inside numpy.
    def kernel(gen, rows):
        raise AssertionError("drew before refusing")

    with pytest.raises(DomainError, match=match):
        pooled_mean(100, rng, 1, kernel, chunk=chunk)


@pytest.mark.parametrize("columns", [True, 2.0, 0, -1, None, "2"])
def test_pooled_mean_refuses_a_column_count_that_is_not_a_positive_integer(columns):
    # True and 2.0 used to fail with TypeError inside numpy.
    def kernel(gen, rows):
        raise AssertionError("drew before refusing")

    with pytest.raises(DomainError, match="columns must be a positive integer"):
        pooled_mean(100, RngStream(3), 1, kernel, columns=columns)


@pytest.mark.parametrize("kernel", [
    lambda gen, rows: gen.random(rows),                 # one column for three
    lambda gen, rows: gen.random((rows, 2)),
    lambda gen, rows: gen.random((rows, 4)),
    lambda gen, rows: gen.random((rows + 1, 3)),        # a row too many
    lambda gen, rows: gen.random((rows, 3, 1)),
])
def test_pooled_mean_refuses_a_kernel_of_another_shape(kernel):
    # A one-column kernel used to broadcast into three identical results.
    with pytest.raises(DomainError, match="kernel returned"):
        pooled_mean(100, RngStream(0), 1, kernel, columns=3)
    got = pooled_mean(100, RngStream(0), 1, lambda gen, rows: gen.random((rows, 3)), columns=3)
    assert len({r.estimate for r in got}) == 3


def test_pooled_mean_matches_direct_computation():
    def kernel(gen, rows):
        return gen.random(rows)

    res = pooled_mean(10_000, RngStream(20), 1, kernel)[0]
    direct = RngStream(20).child(0).generator().random(10_000)
    assert res.estimate == pytest.approx(direct.mean(), abs=1e-15)
    assert res.stderr == pytest.approx(direct.std(ddof=1) / 100.0, rel=1e-12)
    assert res.n_samples == 10_000


def test_pooled_mean_is_deterministic_across_calls():
    def kernel(gen, rows):
        return np.exp(gen.standard_normal(rows))

    first = pooled_mean(5000, RngStream(21), 4, kernel)[0]
    second = pooled_mean(5000, RngStream(21), 4, kernel)[0]
    assert first == second
    shifted = pooled_mean(5000, RngStream(22), 4, kernel)[0]
    assert shifted.estimate != first.estimate


def test_pooled_mean_matches_two_pass_on_offset_values():
    # Values with a spread tiny against their mean, where a one-pass
    # sum(x^2) - n mean^2 merge loses most of the digits of the variance.
    chunk, streams, n = 7000, 3, 50_000

    def kernel(gen, rows):
        return np.column_stack([1e4 + 1e-4 * gen.standard_normal(rows),
                                1.0 + 1e-9 * gen.random(rows)])

    got = pooled_mean(n, RngStream(31), streams, kernel, columns=2, chunk=chunk)
    parts = []
    for s, rows in enumerate(stream_counts(n, streams)):
        gen = RngStream(31).child(s).generator()
        parts += [kernel(gen, min(chunk, rows - done)) for done in range(0, rows, chunk)]
    vals = np.concatenate(parts)
    for col, result in zip(vals.T, got):
        mean = math.fsum(col) / n
        stderr = math.sqrt(math.fsum((col - mean) ** 2) / (n - 1) / n)
        assert result.estimate == pytest.approx(mean, rel=1e-14)
        assert result.stderr == pytest.approx(stderr, rel=1e-6)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 400), streams=st.integers(1, 4), chunk=st.integers(1, 150),
       columns=st.integers(1, 3), loc=st.floats(-1e3, 1e3), scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**16))
def test_pooled_merge_equals_the_one_shot_mean_and_variance(n, streams, chunk, columns,
                                                            loc, scale, seed):
    # For any fixed chunk policy, merging per-chunk (count, mean, M2) gives the
    # mean and variance of all values at once, column by column.
    def kernel(gen, rows):
        return loc + scale * gen.standard_normal((rows, columns))

    got = pooled_mean(n, RngStream(seed), streams, kernel, columns=columns, chunk=chunk)
    parts = []
    for s, rows in enumerate(stream_counts(n, streams)):
        gen = RngStream(seed).child(s).generator()
        parts += [kernel(gen, min(chunk, rows - done)) for done in range(0, rows, chunk)]
    vals = np.concatenate(parts)
    assert len(got) == columns
    for col, result in zip(vals.T, got):
        mean = math.fsum(col) / n
        assert result.n_samples == n and result.streams == streams
        assert result.estimate == pytest.approx(mean, rel=1e-12, abs=1e-12 * (abs(loc) + scale))
        if n == 1:
            assert result.stderr == 0.0
        else:
            stderr = math.sqrt(math.fsum((col - mean) ** 2) / (n - 1) / n)
            assert result.stderr == pytest.approx(stderr, rel=1e-6)


def test_estimator_result_validation():
    with pytest.raises(DomainError):
        EstimatorResult(math.nan, 0.0, 10, 0, 1)
    with pytest.raises(DomainError):
        EstimatorResult(1.0, -0.5, 10, 0, 1)


# ---------------------------------------------------------------------------
# WeightedAtomSeries validation


def test_weighted_series_validation():
    with pytest.raises(DomainError):
        WeightedAtomSeries(masses=np.array([0.2, 0.5]), locations=np.array([0.1, 0.2]),
                           total_mass=0.7, tail_bound=0.0)  # not decreasing
    with pytest.raises(DomainError):
        WeightedAtomSeries(masses=np.array([0.5, 0.2]), locations=np.array([0.1, 1.2]),
                           total_mass=0.7, tail_bound=0.0)  # location outside [0,1)
    with pytest.raises(DomainError):
        WeightedAtomSeries(masses=np.array([0.5, 0.2]), locations=np.array([0.1, 0.2]),
                           total_mass=0.9, tail_bound=0.0, normalized=True)


def _series(masses, locations):
    return WeightedAtomSeries(masses=np.array(masses), locations=np.array(locations),
                              total_mass=10.0, tail_bound=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0])
def test_weighted_series_rejects_bad_masses(bad):
    for masses in ([bad, 0.2], [0.5, bad]):
        with pytest.raises(DomainError, match="finite and strictly positive"):
            _series(masses, [0.1, 0.2])


def test_weighted_series_rejects_increasing_masses():
    with pytest.raises(DomainError, match="non-increasing"):
        _series([0.5, 0.2, 0.3], [0.1, 0.2, 0.3])


@pytest.mark.parametrize("bad", [-0.1, 1.0, math.nan])
def test_weighted_series_rejects_bad_locations(bad):
    for locations in ([bad, 0.2], [0.1, bad]):
        with pytest.raises(DomainError, match=r"locations must lie in \[0, 1\)"):
            _series([0.5, 0.2], locations)


_unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@given(st.lists(st.tuples(st.floats(min_value=5e-324, max_value=1e300), _unit),
                min_size=1, max_size=40))
def test_valid_sorted_series_construct_unchanged(atoms):
    atoms.sort(key=lambda a: -a[0])
    masses = np.array([a[0] for a in atoms])
    locations = np.array([a[1] for a in atoms])
    series = WeightedAtomSeries(masses=masses, locations=locations, total_mass=1.0,
                                tail_bound=0.0, log_weight=2.5)
    assert series.masses.dtype == float and series.locations.dtype == float
    assert np.array_equal(series.masses, masses)
    assert np.array_equal(series.locations, locations)
    assert (series.total_mass, series.tail_bound, series.log_weight) == (1.0, 0.0, 2.5)


# ---------------------------------------------------------------------------
# Row blocks: the bytes do not depend on how many blocks a pass takes


@pytest.mark.parametrize("block_cells", [1 << 7, 1 << 3])
@pytest.mark.parametrize("theta, rows, seed", list(_STICK_BATCH_DIGESTS))
def test_stick_batch_digests_do_not_depend_on_row_blocks(monkeypatch, theta, rows, seed,
                                                         block_cells):
    # Blocks of at most 128 or 8 cells: a few rows a block, or one.
    monkeypatch.setattr(processes, "_BLOCK_CELLS", block_cells)
    test_stick_batch_outputs_are_frozen(theta, rows, seed)


def _generator(bit_generator, seed):
    return np.random.Generator(bit_generator(seed))


def _position(gen):
    """Everything of the bit generator's state that later draws can read."""
    state = gen.bit_generator.state
    if state["bit_generator"] != "Philox":
        return repr(state)
    pos = state["buffer_pos"]  # buffered outputs before buffer_pos are spent
    return (repr(state["state"]), pos, state["has_uint32"], state["uinteger"],
            state["buffer"][pos:].tolist())


def _next_draws(gen):
    return (gen.random(5), gen.standard_gamma(0.7, 5), gen.standard_normal(5))


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), prior=st.integers(0, 9), half=st.booleans(),
       n=st.one_of(st.integers(0, 9), st.integers(0, 10**5)), block=st.integers(1, 4096))
def test_drawing_uniforms_in_blocks_matches_drawing_them_at_once(bit_generator, seed, prior,
                                                                 half, n, block):
    # What ``_by_rows`` relies on: uniforms drawn block by block into
    # scratch are the uniforms of one draw, and leave the generator where
    # that draw leaves it, also with half of a 32-bit pair buffered.
    at_once, in_blocks = _generator(bit_generator, seed), _generator(bit_generator, seed)
    for gen in (at_once, in_blocks):
        gen.random(prior)
        if half:
            gen.integers(0, 7, dtype=np.uint32)
    want = at_once.random(n)
    got = np.empty(n)
    for lo in range(0, n, block):
        in_blocks.random(out=got[lo:lo + block])
    assert np.array_equal(got, want)
    assert _position(in_blocks) == _position(at_once)
    for a, b in zip(_next_draws(in_blocks), _next_draws(at_once)):
        assert np.array_equal(a, b)


def _at_block_cells(monkeypatch, block_cells, make_gen, call):
    """(outputs, generator position, next draws, uniform blocks drawn) at ``block_cells``."""
    scratch, blocks = processes._scratch, []

    def counting(name, shape, dtype=float):
        if name == "block":
            blocks.append(shape)
        return scratch(name, shape, dtype)

    with monkeypatch.context() as patch:
        patch.setattr(processes, "_BLOCK_CELLS", block_cells)
        patch.setattr(processes, "_scratch", counting)
        gen = make_gen()
        outputs = call(gen)
        return outputs, _position(gen), _next_draws(gen), len(blocks)


def _assert_same_run(default, small):
    for a, b in zip(default[0], small[0]):
        assert np.array_equal(a, b)
    assert default[1] == small[1]
    for a, b in zip(default[2], small[2]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("theta, rows, block_cells, seed", [
    (0.5, 2001, 1 << 7, 9),    # odd rows, uneven blocks
    (1.0, 2, 1 << 3, 9),       # one row a block
    (2.5, 513, 1 << 10, 9),
    (4.0, 20_000, 1 << 12, 4),  # rows that outgrow the first block
    (8.0, 999, 1 << 5, 9),
])
@pytest.mark.parametrize("offset", [0, 3])
def test_gamma_batch_bytes_do_not_depend_on_row_blocks(monkeypatch, theta, rows, block_cells,
                                                        seed, offset):
    def make_gen():
        gen = RngStream(seed).generator()
        gen.random(offset)  # a Philox block partly spent
        return gen

    def call(gen):
        return gamma_batch(theta, EPS, rows, gen)

    default = _at_block_cells(monkeypatch, processes._BLOCK_CELLS, make_gen, call)
    small = _at_block_cells(monkeypatch, block_cells, make_gen, call)
    _assert_same_run(default, small)
    assert small[3] > default[3] > 0
    if rows == 20_000 and offset == 0:
        assert default[0][0].shape[1] > processes._first_width(theta, EPS, rows)


@pytest.mark.parametrize("batch", ["gamma", "stick"])
@pytest.mark.parametrize("kind", ["half pair", "pcg64"])
def test_other_bit_generators_give_the_same_bytes_in_any_block_count(monkeypatch, kind, batch):
    # A Philox holding half of a 32-bit pair, and PCG64, draw their blocks
    # in turn like a fresh Philox does.
    def make_gen():
        if kind == "pcg64":
            return np.random.Generator(np.random.PCG64(17))
        gen = RngStream(17).generator()
        gen.integers(0, 7, dtype=np.uint32)
        assert gen.bit_generator.state["has_uint32"]
        return gen

    def call(gen):
        if batch == "gamma":
            return gamma_batch(2.0, EPS, 1001, gen)
        return stick_masses_batch(2.0, EPS, 1001, gen)

    default = _at_block_cells(monkeypatch, processes._BLOCK_CELLS, make_gen, call)
    small = _at_block_cells(monkeypatch, 1 << 5, make_gen, call)
    _assert_same_run(default, small)
    assert small[3] > default[3] > 0


def test_duck_typed_generators_draw_each_pass_in_one_call(monkeypatch):
    # _TinyFirstBlock has random(size) only: however many blocks a pass
    # takes, it draws the pass's matrix in one call.
    monkeypatch.setattr(processes, "_BLOCK_CELLS", 1 << 3)
    test_stick_rows_extend_over_several_rounds()


def test_a_failing_row_block_raises_and_no_later_block_runs(monkeypatch):
    monkeypatch.setattr(processes, "_BLOCK_CELLS", 3)  # one row of three a block
    seen = []

    def work(lo, hi, _u):
        seen.append(lo)
        if lo == 2:
            raise ValueError(f"block at row {lo}")

    with pytest.raises(ValueError, match="block at row 2"):
        processes._by_rows(8, 3, work, RngStream(0).generator())
    assert seen == [0, 1, 2]
    seen.clear()
    processes._by_rows(8, 3, lambda lo, hi, _u: seen.append(lo), RngStream(0).generator())
    assert seen == list(range(8))


def test_row_blocks_run_in_order_on_the_calling_thread(monkeypatch):
    # Blocks of four rows of four cells cover the pass in order, each on
    # the caller's thread, and their uniforms are the rows of one draw.
    monkeypatch.setattr(processes, "_BLOCK_CELLS", 16)
    caller, blocks = threading.get_ident(), []

    def work(lo, hi, u):
        assert u.shape == (hi - lo, 4) and u.flags.c_contiguous
        blocks.append((lo, hi, threading.get_ident(), u.copy()))

    processes._by_rows(50, 4, work, RngStream(5).generator())
    assert [(lo, hi) for lo, hi, _, _ in blocks] == [
        (50 * b // 13, 50 * (b + 1) // 13) for b in range(13)]
    assert {ident for _, _, ident, _ in blocks} == {caller}
    want = RngStream(5).generator().random((50, 4))
    assert np.array_equal(np.concatenate([u for _, _, _, u in blocks]), want)


def _stick_digest(theta, rows, seed):
    masses, tails = stick_masses_batch(theta, EPS, rows, RngStream(seed).generator())
    return hashlib.sha256(masses.tobytes() + tails.tobytes()).hexdigest()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
@pytest.mark.parametrize("name", ["stick", "gamma"])
def test_a_forked_child_draws_the_bytes_of_its_parent(monkeypatch, name):
    # The child inherits the parent's thread scratch, filled by the
    # parent's draws, and draws the same bytes with it.
    import multiprocessing

    digest = {"stick": _stick_digest, "gamma": _gamma_digest}[name]
    monkeypatch.setattr(processes, "_BLOCK_CELLS", 1 << 7)
    want = digest(2.0, 999, 6)
    with multiprocessing.get_context("fork").Pool(1) as children:
        got = children.apply_async(digest, (2.0, 999, 6)).get(timeout=60)
    assert got == want


def _invariance_digest(theta, samples, seed):
    from conicpd.cli import _random_invariance_pair

    gen = RngStream(seed, 7).generator()
    pairs = [_random_invariance_pair(gen) for _ in range(5)]
    reports = quasi_invariance_pairs(theta, pairs, samples, RngStream(seed, 1000), streams=2)
    return hashlib.sha256(repr([(r.mc.estimate, r.mc.stderr, r.z_score)
                                for r in reports]).encode()).hexdigest()


def _gamma_digest(theta, rows, seed):
    gen = RngStream(seed).generator()
    masses, locations, totals, tails = gamma_batch(theta, EPS, rows, gen)
    digest = hashlib.sha256(masses.tobytes() + locations.tobytes() + totals.tobytes())
    digest.update(tails.tobytes() + gen.random(3).tobytes())
    return digest.hexdigest()


def _gamma_and_invariance_digests(theta, rows, seed):
    return _gamma_digest(theta, rows, seed), _invariance_digest(theta, rows, seed)


def test_concurrent_callers_keep_their_bytes(monkeypatch):
    # Six callers draw stick batches and pair estimates at once, switching
    # threads every microsecond.  Their passes take several 2^16-cell
    # blocks, whose numpy loops run outside the interpreter lock, so the
    # threads overlap.  Each thread's passes use its own scratch, so each
    # caller must get the bytes it gets alone.  The low cell budget stops
    # a draw whose scratch another thread overwrote before its rounds grow
    # the buffer to 512 MB.
    monkeypatch.setattr(processes, "_CELL_BUDGET", 1 << 22)
    cases = [(0.7 + 0.5 * k, 4001 + 500 * k, k) for k in range(6)]
    want = [_gamma_and_invariance_digests(*case) for case in cases]
    got = [None] * len(cases)

    def run(k):
        got[k] = _gamma_and_invariance_digests(*cases[k])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def _wrap_public(monkeypatch, record):
    """Make every public conicpd function call ``record(function)`` first."""
    from conicpd import cli, laplace  # noqa: F401  (loads every module the runs use)

    for name, module in list(sys.modules.items()):
        if not name.startswith("conicpd."):
            continue
        for attr, value in list(vars(module).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__.startswith("conicpd.")):
                def wrapper(*args, _fn=value, **kwargs):
                    record(_fn)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, attr, wrapper)


_SAMPLE_ARGV = (["sample", "--samples", "700"],
                ["sample", "--theta", "4", "--samples", "300", "--process", "dirichlet"],
                ["sample", "--theta", "0.5", "--samples", "500", "--process", "lebesgue",
                 "--format", "csv"])


def test_row_blocks_call_no_public_function_off_the_calling_thread(monkeypatch):
    # A span tracer wraps every public conicpd function and keeps one span
    # stack, so public code must run on the caller's thread only, also when
    # every stick pass of sample takes many row blocks.
    from conicpd import cli

    caller, on_thread, off_thread = threading.get_ident(), [], []

    def record(fn):
        (on_thread if threading.get_ident() == caller else off_thread).append(fn.__qualname__)

    _wrap_public(monkeypatch, record)
    monkeypatch.setattr(processes, "_BLOCK_CELLS", 1 << 3)
    for argv in _SAMPLE_ARGV:
        assert cli.main(argv + ["--seed", "3", "--out", os.devnull]) == 0
    assert on_thread.count("main") == len(_SAMPLE_ARGV) and off_thread == []


def test_public_calls_do_not_depend_on_the_block_count(monkeypatch):
    # What a span tracer counts is the same in blocks of 2^16 cells, in
    # blocks of 8, and with every draw extended in many rounds of two
    # columns after a first block of one.  Each sample command here draws
    # one batch.
    from conicpd import cli

    counts, passes = [], []
    stick_pass = processes._stick_pass
    for block_cells, narrow in ((processes._BLOCK_CELLS, False), (1 << 3, False),
                                (1 << 3, True)):
        calls = collections.Counter()
        with monkeypatch.context() as patch:
            _wrap_public(patch, lambda fn: calls.update([fn.__qualname__]))
            patch.setattr(processes, "_BLOCK_CELLS", block_cells)
            if narrow:
                patch.setattr(processes, "_first_width", lambda theta, eps, rows: 1)
                patch.setattr(processes, "_round_width", lambda theta, eps: 2)
                patch.setattr(processes, "_stick_pass",
                              lambda *args, **kw: passes.append(1) or stick_pass(*args, **kw))
            for argv in _SAMPLE_ARGV:
                assert cli.main(argv + ["--seed", "3", "--out", os.devnull]) == 0
        counts.append(calls)
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["main"] == len(_SAMPLE_ARGV) and counts[0]["stream_counts"] > 0
    assert len(passes) >= 10 * len(_SAMPLE_ARGV)


# ---------------------------------------------------------------------------
# Domain of theta and eps: bool is refused, numpy scalars are numbers

_FLAT = StepFunction(np.array([0.0, 0.4, 1.0]), np.array([1.5, 0.9]))
_NOT_POSITIVE_REAL = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, True, False, np.bool_(True),
                     np.float32("nan"), np.float64("inf"), np.int64(0), "2", None, 10**400]),
    st.floats(max_value=0.0), st.integers(max_value=0))
_NOT_EPS = st.one_of(
    st.sampled_from([math.nan, math.inf, 0.0, 1.0, True, False, np.float32(1.0), "0.1", None]),
    st.floats(min_value=1.0), st.floats(max_value=0.0))


def _theta_calls(theta, eps):
    gen = RngStream(3).generator()
    return [lambda: sample_dirichlet_process(theta, eps, gen),
            lambda: sample_gamma_process(theta, eps, gen),
            lambda: stick_masses_batch(theta, eps, 4, gen),
            lambda: gamma_batch(theta, eps, 4, gen)]


@settings(max_examples=60, deadline=None)
@given(theta=_NOT_POSITIVE_REAL)
def test_samplers_refuse_out_of_domain_theta(theta):
    for call in _theta_calls(theta, EPS) + [lambda: log_mean(_FLAT, theta),
                                            lambda: mc_laplace(theta, _FLAT, 8, RngStream(3))]:
        with pytest.raises(DomainError):
            call()


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(min_value=0.01, max_value=50.0), eps=_NOT_EPS)
def test_samplers_refuse_out_of_domain_eps(theta, eps):
    for call in _theta_calls(theta, eps):
        with pytest.raises(DomainError):
            call()


def test_bool_theta_is_refused_where_it_used_to_pass_as_one():
    with pytest.raises(DomainError, match="theta must be a positive real"):
        sample_dirichlet_process(True, 1e-10, RngStream(1))


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(min_value=0.01, max_value=50.0), eps=st.floats(min_value=1e-8, max_value=0.5),
       kind=st.sampled_from([np.float64, np.float32, np.int64, np.uint8]))
def test_numpy_scalars_draw_like_the_equal_float(theta, eps, kind):
    value = kind(max(1, round(theta)) if np.issubdtype(kind, np.integer) else theta)
    small = np.float32(eps)
    pairs = [(lambda t, e, s: sample_dirichlet_process(t, e, RngStream(s)).masses),
             (lambda t, e, s: sample_gamma_process(t, e, RngStream(s)).masses),
             (lambda t, e, s: gamma_batch(t, e, 3, RngStream(s).generator())[0])]
    for seed, draw in enumerate(pairs):
        assert np.array_equal(draw(value, small, seed), draw(float(value), float(small), seed))
    assert log_mean(_FLAT, value) == log_mean(_FLAT, float(value))


# ---------------------------------------------------------------------------
# Scalar draws: one sorted series per draw, checked where construction does not imply


class _Uniforms(np.random.Generator):
    """Philox generator whose k-th ``random`` call returns ``alter(k, u)``.

    With ``total``, every gamma draw returns ``total`` instead.
    """

    def __init__(self, seed, alter, total=None):
        super().__init__(RngStream(seed).generator().bit_generator)
        self.alter, self.total, self.calls = alter, total, 0

    def random(self, size=None):
        self.calls += 1
        return self.alter(self.calls, super().random(size))

    def standard_gamma(self, shape, size=None):
        if self.total is None:
            return super().standard_gamma(shape, size)
        return self.total if size is None else np.full(size, self.total)


def _tiny_first_block(call, u):
    # theta = 1 sticks below 1e-3 in the first block: a one-row draw stays open.
    return 1.0 - 1e-3 * u if call == 1 else u


# sha256 of the draw's fields and the next three uniforms, frozen at version
# 0.5.0, when the series samplers became one-row batches, and re-frozen at
# 0.9.0 with the stick batches.
_TINY_FIRST_BLOCK_SHA256 = {
    "sample_dirichlet_process": "7c2fb161dee0cd29aa2b74b905beaefbe0bb2bfeac3c4ff4fcaa3ac45fd65a52",
    "sample_gamma_process": "f8bd4c30ec4aa5110e17bf607f4d4dda1912efb37457d674d328a915079eb395",
}


@pytest.mark.parametrize("name", list(_TINY_FIRST_BLOCK_SHA256))
def test_one_row_draw_past_its_first_block_is_frozen(name):
    # The row is open after its first block and closes in its third
    # extension round, past the buffer, so a one-row draw goes through the
    # growth path: the first block, three rounds, then the locations.
    gen = _Uniforms(32, _tiny_first_block)
    draw = getattr(processes, name)(1.0, EPS, gen)
    fields = (draw.masses.tobytes() + draw.locations.tobytes()
              + struct.pack("<dd", draw.total_mass, draw.tail_bound))
    assert gen.calls == 5 and _rounds(1.0, EPS, 1, draw.masses.size) == 3
    assert draw.masses.size > processes._buffer_width(1.0, EPS)
    digest = hashlib.sha256(fields + gen.random(3).tobytes()).hexdigest()
    assert digest == _TINY_FIRST_BLOCK_SHA256[name]


def test_retained_scratch_is_bounded():
    # A one-row draw at theta = 1e4 holds 2.3e5 sticks, so its one block is
    # longer than _BLOCK_CELLS; its scratch is made for it and let go.  The
    # draw runs on a new thread, whose scratch starts empty.  The digest,
    # of the draw's fields and the next three uniforms, was taken when every
    # block's scratch was kept.
    kept, digest = [], []

    def draw():
        gen = RngStream(41).generator()
        series = sample_gamma_process(1e4, EPS, gen)
        fields = (series.masses.tobytes() + series.locations.tobytes()
                  + struct.pack("<dd", series.total_mass, series.tail_bound))
        digest.append(hashlib.sha256(fields + gen.random(3).tobytes()).hexdigest())
        kept.extend(array.size for array in getattr(processes._local, "arena", {}).values())

    thread = threading.Thread(target=draw)
    thread.start()
    thread.join()
    assert max(kept, default=0) <= processes._BLOCK_CELLS
    assert digest == ["c2473a4e9f6c318be387326aaea3095c6233bece4f27aec2da98a188dc1d3f82"]


def _fields(obj):
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def _cli_draws_pass_the_full_constructor(theta, eps, seed, process, samples, streams):
    from conicpd import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sample", "--theta", repr(theta), "--eps", repr(eps), "--seed", str(seed),
                         "--process", process, "--samples", str(samples),
                         "--streams", str(streams)]) == 0
    records = [json.loads(line) for line in out.getvalue().splitlines()[1:]]
    assert len(records) == samples
    for record in records:
        series = series_from_record({**record, "normalized": process == "dirichlet"})
        assert series.masses.tolist() == record["masses"]
        assert series.locations.tolist() == record["locations"]
        assert (series.total_mass, series.tail_bound, series.log_weight) == (
            record["total_mass"], record["tail_bound"], record["log_weight"])


@settings(max_examples=80, deadline=None)
@given(theta=st.floats(0.05, 80.0), log10_eps=st.floats(-12.0, -2.0), seed=st.integers(0, 2**32),
       process=st.sampled_from(["dirichlet", "gamma", "lebesgue", "cli"]),
       cli_process=st.sampled_from(["dirichlet", "gamma", "lebesgue"]),
       samples=st.integers(1, 40), streams=st.integers(1, 3))
def test_scalar_draws_pass_the_full_constructors(theta, log10_eps, seed, process, cli_process,
                                                 samples, streams):
    # The samplers run only the checks their construction does not imply;
    # every draw, and every record `sample` writes, must still pass every
    # check, with equal fields.
    eps = 10.0 ** log10_eps
    if process == "cli":
        _cli_draws_pass_the_full_constructor(theta, eps, seed, cli_process, samples, streams)
        return
    sampler = sample_dirichlet_process if process == "dirichlet" else sample_gamma_process
    draw = sampler(theta, eps, RngStream(seed))
    if process == "lebesgue":
        draw = dataclasses.replace(draw, log_weight=draw.total_mass)
    again = WeightedAtomSeries(**{f.name: getattr(draw, f.name) for f in dataclasses.fields(draw)})
    assert draw.normalized == (process == "dirichlet")
    for got, want in zip(_fields(draw), _fields(again)):
        assert type(got) is type(want)
        assert np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want


def test_one_atom_rows_of_a_wide_batch_are_sorted_as_they_are():
    # At theta 0.3 and eps 0.25 both rows of stream 2 keep one atom of an
    # 8-column buffer: a (2, 1) view, which numpy 2.4 negates wrongly in
    # place.
    rows = list(processes._draw_rows(0.3, 0.25, 2, RngStream(2).generator(), normalized=True))
    masses, locations, _totals, tails = gamma_batch(0.3, 0.25, 2, RngStream(2).generator())
    assert masses.shape == (2, 1) and masses.strides[0] == 8 * masses.itemsize
    for (m, x, total, tail), want_m, want_x, want_tail in zip(rows, masses, locations, tails):
        assert np.array_equal(m, want_m) and np.array_equal(x, want_x)
        assert (total, tail) == (1.0, want_tail)


def _zero_stick(call, u):
    # u = 0 gives a zero stick at theta != 1.
    if call == 1:
        u[3] = 0.0
    return u


@pytest.mark.parametrize("sampler", [sample_dirichlet_process, sample_gamma_process])
def test_scalar_draws_refuse_a_zero_stick(sampler):
    with pytest.raises(DomainError, match=r"^stick fractions must lie strictly inside \(0, 1\)$"):
        sampler(2.0, EPS, _Uniforms(5, _zero_stick))


@pytest.mark.parametrize("sampler", [sample_dirichlet_process, sample_gamma_process])
def test_scalar_draws_refuse_a_nan_mass(monkeypatch, sampler):
    stick_rows = processes._stick_rows

    def with_nan(*args, **kwargs):
        masses, tails, cuts = stick_rows(*args, **kwargs)
        masses[0, 2] = math.nan
        return masses, tails, cuts

    monkeypatch.setattr(processes, "_stick_rows", with_nan)
    with pytest.raises(DomainError, match="^atom masses must be finite and strictly positive$"):
        sampler(3.0, EPS, RngStream(6))


def test_gamma_draw_refuses_masses_that_underflow_when_scaled():
    # A subnormal total is a valid total, but the smallest masses times it
    # round to zero.
    gen = _Uniforms(7, lambda _call, u: u, total=1e-316)
    with pytest.raises(DomainError, match="^atom masses must be finite and strictly positive$"):
        sample_gamma_process(3.0, EPS, gen)
    # The same masses at a normal total pass.
    series = sample_gamma_process(3.0, EPS, _Uniforms(7, lambda _call, u: u, total=1e-3))
    assert series.masses[-1] > 0.0 and series.total_mass == 1e-3
