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
from conicpd.errors import DomainError, NumericalError
from conicpd.estimation import EstimatorResult, pooled_mean, stream_counts
from conicpd.laplace import log_mean, mc_laplace, quasi_invariance_pairs
from conicpd.stepfn import StepFunction
from stick_batches import gamma_batch, stick_masses_batch

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


_L35 = math.log(1.0 / 0.35)


@pytest.mark.parametrize("count, spacings, cut, want_masses, want_tail", [
    # Residuals 1/2 and 1/4: log-residuals log 2 < L and log 4 > L.
    (1, [math.log(2.0), _L35 - math.log(2.0)], math.log(4.0) - _L35, [0.5, 0.25], 0.25),
    # No point in [0, L]; the cut point L + log(0.35 / 0.3) leaves 0.3.
    (0, [2.0], math.log(0.35 / 0.3), [0.7], 0.3),
], ids=["two sticks", "one stick"])
def test_known_sticks_break_into_known_masses(count, spacings, cut, want_masses, want_tail):
    # At eps = 0.35 and theta = 1 a row with ``count`` points in [0, L],
    # L = log(1/eps), takes its spacings scaled to sum to L, then the cut
    # exponential; residual R_k = exp(-E_k) gives masses R_{k-1} - R_k.
    gen = _Forced(1, lambda call, e: np.array([spacings]) if call == 1 else np.array([cut]),
                  counts=[count])
    masses, tails = stick_masses_batch(1.0, 0.35, 1, gen)
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
    ([0.25, 0.5, 0.25], [1, 0, 2]),
])
def test_draws_sort_masses_and_keep_locations_in_draw_order(monkeypatch, sticks, order):
    # Masses in stick order come back decreasing; the locations, i.i.d. and
    # independent of the masses, come in the order they were drawn.
    monkeypatch.setattr(processes, "_stick_rows",
                        lambda *args: (np.array([sticks]), np.array([0.0]), np.array([2])))
    locations = RngStream(8).generator().random((1, 3))[0]
    series = sample_dirichlet_process(1.0, EPS, RngStream(8))
    assert np.array_equal(series.masses, np.array(sticks)[order])
    assert np.array_equal(series.locations, locations)


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


def _row_by_row(theta, eps, rows, gen):
    """``stick_masses_batch`` row by row, as (masses, tails), in the pass's draw order.

    All counts N first, then each row's run of exponentials, as wide as the
    widest row (a row keeps its first N + 1), then the cut exponentials.
    With L = log(1/eps) and S the sum of a row's exponentials from its
    left, E_k is L / S times the sum of its first k, and step k is L / S
    times exponential k, plus the cut exponential over theta at step N.
    The masses are exp(-E_{k-1}) (1 - exp(-step_k)) and the tail exp(-(L
    + the cut step)).
    """
    length = -math.log(eps)
    counts = gen.poisson(theta * length, rows)
    width = counts.max() + 1
    exps = [gen.standard_exponential(width) for _ in range(rows)]
    cuts = gen.standard_exponential(rows)
    masses, tails = np.zeros((rows, width)), np.zeros(rows)
    for row, (count, e, cut) in enumerate(zip(counts, exps, cuts)):
        sums = [0.0]
        for x in e[:count + 1]:
            sums.append(sums[-1] + x)
        scale = length / sums[-1]
        steps = e[:count + 1] * scale
        with np.errstate(over="ignore"):
            cut_step = cut / theta
        steps[count] += cut_step
        left = np.exp(-(np.array(sums[:-1]) * scale))
        masses[row, :count + 1] = left * -np.expm1(-steps)
        tails[row] = np.exp(-(length + cut_step))
    return masses, tails


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


def _recursion_batch(theta, eps, rows, gen, cols=64):
    """GEM(theta) draws stick by stick, as (masses, tails): the law reference.

    Each round draws ``cols`` Beta(1, theta) sticks by inverse CDF for the
    rows still open and runs ``_recursion_step`` over them.
    """
    log_eps = math.log(eps)
    blocks, cuts, tails, runs = [], np.full(rows, -1), np.zeros(rows), np.zeros(rows)
    live = np.arange(rows)
    while live.size:
        start = cols * len(blocks)
        block, cut, tail, run = _recursion_step(theta, log_eps, gen.random((live.size, cols)),
                                                runs[live] if blocks else None)
        blocks.append(np.zeros((rows, cols)))
        blocks[-1][live] = block
        runs[live] = run
        closed = cut >= 0
        cuts[live[closed]], tails[live[closed]] = start + cut[closed], tail[closed]
        live = live[~closed]
    return np.hstack(blocks)[:, :cuts.max() + 1], tails


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(0.05, 80.0), log10_eps=st.floats(-12.0, -2.0), rows=st.integers(1, 300),
       seed=st.integers(0, 2**32))
@example(theta=0.3, log10_eps=-2.0, rows=2, seed=23)
@example(theta=1.0, log10_eps=-10.0, rows=300, seed=5)
@example(theta=1e-320, log10_eps=-10.0, rows=3, seed=1)
def test_stick_rows_are_the_row_by_row_reference(theta, log10_eps, rows, seed):
    # The vectorized pass (one matrix as wide as the widest row, zeros
    # right of each cut, running sums shifted one column) gives the very
    # floats of each row's own sums from its left.  At theta = 1e-320 each
    # row is one stick of 1 and a tail of 0.
    eps = 10.0 ** log10_eps
    gen, want_gen = RngStream(seed).generator(), RngStream(seed).generator()
    masses, tails = stick_masses_batch(theta, eps, rows, gen)
    want_masses, want_tails = _row_by_row(theta, eps, rows, want_gen)
    assert np.array_equal(masses, want_masses) and np.array_equal(tails, want_tails)
    assert _position(gen) == _position(want_gen)


@pytest.mark.parametrize("theta, rows, seed", [
    (0.5, 2001, 9),    # odd rows
    (1.0, 2, 9),
    (2.5, 513, 9),
    (4.0, 20_000, 4),
    (8.0, 999, 9),
])
@pytest.mark.parametrize("offset", [0, 3])
@pytest.mark.parametrize("process", ["dirichlet", "gamma"])
def test_series_draws_are_the_row_by_row_reference_sorted_and_scaled(theta, rows, seed,
                                                                     offset, process):
    # ``_draw_rows`` takes the stick pass, then the (rows, K) location
    # uniforms, then (gamma draws only) the totals, from a generator whose
    # Philox block may be partly spent.  Each row is its own atoms sorted by
    # decreasing mass and scaled by its total, with the first of its row of
    # location uniforms in draw order; the generator ends where the
    # reference leaves it.
    def make_gen():
        gen = RngStream(seed).generator()
        gen.random(offset)
        return gen

    normalized = process == "dirichlet"
    gen, want_gen = make_gen(), make_gen()
    draws = list(processes._draw_rows(theta, EPS, rows, gen, normalized=normalized))
    sticks, tails = _row_by_row(theta, EPS, rows, want_gen)
    locations = want_gen.random(sticks.shape)
    if normalized:
        totals = np.ones(rows)
    else:
        totals = want_gen.standard_gamma(theta, rows)
        totals[totals == 0.0] = np.finfo(float).tiny
    assert len(draws) == rows
    for row, (masses, locs, total, tail) in enumerate(draws):
        atoms = np.count_nonzero(sticks[row])
        assert np.array_equal(masses, np.sort(sticks[row, :atoms])[::-1] * totals[row])
        assert np.array_equal(locs, locations[row, :atoms])
        assert (total, tail) == (totals[row], tails[row] * totals[row])
    assert _position(gen) == _position(want_gen)
    for a, b in zip(_next_draws(gen), _next_draws(want_gen)):
        assert np.array_equal(a, b)


def _law_statistics(masses, tails):
    """Stick count, V_1, V_2 (0 for a one-stick row), sum of V^2 and tail of each row."""
    return {"count": np.count_nonzero(masses, axis=1), "V1": masses[:, 0],
            "V2": masses[:, 1] if masses.shape[1] > 1 else np.zeros(len(masses)),
            "sum V^2": (masses * masses).sum(axis=1), "tail": tails}


@pytest.mark.parametrize("theta", [0.3, 1.0, 8.0, 64.0])
def test_stick_rows_draw_the_law_of_the_stick_by_stick_recursion(theta):
    # Two-sample KS of the pass against Beta(1, theta) sticks drawn one by
    # one, 10^4 rows each at eps = 1e-4, on five statistics of each row.
    # Streams and the level 1e-3 per statistic (20 tests in all) were
    # fixed before the first run.
    rows, eps = 10_000, 1e-4
    got = _law_statistics(*stick_masses_batch(theta, eps, rows, RngStream(61).generator()))
    want = _law_statistics(*_recursion_batch(theta, eps, rows, RngStream(62).generator()))
    p_values = {name: ks_2samp(got[name], want[name]).pvalue for name in got}
    assert min(p_values.values()) >= 1e-3, p_values


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


def test_a_count_past_the_cell_budget_is_refused_before_the_matrix_is_allocated(monkeypatch):
    # A budget one column short of what stream 2's counts need: the batch
    # is refused once the counts are drawn, before its exponentials are, so
    # the peak is the counts'.  One column more and the batch is drawn.
    theta, rows = 4.0, 32768
    width = RngStream(2).generator().poisson(-theta * math.log(EPS), rows).max() + 1
    monkeypatch.setattr(processes, "_CELL_BUDGET", rows * (width - 1))

    def refused():
        with pytest.raises(DomainError, match="budget.*--samples"):
            stick_masses_batch(theta, EPS, rows, RngStream(2).generator())

    assert _peak_traced_bytes(refused) <= 4 * 8 * rows
    monkeypatch.setattr(processes, "_CELL_BUDGET", rows * width)
    masses, _tails = stick_masses_batch(theta, EPS, rows, RngStream(2).generator())
    assert masses.shape == (rows, width)


@pytest.mark.parametrize("theta, rows, seed", [(4.0, 20_000, 3), (4.0, 20_000, 4),
                                               (1.0, 8192, 9), (8.0, 4096, 5)])
def test_a_stick_pass_peaks_at_two_matrices_and_its_zero_mask(theta, rows, seed):
    # The pass holds the steps, which become the masses, and their running
    # sums at once, beside the boolean mask of the cells right of each
    # row's cut while it is formed and a few row vectors.
    out = []
    peak = _peak_traced_bytes(lambda: out.append(
        stick_masses_batch(theta, EPS, rows, RngStream(seed).generator())))
    masses, _tails = out[0]
    assert peak <= 2.125 * masses.nbytes + 8 * 8 * rows


def _sample_batch(theta, seed):
    """One batch of `sample`'s gamma draws, as many rows as its cell bound allows."""
    from conicpd.cli import SAMPLE_BATCH_CELLS

    rows = processes._batch_rows(theta, EPS, SAMPLE_BATCH_CELLS)
    draws = list(processes._draw_rows(theta, EPS, rows, RngStream(seed).generator(),
                                      normalized=False))
    assert len(draws) == rows
    return draws


@pytest.mark.parametrize("theta", [0.5, 1.0, 8.0, 64.0])
def test_a_sample_batch_peaks_below_ten_megabytes(theta):
    # The stick matrix, then the sorted masses and locations.  The warm-up
    # batch takes the allocations a first call makes.
    _sample_batch(theta, 99)
    assert _peak_traced_bytes(lambda: _sample_batch(theta, 3)) <= 10e6


@pytest.mark.parametrize("theta", [8.0, 64.0])
def test_a_sample_batch_peaks_below_three_stick_matrices(theta):
    # The stick pass holds its steps and their running sums, and then the
    # batch holds the masses, sorted in place, and the location uniforms:
    # two (rows, K) matrices at a time, K the longest row's atoms, and the
    # pass's zeroing mask adds an eighth of one (2.04 to 2.20 measured).
    _sample_batch(theta, 99)
    out = []
    peak = _peak_traced_bytes(lambda: out.extend(_sample_batch(theta, 3)))
    atoms = max(masses.size for masses, *_ in out)
    assert peak <= 3 * len(out) * atoms * 8


def test_a_long_one_row_draw_peaks_below_four_and_a_half_matrices():
    # One row at theta = 1e5 holds 2.3e6 sticks; its peak is set by the
    # stick pass, which forms its zeroing mask from an int64 column index as
    # long as the row: the steps, that index and the mask, about 2.1
    # matrices.  The sort is in place, so the masses and locations then hold two.
    out = []
    peak = _peak_traced_bytes(lambda: out.extend(processes._draw_rows(
        1e5, EPS, 1, RngStream(1).generator(), normalized=False)))
    masses = out[0][0]
    assert masses.size > 2_000_000
    assert peak <= 4.5 * 8 * masses.size


# sha256 of (shape, masses, tails) bytes of a batch on stream ``seed``,
# re-frozen at 0.16.0, when the pass came to draw each row's stick count
# first; the row-by-row reference test checks the same draws.
_STICK_BATCH_DIGESTS = {
    (0.5, 2000, 9): "2b0d63958ee5c61c57f9bfc6d82fd4c9649656cdc4336b2813cb9593ddb15b57",
    (1.0, 2000, 9): "11b0031c6d055c065fa52140a455d66eb509e02ab9c2624d129d76cc246f2176",
    (4.0, 2000, 9): "9299315582780e8ba9d0bc8223ad4b828c7fae88311837e8816bf0558e007f8b",
    (64.0, 64, 9): "89bcc50c869a9e74b3c61359259956bdf0b13cb7f085953aaffdc58e9dfaefb5",
    (4.0, 20000, 3): "7ade580279a840364ad8e2bbb35d493a9c7e4c4c5e4ae18b62525818c111d60d",
    (4.0, 32768, 2): "66d9ce42b98ed1193ca6bcbf35b7037b5524dbdcd855bcf05b29391290cdd9a2",
}


@pytest.mark.parametrize("theta, rows, seed", list(_STICK_BATCH_DIGESTS))
def test_stick_batch_outputs_are_frozen(theta, rows, seed):
    masses, tails = stick_masses_batch(theta, EPS, rows, RngStream(seed).generator())
    digest = hashlib.sha256(np.asarray(masses.shape, dtype=np.int64).tobytes())
    digest.update(masses.tobytes())
    digest.update(tails.tobytes())
    assert digest.hexdigest() == _STICK_BATCH_DIGESTS[theta, rows, seed]


class _OneRow:
    """Stands in for a generator: hands ``_stick_rows`` one row's draws.

    ``poisson`` returns the row's count, a matrix of exponentials its
    ``exps`` as one row, and a vector of them its cut exponential.
    """

    def __init__(self, count, exps, cut):
        self.count, self.exps, self.cut = count, exps, cut

    def poisson(self, lam, size):
        return np.array([self.count])

    def standard_exponential(self, size):
        return self.exps[None, :].copy() if isinstance(size, tuple) else np.array([self.cut])


@pytest.mark.parametrize("theta, rows, seed", list(_STICK_BATCH_DIGESTS))
def test_each_row_of_a_batch_gets_the_bytes_of_its_own_pass(theta, rows, seed):
    # A row's sums run from its left over its own N + 1 exponentials, so
    # the zeros that pad it to the widest row's width change none of its
    # bytes: a pass over that row alone, given its count, exponentials and
    # cut exponential, gives the same masses and tail.
    masses, tails, counts = processes._stick_rows(theta, EPS, rows, RngStream(seed).generator())
    gen = RngStream(seed).generator()
    assert np.array_equal(counts, gen.poisson(-theta * math.log(EPS), rows))
    exps = gen.standard_exponential((rows, counts.max() + 1))
    cuts = gen.standard_exponential(rows)
    for row, count in enumerate(counts.tolist()):
        alone = processes._stick_rows(theta, EPS, 1,
                                      _OneRow(count, exps[row, :count + 1], cuts[row]))
        assert np.array_equal(alone[0][0], masses[row, :count + 1])
        assert not masses[row, count + 1:].any()
        assert alone[1][0] == tails[row]


@pytest.mark.parametrize("theta", [0.3, 1.0, 8.0, 64.0])
def test_stick_rows_cut_each_row_after_its_poisson_count(theta):
    # ``_draw_rows`` reads a row's least kept mass at its count N: the pass
    # returns the stream's first draws, the counts, and keeps N + 1
    # positive masses in each row.
    rows, eps = 3000, 1e-4
    masses, _tails, counts = processes._stick_rows(theta, eps, rows, RngStream(8).generator())
    assert np.array_equal(counts, RngStream(8).generator().poisson(-theta * math.log(eps), rows))
    assert np.array_equal(np.count_nonzero(masses, axis=1), counts + 1)
    assert np.all(masses[np.arange(rows), counts] > 0.0)


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
# Other bit generators, forked children and threads draw the same bytes


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


@pytest.mark.parametrize("kind, seed", [("half pair", 47), ("pcg64", 36)])
def test_other_bit_generators_draw_the_row_by_row_bytes(kind, seed):
    # A Philox holding half of a 32-bit pair, and PCG64, give the batch of
    # the row-by-row reference on the same generator, and leave the
    # generator where the reference leaves it.
    def make_gen():
        if kind == "pcg64":
            return np.random.Generator(np.random.PCG64(seed))
        gen = RngStream(seed).generator()
        gen.integers(0, 7, dtype=np.uint32)
        assert gen.bit_generator.state["has_uint32"]
        return gen

    gen, want_gen = make_gen(), make_gen()
    masses, tails = stick_masses_batch(2.0, EPS, 1001, gen)
    want_masses, want_tails = _row_by_row(2.0, EPS, 1001, want_gen)
    assert np.array_equal(masses, want_masses) and np.array_equal(tails, want_tails)
    assert _position(gen) == _position(want_gen)
    for a, b in zip(_next_draws(gen), _next_draws(want_gen)):
        assert np.array_equal(a, b)


def _stick_digest(theta, rows, seed):
    masses, tails = stick_masses_batch(theta, EPS, rows, RngStream(seed).generator())
    return hashlib.sha256(masses.tobytes() + tails.tobytes()).hexdigest()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
@pytest.mark.parametrize("name", ["stick", "gamma"])
def test_a_forked_child_draws_the_bytes_of_its_parent(name):
    # A child forked after the parent has drawn draws the parent's bytes.
    import multiprocessing

    digest = {"stick": _stick_digest, "gamma": _gamma_digest}[name]
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
    # threads every microsecond.  Their passes are large, and their numpy
    # loops run outside the interpreter lock, so the threads overlap.  Each
    # pass works in arrays of its own, so each caller must get the bytes it
    # gets alone.  The low cell budget stops a draw that another thread
    # broke before its matrix reaches 512 MB.
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


class _Forced(np.random.Generator):
    """Philox generator whose k-th ``standard_exponential`` call returns ``alter(k, e)``.

    With ``counts``, ``poisson`` returns them instead, and with ``total``,
    every gamma draw returns ``total``.
    """

    def __init__(self, seed, alter, counts=None, total=None):
        super().__init__(RngStream(seed).generator().bit_generator)
        self.alter, self.counts, self.total, self.calls = alter, counts, total, 0

    def standard_exponential(self, size=None):
        self.calls += 1
        return self.alter(self.calls, super().standard_exponential(size))

    def poisson(self, lam, size=None):
        drawn = super().poisson(lam, size)
        return drawn if self.counts is None else np.array(self.counts)

    def standard_gamma(self, shape, size=None):
        if self.total is None:
            return super().standard_gamma(shape, size)
        return self.total if size is None else np.full(size, self.total)


def test_a_long_one_row_draw_is_frozen():
    # A one-row draw at theta = 1e4 holds 2.3e5 sticks.  The digest is of
    # the draw's fields and the next three uniforms, re-frozen at 0.15.0,
    # when the locations came in draw order, and at 0.16.0, when the pass
    # came to draw the stick count first.
    gen = RngStream(41).generator()
    series = sample_gamma_process(1e4, EPS, gen)
    fields = (series.masses.tobytes() + series.locations.tobytes()
              + struct.pack("<dd", series.total_mass, series.tail_bound))
    digest = hashlib.sha256(fields + gen.random(3).tobytes()).hexdigest()
    assert digest == "38a1c94230188366b3021515b0b153955ab3a8720ca132b19d312c3b15a77f1d"


# sha256 of the draw's fields and the next three uniforms of stream 32,
# frozen at 0.16.0, when the pass came to draw the stick count first.
_ONE_ROW_SHA256 = {
    ("sample_dirichlet_process", 1.0):
        "1808b42c9f6421fef4687b498851289032a932abaf991098371ddb1ec3b86eb4",
    ("sample_dirichlet_process", 8.0):
        "9a9150928fc0b7f5041476a3f7bbd5b4888df8bbf98fbfd462058a41493412ec",
    ("sample_gamma_process", 1.0):
        "db1c5b61c5147520520084f37bcdd0fa1cbafeaf04a9835866d99b5a5a1d38e7",
    ("sample_gamma_process", 8.0):
        "4aba1dadc1a5a002bbbfc29b1925db4839aac691422eafee773211b8ae4aa45b",
}


@pytest.mark.parametrize("name, theta", list(_ONE_ROW_SHA256))
def test_one_row_draws_are_frozen(name, theta):
    # A public one-row draw goes through every step of a batch: the
    # count, the stick pass, the sort, the locations and, for a gamma
    # draw, the total.
    gen = RngStream(32).generator()
    draw = getattr(processes, name)(theta, EPS, gen)
    fields = (draw.masses.tobytes() + draw.locations.tobytes()
              + struct.pack("<dd", draw.total_mass, draw.tail_bound))
    digest = hashlib.sha256(fields + gen.random(3).tobytes()).hexdigest()
    assert digest == _ONE_ROW_SHA256[name, theta]


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


@pytest.mark.parametrize("normalized", [True, False])
def test_one_atom_rows_of_a_wide_batch_are_sorted_as_they_are(monkeypatch, normalized):
    # Stick masses that are a (2, 1) view of a C-ordered (2, 8) matrix, the
    # shape that numpy 2.4 negates wrongly in place.  The draws sort that
    # view in place and scale its reversal by the totals in place; each row
    # must come out as its one mass times its total, and the rest of the
    # matrix must stay as it was.
    parent = np.arange(1.0, 17.0).reshape(2, 8) / 16.0
    untouched = parent[:, 1:].copy()
    monkeypatch.setattr(processes, "_stick_rows", lambda *args: (
        parent[:, :1], np.array([15.0, 7.0]) / 16.0, np.array([0, 0])))
    rows = list(processes._draw_rows(0.3, 0.01, 2, RngStream(23).generator(),
                                     normalized=normalized))
    want = RngStream(23).generator()
    locations = want.random((2, 1))
    totals = np.ones(2) if normalized else processes._gamma_totals(0.3, 2, want)
    for (m, x, total, tail), mass, tail_left, loc, scale in zip(
            rows, (1.0, 9.0), (15.0, 7.0), locations, totals):
        assert m.tolist() == [mass / 16.0 * scale] and x.tolist() == loc.tolist()
        assert (total, tail) == (scale, tail_left / 16.0 * scale)
    assert np.array_equal(parent[:, 1:], untouched)


def _zero_step(call, e):
    # A zero exponential in a kept column is a zero step: a zero stick.
    if call == 1:
        e[0, 3] = 0.0
    return e


@pytest.mark.parametrize("sampler", [sample_dirichlet_process, sample_gamma_process])
def test_scalar_draws_refuse_a_zero_stick(sampler):
    with pytest.raises(DomainError, match=r"^stick fractions must lie strictly inside \(0, 1\)$"):
        sampler(2.0, EPS, _Forced(5, _zero_step))


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


def test_an_eps_whose_least_kept_mass_underflows_is_refused_before_any_draw():
    # The least mass a kept stick can carry is eps L e_min / (e_max
    # budget); at eps = 1e-320, halved, it rounds to 0, and the eps is
    # refused before the generator moves.  The bound crosses 0 near eps =
    # 4.5e-300, above which draws are served.
    gen = RngStream(2).generator()
    start = _position(gen)
    for eps in (1e-320, 4e-300):
        with pytest.raises(DomainError, match=rf"^truncation eps {eps!r} lets a kept atom mass "
                                              r"underflow to 0; raise eps$"):
            list(processes._draw_rows(4.0, eps, 200, gen, normalized=True))
        with pytest.raises(DomainError, match="underflow"):
            processes._batch_rows(4.0, eps, 1 << 18)
    assert _position(gen) == start
    draws = list(processes._draw_rows(4.0, 5e-300, 200, gen, normalized=True))
    assert min(masses[-1] for masses, *_ in draws) > 0.0


def _exponential_from(words):
    """numpy's standard exponential drawn from the 64-bit ``words``, as Philox's next outputs."""
    bits = np.random.Philox(0)
    state = bits.state
    state["buffer"] = np.array(words, dtype=np.uint64)
    state["buffer_pos"] = 0
    bits.state = state
    return np.random.Generator(bits).standard_exponential()


def test_exponential_draws_lie_where_the_eps_check_assumes():
    # numpy's ziggurat splits a word into a layer j (8 bits) and a 53-bit
    # integer i and draws i w_j, or, on layer 0, its tail past 7.697.  So
    # the least positive draw is i = 1 on the narrowest layer, the largest
    # is the tail at the largest uniform below 1, and i = 0 draws 0.
    least = min(_exponential_from([((1 << 8) | layer) << 3, 0, 0, 0]) for layer in range(1, 256))
    most = _exponential_from([((1 << 53) - 1) << 11, 2**64 - 1, 0, 0])
    assert processes._EXP_LEAST <= least <= 1.002 * processes._EXP_LEAST
    assert processes._EXP_MOST / 1.0002 <= most <= processes._EXP_MOST
    assert _exponential_from([0, 0, 0, 0]) == 0.0


def test_gamma_draw_refuses_masses_that_underflow_when_scaled():
    # A subnormal total is a valid total, but the smallest masses times it
    # round to zero: a numerical failure, not an invalid configuration.
    gen = _Forced(7, lambda _call, e: e, total=1e-316)
    with pytest.raises(NumericalError, match=r"underflow .* total mass 1e-316$"):
        sample_gamma_process(3.0, EPS, gen)
    # The same masses at a normal total pass.
    series = sample_gamma_process(3.0, EPS, _Forced(7, lambda _call, e: e, total=1e-3))
    assert series.masses[-1] > 0.0 and series.total_mass == 1e-3
