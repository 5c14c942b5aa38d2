import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from conicpd import (
    DomainError,
    RngStream,
    SphereConfig,
    charfun_gap_rows,
    gaussian_charfun,
    mp_convergence_table,
    sphere_charfun_mc,
    sphere_charfun_quad,
)
from conicpd import gaussian, processes
from conicpd.gaussian import _sphere_coordinate, sphere_charfun_mc_vector


def test_sphere_config_defaults_and_validation():
    assert SphereConfig(n=9).radius == 3.0
    for n in (2, 5, 200):
        assert SphereConfig(n=n).radius == math.sqrt(n)
    with pytest.raises(DomainError):
        SphereConfig(n=1)
    with pytest.raises(DomainError):
        SphereConfig(n=2.5)
    # The radius is sqrt(n); it cannot be set.
    with pytest.raises(TypeError):
        SphereConfig(n=4, radius=1.5)


def test_gaussian_charfun_values():
    assert gaussian_charfun(0.0) == 1.0
    assert gaussian_charfun(1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert gaussian_charfun(math.sqrt(2.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)
    with pytest.raises(DomainError):
        gaussian_charfun(float("inf"))


def test_quad_charfun_at_zero_is_one():
    for n in (2, 3, 7, 40):
        assert sphere_charfun_quad(SphereConfig(n=n), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_quad_charfun_three_dimensions_closed_form():
    # n=3: the coordinate marginal is uniform, E cos(k u) = sin(k)/k with
    # k = radius * s
    cfg = SphereConfig(n=3)
    assert sphere_charfun_quad(cfg, 1.2) == pytest.approx(
        0.4204467671894469494686, abs=1e-10)
    for s in (0.4, 2.3):
        k = cfg.radius * s
        assert sphere_charfun_quad(cfg, s) == pytest.approx(math.sin(k) / k, abs=1e-10)


def test_quad_charfun_five_dimensions_closed_form():
    # n=5: density prop to (1-u^2), E cos(k u) = 3 (sin k - k cos k) / k^3
    assert sphere_charfun_quad(SphereConfig(n=5), 1.0) == pytest.approx(
        0.5814706705997193506638, abs=1e-10)


def test_quad_charfun_two_dimensions_against_endpoint_weighted_quadrature():
    # independent route for the n=2 arcsine marginal via QUADPACK's algebraic
    # endpoint weighting
    cfg = SphereConfig(n=2)
    for s in (0.5, 1.0, 2.0):
        k = cfg.radius * s
        val, _ = integrate.quad(lambda r: math.cos(k * r), -1.0, 1.0,
                                weight="alg", wvar=(-0.5, -0.5))
        assert sphere_charfun_quad(cfg, s) == pytest.approx(val / math.pi, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5, 43, 50, 180, 200, 229, 230, 300, 313, 340, 341, 5000])
def test_quad_charfun_matches_mpmath_hyp0f1(n):
    # The small s reach where Gamma(n/2) (2/x)^(n/2-1) overflows before J is
    # applied (n = 180..340); s = 2.55 at odd n = 313 is where scipy's J at
    # half-integer order loses digits; s in [1.5, 2.05] at n = 43 is where
    # scipy's hyp0f1(21.5, z) itself is off by up to 1.3e-12.
    cfg = SphereConfig(n=n)
    s_grid = np.concatenate([np.linspace(0.0, 20.0, 81), [0.003, 0.05, 0.1, 2.55]])
    if n == 43:
        s_grid = np.concatenate([s_grid, np.linspace(1.5, 2.05, 111)])
    got = sphere_charfun_quad(cfg, s_grid)
    with mpmath.workdps(40):
        for s, value in zip(s_grid, got):
            x = mpmath.mpf(cfg.radius) * mpmath.mpf(float(s))
            want = mpmath.hyp0f1(mpmath.mpf(n) / 2, -x * x / 4)
            assert abs(value - float(want)) <= 2e-15, (n, s)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 43, 229, 230, 401])
def test_quad_charfun_past_the_overflow_of_z_is_finite_and_within_the_bessel_envelope(n):
    # From x = s sqrt(n) of about 1e52 the three-term series overflowed, and
    # past 2.7e154, -x^2/4 itself, so that hyp0f1 returned NaN.  There |J_nu(x)|
    # is within sqrt(2 / (pi x)), to 1 + O(x^-2), at these orders.
    cfg = SphereConfig(n=n)
    s_grid = np.array([1e52, 1e120, 2.6e154, 2.7e154, 1e200, 1e300, 1e308]) / cfg.radius
    values = sphere_charfun_quad(cfg, s_grid)
    assert np.all(np.isfinite(values))
    x = cfg.radius * s_grid
    b = 0.5 * n
    log_envelope = (math.lgamma(b) + (b - 1.0) * np.log(2.0 / x)
                    + 0.5 * np.log(2.0 / math.pi / x))
    assert np.all(np.abs(values) <= np.exp(log_envelope) * (1.0 + 1e-9))
    with pytest.raises(DomainError, match=r"s \* sqrt\(n\) overflows a float"):
        sphere_charfun_quad(cfg, np.finfo(float).max / cfg.radius * 1.01)


def test_quad_charfun_scalar_and_array_forms_agree():
    cfg = SphereConfig(n=7)
    s_grid = np.array([0.0, 0.3, 1.7, 4.0])
    values = sphere_charfun_quad(cfg, s_grid)
    assert isinstance(sphere_charfun_quad(cfg, 0.3), float)
    assert values.shape == s_grid.shape
    assert values.tolist() == [sphere_charfun_quad(cfg, s) for s in s_grid.tolist()]
    for bad in (np.array([0.5, np.nan]), np.array([0.5, -0.1]), np.array([np.inf]),
                np.zeros((2, 2))):
        with pytest.raises(DomainError):
            sphere_charfun_quad(cfg, bad)
        with pytest.raises(DomainError):
            sphere_charfun_mc(cfg, bad, 100, RngStream(0))
    # An empty s array used to draw every sample and return [], and then was
    # refused only by pooled_mean's column check.
    with pytest.raises(DomainError, match="at least one s"):
        sphere_charfun_mc(cfg, np.array([]), 100, RngStream(0))


def test_mc_charfun_array_matches_scalar_calls_bit_for_bit():
    # One batch of draws serves every s; each column must equal the scalar
    # call on the same RngStream, over several chunks and streams.
    cfg = SphereConfig(n=6)
    s_grid = np.array([0.0, 0.5, 1.25, 3.0])
    for streams in (1, 3):
        batch = sphere_charfun_mc(cfg, s_grid, 70_000, RngStream(9), streams=streams)
        single = [sphere_charfun_mc(cfg, s, 70_000, RngStream(9), streams=streams)
                  for s in s_grid.tolist()]
        assert batch == single


def test_mc_vector_refuses_normal_matrices_over_the_cell_budget(monkeypatch):
    # rows x n normals of the vector route are bounded by the sampler's cell
    # budget; a small budget shows the refusal without allocating anything
    # large.  The axis route and the gap table draw O(rows) and still serve.
    monkeypatch.setattr(processes, "_CELL_BUDGET", 4000)
    cfg = SphereConfig(n=5)
    with pytest.raises(DomainError, match="cell sampler budget"):
        sphere_charfun_mc_vector(cfg, np.ones(5), 1000, RngStream(0))
    # 800 rows x 5 = 4000 cells is exactly the budget and runs
    assert sphere_charfun_mc_vector(cfg, np.ones(5), 800, RngStream(0)).n_samples == 800
    assert sphere_charfun_mc(cfg, 1.0, 1000, RngStream(0)).n_samples == 1000
    assert len(charfun_gap_rows([0.5, 1.0], [5], samples=1000, rng=RngStream(0))) == 2


@pytest.mark.parametrize("n", [2, 3, 50, 10**6])
def test_sphere_coordinate_square_is_beta(n):
    # (x_1 / radius)^2 on the sphere in R^n is Beta(1/2, (n - 1)/2).
    first = _sphere_coordinate(RngStream(60, n % 97).generator(), 20_000, n)
    assert np.all(np.abs(first) <= 1.0)
    assert stats.kstest(first * first, stats.beta(0.5, 0.5 * (n - 1)).cdf).pvalue >= 1e-3


@pytest.mark.parametrize("n", [5000, 10**6])
def test_mc_charfun_matches_quad_on_the_debye_branch(n):
    cfg = SphereConfig(n=n)
    s_grid = np.array([0.5, 1.0, 2.0])
    want = sphere_charfun_quad(cfg, s_grid)
    for s, w, est in zip(s_grid, want, sphere_charfun_mc(cfg, s_grid, 40_000, RngStream(61))):
        assert abs(est.estimate - w) <= 4.0 * est.stderr, (n, s)


@pytest.mark.parametrize("n", [2, 4, 9])
def test_mc_axis_and_vector_routes_agree(n):
    # The vector route draws whole points, the axis route only the
    # coordinate's law; by rotational invariance both estimate the same value.
    cfg = SphereConfig(n=n)
    direction = RngStream(62, n).generator().standard_normal(n)
    for s in (0.5, 1.5):
        axis = sphere_charfun_mc(cfg, s, 40_000, RngStream(63))
        vector = sphere_charfun_mc_vector(cfg, s * direction / np.linalg.norm(direction),
                                          40_000, RngStream(64))
        assert abs(axis.estimate - vector.estimate) <= 4.0 * math.hypot(
            axis.stderr, vector.stderr), (n, s)


def test_gap_rows_mc_memory_stays_within_the_block_bound():
    # 300 s points at a full 32768-row chunk would need 300-column cosine
    # matrices, a 225 MiB peak; blocks of 2^22 cells (128 columns) keep it
    # near three blocks, 96 MiB.
    s_grid = np.linspace(0.0, 3.0, 300)
    tracemalloc.start()
    try:
        rows = charfun_gap_rows(s_grid, [3], samples=32_768, rng=RngStream(1))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 300 and all(row["stderr"] > 0.0 for row in rows[1:])
    assert peak <= 4 * (1 << 22) * 8


def test_quad_vs_mc_agreement():
    for n in (3, 10, 50):
        for s in (0.5, 1.0, 2.0):
            cfg = SphereConfig(n=n)
            want = sphere_charfun_quad(cfg, s)
            est = sphere_charfun_mc(cfg, s, 20_000, RngStream(40 + n))
            assert abs(est.estimate - want) <= 3.5 * est.stderr, (n, s)


def test_high_dimension_approaches_gaussian():
    gap = abs(sphere_charfun_quad(SphereConfig(n=200), 1.0) - gaussian_charfun(1.0))
    assert gap < 0.01


def test_mc_vector_is_rotation_invariant():
    cfg = SphereConfig(n=4)
    s_vec = np.array([0.6, -0.8, 0.0, 0.0])   # |s| = 1
    est = sphere_charfun_mc_vector(cfg, s_vec, 40_000, RngStream(44))
    want = sphere_charfun_quad(cfg, 1.0)
    assert abs(est.estimate - want) <= 4.0 * est.stderr
    with pytest.raises(DomainError):
        sphere_charfun_mc_vector(cfg, np.array([1.0, 2.0]), 100, RngStream(0))


def test_mc_charfun_validation():
    with pytest.raises(DomainError):
        sphere_charfun_mc(SphereConfig(n=3), -1.0, 100, RngStream(0))
    with pytest.raises(DomainError):
        sphere_charfun_quad(SphereConfig(n=3), float("nan"))


def test_convergence_table_shrinks_like_one_over_n():
    rows = mp_convergence_table()
    gaps = np.array([row["sup_gap"] for row in rows])
    ns = np.array([row["n"] for row in rows])
    assert np.all(np.diff(gaps) < 0.0)
    assert gaps[ns == 100][0] <= 0.02
    slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
    assert -1.4 < slope < -0.6


@pytest.mark.parametrize("bad", [5.7, 2.5, True, np.float64(6.0), "5", 1])
def test_gap_tables_refuse_a_dimension_that_is_not_an_integer_of_at_least_2(monkeypatch, bad):
    # 5.7 used to be computed and labelled as n = 5, and 2.5 as n = 2.  The
    # refusal comes before any draw, also when a good n comes first.
    def refuse(_self):
        raise AssertionError("drew before refusing the dimension")

    monkeypatch.setattr(RngStream, "generator", refuse)
    with pytest.raises(DomainError, match="sphere dimension"):
        charfun_gap_rows([0.5], [bad])
    with pytest.raises(DomainError, match="sphere dimension"):
        charfun_gap_rows([0.5], [3, bad], samples=100, rng=RngStream(0))


def test_gap_tables_take_numpy_integer_dimensions_as_python_ints():
    rows = charfun_gap_rows([0.5], [np.int64(5), np.uint8(7)])
    assert rows == charfun_gap_rows([0.5], [5, 7])
    assert [type(row["n"]) for row in rows] == [int, int]


@pytest.mark.parametrize("samples", [2.5, True, "100", -1, None])
def test_gap_rows_refuse_a_sample_count_that_is_not_a_non_negative_integer(monkeypatch,
                                                                         samples):
    # 2.5 used to fail with TypeError.
    def refuse(_self):
        raise AssertionError("drew before refusing the sample count")

    monkeypatch.setattr(RngStream, "generator", refuse)
    with pytest.raises(DomainError, match="samples must be a non-negative integer"):
        charfun_gap_rows([0.5], [3], samples=samples, rng=RngStream(0))


def test_convergence_table_is_the_sup_of_the_gap_rows_per_n():
    s_grid = np.linspace(0.0, 3.0, 61)
    table = mp_convergence_table()
    assert [row["n"] for row in table] == [5, 10, 20, 50, 100, 200]
    assert all(type(row["n"]) is int for row in table)
    for row in table:
        assert row["sup_gap"] == max(r["gap"] for r in charfun_gap_rows(s_grid, [row["n"]]))


@pytest.mark.parametrize("s_grid", [[], np.empty(0)])
def test_gap_rows_of_an_empty_grid_are_empty(s_grid):
    assert charfun_gap_rows(s_grid, [5]) == []


@pytest.mark.parametrize("streams", [True, 0, "x", 2.5])
def test_gap_rows_refuse_a_stream_count_that_is_not_a_positive_integer(monkeypatch, streams):
    # Without Monte Carlo columns the stream count was never looked at, so
    # these were accepted at samples = 0.
    def refuse(_self):
        raise AssertionError("drew before refusing the stream count")

    monkeypatch.setattr(RngStream, "generator", refuse)
    with pytest.raises(DomainError, match="stream count must be a positive integer"):
        charfun_gap_rows([0.5], [3], streams=streams)
    with pytest.raises(DomainError, match="stream count must be a positive integer"):
        charfun_gap_rows([0.5], [3], samples=100, rng=RngStream(0), streams=streams)


@pytest.mark.parametrize("samples", [0, 5])
@pytest.mark.parametrize("rng", ["x", 7, np.random.default_rng(0)])
def test_gap_rows_refuse_an_rng_that_is_not_an_rng_stream(monkeypatch, samples, rng):
    # Without Monte Carlo columns the rng was never looked at, so these were
    # accepted at samples = 0.
    def refuse(*_args):
        raise AssertionError("formed a row before refusing the rng")

    monkeypatch.setattr(gaussian, "sphere_charfun_quad", refuse)
    with pytest.raises(DomainError, match="rng must be an RngStream"):
        charfun_gap_rows([0.5], [3], samples=samples, rng=rng)


@pytest.mark.parametrize("samples", [0, 5])
def test_gap_rows_need_an_rng_only_for_monte_carlo_columns(samples):
    if samples:
        with pytest.raises(DomainError, match="Monte Carlo columns need an RngStream"):
            charfun_gap_rows([0.5], [3], samples=samples, rng=None)
    else:
        (row,) = charfun_gap_rows([0.5], [3], samples=samples, rng=None)
        assert row["mc"] is None and row["stderr"] is None


def test_gap_rows_schema_and_determinism():
    s_grid = np.array([0.5, 1.5])
    rows = charfun_gap_rows(s_grid, [3, 10])
    assert len(rows) == 4
    for row in rows:
        assert list(row.keys()) == ["n", "s", "quad", "mc", "stderr", "gauss", "gap"]
        assert row["mc"] is None and row["stderr"] is None
        assert row["gap"] == pytest.approx(abs(row["quad"] - row["gauss"]), abs=1e-15)

    a = charfun_gap_rows(s_grid, [3], samples=5_000, rng=RngStream(7))
    b = charfun_gap_rows(s_grid, [3], samples=5_000, rng=RngStream(7))
    assert a == b
    assert all(row["mc"] is not None and row["stderr"] > 0.0 for row in a)
    with pytest.raises(DomainError):
        charfun_gap_rows(s_grid, [3], samples=100, rng=None)
    with pytest.raises(DomainError, match="samples"):
        charfun_gap_rows(s_grid, [3], samples=-5, rng=RngStream(7))
