import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicpd import (
    DomainError,
    InfiniteVarianceError,
    NumericalError,
    PartitionSpec,
    RngStream,
    StepFunction,
    analytic_laplace,
    box_mass_L,
    functional_distribution_check,
    log_mean,
    mc_laplace,
    phi,
    quasi_invariance_pairs,
    weighted_box_mass,
)
from conicpd.stepfn import _LOOP_EDGES, _piece_index


def halves(v0, v1):
    return StepFunction(np.array([0.0, 0.5, 1.0]), np.array([v0, v1]))


# ---------------------------------------------------------------- StepFunction

def test_stepfunction_evaluates_half_open_segments():
    f = halves(2.0, 0.5)
    assert f(0.0) == 2.0
    assert f(0.49999) == 2.0
    assert f(0.5) == 0.5  # breakpoint belongs to the right segment
    assert f(0.999999) == 0.5
    out = f(np.array([0.0, 0.25, 0.5, 0.75]))
    assert np.array_equal(out, [2.0, 2.0, 0.5, 0.5])


def test_stepfunction_rejects_points_outside_domain():
    f = StepFunction.constant(3.0)
    with pytest.raises(DomainError):
        f(1.0)
    with pytest.raises(DomainError):
        f(-0.1)
    with pytest.raises(DomainError):
        f(np.array([0.3, 1.2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.0])
def test_stepfunction_rejects_nan_and_infinite_points(bad):
    three = StepFunction(np.array([0.0, 0.3, 0.7, 1.0]), np.array([1.8, 0.9, 1.3]))
    for f in (StepFunction.constant(1.5), three):
        with pytest.raises(DomainError):
            f(bad)
        with pytest.raises(DomainError):
            f(np.array([0.2, bad]))
        with pytest.raises(DomainError):
            f(np.array([[0.2, 0.5], [bad, 0.1]]))


def test_stepfunction_of_an_empty_array_is_empty():
    three = StepFunction(np.array([0.0, 0.3, 0.7, 1.0]), np.array([1.8, 0.9, 1.3]))
    for f in (StepFunction.constant(1.5), three):
        for shape in ((0,), (3, 0)):
            out = f(np.empty(shape))
            assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float


_unit_open = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _grid_and_points(draw, fewest, most):
    """Strictly increasing inner edges in (0, 1), and points of [0, 1) that include them."""
    edges = np.sort(np.array(draw(st.lists(_unit_open, min_size=fewest, max_size=most,
                                           unique=True)), dtype=float))
    points = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30))
    return edges, np.concatenate([np.array(points, dtype=float), edges, [0.0]])


@pytest.mark.parametrize("fewest, most", [(0, _LOOP_EDGES), (_LOOP_EDGES + 1, _LOOP_EDGES + 12)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_piece_index_matches_binary_search_on_both_sides_of_the_crossover(fewest, most, data):
    edges, x = data.draw(_grid_and_points(fewest, most))
    breakpoints = np.concatenate([[0.0], edges, [1.0]])
    expected = np.searchsorted(breakpoints, x, side="right") - 1
    index = _piece_index(edges, x)
    assert (index.dtype == np.uint8) == (edges.size <= _LOOP_EDGES)
    assert np.array_equal(index, expected)
    assert np.array_equal(_piece_index(edges, x[:, None].repeat(3, axis=1)),
                          expected[:, None].repeat(3, axis=1))
    values = np.arange(1.0, edges.size + 2.0)
    f = StepFunction(breakpoints, values)
    assert np.array_equal(f(x), values[expected])
    assert f(float(x[0])) == values[expected[0]]


@pytest.mark.parametrize("fewest, most",
                         [(1, _LOOP_EDGES + 1), (_LOOP_EDGES + 2, _LOOP_EDGES + 12)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_partition_marks_match_clipped_binary_search(fewest, most, data):
    # Weights up to 20 decades apart can also give equal consecutive cuts.
    weights = data.draw(st.lists(st.floats(1e-10, 1e10), min_size=fewest, max_size=most))
    points = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30))
    spec = PartitionSpec(np.array(weights))
    cuts = np.cumsum(spec.probabilities())
    u = np.concatenate([points, cuts[cuts < 1.0], [0.0, np.nextafter(1.0, 0.0)]])
    expected = np.minimum(np.searchsorted(cuts, u, side="right"), spec.n - 1)
    assert np.array_equal(spec.marks(u), expected)


def test_stepfunction_validation():
    with pytest.raises(DomainError):
        StepFunction(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        StepFunction(np.array([0.1, 0.5, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        StepFunction(np.array([0.0, 0.6, 0.5, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DomainError):
        StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, np.inf]))


def test_stepfunction_product_merges_grids():
    f = halves(2.0, 3.0)
    g = StepFunction(np.array([0.0, 0.25, 1.0]), np.array([4.0, 0.5]))
    h = f * g
    assert np.array_equal(h.breakpoints, [0.0, 0.25, 0.5, 1.0])
    assert np.array_equal(h.values, [8.0, 1.0, 1.5])


@pytest.mark.parametrize("edge", [0.3, 0.5, 0.123])
def test_stepfunction_product_keeps_a_one_ulp_piece(edge):
    # The midpoint of [0.3, nextafter(0.3)) rounds onto its right edge, so a
    # product that evaluated midpoints gave that piece the next piece's value.
    after = np.nextafter(edge, 1.0)
    f = StepFunction(np.array([0.0, edge, 1.0]), np.array([1.0, 2.0]))
    g = StepFunction(np.array([0.0, after, 1.0]), np.array([3.0, 5.0]))
    h = f * g
    assert np.array_equal(h.breakpoints, [0.0, edge, after, 1.0])
    assert np.array_equal(h.values, [3.0, 6.0, 10.0])


def test_stepfunction_scalar_multiply_and_reciprocal():
    f = halves(2.0, 0.5)
    g = 3.0 * f
    assert np.array_equal(g.values, [6.0, 1.5])
    r = f.reciprocal()
    assert np.array_equal(r.values, [0.5, 2.0])
    assert f.min_value == 0.5 and f.max_value == 2.0


# -------------------------------------------------------------------- log_mean

def test_log_mean_of_one_is_zero():
    assert log_mean(StepFunction.constant(1.0)) == 0.0
    assert log_mean(StepFunction.constant(1.0), theta=7.3) == 0.0


def test_log_mean_constant():
    for theta, c in [(1.0, 2.0), (0.5, 3.0), (2.5, 0.7)]:
        assert log_mean(StepFunction.constant(c), theta) == pytest.approx(
            theta * math.log(c), rel=1e-15)


def test_log_mean_balanced_steps_cancel():
    # equal-width segments at 2 and 1/2: the logs cancel exactly
    assert abs(log_mean(halves(2.0, 0.5))) <= 1e-16


def test_log_mean_is_additive_over_products():
    gen = RngStream(11).generator()
    for _ in range(25):
        f = halves(*np.exp(gen.uniform(-1, 1, size=2)))
        g = StepFunction(np.array([0.0, 0.3, 1.0]), np.exp(gen.uniform(-1, 1, size=2)))
        got = log_mean(f * g, 1.7)
        want = log_mean(f, 1.7) + log_mean(g, 1.7)
        assert got == pytest.approx(want, abs=1e-13)


def test_log_mean_validation():
    with pytest.raises(DomainError):
        log_mean("not a function")
    with pytest.raises(DomainError):
        log_mean(StepFunction.constant(2.0), theta=0.0)
    with pytest.raises(DomainError):
        log_mean(StepFunction.constant(2.0), theta=-1.0)


# ------------------------------------------------------------------------ phi

def test_phi_is_one_on_zero_log_mean_multiplicators():
    a = halves(2.0, 0.5)
    assert phi(a) == pytest.approx(1.0, abs=1e-15)
    assert phi(a, theta=4.2) == pytest.approx(1.0, abs=1e-14)


def test_phi_constant_and_product_rule():
    assert phi(StepFunction.constant(3.0), theta=2.0) == pytest.approx(9.0, rel=1e-14)
    gen = RngStream(12).generator()
    for _ in range(10):
        a = halves(*np.exp(gen.uniform(-1, 1, size=2)))
        b = StepFunction(np.array([0.0, 0.7, 1.0]), np.exp(gen.uniform(-1, 1, size=2)))
        assert phi(a * b, 1.3) == pytest.approx(phi(a, 1.3) * phi(b, 1.3), rel=1e-13)


@st.composite
def _step_functions(draw):
    cuts = draw(st.lists(st.floats(1e-3, 0.999), max_size=6, unique=True))
    grid = np.concatenate([[0.0], np.sort(cuts), [1.0]])
    values = draw(st.lists(st.floats(math.exp(-3.0), math.exp(3.0)),
                           min_size=grid.size - 1, max_size=grid.size - 1))
    return StepFunction(grid, np.array(values))


@settings(max_examples=200, deadline=None)
@given(a=_step_functions(), f=_step_functions(), theta=st.floats(0.01, 20.0))
def test_cocycle_identity_holds_for_any_step_functions_and_theta(a, f, theta):
    # Psi(a f) phi(a) = Psi(f): the multiplicator moves the transform by
    # exactly its cocycle, on the union of the two grids.
    assert analytic_laplace(theta, a * f) * phi(a, theta) == pytest.approx(
        analytic_laplace(theta, f), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(f=_step_functions(), g=_step_functions(), h=_step_functions(),
       c=st.floats(math.exp(-3.0), math.exp(3.0)))
def test_stepfunction_product_and_scaling_are_associative(f, g, h, c):
    for left, right in (((f * g) * h, f * (g * h)),
                        ((c * f) * g, c * (f * g)),
                        ((f * c) * g, f * (c * g))):
        assert np.array_equal(left.breakpoints, right.breakpoints)
        np.testing.assert_allclose(left.values, right.values, rtol=1e-14, atol=0.0)


# ------------------------------------------------------------- analytic route

def test_analytic_laplace_constant_is_power_law():
    for theta, d in [(1.0, 2.0), (1.5, 2.0), (0.5, 5.0), (3.0, 0.25)]:
        assert analytic_laplace(theta, StepFunction.constant(d)) == pytest.approx(
            d ** (-theta), rel=1e-14)


def test_analytic_laplace_zero_log_mean_gives_one():
    f = halves(2.0, 0.5)
    assert analytic_laplace(1.0, f) == pytest.approx(1.0, abs=1e-15)
    assert analytic_laplace(2.7, f) == pytest.approx(1.0, abs=1e-14)


def test_analytic_laplace_two_level_example():
    # theta=2, f = 4 on [0,1/2) and 1 on [1/2,1): exp(-2 * 0.5 * ln 4) = 1/4
    assert analytic_laplace(2.0, halves(4.0, 1.0)) == pytest.approx(0.25, rel=1e-14)


def test_analytic_laplace_homogeneity():
    gen = RngStream(13).generator()
    for _ in range(20):
        theta = gen.uniform(0.3, 3.0)
        c = gen.uniform(0.2, 5.0)
        f = halves(*gen.uniform(0.5, 4.0, size=2))
        got = analytic_laplace(theta, c * f)
        want = c ** (-theta) * analytic_laplace(theta, f)
        assert got == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------- MC route

def test_mc_laplace_f_equal_one_has_no_noise():
    # integrand is exp(totals * tail) with tail below the truncation cutoff,
    # so the estimate pins to 1 up to the truncation bias
    res = mc_laplace(1.0, StepFunction.constant(1.0), 2_000, RngStream(5))
    assert abs(res.estimate - 1.0) <= 1e-8
    assert res.stderr <= 1e-8


def test_mc_laplace_matches_analytic_constant():
    res = mc_laplace(1.0, StepFunction.constant(2.0), 100_000, RngStream(6))
    assert abs(res.estimate - 0.5) <= 4.0 * res.stderr
    assert res.stderr < 0.01


def test_mc_laplace_matches_analytic_two_level():
    theta = 0.5
    f = halves(0.6, 1.5)
    want = analytic_laplace(theta, f)
    res = mc_laplace(theta, f, 100_000, RngStream(7))
    assert abs(res.estimate - want) <= 4.0 * res.stderr


def test_mc_laplace_refuses_infinite_variance_region():
    with pytest.raises(InfiniteVarianceError):
        mc_laplace(1.0, StepFunction.constant(0.5), 1_000, RngStream(8))
    with pytest.raises(InfiniteVarianceError):
        mc_laplace(1.0, halves(0.4, 3.0), 1_000, RngStream(8))


def test_mc_laplace_override_runs_anyway():
    res = mc_laplace(1.0, StepFunction.constant(0.5), 5_000, RngStream(9),
                     allow_infinite_variance=True)
    assert math.isfinite(res.estimate) and res.estimate > 0.0


def test_mc_laplace_reproducible_across_stream_split():
    f = halves(1.2, 0.8)
    a = mc_laplace(1.0, f, 30_000, RngStream(10), streams=3)
    b = mc_laplace(1.0, f, 30_000, RngStream(10), streams=3)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_mc_laplace_validation():
    with pytest.raises(DomainError):
        mc_laplace(-1.0, StepFunction.constant(2.0), 100, RngStream(0))
    with pytest.raises(DomainError):
        mc_laplace(1.0, 2.0, 100, RngStream(0))


_ESTIMATORS = {
    "mc_laplace": lambda n, streams: [mc_laplace(1.0, halves(1.2, 0.8), n, RngStream(4),
                                                 streams=streams)],
    "weighted_box_mass": lambda n, streams: weighted_box_mass(
        PartitionSpec(np.array([0.5, 1.5])), [0.5, 1.0], n, RngStream(4), streams=streams),
    "quasi_invariance_pairs": lambda n, streams: [rep.mc for rep in quasi_invariance_pairs(
        1.0, [(halves(1.3, 0.9), halves(2.0, 1.2))], n, RngStream(4), streams=streams)],
}


@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
@pytest.mark.parametrize("n_samples, streams", [
    (True, 1), (100.5, 1), (100.0, 1), ("100", 1), (0, 1), (-3, 1), (None, 1),
    (100, True), (100, 2.5), (100, 0), (100, np.bool_(True)),
])
def test_estimators_refuse_counts_that_are_not_positive_integers(monkeypatch, name,
                                                                 n_samples, streams):
    # True used to draw one sample, and 100.5 and 2.5 failed inside numpy.
    # The refusal comes before any draw.
    def refuse(_self):
        raise AssertionError("drew before refusing the counts")

    monkeypatch.setattr(RngStream, "generator", refuse)
    with pytest.raises(DomainError, match="positive integer"):
        _ESTIMATORS[name](n_samples, streams)


@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_estimators_take_numpy_integer_counts_as_python_ints(name):
    got = _ESTIMATORS[name](np.int64(100), np.int32(2))
    want = _ESTIMATORS[name](100, 2)
    assert got == want
    assert all(type(r.n_samples) is int and type(r.streams) is int for r in got)


# ------------------------------------------------------------ quasi-invariance

def test_quasi_invariance_identity_and_mc():
    theta = 1.0
    a = halves(2.0, 0.5)              # zero log-mean: phi(a) = 1
    f = halves(1.5, 2.5)
    (rep,) = quasi_invariance_pairs(theta, [(a, f)], n_samples=60_000, rng=RngStream(14))
    assert rep.analytic_residual <= 1e-14
    assert rep.phi_a == pytest.approx(1.0, abs=1e-14)
    assert rep.analytic_af == pytest.approx(rep.analytic_f, rel=1e-12)
    assert abs(rep.z_score) <= 4.0


def test_quasi_invariance_general_multiplicator():
    # a not in the kernel group: phi(a) != 1 but the cocycle identity is exact
    theta = 1.5
    a = halves(1.3, 0.9)
    f = halves(2.0, 1.2)
    (rep,) = quasi_invariance_pairs(theta, [(a, f)], n_samples=60_000, rng=RngStream(15))
    assert abs(rep.phi_a - 1.0) > 0.05
    assert abs(rep.analytic_af * rep.phi_a - rep.analytic_f) <= 1e-14
    assert abs(rep.z_score) <= 4.0


_SEVENTY = StepFunction(np.linspace(0.0, 1.0, 71), 0.6 + np.random.default_rng(3).random(70))


@pytest.mark.parametrize("samples", [900, 33_000])
@pytest.mark.parametrize("streams", [1, 2])
@pytest.mark.parametrize("width, floor", [(1, 1 << 17), (3, 0)])
def test_invariance_pairs_share_one_batch_of_draws(monkeypatch, width, floor, streams, samples):
    # Every pair is estimated from the same draws on rng's own streams, so
    # pair k's report is that of the pair of one and its estimate
    # mc_laplace's, bit for bit: serially and with every pass split, across
    # a chunk boundary at 33 000 samples.  Constant products (the middle and
    # last pairs) skip the lookup; the 70-piece f takes the binary search.
    # A pair outside the finite-variance region is refused as mc_laplace
    # refuses it.
    from conicpd import processes

    monkeypatch.setattr(processes, "_WIDTH", width)
    monkeypatch.setattr(processes, "_SPLIT_CELLS", floor)
    pairs = [(halves(1.3, 0.9), halves(2.0, 1.2)),
             (StepFunction.constant(1.1), StepFunction.constant(1.4)),
             (halves(1.2, 1.0), _SEVENTY),
             (halves(2.0, 0.5), halves(1.5, 2.5)),
             (halves(0.9, 0.9), StepFunction.constant(1.3))]
    rng = RngStream(5, 1000)
    reports = quasi_invariance_pairs(1.5, pairs, samples, rng, streams=streams)
    assert len(reports) == len(pairs)
    for (a, f), rep in zip(pairs, reports):
        assert rep.mc == mc_laplace(1.5, a * f, samples, rng, streams=streams)
        assert [rep] == quasi_invariance_pairs(1.5, [(a, f)], samples, rng, streams=streams)
    with pytest.raises(InfiniteVarianceError):
        quasi_invariance_pairs(1.5, pairs + [(halves(0.5, 1.0), halves(1.0, 1.0))], samples,
                               rng, streams=streams)


def test_no_invariance_pairs_draw_nothing(monkeypatch):
    def refuse(_self):
        raise AssertionError("a draw was made for no pairs")

    monkeypatch.setattr(RngStream, "generator", refuse)
    assert quasi_invariance_pairs(1.5, [], 900, RngStream(5)) == []


# -------------------------------------------------- windowed functional law

def test_functional_window_flat_case_is_linear():
    # f = 1, theta = 1: weighted mass of {<f, xi> <= t} is exactly t
    rep = functional_distribution_check(1.0, StepFunction.constant(1.0), 1.0,
                                        200_000, RngStream(16))
    assert rep.c_f == 0.0
    assert rep.t_grid.tolist() == np.linspace(0.125, 1.0, 8).tolist()
    assert np.allclose(rep.exact, rep.t_grid)
    assert np.all(np.abs(rep.z_scores) <= 4.0)


def test_functional_window_constant_scaling():
    # f = d rescales the window law by the transform factor d^-theta
    theta, d = 1.5, 2.0
    rep = functional_distribution_check(theta, StepFunction.constant(d), 1.0,
                                        200_000, RngStream(17))
    want = d ** (-theta) * rep.t_grid ** theta / math.gamma(theta + 1.0)
    assert np.allclose(rep.exact, want, rtol=1e-12)
    assert np.all(np.abs(rep.z_scores) <= 4.0)


def test_functional_window_two_level_function():
    theta = 1.0
    f = halves(0.8, 1.6)
    rep = functional_distribution_check(theta, f, 1.0, 200_000, RngStream(18))
    assert rep.c_f == pytest.approx(log_mean(f, theta), rel=1e-15)
    assert np.all(np.abs(rep.z_scores) <= 4.0)


@pytest.mark.parametrize("theta, b, log", [(50.0, 1e10, "982.542"), (1e306, 1e300, "nan")])
def test_an_overflowing_window_law_is_refused_before_drawing(monkeypatch, theta, b, log):
    # It was formed after the draws, and overflowed to inf with a warning.
    def refuse(_self):
        raise AssertionError("drew before refusing the exact side")

    monkeypatch.setattr(RngStream, "generator", refuse)
    with pytest.raises(NumericalError, match=rf"the window law .* = exp\({log}\) is not a finite"):
        functional_distribution_check(theta, StepFunction.constant(1.5), b, 100, RngStream(0))


@pytest.mark.parametrize("call, match", [
    (lambda: functional_distribution_check(1.0, 2.0, 1.0, 100, RngStream(0)), "StepFunction"),
    (lambda: functional_distribution_check(1.0, None, 1.0, 100, RngStream(0)), "StepFunction"),
    (lambda: functional_distribution_check(1.0, halves(0.8, 1.6), 1.0, 100, RngStream(0),
                                           eps=0.0), "eps"),
    (lambda: weighted_box_mass(None, 1.0, 100, RngStream(0)), "PartitionSpec"),
    (lambda: weighted_box_mass(np.array([0.5, 1.5]), 1.0, 100, RngStream(0)), "PartitionSpec"),
    (lambda: weighted_box_mass(PartitionSpec(np.array([1.0])), 1.0, 100, RngStream(0),
                               eps=1.5), "eps"),
    # No edge used to draw every sample and return [], and then was refused
    # only by pooled_mean's column check.
    (lambda: weighted_box_mass(PartitionSpec(np.array([1.0])), [], 100, RngStream(0)),
     "at least one box edge"),
])
def test_window_and_box_estimators_check_their_arguments_before_drawing(monkeypatch, call,
                                                                        match):
    # A float f used to fail with AttributeError inside the kernel, after the
    # first stick batch was drawn, and a spec of None on its missing .theta.
    def refuse(_self):
        raise AssertionError("drew before refusing the arguments")

    monkeypatch.setattr(RngStream, "generator", refuse)
    with pytest.raises(DomainError, match=match):
        call()


def test_functional_window_does_not_depend_on_row_blocks(monkeypatch):
    from conicpd import processes

    reports = []
    for width in (1, 3):
        monkeypatch.setattr(processes, "_WIDTH", width)
        monkeypatch.setattr(processes, "_SPLIT_CELLS", 0)
        reports.append(functional_distribution_check(1.0, halves(0.8, 1.6), 1.0, 5000,
                                                     RngStream(18)))
    serial, split = reports
    assert np.array_equal(serial.estimates, split.estimates)
    assert np.array_equal(serial.stderrs, split.stderrs)


# sha256 of (estimates, stderrs, z_scores) bytes of functional_distribution_check(
# theta, f, b, samples, RngStream(seed), streams=...), frozen while its kernel
# still held whole location and f-value matrices, and re-frozen at 0.9.0
# with the narrow first stick block.  The first case has two chunks in one
# stream; the last one's batch grows its stick buffer.
_WINDOW_SHA256 = {
    (1.0, "three", 1.0, 40_000, 7, 2): "dec657c6ce1f896e269e790ea6cbdb6ad442f6496dc1a748fb47f81bd8bd4c09",
    (2.5, "constant", 2.0, 5000, 8, 1): "ae7b31ec346ab8235f65ef95c75dbb95e8a49888051347df242b99aae4481ac2",
    (4.0, "three", 1.5, 20_000, 4, 1): "18d1e3e5116a302705169a371d29e8aeff6be69e7b44b94de6d017c59579d3dc",
}


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("case", list(_WINDOW_SHA256))
def test_functional_window_reports_are_frozen(monkeypatch, case, width):
    from conicpd import processes

    monkeypatch.setattr(processes, "_WIDTH", width)
    monkeypatch.setattr(processes, "_SPLIT_CELLS", 0)
    theta, name, b, samples, seed, streams = case
    f = (StepFunction(np.array([0.0, 0.3, 0.7, 1.0]), np.array([1.8, 0.9, 1.3]))
         if name == "three" else StepFunction.constant(1.5))
    rep = functional_distribution_check(theta, f, b, samples, RngStream(seed), streams=streams)
    digest = hashlib.sha256(rep.estimates.tobytes() + rep.stderrs.tobytes()
                            + rep.z_scores.tobytes()).hexdigest()
    assert digest == _WINDOW_SHA256[case]


def test_windows_exponentiate_only_the_rows_they_keep():
    # At theta = 3000 most totals overflow exp; those rows lie outside every
    # window, and exponentiating them used to print "overflow encountered in
    # exp".
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = functional_distribution_check(3000.0, StepFunction.constant(1.0), 1.0, 8,
                                            RngStream(0))
    assert np.all(np.isfinite(rep.estimates)) and np.all(np.isfinite(rep.stderrs))


def test_window_weights_are_the_weights_of_every_row_masked():
    from conicpd.laplace import _window_weights

    gen = np.random.default_rng(5)
    stat = gen.random(400) * 3.0
    stat[::7] = np.nan
    totals = gen.random(400) * 40.0
    grid = np.array([0.5, 1.0, 2.0])
    got = _window_weights(stat, grid, totals)
    want = np.where(stat[:, None] <= grid[None, :], np.exp(totals)[:, None], 0.0)
    assert got.shape == (400, 3) and got.tobytes() == want.tobytes()


def test_functional_window_validation():
    f = StepFunction.constant(1.0)
    with pytest.raises(DomainError):
        functional_distribution_check(1.0, f, -1.0, 100, RngStream(0))


# ------------------------------------------------------- weighted box masses

def test_weighted_box_mass_single_part_unit_box():
    # n=1, theta=1, b=1: closed form is 1/Gamma(2) = 1
    spec = PartitionSpec(np.array([1.0]))
    (res,) = weighted_box_mass(spec, 1.0, 200_000, RngStream(19))
    assert box_mass_L(spec, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert abs(res.estimate - 1.0) <= 4.0 * res.stderr


def test_weighted_box_mass_matches_product_formula():
    spec = PartitionSpec(np.array([0.5, 1.5]))
    b_values = [0.5, 1.0]
    results = weighted_box_mass(spec, b_values, 300_000, RngStream(20))
    for b, res in zip(b_values, results):
        want = box_mass_L(spec, b)
        assert abs(res.estimate - want) <= 4.0 * res.stderr, (b, res.estimate, want)


def test_weighted_box_mass_validation():
    spec = PartitionSpec(np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        weighted_box_mass(spec, -0.5, 100, RngStream(0))
    with pytest.raises(DomainError):
        weighted_box_mass(spec, [1.0, np.inf], 100, RngStream(0))
    # Bool and text are refused, alone or in a list; numpy scalars are numbers.
    for bad in ([True], True, "2", ["2"], [1.0, "2"], [np.bool_(True)], [[1.0]], None):
        with pytest.raises(DomainError, match="box edge b must be a positive real"):
            weighted_box_mass(spec, bad, 100, RngStream(0))
    want = weighted_box_mass(spec, [1.0, 2.0], 100, RngStream(0))
    assert weighted_box_mass(spec, np.array([1, 2]), 100, RngStream(0)) == want
    assert weighted_box_mass(spec, [np.float32(1.0), np.int64(2)], 100, RngStream(0)) == want
