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
    laplace,
    log_mean,
    mc_laplace,
    phi,
    quasi_invariance_pairs,
    weighted_box_mass,
)
from conicpd.processes import _finite_exp
from conicpd.stepfn import _piece_index
from stick_batches import gamma_batch


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


@pytest.mark.parametrize("fewest, most", [(0, 64), (65, 76)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_piece_index_matches_binary_search_on_short_and_long_grids(fewest, most, data):
    edges, x = data.draw(_grid_and_points(fewest, most))
    breakpoints = np.concatenate([[0.0], edges, [1.0]])
    expected = np.searchsorted(breakpoints, x, side="right") - 1
    index = _piece_index(edges, x)
    assert np.array_equal(index, expected)
    assert np.array_equal(_piece_index(edges, x[:, None].repeat(3, axis=1)),
                          expected[:, None].repeat(3, axis=1))
    values = np.arange(1.0, edges.size + 2.0)
    f = StepFunction(breakpoints, values)
    assert np.array_equal(f(x), values[expected])
    assert f(float(x[0])) == values[expected[0]]


@pytest.mark.parametrize("fewest, most", [(1, 65), (66, 76)])
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
    # The integrand is exp(G (1 - 1)) = 1 exactly: the piece mass carries no
    # truncation, so neither does the estimate.
    res = mc_laplace(1.0, StepFunction.constant(1.0), 2_000, RngStream(5))
    assert res.estimate == 1.0 and res.stderr == 0.0


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


def _on(grid, *values):
    return StepFunction(grid, np.array(values, dtype=float))


@pytest.mark.parametrize("samples", [900, 33_000])
@pytest.mark.parametrize("streams", [1, 2])
@pytest.mark.parametrize("block_cells", [1 << 16, 1 << 10])
def test_invariance_pairs_share_one_batch_of_draws(monkeypatch, block_cells, streams, samples):
    # Pairs whose products share one grid are estimated from the same piece
    # masses on rng's own streams, so pair k's report is that of the pair of
    # one and its estimate mc_laplace's, bit for bit, in any row blocks and
    # across a chunk boundary at 33 000 samples.  The second pair is a
    # constant written on the grid; the second group's f is the 70-piece
    # one.  A pair outside the finite-variance region is refused as
    # mc_laplace refuses it.
    monkeypatch.setattr(laplace, "_BLOCK_CELLS", block_cells)
    two, seventy = np.array([0.0, 0.5, 1.0]), _SEVENTY.breakpoints
    groups = [[(halves(1.3, 0.9), halves(2.0, 1.2)), (_on(two, 1.1, 1.1), _on(two, 1.4, 1.4)),
               (halves(2.0, 0.5), halves(1.5, 2.5))],
              [(_on(seventy, *np.linspace(0.9, 1.2, 70)), _SEVENTY),
               (_on(seventy, *[1.3] * 70), _SEVENTY)]]
    rng = RngStream(5, 1000)
    for pairs in groups:
        reports = quasi_invariance_pairs(1.5, pairs, samples, rng, streams=streams)
        assert len(reports) == len(pairs)
        for (a, f), rep in zip(pairs, reports):
            assert rep.mc == mc_laplace(1.5, a * f, samples, rng, streams=streams)
            assert [rep] == quasi_invariance_pairs(1.5, [(a, f)], samples, rng, streams=streams)
    with pytest.raises(InfiniteVarianceError):
        quasi_invariance_pairs(1.5, groups[0] + [(halves(0.5, 1.0), halves(1.0, 1.0))], samples,
                               rng, streams=streams)


def test_invariance_pairs_on_other_grids_agree_in_law():
    # The union grid is the 70-piece one, which splits each half of the
    # first pair's grid into 35 independent gamma masses: the same law, other
    # draws.  The second pair's own grid is the union, so its draws are the same.
    pairs = [(halves(1.3, 0.9), halves(2.0, 1.2)), (StepFunction.constant(1.1), _SEVENTY)]
    split, whole = quasi_invariance_pairs(1.5, pairs, 60_000, RngStream(6))
    alone = [quasi_invariance_pairs(1.5, [pair], 60_000, RngStream(6))[0] for pair in pairs]
    assert alone[1] == whole
    assert alone[0].mc != split.mc
    assert abs(alone[0].mc.estimate - split.mc.estimate) <= 4.0 * math.hypot(
        alone[0].mc.stderr, split.mc.stderr)


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


@pytest.mark.parametrize("theta, b, log", [(50.0, 1e10, "982.542")])
def test_an_overflowing_window_law_is_refused_before_drawing(monkeypatch, theta, b, log):
    # It was formed after the draws, and overflowed to inf with a warning.
    def refuse(_self):
        raise AssertionError("drew before refusing the exact side")

    monkeypatch.setattr(RngStream, "generator", refuse)
    with pytest.raises(NumericalError, match=rf"the window law .* = exp\({log}\) is not a finite"):
        functional_distribution_check(theta, StepFunction.constant(1.5), b, 100, RngStream(0))


def test_a_window_law_that_underflows_is_0_and_is_estimated_0(monkeypatch):
    # At theta = 1e306 and b = 1e300 the exponent's terms were inf - inf =
    # NaN, and the law was refused; Stirling's form gives about -1.3e307.
    # The stick path then met its cell budget; every draw's mass, near
    # 1e306, now lies outside every window.
    exact = []

    def spy(exponent, quantity):
        exact.append(_finite_exp(exponent, quantity))
        return exact[-1]

    monkeypatch.setattr(laplace, "_finite_exp", spy)
    rep = functional_distribution_check(1e306, StepFunction.constant(1.5), 1e300, 100,
                                        RngStream(0))
    assert len(exact) == 1 and exact[0].tolist() == [0.0] * 8
    for values in (rep.exact, rep.estimates, rep.stderrs, rep.z_scores):
        assert values.tolist() == [0.0] * 8


@pytest.mark.parametrize("call, match", [
    (lambda: functional_distribution_check(1.0, 2.0, 1.0, 100, RngStream(0)), "StepFunction"),
    (lambda: functional_distribution_check(1.0, None, 1.0, 100, RngStream(0)), "StepFunction"),
    (lambda: weighted_box_mass(None, 1.0, 100, RngStream(0)), "PartitionSpec"),
    (lambda: weighted_box_mass(np.array([0.5, 1.5]), 1.0, 100, RngStream(0)), "PartitionSpec"),
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
    reports = []
    for block_cells in (1 << 16, 1 << 3):
        monkeypatch.setattr(laplace, "_BLOCK_CELLS", block_cells)
        reports.append(functional_distribution_check(1.0, halves(0.8, 1.6), 1.0, 5000,
                                                     RngStream(18)))
    serial, split = reports
    assert np.array_equal(serial.estimates, split.estimates)
    assert np.array_equal(serial.stderrs, split.stderrs)


# sha256 of (estimates, stderrs, z_scores) bytes of functional_distribution_check(
# theta, f, b, samples, RngStream(seed), streams=...), frozen while its kernel
# still held whole location and f-value matrices, re-frozen at 0.9.0 with
# the narrow first stick block, and at 0.14.0, when the draws became exact
# piece masses.  The first case has two chunks in one stream.
_WINDOW_SHA256 = {
    (1.0, "three", 1.0, 40_000, 7, 2): "9dae832e230a116eff9f3556b649d9f7c7999df9ab0b7ce9d782c4ab41cfb52e",
    (2.5, "constant", 2.0, 5000, 8, 1): "8b35fe548a039ed221ad842e618cc80d784894b783340b744ea707ea97b9859a",
    (4.0, "three", 1.5, 20_000, 4, 1): "d06ca981e7bd94e106ed5e3c2f96c64ef1a4edf33fc7d4a790b13bc842273a0c",
}


@pytest.mark.parametrize("block_cells", [1 << 16, 1 << 3])
@pytest.mark.parametrize("case", list(_WINDOW_SHA256))
def test_functional_window_reports_are_frozen(monkeypatch, case, block_cells):
    monkeypatch.setattr(laplace, "_BLOCK_CELLS", block_cells)
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


# ------------------------------------------- exact piece masses vs the stick path

_THREE = StepFunction(np.array([0.0, 0.3, 0.7, 1.0]), np.array([1.8, 0.9, 1.3]))
_BOXES = PartitionSpec(np.array([0.5, 1.5]))


def _stick_oracle(theta, statistic, samples, seed):
    """Mean, stderr and mean tail_bound of ``statistic`` over weighted stick-path draws.

    ``statistic(atoms, locations, totals)`` takes each row's atom masses
    (the normalized masses times the row's gamma total), their uniform
    locations and the totals, as ``gamma_batch`` draws them.
    """
    gen = RngStream(seed, 77).generator()
    values, tails = [], []
    for _ in range(samples // 10_000):
        masses, locations, totals, tail = gamma_batch(theta, 1e-10, 10_000, gen)
        values.append(statistic(masses * totals[:, None], locations, totals))
        tails.append(tail * totals)
    values = np.concatenate(values)
    return values.mean(), values.std(ddof=1) / math.sqrt(values.size), np.concatenate(tails).mean()


def _laplace_statistic(atoms, locations, totals):
    return np.exp(totals - (atoms * _THREE(locations)).sum(axis=1))


def _box_statistic(atoms, locations, totals):
    parts = [np.where(_BOXES.marks(locations) == i, atoms, 0.0).sum(axis=1)
             for i in range(_BOXES.n)]
    return np.where(np.max(parts, axis=0) <= 1.0, np.exp(totals), 0.0)


def _window_statistic(atoms, locations, totals):
    return np.where((atoms * _THREE(locations)).sum(axis=1) <= 1.0, np.exp(totals), 0.0)


@pytest.mark.parametrize("theta, seed", [(0.5, 21), (4.0, 22)])
def test_piece_masses_meet_the_weighted_stick_path(theta, seed):
    # Each estimator draws its pieces' masses as independent Gamma(theta
    # |I_j|) variables; the stick path draws atoms and marks them by their
    # locations, which is the oracle here: mc_laplace on the three-piece f,
    # the box mass of parts (0.5, 1.5) at b = 1 (theta is their sum, 2), and
    # the window law of the three-piece f at t = b = 1.  Each pair must agree
    # within 4 combined stderr plus the stick side's mean tail_bound.
    exact = [mc_laplace(theta, _THREE, 100_000, RngStream(seed)),
             weighted_box_mass(_BOXES, 1.0, 100_000, RngStream(seed))[0]]
    window = functional_distribution_check(theta, _THREE, 1.0, 100_000, RngStream(seed))
    exact.append((window.estimates[-1], window.stderrs[-1]))
    sticks = [_stick_oracle(theta, _laplace_statistic, 40_000, seed),
              _stick_oracle(_BOXES.theta, _box_statistic, 40_000, seed),
              _stick_oracle(theta, _window_statistic, 40_000, seed)]
    apart = []
    for name, got, (mean, stderr, tail) in zip(("laplace", "box", "window"), exact, sticks):
        estimate, error = (got.estimate, got.stderr) if hasattr(got, "estimate") else got
        if abs(estimate - mean) > 4.0 * math.hypot(error, stderr) + tail:
            apart.append((name, estimate, mean))
    assert apart == []


def test_many_pieces_hold_no_piece_matrix_and_keep_their_bytes_in_any_blocks(monkeypatch):
    # One chunk of 32768 rows over 4096 pieces would be a 1 GB matrix of
    # piece masses; the kernel draws and reduces it in row blocks of at most
    # _BLOCK_CELLS cells (16 rows here, one row at 2^10 cells), whose bytes
    # are the same.  theta = 4096 gives every piece the shape 1.
    import tracemalloc

    f = StepFunction(np.linspace(0.0, 1.0, 4097),
                     1.0 + 0.01 * np.random.default_rng(4).random(4096))
    tracemalloc.start()
    try:
        want = mc_laplace(4096.0, f, 32768, RngStream(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20 and abs(want.z(analytic_laplace(4096.0, f))) <= 6.0
    monkeypatch.setattr(laplace, "_BLOCK_CELLS", 1 << 10)
    assert mc_laplace(4096.0, f, 32768, RngStream(9)) == want


_STEPS = StepFunction(np.array([0.0, 0.3, 0.7, 1.0]), np.array([1.8, 0.9, 1.3]))
_T_GRID = np.linspace(1.0 / 8.0, 1.0, 8)


def _inside(stat, grid, totals):
    return np.where(stat[:, None] <= grid[None, :], np.exp(totals)[:, None], 0.0)


# Per estimator: the call that builds its kernel, the Gamma shapes of its
# pieces, and its integrand written out on the whole (rows, pieces) matrix.
_FINISHES = {
    "laplace": (lambda: mc_laplace(4.0, _STEPS, 2, RngStream(0)),
                4.0 * _STEPS.widths(),
                lambda g: np.exp((g * (1.0 - _STEPS.values)).sum(axis=1))[:, None]),
    "window": (lambda: functional_distribution_check(4.0, _STEPS, 1.0, 2, RngStream(0)),
               4.0 * _STEPS.widths(),
               lambda g: _inside((g * _STEPS.values).sum(axis=1), _T_GRID, g.sum(axis=1))),
    "box": (lambda: weighted_box_mass(PartitionSpec(np.array([0.5, 1.0, 1.5])),
                                      [0.5, 1.0, 2.0], 2, RngStream(0)),
            np.array([0.5, 1.0, 1.5]),
            lambda g: _inside(g.max(axis=1), np.array([0.5, 1.0, 2.0]), g.sum(axis=1))),
}


@pytest.mark.parametrize("block_cells", [1 << 16, 9, 7, 1])
@pytest.mark.parametrize("name", list(_FINISHES))
def test_each_estimator_reads_one_gamma_matrix_of_its_piece_masses(monkeypatch, name,
                                                                   block_cells):
    # An estimator's kernel must give, row for row and bit for bit, its
    # integrand on one whole standard_gamma draw of the piece masses, and
    # leave the generator where that draw does, whatever the row blocks:
    # all 1001 rows at once, three or two rows a block, or one row a block
    # when a block holds less than a row.  The generators start part way
    # through a Philox block.
    build, shapes, finish = _FINISHES[name]
    caught = []
    pooled = laplace.pooled_mean
    monkeypatch.setattr(laplace, "pooled_mean", lambda n, rng, streams, kernel, columns=1:
                        caught.append(kernel) or pooled(n, rng, streams, kernel, columns))
    build()
    (kernel,) = caught
    gens = [RngStream(31).generator() for _ in range(2)]
    for gen in gens:
        gen.random(3)
    want = finish(gens[0].standard_gamma(shapes, (1001, shapes.size)))
    monkeypatch.setattr(laplace, "_BLOCK_CELLS", block_cells)
    got = kernel(gens[1], 1001)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(gens[1].random(5), gens[0].random(5))
