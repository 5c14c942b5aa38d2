import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import k0, polygamma, psi

from conicpd import mellin
from conicpd import (
    DivergenceTable,
    DomainError,
    F_contour,
    F_direct,
    L_limit_study,
    NumericalError,
    PartitionSpec,
    RadiusSchedule,
    SaddleSolution,
    box_mass_L,
    divergence_experiment,
    find_L_zero,
    log_F_contour_rows,
    semigroup_convolution_check,
    solve_saddle,
)

EULER_GAMMA = 0.5772156649015328606065

# gamma solving psi(gamma) = log(lam), and the rate L = logGamma(gamma)
# - gamma log(lam), frozen from a 30-digit computation
SADDLE_ANCHORS = {
    0.5: (0.9330126182815945759134, 0.6891980835604352609709),
    1.0: (1.461632144968362341263, -0.1214862905358496080955),
    2.0: (2.479687450428178690538, -1.448286906323816427336),
    0.001: (0.1525133006356880646248, 2.863835534263775938008),
    1000.0: (1000.499958333338020831, -1002.534980772951499951),
}

# independently integrated contour values, 22 digits
F_ANCHORS = {
    (2, 0.5): 0.8420488764814166666713,
    (2, 1.0): 0.2277877454990668713054,
    (2, 2.0): 0.02231935217170604853949,
    (3, 0.5): 1.362710108013438627259,
    (3, 1.0): 0.1640416067483760731514,
    (4, 1.0): 0.1255485133415357307226,
}

TABLE_COLUMNS = ["n", "lambda", "r", "gamma", "L", "lnFn_over_n", "gap"]


# --------------------------------------------------------------------- saddle

def test_solve_saddle_anchors():
    for lam, (gamma, L) in SADDLE_ANCHORS.items():
        sol = solve_saddle(lam)
        assert sol.gamma == pytest.approx(gamma, rel=1e-12)
        assert sol.L_value == pytest.approx(L, rel=1e-11)
        assert sol.ratio_form == pytest.approx(math.exp(L), rel=1e-11)


def test_solve_saddle_curvature_at_one():
    sol = solve_saddle(1.0)
    assert sol.curvature == pytest.approx(0.9676722454476211704274, rel=1e-12)


def test_solve_saddle_known_integer_point():
    # lambda = exp(psi(2)) puts the saddle exactly at 2
    lam = 1.526205111595863880475
    sol = solve_saddle(lam)
    assert sol.gamma == pytest.approx(2.0, abs=1e-12)
    assert sol.L_value == pytest.approx(-0.845568670196934278787, rel=1e-12)


def test_solve_saddle_residual_over_log_grid():
    for lam in np.geomspace(1e-3, 1e3, 25):
        sol = solve_saddle(float(lam))
        assert abs(psi(sol.gamma) - math.log(lam)) <= 1e-13


def test_saddle_gamma_increases_with_lambda():
    gammas = [solve_saddle(float(lam)).gamma for lam in np.geomspace(0.01, 100, 15)]
    assert np.all(np.diff(gammas) > 0.0)


def test_saddle_solution_validation():
    with pytest.raises(DomainError):
        SaddleSolution(lam=1.0, gamma=2.0, L_value=0.0, curvature=1.0)
    good = solve_saddle(1.0)
    with pytest.raises(DomainError):
        SaddleSolution(lam=1.0, gamma=good.gamma, L_value=good.L_value, curvature=-1.0)
    with pytest.raises(DomainError):
        solve_saddle(0.0)
    with pytest.raises(DomainError):
        solve_saddle(-2.0)
    with pytest.raises(DomainError):
        solve_saddle(float("nan"))


# -------------------------------------------------------------- contour route

def test_contour_n_equal_one_inverts_to_exponential():
    for lam in (0.3, 1.0, 2.5):
        assert F_contour(1, lam) == pytest.approx(math.exp(-lam), rel=1e-10)


def test_contour_anchors():
    for (n, lam), want in F_ANCHORS.items():
        assert F_contour(n, lam) == pytest.approx(want, rel=1e-10), (n, lam)


def test_contour_two_atom_case_is_bessel():
    # F_2(lam) = 2 K_0(2 lam), checked off the anchor grid as well
    for lam in (0.35, 0.8, 1.7, 3.0):
        assert F_contour(2, lam) == pytest.approx(
            2.0 * k0(2.0 * lam), rel=1e-9)


def test_contour_independent_of_abscissa():
    for n, lam in ((2, 1.0), (3, 0.5), (5, 2.0)):
        gamma = solve_saddle(lam).gamma
        base = log_F_contour_rows([n], lam).log_F[0]
        for factor in (0.8, 1.0, 1.2, 1.5):
            shifted = log_F_contour_rows([n], lam, abscissa=factor * gamma).log_F[0]
            assert shifted == pytest.approx(base, abs=1e-8), (n, lam, factor)


def test_contour_handles_large_n_without_overflow():
    # n L(2) ~ -87 at n = 60: the log route must stay finite.  The value
    # sits below n L by the ~2.6 half-log correction at this n.
    val = log_F_contour_rows([60], 2.0).log_F[0]
    assert math.isfinite(val)
    assert val == pytest.approx(60 * SADDLE_ANCHORS[2.0][1], abs=3.5)


def test_contour_validation():
    with pytest.raises(DomainError):
        F_contour(0, 1.0)
    with pytest.raises(DomainError):
        F_contour(2, -1.0)
    with pytest.raises(DomainError):
        log_F_contour_rows([2], 1.0, abscissa=-0.3)


# --------------------------------------------------------------- direct route

def test_direct_n_equal_one():
    for lam in (0.5, 1.0, 2.0):
        assert F_direct(1, lam) == math.exp(-lam)


def test_direct_matches_contour():
    for n in (2, 3, 4):
        for lam in (0.5, 1.0, 2.0):
            if n == 4 and lam != 1.0:
                continue  # n=4 grid is heavy; one lambda exercises the path
            direct = F_direct(n, lam)
            contour = F_contour(n, lam)
            assert direct == pytest.approx(contour, rel=1e-8), (n, lam)


def test_direct_decreasing_in_lambda():
    values = [F_direct(3, lam) for lam in (0.5, 1.0, 2.0)]
    assert values[0] > values[1] > values[2] > 0.0


def test_direct_validation():
    with pytest.raises(DomainError):
        F_direct(5, 1.0)
    with pytest.raises(DomainError):
        F_direct(0, 1.0)
    with pytest.raises(DomainError):
        F_direct(2, 0.0)


# ----------------------------------------------------------------- rate limit

def test_limit_study_structure_and_convergence():
    study = L_limit_study(1.0, n_max=24)
    sol = study.saddle
    assert study.ns[0] == 2 and study.ns[-1] == 24

    # raw ratios sit below L by the 1/2 log(2 pi n psi')/n correction,
    # shrinking in magnitude
    assert np.all(study.gaps < 0.0)
    tail = np.abs(study.gaps[study.ns >= 5])
    assert np.all(np.diff(tail) < 0.0)

    # the corrected column removes the leading term...
    assert abs(study.corrected[-1] - sol.L_value) <= 0.01
    # ...and the Laplace series lands much closer still
    assert abs(study.extrapolated_gap) <= 2e-3
    assert study.extrapolated_limit == study.series[-1]
    assert study.extrapolated_limit == pytest.approx(
        sol.L_value + study.extrapolated_gap, rel=1e-12)

    # envelope constant C with |gap_n| <= C log n / n over the table
    logs = np.log(study.ns)
    assert np.all(np.abs(study.gaps) <= study.envelope_constant * logs / study.ns + 1e-12)


def test_limit_study_rows_schema():
    study = L_limit_study(0.5, n_max=6)
    rows = study.rows()
    assert len(rows) == 5
    for row in rows:
        assert list(row.keys()) == TABLE_COLUMNS
        assert row["r"] == 1.0 and row["lambda"] == 0.5
        assert row["gap"] == pytest.approx(row["lnFn_over_n"] - row["L"], abs=1e-15)


def test_limit_study_validation():
    with pytest.raises(DomainError):
        L_limit_study(1.0, n_max=70)
    with pytest.raises(DomainError):
        L_limit_study(1.0, n_max=4, n_min=5)
    with pytest.raises(DomainError):
        L_limit_study(1.0, n_max=10, n_min=1)


def laplace_kappa1(gamma):
    """First Laplace correction of F_n: F_n ~ e^{nL} (1 + kappa_1/n) / sqrt(2 pi n a)."""
    a, c3, c4 = (float(polygamma(k, gamma)) for k in (1, 2, 3))
    return c4 / (8 * a * a) - 5 * c3 * c3 / (24 * a ** 3)


# n = 2..40 and 12 values up to 640: the series must hold past the tables.
_SERIES_NS = np.concatenate([np.arange(2, 41), np.geomspace(50, 640, 12).round().astype(int)])


@pytest.mark.parametrize("lam", np.geomspace(1e-4, 1e4, 17).tolist())
def test_log_F_follows_its_laplace_series_to_order_n_squared(lam):
    # log F_n - (n L - 1/2 log(2 pi n a) + log(1 + kappa_1/n)) = O(n^-2); the
    # largest n^2 |remainder| on this grid is 0.0193, at lambda = 0.1.
    sol = solve_saddle(lam)
    ns = _SERIES_NS
    series = (ns * sol.L_value - 0.5 * np.log(2 * math.pi * ns * sol.curvature)
              + np.log1p(laplace_kappa1(sol.gamma) / ns))
    remainder = log_F_contour_rows(ns, lam).log_F - series
    assert np.all(ns ** 2 * np.abs(remainder) <= 0.05)


@pytest.mark.parametrize("lam", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("n_min, n_max", [(2, 3), (20, 21), (39, 40), (2, 40)])
def test_extrapolated_limit_is_within_n_cubed_of_L(lam, n_min, n_max):
    # A least-squares fit with three unknowns on these tables missed L by up
    # to 0.39 on two-row windows and by 9e-5 on n = 2..40.
    study = L_limit_study(lam, n_max=n_max, n_min=n_min)
    assert abs(study.extrapolated_gap) <= 0.05 / n_max ** 3
    kappa1 = laplace_kappa1(study.saddle.gamma)
    assert np.allclose(study.series, study.corrected - np.log1p(kappa1 / study.ns) / study.ns,
                       rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("lam", [0.3, 1.0, 3.0])
def test_contour_matches_meijer_g(lam):
    # F_n(lambda) = G^{n,0}_{0,n}(lambda^n | 0, ..., 0): mpmath's Meijer G is
    # an oracle that shares no code with the contour.
    ns = [2, 3, 4, 6, 10]
    rows = log_F_contour_rows(ns, lam)
    with mpmath.workdps(20):
        for n, log_f in zip(ns, rows.log_F):
            g = mpmath.meijerg([[], []], [[0] * n, []], mpmath.mpf(lam) ** n)
            assert abs(float(mpmath.log(g)) - log_f) <= 1e-13, n


# ------------------------------------------------------------------ L profile

def test_L_is_strictly_decreasing():
    grid = np.geomspace(0.05, 20.0, 30)
    L_vals = np.array([solve_saddle(float(lam)).L_value for lam in grid])
    assert np.all(np.diff(L_vals) < 0.0)


def test_find_L_zero():
    zero = find_L_zero()
    assert zero == pytest.approx(0.9179235347379753136428, abs=1e-10)
    assert abs(solve_saddle(zero).L_value) <= 1e-11


def test_L_crossing_sits_left_of_log_crossing():
    # -log(lam) crosses zero at 1; the rate L crosses earlier, and the two
    # curves agree exactly at lam = exp(-euler_gamma) where the saddle is 1
    assert find_L_zero() < 1.0
    sol = solve_saddle(math.exp(-EULER_GAMMA))
    assert sol.gamma == pytest.approx(1.0, abs=1e-12)
    assert sol.L_value == pytest.approx(EULER_GAMMA, rel=1e-12)


# ------------------------------------------------------ argument checks

_REAL_BAD = (True, False, "2")
_INDEX_BAD = (True, "2", 2.7)
_SPEC = PartitionSpec(np.array([0.5, 1.5]))


def _rates(lam, schedule, ns):
    return divergence_experiment(lam, schedule, ns=ns).rates.tolist()


# A call taking a positive real or a table index x, the values of x it must
# refuse, and a value whose numpy scalars must give the Python number's result.
_ARGUMENT_CASES = {
    "solve_saddle": (lambda x: solve_saddle(x).gamma, _REAL_BAD, 2.0),
    "log_F_contour_rows lambda": (lambda x: log_F_contour_rows([3], x).log_F[0], _REAL_BAD,
                                  2.0),
    "contour abscissa": (lambda x: log_F_contour_rows([3], 1.0, abscissa=x).log_F[0],
                         _REAL_BAD, 2.0),
    "F_direct lambda": (lambda x: F_direct(2, x), _REAL_BAD, 2.0),
    "divergence lambda": (lambda x: _rates(x, RadiusSchedule("constant"), [2, 3]),
                          _REAL_BAD, 2.0),
    "schedule scale": (lambda x: _rates(1.0, RadiusSchedule("sqrt_n", scale=x), [2, 3]),
                       _REAL_BAD, 2.0),
    "box_mass_L": (lambda x: box_mass_L(_SPEC, x), _REAL_BAD, 2.0),
    "semigroup shape": (lambda x: semigroup_convolution_check(x, 1.5),
                        _REAL_BAD, 2.0),
    "F_direct n": (lambda n: F_direct(n, 1.0), _INDEX_BAD, 2),
    "log_F_contour_rows n": (lambda n: log_F_contour_rows([n], 1.0).log_F[0], _INDEX_BAD, 2),
    "divergence ns": (lambda n: _rates(1.0, RadiusSchedule("constant"), [n]), _INDEX_BAD, 2),
}


@pytest.mark.parametrize("case", list(_ARGUMENT_CASES))
def test_bool_text_and_fractions_are_refused_and_numpy_scalars_accepted(case):
    call, bad, good = _ARGUMENT_CASES[case]
    for value in bad:
        with pytest.raises(DomainError):
            call(value)
    want = call(good)
    kinds = (np.int64, np.int32) if isinstance(good, int) else (np.int64, np.float32,
                                                               np.float64)
    for kind in kinds:
        assert call(kind(good)) == want, kind


# ------------------------------------------------------- divergence behaviour

def test_divergence_constant_schedule_tracks_nonzero_rate():
    ns = np.arange(2, 13)
    for lam in (0.5, 2.0):
        table = divergence_experiment(lam, RadiusSchedule("constant"), ns=ns)
        L = SADDLE_ANCHORS[lam][1]
        assert np.allclose(table.limits, L, rtol=1e-10)
        # the per-n rate closes in on the nonzero limit (the residual
        # half-log correction is ~0.2 at n=12)
        assert abs(table.rates[-1] - L) < abs(table.rates[0] - L)
        assert abs(table.rates[-1] - L) < 0.25
    # L(2) < 0 drives D_n to zero; L(0.5) > 0 drives it to infinity
    low = divergence_experiment(2.0, RadiusSchedule("constant"), ns=ns)
    high = divergence_experiment(0.5, RadiusSchedule("constant"), ns=ns)
    assert low.rates[-1] < -1.0
    assert high.rates[-1] > 0.3


def test_divergence_growing_radius_sends_rate_down():
    table = divergence_experiment(1.0, RadiusSchedule("sqrt_n"), ns=np.arange(2, 13))
    assert np.all(np.diff(table.limits) < 0.0)
    assert table.limits[-1] < table.limits[0] - 1.0
    assert table.rates[-1] < table.rates[0] - 1.0


def test_divergence_rows_schema_and_custom_schedule():
    schedule = RadiusSchedule("sqrt_n", scale=0.5)
    table = divergence_experiment(1.0, schedule, ns=np.array([2, 4, 8]))
    assert isinstance(table, DivergenceTable)
    rows = table.rows()
    assert [row["n"] for row in rows] == [2, 4, 8]
    for row, n in zip(rows, (2, 4, 8)):
        assert list(row.keys()) == TABLE_COLUMNS
        assert row["r"] == 0.5 * math.sqrt(n)


def test_radius_schedule_validation():
    with pytest.raises(DomainError):
        RadiusSchedule("linear")
    with pytest.raises(DomainError):
        RadiusSchedule("constant", scale=-1.0)
    with pytest.raises(DomainError, match="constant or sqrt_n"):
        RadiusSchedule("custom")
    with pytest.raises(DomainError, match="not a finite positive real at n=4"):
        RadiusSchedule("sqrt_n", scale=1e308).radius(4)
    with pytest.raises(DomainError):
        divergence_experiment(1.0, RadiusSchedule("constant"), ns=np.array([0, 2]))


@pytest.mark.parametrize("lam, schedule, ns, where", [
    (1e10, RadiusSchedule("sqrt_n", 1e300), [2, 3], "= inf .* at n=2"),
    (1e-300, RadiusSchedule("constant", 1e-300), [2, 3], "= 0.0 .* at n=2"),
    (10.0, RadiusSchedule("sqrt_n", 1e307), [2, 4], "= inf .* at n=4"),
])
def test_divergence_refuses_an_argument_that_overflows_or_underflows(lam, schedule, ns, where):
    # lambda * r_n used to overflow in numpy with a RuntimeWarning (an error
    # in this suite), or to underflow to 0; either way the saddle solve then
    # refused "lambda", which was valid.
    with pytest.raises(DomainError, match=r"lambda \* r_n " + where):
        divergence_experiment(lam, schedule, ns)


_TINY_ABSCISSA = """
import sys
from conicpd import NumericalError, log_F_contour_rows
try:
    log_F_contour_rows([2], 1.0, abscissa=float(sys.argv[1]))
except NumericalError as error:
    print(error)
"""


@pytest.mark.parametrize("abscissa, message", [
    ("1e-300", "psi'(abscissa) = inf is not finite at abscissa=1e-300"),
    ("1e-9", "contour quadrature did not converge in 4194305 nodes"),
])
def test_a_tiny_abscissa_is_refused_instead_of_hanging(abscissa, message):
    # At 1e-300, psi'(abscissa) = zeta(2, abscissa) is inf, and the decay
    # search started at cutoff 0, which "cutoff *= 1.5" never left.  At 1e-9
    # the first grid level held some 10^10 nodes, formed in full before the
    # node cap refused it.  A subprocess, so that a regression fails here
    # instead of stalling the suite.
    proc = subprocess.run([sys.executable, "-c", _TINY_ABSCISSA, abscissa], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(Path(mellin.__file__).parents[1])))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith(message)


@pytest.mark.parametrize("ns", [[10**30], [2, 2**63], np.array([2**63], dtype=np.uint64)])
def test_contour_refuses_an_n_past_int64(ns):
    # astype(int) used to raise a bare OverflowError.
    with pytest.raises(DomainError, match=r"^n must be a positive integer below 2\*\*63$"):
        log_F_contour_rows(ns, 1.0)
    with pytest.raises(DomainError, match=r"^n must be a positive integer below 2\*\*63$"):
        divergence_experiment(1.0, RadiusSchedule("constant"), ns)


@pytest.mark.parametrize("ns", [np.arange(5, 3), []])
def test_divergence_experiment_refuses_an_empty_table(ns):
    # an empty range used to return a table with no rows
    with pytest.raises(DomainError, match="non-empty"):
        divergence_experiment(1.0, RadiusSchedule("constant"), ns=ns)


# ------------------------------------------------- batched trapezoid contour

def mp_log_F(n, lam, gamma):
    """log F_n(lam) by mpmath quadrature of the contour at Re s = gamma."""
    with mpmath.workdps(25):
        log_lam = mpmath.log(lam)
        s0 = mpmath.mpf(gamma)
        peak = n * (mpmath.loggamma(s0) - s0 * log_lam)
        width = 1 / mpmath.sqrt(n * mpmath.psi(1, s0))

        def height(t):
            s = mpmath.mpc(s0, t)
            return mpmath.re(mpmath.exp(n * (mpmath.loggamma(s) - s * log_lam) - peak))

        value = mpmath.quad(height, [mpmath.mpf(0)] + [width * 2 ** k for k in range(-1, 12)])
        return float(peak + mpmath.log(value / mpmath.pi))


def test_contour_rows_equal_single_row_calls():
    ns = np.arange(1, 31)
    for lam in (0.01, 0.7, 5.0):
        rows = log_F_contour_rows(ns, lam)
        single = np.array([log_F_contour_rows([n], lam).log_F[0] for n in ns])
        assert np.allclose(rows.log_F, single, rtol=1e-12, atol=0.0), lam
        assert list(rows.ns) == list(ns)


def test_contour_rows_keep_input_order_and_repeats():
    rows = log_F_contour_rows([7, 2, 7, 40], 1.3)
    assert list(rows.ns) == [7, 2, 7, 40]
    assert rows.log_F[0] == rows.log_F[2]
    assert rows.log_F[1] == pytest.approx(log_F_contour_rows([2], 1.3).log_F[0], rel=1e-12)


# sha256 of the bytes of log_F, error and nodes of log_F_contour_rows(ns,
# lam, abscissa), frozen at 0.12.0 before each grid level came to evaluate
# only the nodes it keeps.  lambda = 1e-300 runs ~10^5 nodes in several
# blocks; abscissa 2.0 at lambda = 1 sits off the saddle (gamma ~ 1.46).
_CONTOUR_ROWS_SHA256 = [
    (np.arange(2, 61), 1e-300, None,
     "b0b1cd2388ba4a88805f93efa81e0650e5c81984f77d039cbd8470f3e579d54f"),
    (np.arange(2, 61), 0.01, None,
     "b9294ce18705861d12302463d25fbf14c0e238bf93dbfdfc4ac3cf60066f928f"),
    (np.arange(2, 61), 0.3, None,
     "9ad8e180166db31f3f79d99ea5f9a6033cc69a7cd39f5827a8bff2cbfc5b6c45"),
    (np.arange(2, 61), 1.0, None,
     "27a860d1c4b9afb348acafad3a1e6b49b833fdf079452506c1b2282fcd4524db"),
    (np.arange(2, 61), 3.0, None,
     "bcab7cbeebf988faafde3ad142ee9c9e6c81d042bf63be36ab259c372d7c7b5e"),
    (np.arange(2, 61), 1e3, None,
     "700a94a0c1378bb4eb29cf898a78498324e0a6cb9e7011dc8667e63c43452208"),
    (np.arange(2, 61), 1e6, None,
     "b05affd33626301a0c4cb5cb614d5adac64973c265b294bba763d36a8a0fa5a5"),
    ([7, 2, 7, 40], 1.3, None,
     "f4ee02f93e1db5f010f521ee4bc33ed1370bcca01b3475c2a0caa23d96472a57"),
    (np.arange(2, 13), 1.0, 2.0,
     "82716ef8eb4ca5c791881d02e8e621b54e4ecdd8db0c5fa3896549493a232870"),
]


@pytest.mark.parametrize("ns, lam, abscissa, digest", _CONTOUR_ROWS_SHA256)
def test_contour_rows_bytes_are_frozen(ns, lam, abscissa, digest):
    rows = log_F_contour_rows(ns, lam, abscissa=abscissa)
    data = rows.log_F.tobytes() + rows.error.tobytes() + rows.nodes.astype(np.int64).tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


_BLOCK = mellin._BLOCK


@settings(max_examples=300, deadline=None)
@given(step=st.floats(1e-9, 1.0), phase=st.sampled_from([0.5, 1.0]) | st.floats(0.0, 1.0),
       first=st.integers(0, 3).map(lambda m: m * _BLOCK) | st.integers(0, 3 * _BLOCK),
       nodes=st.integers(-3 * _BLOCK, 2 * _BLOCK), fraction=st.sampled_from([0.0, 0.5]),
       ulps=st.integers(-2, 2))
# A cutoff on a node; one ulp below a node with first > 0; a block of at
# least _BLOCK kept nodes; a cutoff below the offset.
@example(step=0.1, phase=1.0, first=0, nodes=37, fraction=0.0, ulps=0)
@example(step=0.003, phase=0.5, first=_BLOCK, nodes=120, fraction=0.0, ulps=-1)
@example(step=1e-6, phase=1.0, first=2 * _BLOCK, nodes=_BLOCK + 5, fraction=0.5, ulps=0)
@example(step=0.25, phase=1.0, first=0, nodes=-1, fraction=0.5, ulps=0)
def test_grid_block_forms_only_the_kept_nodes(step, phase, first, nodes, fraction, ulps):
    # _grid_block counts the nodes up to the cutoff instead of forming a
    # whole block and filtering it; the floats must be the same.
    offset = phase * step
    cutoff = offset + step * (first + nodes + fraction)
    for _ in range(abs(ulps)):
        cutoff = float(np.nextafter(cutoff, math.copysign(math.inf, ulps)))
    block = offset + step * np.arange(first, first + _BLOCK)
    want = block[block <= cutoff]
    got = mellin._grid_block(offset, step, first, cutoff)
    assert np.array_equal(got, want)


def test_contour_rows_match_mpmath():
    for lam in (1e-3, 0.3, 1.0, 3.0, 1e3):
        gamma = solve_saddle(lam).gamma
        ns = [2, 17, 60]
        rows = log_F_contour_rows(ns, lam)
        for n, value in zip(ns, rows.log_F):
            want = mp_log_F(n, lam, gamma)
            assert value == pytest.approx(want, rel=1e-10), (n, lam)


def test_contour_rows_diagnostics():
    rows = log_F_contour_rows(np.arange(2, 41), 1.0)
    assert np.all(rows.error >= 0.0) and np.all(rows.error <= 1e-9)
    assert rows.nodes.dtype.kind == "i" and np.all(rows.nodes > 1)
    # a wider peak (smaller n) needs at least as many nodes on the shared grid
    assert np.all(np.diff(rows.nodes) <= 0)


def test_contour_returns_python_floats():
    assert type(F_contour(3, 0.8)) is float
    sol = solve_saddle(0.8)
    assert all(type(v) is float for v in (sol.lam, sol.gamma, sol.L_value, sol.curvature))
    for row in L_limit_study(0.8, n_max=4).rows() + divergence_experiment(
            0.8, RadiusSchedule("sqrt_n"), ns=[2, 3]).rows():
        assert all(type(row[k]) is float for k in TABLE_COLUMNS[1:])


def test_contour_far_off_saddle_raises_instead_of_cancelling():
    # At Re s = 0.5 gamma or 0.3 gamma the integral sits thousands of e-folds
    # below the integrand's magnitude: no double-precision sum can resolve
    # it, and the answer used to be off by 6.1e3 and 1.4e4 in log F.
    gamma = solve_saddle(1e3).gamma
    for factor in (0.5, 0.3):
        with pytest.raises(NumericalError):
            log_F_contour_rows([40], 1e3, abscissa=factor * gamma)
    # the saddle itself is fine
    assert log_F_contour_rows([40], 1e3).log_F[0] == pytest.approx(-40100.70873047634, rel=1e-12)


def test_contour_rows_validation():
    with pytest.raises(DomainError):
        log_F_contour_rows([], 1.0)
    with pytest.raises(DomainError):
        log_F_contour_rows([2, 0], 1.0)
    with pytest.raises(DomainError):
        log_F_contour_rows([True, 2], 1.0)
    with pytest.raises(DomainError):
        divergence_experiment(1.0, RadiusSchedule("constant"), ns=(2, 3.5))
    with pytest.raises(DomainError):
        log_F_contour_rows([[2, 3]], 1.0)
    with pytest.raises(DomainError):
        log_F_contour_rows([2], 1.0, abscissa=0.0)
    with pytest.raises(DomainError):
        log_F_contour_rows([2], -1.0, abscissa=1.0)


def test_limit_study_tiny_lambda_stays_small_and_finite():
    # lambda = 1e-300 puts the saddle at gamma ~ 1.4e-3, where a uniform grid
    # needs ~10^5 nodes; they are evaluated in bounded blocks.
    study = L_limit_study(1e-300, 60)
    assert np.all(np.isfinite(study.log_F))
    assert study.log_F[0] == pytest.approx(7.23012615, rel=1e-8)
    assert np.all(study.log_F_error <= 1e-9)
    assert study.nodes.shape == study.ns.shape


def test_limit_study_and_divergence_carry_diagnostics():
    study = L_limit_study(2.0, n_max=10)
    assert study.log_F_error.shape == study.ns.shape == study.nodes.shape
    assert np.all(study.log_F_error <= 1e-9) and np.all(study.nodes > 1)
    table = divergence_experiment(2.0, RadiusSchedule("sqrt_n"), ns=np.arange(2, 8))
    assert table.log_F_error.shape == table.ns.shape == table.nodes.shape
    assert np.all(table.log_F_error <= 1e-9) and np.all(table.nodes > 1)
    # the diagnostics stay off the printed rows
    assert list(table.rows()[0]) == TABLE_COLUMNS


def test_divergence_solves_one_saddle_per_row(monkeypatch):
    calls = []

    def counting(lam):
        calls.append(lam)
        return solve_saddle(lam)

    monkeypatch.setattr(mellin, "solve_saddle", counting)
    table = divergence_experiment(1.0, RadiusSchedule("sqrt_n"), ns=np.arange(2, 7))
    assert len(calls) == 5
    rows = table.rows()
    assert len(calls) == 5
    for row in rows:
        assert row["gamma"] == solve_saddle(row["lambda"] * row["r"]).gamma
    calls.clear()
    divergence_experiment(1.0, RadiusSchedule("constant"), ns=np.arange(2, 7))
    assert len(calls) == 1


def test_zeta_forms_are_polygamma_bit_for_bit():
    # The saddle, the contour and the limit study call zeta for psi', psi''
    # and psi''': scipy's polygamma(n, x) is (-1)^(n+1) n! zeta(n+1, x), bit
    # for bit, at a fifth of the cost.
    from scipy.special import zeta

    x = np.concatenate([np.geomspace(1e-8, 1e8, 40_001), np.linspace(0.01, 60.0, 40_001)])
    assert np.array_equal(polygamma(1, x), zeta(2.0, x))
    assert np.array_equal(polygamma(2, x), -2.0 * zeta(3.0, x))
    assert np.array_equal(polygamma(3, x), 6.0 * zeta(4.0, x))
