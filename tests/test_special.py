"""The scipy.special values the library relies on, against high-precision oracles.

``mellin`` calls ``digamma``, ``gammaln``, ``polygamma`` and ``loggamma``;
``gaussian`` calls ``gammaln`` and ``jv``; ``densities`` and ``laplace`` call
``gammaln``; the acceptance battery checks the contour against ``k0``.  The
reference numbers were computed once with a 40-digit arbitrary-precision
evaluation (series + recurrence, independent of scipy) and are frozen here
as literals, so a scipy release that moves one of them shows here first.
"""

import math

import numpy as np
import pytest
from scipy.special import betaln, gammaln, jv, k0, loggamma, polygamma, psi

EULER_GAMMA = 0.5772156649015328606065
DIGAMMA_ROOT = 1.461632144968362341263


def test_log_gamma_oracle_values():
    anchors = [
        (1.0, 0.0),
        (0.5, 0.5723649429247000870717),
        (0.001, 6.907178885383853682512),
        (0.37, 0.8769468194848792899249),
        (3.0, 0.6931471805599453094172),
        (7.3, 7.147892523022249032777),
        (145.5, 577.545043828663372808),
        (1e6, 12815504.56914761165998),
    ]
    for x, want in anchors:
        got = float(gammaln(x))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (x, got, want)


def test_log_gamma_half_is_half_log_pi():
    assert float(gammaln(0.5)) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


def test_log_gamma_recurrence():
    rng = np.random.default_rng(7)
    x = 10.0 ** rng.uniform(-3, 1.7, size=300)
    lhs = gammaln(x + 1.0) - gammaln(x)
    assert np.max(np.abs(lhs - np.log(x))) <= 1e-12


def test_log_gamma_vectorized_shape():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = gammaln(x)
    assert out.shape == x.shape
    assert out[0, 0] == 0.0 and out[0, 1] == 0.0


def test_digamma_oracle_values():
    anchors = [
        (1.0, -EULER_GAMMA),
        (0.25, -4.22745353337626540809),
        (7.3, 1.917820335637986098368),
        (300.0, 5.70211488206463726798),
    ]
    for x, want in anchors:
        assert float(psi(x)) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_digamma_recurrence_and_root():
    assert float(psi(2.0)) == pytest.approx(float(psi(1.0)) + 1.0, abs=1e-14)
    assert abs(float(psi(DIGAMMA_ROOT))) <= 1e-13


def test_trigamma_oracle_values():
    anchors = [
        (1.0, math.pi ** 2 / 6.0),
        (0.25, 17.19732915450711073927),
        (7.3, 0.1467957681314270981644),
        (300.0, 0.00333889506171467774947),
    ]
    for x, want in anchors:
        assert float(polygamma(1, x)) == pytest.approx(want, rel=1e-13)


def test_trigamma_recurrence_and_tail():
    assert float(polygamma(1, 5.0)) == pytest.approx(float(polygamma(1, 4.0)) - 1.0 / 16.0,
                                                     rel=1e-13)
    # two-term asymptotic tail: next correction is 1/(6 x^3) ~ 6e-9 at x=300
    x = 300.0
    assert abs(float(polygamma(1, x)) - (1.0 / x + 0.5 / x ** 2)) <= 1e-8


def test_log_beta_identity_and_symmetry():
    for a, b in [(0.5, 0.5), (1.0, 3.0), (2.7, 0.4), (10.0, 10.0)]:
        direct = float(betaln(a, b))
        assert direct == pytest.approx(
            float(gammaln(a) + gammaln(b) - gammaln(a + b)), abs=1e-12)
        assert direct == pytest.approx(float(betaln(b, a)), abs=1e-15)
    assert float(betaln(0.5, 0.5)) == pytest.approx(math.log(math.pi), rel=1e-14)


# The contour in conicpd.mellin integrates exp(n loggamma(s)) along vertical
# lines, so scipy's complex log-gamma is held to the same oracles.

def test_log_gamma_complex_oracle_values():
    anchors = [
        (DIGAMMA_ROOT + 0.5j, -0.23866523590862686641 + 0.017497830165270246887j),
        (DIGAMMA_ROOT + 5.0j, -5.3830478233503945761 + 4.4738577022895997443j),
        (DIGAMMA_ROOT + 40.0j, -58.365501892574396988 + 109.05518941685236604j),
    ]
    for z, want in anchors:
        got = complex(loggamma(np.array([z]))[0])
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (z, got, want)


def test_log_gamma_complex_conjugate_symmetry_and_real_axis():
    z = np.array([0.8 + 2.0j, 3.3 + 11.0j])
    up = loggamma(z)
    down = loggamma(np.conj(z))
    assert np.max(np.abs(up - np.conj(down))) <= 1e-13
    real = loggamma(np.array([4.2 + 0.0j]))
    assert float(np.imag(real[0])) == 0.0
    assert float(np.real(real[0])) == pytest.approx(float(gammaln(4.2)), rel=1e-14)


def test_log_gamma_complex_imag_part_stays_continuous():
    # The imaginary part must keep growing along the contour (no branch snap
    # back into (-pi, pi]), or contour integrands turn garbage.
    t = np.linspace(0.0, 60.0, 400)
    vals = loggamma(1.2 + 1j * t)
    steps = np.diff(np.imag(vals))
    assert np.max(np.abs(steps)) < 1.0


def test_bessel_j_at_origin():
    assert float(jv(0, 0.0)) == 1.0
    assert float(jv(1, 0.0)) == 0.0
    assert float(jv(2.7, 0.0)) == 0.0


def test_bessel_j_oracle_values():
    assert abs(float(jv(0, 2.404825557695772768622))) <= 1e-12
    assert float(jv(0, 2.5)) == pytest.approx(-0.04838377646819799632729, abs=1e-12)
    assert float(jv(4.5, 30.0)) == pytest.approx(-0.1293491158467019107455, abs=1e-9)
    assert float(jv(60, 80.0)) == pytest.approx(-0.08617378984463347083219, abs=1e-9)
    assert float(jv(33, 50.0)) == pytest.approx(-0.09922011372951544929886, abs=1e-9)


# x = 12 is where the hand-written J that scipy's jv replaced switched from
# its power series to its asymptotic form; the checks there stay.

def test_bessel_j_recurrence_across_methods():
    # 2 nu/x J_nu = J_{nu-1} + J_{nu+1}
    for nu, x in [(3.0, 8.0), (3.0, 20.0), (2.0, 11.7), (2.0, 12.3), (1.5, 12.0)]:
        lhs = 2.0 * nu / x * float(jv(nu, x))
        rhs = float(jv(nu - 1.0, x)) + float(jv(nu + 1.0, x))
        assert lhs == pytest.approx(rhs, abs=5e-10), (nu, x)


def test_bessel_j_continuous_at_method_switch():
    for nu in (0.0, 0.75, 4.0):
        below = float(jv(nu, 11.9999))
        above = float(jv(nu, 12.0001))
        assert abs(below - above) < 1e-4


def test_bessel_k0_oracle_values():
    assert float(k0(0.1)) == pytest.approx(2.427069024702016612519, rel=1e-12)
    assert float(k0(2.0)) == pytest.approx(0.1138938727495334356527, rel=1e-12)
    assert float(k0(15.0)) == pytest.approx(9.819536482396434540991e-8, rel=1e-12)


def test_bessel_k0_monotone_and_asymptotic():
    assert float(k0(1.0)) > float(k0(2.0)) > float(k0(3.0))
    # K0(x) e^x sqrt(x) -> sqrt(pi/2), approached at O(1/x)
    scaled = float(k0(200.0)) * math.exp(200.0) * math.sqrt(200.0)
    assert scaled == pytest.approx(1.2525330076834741181, rel=1e-12)
    assert abs(scaled - math.sqrt(math.pi / 2.0)) < 1e-3
