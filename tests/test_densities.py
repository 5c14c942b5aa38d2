"""Finite-dimensional density layer: simplex/orthant densities, box masses,
the pointwise product decomposition, and the convolution semigroup."""

import math

import numpy as np
import pytest
from scipy import integrate

from conicpd import (
    PartitionSpec,
    box_mass_L,
    dirichlet_log_density,
    gamma_log_density,
    lebesgue_log_density,
    lemma1_pointwise_check,
    semigroup_convolution_check,
)
from conicpd.errors import DomainError, SingularityError


def test_partition_spec_totals():
    spec = PartitionSpec(np.array([0.5, 1.5]))
    assert spec.theta == 2.0
    assert spec.n == 2
    assert np.allclose(spec.probabilities(), [0.25, 0.75])
    assert spec.probabilities().sum() == pytest.approx(1.0, abs=1e-15)


def test_partition_spec_declared_theta_must_match():
    # theta is the sum of the weights; it cannot be declared.
    with pytest.raises(TypeError):
        PartitionSpec(np.array([1.0, 1.0]), theta=2.0)
    with pytest.raises(DomainError):
        PartitionSpec(np.array([1.0, -1.0]))


def test_dirichlet_uniform_cases():
    # all-ones weights make the density constant Gamma(n) on the simplex
    spec = PartitionSpec(np.array([1.0, 1.0]))
    assert dirichlet_log_density(spec, np.array([0.3, 0.7])) == pytest.approx(0.0, abs=1e-15)
    spec21 = PartitionSpec(np.array([2.0, 1.0]))
    # Gamma(3)/(Gamma(2)Gamma(1)) * 0.5 = 1
    assert dirichlet_log_density(spec21, np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-14)
    spec3 = PartitionSpec(np.array([1.0, 1.0, 1.0]))
    point = np.array([0.2, 0.3, 0.5])
    assert dirichlet_log_density(spec3, point) == pytest.approx(math.log(2.0), abs=1e-14)


def test_dirichlet_matches_beta_normalization():
    spec = PartitionSpec(np.array([2.5, 0.7]))
    u = 0.41
    want = (1.5 * math.log(u) - 0.3 * math.log(1.0 - u)
            + math.lgamma(3.2) - math.lgamma(2.5) - math.lgamma(0.7))
    got = dirichlet_log_density(spec, np.array([u, 1.0 - u]))
    assert got == pytest.approx(want, rel=1e-13)


def test_dirichlet_integrates_to_one_smooth_weights():
    spec = PartitionSpec(np.array([1.5, 2.5]))
    total, err = integrate.quad(
        lambda u: math.exp(dirichlet_log_density(spec, np.array([u, 1.0 - u]))), 0.0, 1.0)
    assert total == pytest.approx(1.0, abs=max(1e-10, 10 * err))


def test_dirichlet_integrates_to_one_singular_weight():
    spec = PartitionSpec(np.array([0.5, 1.5]))

    def smooth_part(u):
        # strip the u^(-1/2) endpoint factor (handed to quadpack) and clamp off
        # the exact endpoints, where the density itself correctly refuses
        u = min(max(u, 1e-12), 1.0 - 1e-12)
        ld = dirichlet_log_density(spec, np.array([u, 1.0 - u]))
        return math.exp(ld + 0.5 * math.log(u) - 0.5 * math.log(1.0 - u))

    total, err = integrate.quad(smooth_part, 0.0, 1.0, weight="alg", wvar=(-0.5, 0.5))
    assert total == pytest.approx(1.0, abs=max(1e-9, 10 * err))


def test_dirichlet_boundary_behavior():
    sub = PartitionSpec(np.array([0.5, 1.5]))
    with pytest.raises(SingularityError):
        dirichlet_log_density(sub, np.array([0.0, 1.0]))
    sup = PartitionSpec(np.array([1.5, 1.5]))
    assert dirichlet_log_density(sup, np.array([0.0, 1.0])) == -math.inf


def test_dirichlet_rejects_non_simplex_points():
    spec = PartitionSpec(np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        dirichlet_log_density(spec, np.array([0.4, 0.4]))
    with pytest.raises(DomainError):
        dirichlet_log_density(spec, np.array([1.2, -0.2]))


def test_lebesgue_flat_cases():
    one = PartitionSpec(np.array([1.0]))
    for t in (0.01, 1.0, 37.0):
        assert lebesgue_log_density(one, np.array([t])) == pytest.approx(0.0, abs=1e-15)
    pair = PartitionSpec(np.array([1.0, 1.0]))
    assert lebesgue_log_density(pair, np.array([3.0, 9.0])) == pytest.approx(0.0, abs=1e-15)


def test_lebesgue_weighted_case():
    spec = PartitionSpec(np.array([0.5, 1.5]))
    want = -0.5 * math.log(4.0) - math.lgamma(0.5) + 0.5 * math.log(1.0) - math.lgamma(1.5)
    got = lebesgue_log_density(spec, np.array([4.0, 1.0]))
    assert got == pytest.approx(want, rel=1e-13)


def test_gamma_density_is_tilted_lebesgue():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = rng.integers(1, 5)
        spec = PartitionSpec(rng.uniform(0.2, 3.0, size=n))
        x = rng.uniform(0.05, 6.0, size=n)
        assert gamma_log_density(spec, x) == lebesgue_log_density(spec, x) - x.sum()


def test_gamma_density_anchor():
    spec = PartitionSpec(np.array([2.5, 0.7]))
    want = -2.0 - math.lgamma(2.5) + 1.5 * 0.0 - math.lgamma(0.7)
    assert gamma_log_density(spec, np.array([1.0, 1.0])) == pytest.approx(want, rel=1e-13)


def test_box_mass_values():
    assert box_mass_L(PartitionSpec(np.array([1.0])), 1.0) == pytest.approx(1.0, abs=1e-15)
    assert box_mass_L(PartitionSpec(np.array([1.0, 1.0])), 2.0) == pytest.approx(4.0, rel=1e-14)
    assert box_mass_L(PartitionSpec(np.array([0.5])), 1.0) == pytest.approx(
        1.0 / math.gamma(1.5), rel=1e-14)
    spec = PartitionSpec(np.array([0.5, 1.5]))
    want = 2.0 ** 0.5 / math.gamma(1.5) * 2.0 ** 1.5 / math.gamma(2.5)
    assert box_mass_L(spec, 2.0) == pytest.approx(want, rel=1e-13)
    with pytest.raises(DomainError):
        box_mass_L(spec, -1.0)


def test_lemma1_hand_case():
    # (1,1) at (1,1): product density e^{-2} = marginal(2) * simplex * scale term
    spec = PartitionSpec(np.array([1.0, 1.0]))
    assert lemma1_pointwise_check(spec, np.array([1.0, 1.0])) <= 1e-14


def test_lemma1_single_coordinate_is_identity():
    spec = PartitionSpec(np.array([0.8]))
    assert lemma1_pointwise_check(spec, np.array([2.3])) <= 1e-14


def test_lemma1_random_points():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        spec = PartitionSpec(rng.uniform(0.2, 3.5, size=n))
        x = rng.uniform(0.05, 8.0, size=n)
        worst = max(worst, lemma1_pointwise_check(spec, x))
    assert worst <= 1e-10


def test_semigroup_uniform_pair():
    # theta1 = theta2 = 1: uniform * uniform on the half-line has density z
    assert semigroup_convolution_check(1.0, 1.0) <= 1e-10


def test_semigroup_sub_unit_and_integer():
    assert semigroup_convolution_check(0.5, 0.5) <= 1e-8
    assert semigroup_convolution_check(2.0, 3.0) <= 1e-8
