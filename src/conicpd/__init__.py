"""Sigma-finite Lebesgue-type measures on the cone of summable discrete measures.

The package has three layers:

* samplers and densities for the finite-dimensional projections and for the
  stick-breaking representations of the normalized and unnormalized processes
  (:mod:`~conicpd.densities`, :mod:`~conicpd.processes`);
* Laplace-transform analytics with Monte Carlo cross-checks, including the
  quasi-invariance identities under multiplicators
  (:mod:`~conicpd.laplace`);
* contour integrals of gamma-function powers, their saddle-point rate
  function, the divergence experiment for growing-dimension sphere volumes,
  and the classical Gaussian limit they fail to reproduce
  (:mod:`~conicpd.mellin`, :mod:`~conicpd.gaussian`).
"""

__version__ = "0.2.3"

from .densities import (
    PartitionSpec,
    box_mass_L,
    dirichlet_log_density,
    gamma_log_density,
    lebesgue_log_density,
    lemma1_pointwise_check,
    semigroup_convolution_check,
)
from .errors import DomainError, InfiniteVarianceError, NumericalError, SingularityError
from .estimation import EstimatorResult, pooled_mean
from .gaussian import (
    SphereConfig,
    charfun_gap_rows,
    gaussian_charfun,
    mp_convergence_table,
    sphere_charfun_mc,
    sphere_charfun_quad,
)
from .laplace import (
    analytic_laplace,
    functional_distribution_check,
    log_mean,
    mc_laplace,
    phi,
    quasi_invariance_check,
    weighted_box_mass,
)
from .mellin import (
    ContourRows,
    DivergenceTable,
    F_contour,
    F_direct,
    LimitStudy,
    L_limit_study,
    RadiusSchedule,
    SaddleSolution,
    divergence_experiment,
    find_L_zero,
    log_F_contour,
    log_F_contour_rows,
    solve_saddle,
)
from .processes import (
    GemDraw,
    RngStream,
    WeightedAtomSeries,
    apply_multiplicator,
    partition_sums,
    sample_dirichlet_process,
    sample_gamma_process,
    sample_gem,
    series_from_record,
    series_record,
    sort_decreasing,
    stick_break,
    weight_as_lebesgue,
)
from .special import bessel_j, bessel_k0, digamma, log_beta, log_gamma, trigamma
from .stepfn import StepFunction

__all__ = [
    "__version__",
    "DomainError", "SingularityError", "InfiniteVarianceError", "NumericalError",
    "StepFunction",
    "log_gamma", "log_beta", "digamma", "trigamma", "bessel_j", "bessel_k0",
    "PartitionSpec", "dirichlet_log_density", "lebesgue_log_density",
    "gamma_log_density", "box_mass_L", "lemma1_pointwise_check",
    "semigroup_convolution_check",
    "RngStream", "GemDraw", "WeightedAtomSeries", "sample_gem", "stick_break",
    "sort_decreasing", "sample_dirichlet_process", "sample_gamma_process",
    "weight_as_lebesgue", "apply_multiplicator", "partition_sums",
    "series_record", "series_from_record",
    "EstimatorResult", "pooled_mean",
    "log_mean", "phi", "analytic_laplace", "mc_laplace",
    "quasi_invariance_check", "functional_distribution_check", "weighted_box_mass",
    "SaddleSolution", "solve_saddle", "ContourRows", "log_F_contour_rows",
    "log_F_contour", "F_contour", "F_direct",
    "LimitStudy", "L_limit_study", "find_L_zero", "RadiusSchedule",
    "DivergenceTable", "divergence_experiment",
    "SphereConfig", "gaussian_charfun", "sphere_charfun_quad", "sphere_charfun_mc",
    "mp_convergence_table", "charfun_gap_rows",
]
