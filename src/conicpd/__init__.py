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

__version__ = "0.12.0"

import importlib

# Public name -> defining module.  A module is imported when one of its names
# is first looked up (PEP 562), so ``import conicpd.cli`` and the samplers do
# not load scipy; the value is then cached in this namespace.
_EXPORTS = {name: module for module, names in (
    ("errors", "DomainError SingularityError InfiniteVarianceError NumericalError"),
    ("stepfn", "StepFunction"),
    ("densities", "PartitionSpec dirichlet_log_density lebesgue_log_density "
                  "gamma_log_density box_mass_L lemma1_pointwise_check "
                  "semigroup_convolution_check"),
    ("processes", "RngStream WeightedAtomSeries sample_dirichlet_process "
                  "sample_gamma_process apply_multiplicator "
                  "partition_sums series_from_record"),
    ("estimation", "EstimatorResult pooled_mean"),
    ("laplace", "log_mean phi analytic_laplace mc_laplace quasi_invariance_pairs "
                "functional_distribution_check weighted_box_mass"),
    ("mellin", "SaddleSolution solve_saddle ContourRows log_F_contour_rows "
               "F_contour F_direct LimitStudy L_limit_study "
               "find_L_zero RadiusSchedule DivergenceTable divergence_experiment"),
    ("gaussian", "SphereConfig gaussian_charfun sphere_charfun_quad "
                 "sphere_charfun_mc mp_convergence_table charfun_gap_rows"),
) for name in names.split()}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
