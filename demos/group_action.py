#!/usr/bin/env python3
"""Diagonal group action on discrete measures and the exact cocycle identity.

A positive step function a acts on a series by scaling each atom mass by
a(location).  The transform of the flat measure picks up exactly the factor
phi(a) = exp(theta * integral log a): Psi(a f) * phi(a) = Psi(f).  On the
subgroup with zero log-mean the factor is 1 and the measure is genuinely
invariant, which the transported Monte Carlo draws confirm.
"""

import numpy as np

from conicpd import (
    RngStream,
    StepFunction,
    analytic_laplace,
    apply_multiplicator,
    phi,
    quasi_invariance_pairs,
    sample_gamma_process,
)

theta = 1.0
f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.4, 1.1]))

print("cocycle identity Psi(a f) * phi(a) = Psi(f), exact arithmetic:\n")
print(f"{'a':>24} {'phi(a)':>9} {'Psi(af)*phi(a)':>15} {'Psi(f)':>9} {'residual':>9}")
multiplicators = [
    ("2 / 0.5 on halves", StepFunction(np.array([0.0, 0.5, 1.0]), np.array([2.0, 0.5]))),
    ("4 / 0.25 on halves", StepFunction(np.array([0.0, 0.5, 1.0]), np.array([4.0, 0.25]))),
    ("constant 3", StepFunction.constant(3.0)),
    ("1.3 / 0.9 on halves", StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.3, 0.9]))),
]
for label, a in multiplicators:
    lhs = analytic_laplace(theta, a * f) * phi(a, theta)
    rhs = analytic_laplace(theta, f)
    print(f"{label:>24} {phi(a, theta):>9.4f} {lhs:>15.10f} {rhs:>9.6f} "
          f"{abs(lhs - rhs):>9.1e}")

print("\nfirst two rows have zero log-mean, so phi = 1: the measure is invariant.")

(report,) = quasi_invariance_pairs(theta, [(multiplicators[0][1], f)],
                                   n_samples=100_000, rng=RngStream(3))
print(f"\nMonte Carlo side for the first row: estimate {report.mc.estimate:.5f}"
      f" vs Psi(af) = {report.analytic_af:.5f}  (z = {report.z_score:+.2f})")

# the action itself, on one draw
gen = RngStream(4).generator()
series = sample_gamma_process(theta, 1e-10, gen)
moved = apply_multiplicator(multiplicators[0][1], series)
print(f"\none draw under '2 / 0.5 on halves': total {series.total_mass:.4f}"
      f" -> {moved.total_mass:.4f}, largest atom {series.masses[0]:.4f}"
      f" -> {moved.masses[0]:.4f}")
print("individual draws move; only the weighted ensemble is preserved.")
