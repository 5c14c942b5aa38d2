#!/usr/bin/env python3
"""Sigma-finite box masses: Monte Carlo with e^{total} weights vs closed form.

Splitting the atoms of a weight-theta draw by location, part i taking those
in a piece of [0, 1) of width theta_i / theta, and summing per part gives the
finite-dimensional projections of the flat measure.  Their mass on the box
[0,b]^n is the product of b^{theta_i} / Gamma(theta_i + 1) -- a quantity
larger than any probability could be once b grows, which is the
sigma-finiteness on display.
"""

import numpy as np

from conicpd import PartitionSpec, RngStream, box_mass_L, weighted_box_mass

samples = 300_000
b_values = [0.5, 1.0, 2.0, 4.0]

for weights in ([1.0], [1.0, 1.0], [0.5, 1.5], [0.5, 1.0, 1.5]):
    spec = PartitionSpec(np.array(weights))
    print(f"weights {tuple(weights)} (theta = {spec.theta}):")
    results = weighted_box_mass(spec, b_values, samples, RngStream(11))
    print(f"  {'b':>4} {'exact':>10} {'estimate':>10} {'stderr':>9} {'z':>6}")
    for b, est in zip(b_values, results):
        exact = box_mass_L(spec, b)
        z = (est.estimate - exact) / est.stderr if est.stderr else 0.0
        print(f"  {b:>4} {exact:>10.5f} {est.estimate:>10.5f} {est.stderr:>9.2e} {z:>+6.2f}")
    print()

spec = PartitionSpec(np.array([1.0, 1.0, 1.0]))
print("masses exceed 1 for large boxes -- no normalization can make this a")
print("probability law:")
for b in (2.0, 4.0, 8.0):
    print(f"  box [0,{b}]^3 mass = {box_mass_L(spec, b):.3f}")
