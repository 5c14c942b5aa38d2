#!/usr/bin/env python3
"""A tour of the samplers: sticks, normalized series, gamma totals, part sums."""

import numpy as np
from scipy.special import gammainc
from scipy.stats import kstest

from conicpd import (
    PartitionSpec,
    RngStream,
    partition_sums,
    sample_dirichlet_process,
    sample_gamma_process,
)

theta = 1.5
eps = 1e-10
gen = RngStream(2024).generator()

print(f"theta = {theta}, truncation eps = {eps}\n")

series = sample_dirichlet_process(theta, eps, gen)
print("one normalized draw:")
print(f"  atoms kept      : {series.masses.size}")
print(f"  five largest    : {np.round(series.masses[:5], 4)}")
print(f"  sum of masses   : {series.masses.sum():.12f}")
print(f"  truncated tail  : {series.tail_bound:.2e}")

unnorm = sample_gamma_process(theta, eps, gen)
print("\none unnormalized draw (same construction, scaled by a gamma total):")
print(f"  total mass      : {unnorm.total_mass:.4f}")
print(f"  largest atom    : {unnorm.masses[0]:.4f}")

# The totals of many unnormalized draws follow the gamma(theta) law exactly.
totals = np.array([sample_gamma_process(theta, eps, gen).total_mass
                   for _ in range(4000)])
d, p = kstest(totals, lambda x: gammainc(theta, x))
print(f"\ntotals of 4000 draws vs gamma({theta}): KS d = {d:.4f}, p = {p:.3f}")

# Splitting atoms by location, part i taking a piece of [0, 1) of width
# theta_i / theta, turns one draw of weight theta into independent
# gamma(theta_i) part sums.
spec = PartitionSpec(np.array([0.5, 1.0]))
sums = np.array([partition_sums(sample_gamma_process(spec.theta, eps, gen), spec)
                 for _ in range(4000)])
for i, w in enumerate(spec.weights):
    d, p = kstest(sums[:, i], lambda x, w=w: gammainc(w, x))
    print(f"part {i} (weight {w}) vs gamma({w}): KS d = {d:.4f}, p = {p:.3f}")
corr = np.corrcoef(sums[:, 0], sums[:, 1])[0, 1]
print(f"correlation between the parts: {corr:+.4f}  (should be ~0)")
