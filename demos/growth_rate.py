#!/usr/bin/env python3
"""The exponential rate of the hyperplane integrals and its saddle point.

F_n(lambda) integrates exp(-lambda * sum e^{x_k}) over the zero-sum
hyperplane.  Its growth rate per dimension is L(lambda) = log Gamma(gamma)
- gamma log lambda at the saddle gamma solving psi(gamma) = log lambda.
The script tabulates the approach of (log F_n)/n to L, locates the single
zero of L, and (if matplotlib is importable) draws L against -log lambda.
"""

import math

import numpy as np

from conicpd import F_contour, F_direct, L_limit_study, find_L_zero, solve_saddle

print("saddle points and rates:")
print(f"{'lambda':>8} {'gamma':>8} {'L':>9} {'exp(L)':>8}")
for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
    sol = solve_saddle(lam)
    print(f"{lam:>8} {sol.gamma:>8.4f} {sol.L_value:>9.4f} {sol.ratio_form:>8.4f}")

zero = find_L_zero()
print(f"\nL crosses zero at lambda = {zero:.12f}")
print(f"(for comparison, -log lambda crosses at 1; the two curves agree at"
      f" lambda = e^-0.5772 = {math.exp(-0.5772156649):.4f}, saddle 1)")

print("\ntwo routes to the same integral (n = 2, 3):")
for n in (2, 3):
    for lam in (0.5, 2.0):
        print(f"  n={n} lambda={lam}: contour {F_contour(n, lam):.12e}"
              f"  direct {F_direct(n, lam):.12e}")

lam = 1.0
study = L_limit_study(lam, n_max=30)
print(f"\nconvergence of (log F_n)/n at lambda = {lam} "
      f"(L = {study.saddle.L_value:.6f}):")
print(f"{'n':>4} {'(log F_n)/n':>12} {'raw gap':>9} {'corrected':>10} {'series':>10}")
for i, n in enumerate(study.ns):
    if n in (2, 5, 10, 20, 30):
        print(f"{n:>4} {study.ratios[i]:>12.6f} {study.gaps[i]:>+9.4f} "
              f"{study.corrected[i]:>10.6f} {study.series[i]:>10.6f}")
print(f"extrapolated limit {study.extrapolated_limit:.6f} "
      f"(gap {study.extrapolated_gap:+.1e}); raw gaps stay under "
      f"{study.envelope_constant:.2f} * log(n)/n")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    grid = np.geomspace(0.2, 5.0, 200)
    L_vals = [solve_saddle(float(x)).L_value for x in grid]
    fig, ax = plt.subplots(figsize=(7, 4.5))
    ax.plot(grid, L_vals, label="L(lambda)")
    ax.plot(grid, -np.log(grid), "--", label="-log(lambda)")
    ax.axhline(0.0, color="gray", lw=0.6)
    ax.axvline(zero, color="gray", lw=0.6)
    ax.set_xscale("log")
    ax.set_xlabel("lambda")
    ax.legend()
    ax.set_title("per-dimension growth rate vs the naive guess")
    fig.tight_layout()
    fig.savefig("growth_rate.png", dpi=120)
    print("\nwrote growth_rate.png")
