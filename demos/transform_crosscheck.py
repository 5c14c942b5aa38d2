#!/usr/bin/env python3
"""Monte Carlo vs closed-form transform, and the finite-variance wall.

The sigma-finite flat measure is reached by weighting gamma-process draws
with e^{total mass}.  Its transform over a positive step function f has the
closed form exp(-theta * integral of log f), so every estimate below can be
scored exactly.  The weighted second moment equals the transform at 2f - 1,
which ceases to exist once min f drops to 1/2 -- the estimator refuses that
region, and the runs just above it show why it refuses.
"""

import numpy as np

from conicpd import RngStream, StepFunction, analytic_laplace, mc_laplace

theta = 1.0
samples = 200_000

print(f"{'f':>28} {'analytic':>10} {'estimate':>10} {'stderr':>9} {'z':>6}")
cases = [
    ("constant 2", StepFunction.constant(2.0)),
    ("constant 4", StepFunction.constant(4.0)),
    ("2 on [0,.5), 0.8 on [.5,1)", StepFunction(np.array([0.0, 0.5, 1.0]),
                                                np.array([2.0, 0.8]))),
    ("ladder 0.7 / 1.3 / 2.1", StepFunction(np.array([0.0, 0.3, 0.7, 1.0]),
                                            np.array([0.7, 1.3, 2.1]))),
]
for label, f in cases:
    exact = analytic_laplace(theta, f)
    est = mc_laplace(theta, f, samples, RngStream(7))
    z = (est.estimate - exact) / est.stderr
    print(f"{label:>28} {exact:>10.6f} {est.estimate:>10.6f} {est.stderr:>9.2e} {z:>+6.2f}")

print("\napproaching min f = 1/2 from above:")
print(f"{'min f':>7} {'analytic':>10} {'estimate':>10} {'stderr':>10}")
for low in (0.70, 0.60, 0.55, 0.52):
    f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([low, 2.0]))
    exact = analytic_laplace(theta, f)
    est = mc_laplace(theta, f, samples, RngStream(8))
    print(f"{low:>7.2f} {exact:>10.4f} {est.estimate:>10.4f} {est.stderr:>10.2e}")
print("\nthe reported error grows without bound as the second moment diverges;")
print("at min f <= 1/2 the estimator raises InfiniteVarianceError instead.")
