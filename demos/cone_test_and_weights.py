"""The ordered-spectrum cone test and its chi-square mixture null.

Testing "diagonal and non-increasing in a given frame" against the
unrestricted alternative puts the null on a convex cone, so the
statistic's null law is a weighted mixture of chi-squares. The weights
are the probabilities that the cone projection lands on a face with a
given number of distinct values. At a spectrum whose tied blocks are far
apart they depend only on the tie pattern and have a closed form, which
the c2 test uses; at finite gaps they come from a unit-noise simulation.
"""

import numpy as np

from symtest import lrt
from symtest.calibrate import cone_boundary_law, estimate_cone_weights
from symtest.matnormal import SuffStats, sample
from symtest.symcore import CovParams, Multiplicities

# Fully tied spectrum: every face of the cone keeps mass.
w = estimate_cone_weights((0.0, 0.0, 0.0), reps=100_000, seed=1)
print("isotropic truth, face-dimension weights:")
for dim, weight in zip(w.face_dims, w.weights):
    print("  %d distinct values: %.4f" % (dim, weight))
print("(exact exchangeable-noise values: 1/3, 1/2, 1/6)")

w = estimate_cone_weights((5.0, 5.0, 0.0), reps=100_000, seed=2)
print("\ntied top pair: weights %s -> the pair pools half the time"
      % np.round(w.weights, 4))

law = cone_boundary_law((2.0, 2.0, 0.0), n=100, reps=50_000, seed=3)
print("\nprojected estimate at a tied-pair truth, n = 100:")
print("  mass on the tie between the top two: %.4f (does not vanish "
      "with n)" % law["tie_mass"][(0, 1)])
print("  pattern mass: %s" % {k: round(v, 4)
                              for k, v in law["pattern_mass"].items()})

cov = CovParams(1.0, 0.0)
U0 = np.eye(3)
S = sample(50, np.diag([2.0, 2.0, 0.0]), cov, seed=4)
res = lrt.run("c2", SuffStats.from_sample(S), U0=U0, mult=Multiplicities((2, 1)),
              cov=cov)
print("\ncone test at a null truth with a tied pair:")
print("  statistic %.4f, mixture %s, p = %.4f"
      % (res.statistic, res.dist, res.p_value))

S = sample(50, np.array([[2.0, 0.8, 0.0], [0.8, 2.0, 0.0], [0.0, 0.0, 0.0]]),
           cov, seed=6)
res = lrt.run("c2", SuffStats.from_sample(S), U0=U0, mult=Multiplicities((2, 1)),
              cov=cov)
print("off-diagonal mean violates the cone: p = %.2e" % res.p_value)
