"""Uncertainty of estimated eigenvectors around a fixed spectrum.

With the spectrum held at its true distinct values, the fitted frame
wanders around the truth by small rotations. The rotation angles a_ij
are asymptotically independent Gaussians with variance
sigma2 / (2 n (d_i - d_j)^2): close eigenvalues mean a poorly
determined plane.
"""

import numpy as np

from symtest.matnormal import SuffStats, sample
from symtest.onesample import FixedEigvals, eigvec_uncertainty, mle
from symtest.symcore import CovParams, Multiplicities, eigh_desc

d = np.array([4.0, 2.0, 1.0])
M = np.diag(d)
cov = CovParams(1.0, 0.0)
n = 500
mult = Multiplicities((1, 1, 1))
dec = eigh_desc(M)

reps = 2000
fits = np.empty((reps, 3, 3))
for rep in range(reps):
    S = sample(n, M, cov, np.random.SeedSequence(9, spawn_key=(rep,)))
    fits[rep] = mle(FixedEigvals(d, mult), SuffStats.from_sample(S), cov).M_hat
# one call measures every fitted frame against the truth
angles, pred = eigvec_uncertainty(dec.V, d, fits, n, cov.sigma2)

print("plane-rotation variances, scaled by n (%d replicates):" % reps)
print("%8s %12s %12s %16s" % ("pair", "gap", "observed", "sigma2/(2 gap^2)"))
for i in range(3):
    for j in range(i + 1, 3):
        emp = n * np.var(angles[:, i, j])
        print("%8s %12.1f %12.4f %16.4f"
              % ("(%d,%d)" % (i + 1, j + 1), d[i] - d[j], emp,
                 n * pred[i, j]))

print("\nThe (2,3) plane has the smallest gap and the widest spread; "
      "halving a gap quadruples the variance.")
