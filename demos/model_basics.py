"""Sampling and density of Gaussian random symmetric matrices.

The model: a symmetric p x p observation Y with mean M whose noise is
invariant under conjugation by any orthogonal matrix. Two scalars
parameterize the covariance: a scale sigma2 and a trace-coupling tau
(tau < 1/p). The embedding vecd() maps a matrix to the p(p+1)/2 vector
(diagonal, then sqrt(2)-scaled off-diagonals) so that Euclidean length
equals Frobenius length.
"""

import numpy as np

from symtest.matnormal import build_sigma, log_density, sample
from symtest.symcore import CovParams, vecd

p = 3
M = np.diag([4.0, 2.0, 1.0])
cov = CovParams(sigma2=1.5, tau=0.25)
print("mean:\n%s" % M)
print("cov params: sigma2 = %g, tau = %g, c = %g" % (cov.sigma2, cov.tau,
                                                     cov.c(p)))

S = sample(20_000, M, cov, seed=0)
print("\nsampled %d observations, shape %s" % (S.shape[0], S.shape[1:]))
print("sample mean (should approach M):\n%s" % S.mean(axis=0).round(3))

# The embedded coordinates have covariance build_sigma: an equicorrelated
# diagonal block and an independent isotropic off-diagonal block.
emp = np.cov(vecd(S).T)
print("\nempirical vecd covariance:\n%s" % emp.round(3))
print("model vecd covariance:\n%s" % build_sigma(p, cov).round(3))

# The density integrates the quadratic form of the tau inner product;
# at the mean it attains its maximum.
at_mean = log_density(M, M, cov)
off_mean = log_density(M + 0.5 * np.eye(p), M, cov)
print("\nlog density at the mean: %.6f" % at_mean)
print("log density off the mean: %.6f (smaller)" % off_mean)

A = S[0] - M
print("\nvecd isometry: |vecd(Y-M)|^2 = %.6f, frobenius^2 = %.6f"
      % (np.sum(vecd(A) ** 2), np.sum(A * A)))
