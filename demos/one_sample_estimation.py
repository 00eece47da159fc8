"""Maximum likelihood under eigenstructure constraints, one sample.

Every constrained mean estimate is an explicit projection of the sample
mean: extract a diagonal in a fixed frame, pool adjacent violators for
an ordered spectrum, keep the sample eigenvectors for a fixed spectrum,
or block-average eigenvalues for a multiplicity pattern. The covariance
scalars follow from residual dispersion. The fits read the sample
through its sufficient statistics: SuffStats.from_sample(S) holds the
count, the sample mean, the residual sums of squares on the trace line
and off it, and the log-determinant of the residual covariance.
"""

import numpy as np

from symtest.matnormal import SuffStats, sample
from symtest.onesample import (
    FixedEigvals,
    FixedEigvecs,
    Mult,
    OrderedCone,
    Point,
    Unrestricted,
    mle,
)
from symtest.symcore import CovParams, Multiplicities, eigh_desc

truth = np.diag([3.0, 3.0, 1.0])
cov = CovParams(1.0, 0.2)
stats = SuffStats.from_sample(sample(200, truth, cov, seed=7))
ybar = stats.ybar[0]

fit = mle(Unrestricted(), stats)
print("unrestricted: M_hat = sample mean, sigma2_hat = %.4f, tau_hat = %.4f"
      % (fit.sigma2_hat, fit.tau_hat))

U0 = np.eye(3)
fit = mle(FixedEigvecs(U0), stats)
print("\nfixed frame: M_hat keeps only the diagonal in that frame")
print(fit.M_hat.round(4))

fit = mle(OrderedCone(U0), stats)
print("\nordered spectrum in a fixed frame (face dimension %d):"
      % fit.face_dim)
print(np.diagonal(fit.M_hat).round(4))

D0 = np.array([3.0, 3.0, 1.0])
fit = mle(FixedEigvals(D0, Multiplicities((2, 1))), stats)
print("\nfixed spectrum (3, 3, 1): sample frame, imposed eigenvalues")
print("fitted eigenvalues: %s" % np.linalg.eigvalsh(fit.M_hat).round(6)[::-1])

fit = mle(Mult(Multiplicities((2, 1))), stats)
dec = eigh_desc(fit.M_hat)
print("\nmultiplicity pattern (2, 1): top two eigenvalues pooled")
print("sample spectrum: %s" % eigh_desc(ybar).lam.round(4))
print("fitted spectrum: %s" % dec.lam.round(4))

fit = mle(Point(truth), stats)
print("\npoint set: sigma2_hat absorbs the lack of fit, %.4f >= "
      "unrestricted %.4f"
      % (fit.sigma2_hat, mle(Unrestricted(), stats).sigma2_hat))
