"""Maximum-likelihood estimation for two independent samples.

The mean pair (M1, M2) ranges over one of three closed-form sets:

- Unrestricted2: both means free.
- EqualMeans(mult=None): M1 = M2; with mult given, the common mean's
  spectrum also has that multiplicity pattern.
- CommonEigvals(mult): both means share one unspecified spectrum with
  the given multiplicity pattern, eigenvectors free per group.

Both groups share the covariance (sigma2, tau). Its MLEs are the
one-sample estimators of onesample applied to both groups at once: each
observation is centred at its own group's fitted mean.

A sample is one (n, p, p) array whose first n1 rows are group 1; the
fits read it through matnormal.SuffStats.from_sample(S, n1).
"""

from dataclasses import dataclass

import numpy as np

from .symcore import Multiplicities, block_average, eigh_desc
from .onesample import Mult, _fit_cov, contains, mle_multiplicities


class ParamSet2:
    """Base tag for the two-sample parameter sets."""


@dataclass(frozen=True, eq=False)
class Unrestricted2(ParamSet2):
    pass


@dataclass(frozen=True, eq=False)
class EqualMeans(ParamSet2):
    mult: Multiplicities = None


@dataclass(frozen=True, eq=False)
class CommonEigvals(ParamSet2):
    mult: Multiplicities


@dataclass(eq=False)
class FitResult2:
    M1_hat: np.ndarray
    M2_hat: np.ndarray
    sigma2_hat: float
    tau_hat: float
    set: ParamSet2

    @property
    def means(self):
        return (self.M1_hat, self.M2_hat)


def mle_common_eigvals(mult, Ybar1, Ybar2, n1, n2):
    """Projection of the group means onto the common-spectrum set.

    Each group keeps its own descending eigenvectors; the shared spectrum
    is the block average of the weighted eigenvalue mean
    (n1 L1 + n2 L2) / (n1 + n2).
    """
    dec1 = eigh_desc(Ybar1)
    dec2 = eigh_desc(Ybar2)
    lam_bar = (n1 * dec1.lam + n2 * dec2.lam) / (n1 + n2)
    d = block_average(lam_bar, mult)
    return (dec1.V * d) @ dec1.V.T, (dec2.V * d) @ dec2.V.T


def mle2(pset, stats, cov=None):
    """MLE of (M1, M2, sigma2, tau) over the given two-sample set.

    stats holds the sufficient statistics of a two-group sample. The mean
    fits minimize n1 tr[(Ybar1 - M1)^2] + n2 tr[(Ybar2 - M2)^2] over the
    set. With cov given, the known (sigma2, tau) are recorded instead of
    the pooled estimates.
    """
    if len(stats.n) != 2:
        raise ValueError("mle2 needs a two-group sample, got %d group(s)"
                         % len(stats.n))
    (n1, n2), (ybar1, ybar2) = stats.n, stats.ybar
    if isinstance(pset, Unrestricted2):
        m1_hat, m2_hat = ybar1, ybar2
    elif isinstance(pset, EqualMeans):
        m1_hat = m2_hat = (stats.mean if pset.mult is None
                           else mle_multiplicities(pset.mult, stats.mean))
    elif isinstance(pset, CommonEigvals):
        m1_hat, m2_hat = mle_common_eigvals(pset.mult, ybar1, ybar2, n1, n2)
    else:
        raise TypeError("unknown parameter set %r" % (pset,))
    sigma2_hat, tau_hat = _fit_cov(stats, (m1_hat, m2_hat), cov)
    return FitResult2(M1_hat=m1_hat, M2_hat=m2_hat, sigma2_hat=sigma2_hat,
                      tau_hat=tau_hat, set=pset)


def contains2(pset, M1, M2, tol=1e-9):
    """Membership predicate for the two-sample sets."""
    M1 = np.asarray(M1, dtype=float)
    M2 = np.asarray(M2, dtype=float)
    scale = max(1.0, np.abs(M1).max(), np.abs(M2).max())
    if isinstance(pset, Unrestricted2):
        return True
    if isinstance(pset, EqualMeans):
        gap = np.abs(M1 - M2).max()
    elif isinstance(pset, CommonEigvals):
        gap = np.abs(eigh_desc(M1).lam - eigh_desc(M2).lam).max()
    else:
        raise TypeError("unknown parameter set %r" % (pset,))
    return bool(gap <= tol * scale) and (
        pset.mult is None or contains(Mult(pset.mult), M1, tol))
