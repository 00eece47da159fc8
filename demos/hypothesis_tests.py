"""The one-sample likelihood-ratio test family.

Mean tests (a0, a1, a2) compare nested frame constraints and are exact
chi-squares with known covariance, F ratios with estimated covariance.
Eigenvalue tests (s1, s2, s3) constrain the spectrum and use asymptotic
chi-square references. lrt.run runs every test by its id; each reads
the sample through its sufficient statistics (SuffStats), computed once
per dataset, and accepts either a known CovParams or cov=None to plug
in estimates fitted under the null.
"""

import numpy as np

from symtest import lrt
from symtest.matnormal import SuffStats, sample
from symtest.symcore import CovParams, Multiplicities

cov = CovParams(1.0, 0.2)
M_null = np.diag([4.0, 2.0, 1.0])
U0 = np.eye(3)
mult = Multiplicities((1, 1, 1))


def show(name, res):
    print("%-34s stat %8.3f  %-28s p %.4f"
          % (name, res.statistic, res.dist, res.p_value))


for label, M in (("under the null", M_null),
                 ("under a shifted alternative", M_null + 0.25)):
    print("\n--- data generated %s ---" % label)
    stats = SuffStats.from_sample(sample(100, M, cov, seed=42))
    show("a0 point vs unrestricted (known)",
         lrt.run("a0", stats, M0=M_null, cov=cov))
    show("a0 point vs unrestricted (F)",
         lrt.run("a0", stats, M0=M_null))
    show("a1 point vs fixed frame",
         lrt.run("a1", stats, U0=U0, M0=M_null, cov=cov))
    show("a2 fixed frame vs unrestricted",
         lrt.run("a2", stats, U0=U0, cov=cov))
    show("s1 spectrum point (tau-free)",
         lrt.run("s1", stats, M0=M_null, D0=np.array([4.0, 2.0, 1.0]),
                 mult=mult, cov=cov))
    show("s2 fixed eigenvalues",
         lrt.run("s2", stats, D0=np.array([4.0, 2.0, 1.0]), mult=mult, cov=cov))
    show("s3 multiplicity pattern (2,1)",
         lrt.run("s3", stats, mult=Multiplicities((2, 1)), cov=cov))

print("\nThe covariance-structure check accepts data from the invariant "
      "model:")
res = lrt.run("cov-check", SuffStats.from_sample(sample(400, M_null, cov,
                                                      seed=43)))
show("cov-check", res)
