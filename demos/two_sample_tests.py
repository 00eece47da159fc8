"""Two-group comparisons: equal means and shared eigenvalues.

The same mle fits one and two groups: a two-group set projects both
group means at once. Covariance scalars pool across groups, each group
centred at its own fitted mean; lack-of-fit terms weight each group by
its size. A dataset enters as SuffStats.from_sample(S, n1), its first n1
rows being group 1.
"""

import numpy as np

from symtest import lrt
from symtest.matnormal import SuffStats, sample
from symtest.onesample import CommonEigvals, Unrestricted, mle
from symtest.symcore import CovParams, Multiplicities

cov = CovParams(1.0, 0.1)
rot = np.array([[np.cos(0.4), -np.sin(0.4), 0.0],
                [np.sin(0.4), np.cos(0.4), 0.0],
                [0.0, 0.0, 1.0]])
M = np.diag([4.0, 2.0, 1.0])
M_rot = rot @ M @ rot.T  # same spectrum, different frame


def two_groups(M1, M2, n1, n2, seed):
    s1, s2 = np.random.SeedSequence(seed).spawn(2)
    S = np.concatenate([sample(n1, M1, cov, s1), sample(n2, M2, cov, s2)])
    return SuffStats.from_sample(S, n1)


def show(name, res):
    print("%-36s stat %8.3f  %-26s p %.4f"
          % (name, res.statistic, res.dist, res.p_value))


print("--- same mean in both groups ---")
S = two_groups(M, M, 60, 40, seed=11)
show("2a0 equal means (known cov)", lrt.run("2a0", S, cov=cov))
show("2a0 equal means (F variant)", lrt.run("2a0", S))
show("2s1 shared eigenvalues",
     lrt.run("2s1", S, mult=Multiplicities((1, 1, 1)), cov=cov))

print("\n--- same spectrum, rotated frame ---")
S = two_groups(M, M_rot, 60, 40, seed=12)
show("2a0 equal means", lrt.run("2a0", S, cov=cov))
show("2s1 shared eigenvalues",
     lrt.run("2s1", S, mult=Multiplicities((1, 1, 1)), cov=cov))
show("2s2 equal means given shared",
     lrt.run("2s2", S, mult=Multiplicities((1, 1, 1)), cov=cov))

print("\n--- different spectra ---")
S = two_groups(M, np.diag([6.0, 2.0, 1.0]), 60, 40, seed=13)
show("2s1 shared eigenvalues",
     lrt.run("2s1", S, mult=Multiplicities((1, 1, 1)), cov=cov))

fit = mle(CommonEigvals(Multiplicities((1, 1, 1))), S)
print("\nshared-spectrum fit on the last dataset:")
print("  group-1 eigenvalues: %s" % np.linalg.eigvalsh(fit.M1_hat).round(3))
print("  group-2 eigenvalues: %s (identical by construction)"
      % np.linalg.eigvalsh(fit.M2_hat).round(3))

fit = mle(Unrestricted(), S)
print("pooled covariance estimates: sigma2_hat %.4f, tau_hat %.4f"
      % (fit.sigma2_hat, fit.tau_hat))
