"""The orthogonally invariant symmetric-matrix-variate normal distribution.

A random symmetric Y ~ N(M, sigma2, tau) has density proportional to
exp(-0.5 * ||Y - M||^2_{sigma2,tau}). In vecd coordinates its covariance
is block diagonal: sigma2 * (I_p + c 11') over the diagonal entries, with
c = tau / (1 - p*tau), and sigma2 * I over the scaled off-diagonal
entries. It has two eigenvalues, sigma2 / (1 - p tau) on the trace line
vecd(I)/sqrt(p) and sigma2 off it, so its symmetric root R is closed-form.
This module builds that covariance explicitly, evaluates the
log-density, draws exact samples over the whole parameter range
tau < 1/p by mapping one block of standard normals in vecd order through
R, and reduces a sample to its sufficient statistics (SuffStats): per
group the count, the mean and the residual variance on the trace line
and off it. The residual scatter, which only cov-check reads, can also
be drawn from its Wishart law (sample_scatter, through the same R). R is
the only factor any draw uses.

Samples are stored as (n, p, p) arrays of symmetric matrices.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .symcore import check_integer, check_symmetric, norm_sq, sym_dim, vecd, vecd_inv


def _rng_from(seed):
    # Philox is counter-based: independent child streams spawned from a
    # SeedSequence are reproducible regardless of draw or worker order.
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def build_sigma(p, cov):
    """Explicit q x q covariance of vecd(Y) for the invariant model.

    Top-left p x p block: sigma2 * (I_p + c 11'). Bottom-right block:
    sigma2 * I_{q-p} (the sqrt(2) scaling of vecd doubles the raw
    off-diagonal variance sigma2/2). Positive definite on the allowed
    parameter range sigma2 > 0, c > -1/p.
    """
    cov.validate(p)
    q = sym_dim(p)
    c = cov.c(p)
    sigma = np.eye(q)
    sigma[:p, :p] += c
    return cov.sigma2 * sigma


def log_density(Y, M, cov):
    """Log of the N(M, sigma2, tau) density at Y."""
    Y = np.asarray(Y, dtype=float)
    M = np.asarray(M, dtype=float)
    p = Y.shape[0]
    cov.validate(p)
    q = sym_dim(p)
    return (0.5 * math.log1p(-p * cov.tau)
            - 0.5 * q * math.log(2.0 * math.pi)
            - 0.5 * q * math.log(cov.sigma2)
            - 0.5 * norm_sq(Y - M, cov))


@functools.lru_cache(maxsize=16)
def _sigma_root(p, cov):
    # the symmetric root R = sqrt(sigma2) (I + k uu') of build_sigma(p, cov),
    # u = vecd(I)/sqrt(p) and k = (1 - p tau)^(-1/2) - 1: closed-form, so it
    # holds where 1/(1 - p tau) is below rounding; made once per (p, cov)
    # and read-only because every caller shares it
    cov.validate(p)
    u = vecd(np.eye(p)) / math.sqrt(p)
    k = math.expm1(-0.5 * math.log1p(-p * cov.tau))
    R = math.sqrt(cov.sigma2) * (np.eye(sym_dim(p)) + k * np.outer(u, u))
    R.setflags(write=False)
    return R


def sample(n, M, cov, seed):
    """Draw n i.i.d. symmetric matrices from N(M, sigma2, tau).

    `seed` may be an integer, a numpy SeedSequence, or a Generator;
    integers map to a fresh Philox stream, so results are deterministic
    per seed and identical however replicates are distributed across
    workers. The draw is one (n, q) block of standard normals z, read
    row by row in vecd order: Y_i = M + vecd_inv(R z_i), R the symmetric
    root of the vecd covariance (one path for every tau < 1/p).
    """
    M = check_symmetric(M, "M")
    p = M.shape[0]
    R = _sigma_root(p, cov)
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    z = _rng_from(seed).standard_normal((n, sym_dim(p)))
    return M + vecd_inv(z @ R, p)


def sample_scatter(df, p, cov, rng):
    """Draw the q x q vecd scatter W ~ Wishart(df, build_sigma(p, cov)).

    The residual scatter of n observations from N(M, sigma2, tau) has this
    law with df = n - 1, independent of the sample mean. By the Bartlett
    decomposition (Anderson 2003, ch. 7) W = R T T' R', where R is the
    symmetric root of the model covariance and T is q x min(df, q),
    lower trapezoidal, with T_ii = sqrt(chi2(df - i)) and independent
    standard normals below the diagonal. This covers the singular case
    df < q (W has rank df) and df = 0 (W = 0). `rng` is taken as in
    `sample`. Draw order is fixed: the chi-square diagonal, then the
    normals below it, row by row.
    """
    df = check_integer(df, "df")
    if df < 0:
        raise ValueError("need df >= 0, got %d" % df)
    rng = _rng_from(rng)
    q = sym_dim(p)
    k = min(df, q)
    T = np.zeros((q, k))
    i = np.arange(k)
    T[i, i] = np.sqrt(rng.chisquare(df - i))
    T[np.tri(q, k, -1, dtype=bool)] = rng.standard_normal(k * (2 * q - k - 1) // 2)
    RT = _sigma_root(p, cov) @ T
    return RT @ RT.T


@dataclass(frozen=True, eq=False)
class SuffStats:
    """Sufficient statistics of a one- or two-group sample.

    For each group g: the count n[g], the sample mean ybar[g] and the
    residual (R_i = Y_i - ybar[g]) sums of squares on the trace line
    u = vecd(I)/sqrt(p), a[g] = sum_i tr(R_i)^2 / p, and off it,
    b[g] = sum_i ||R_i||^2 - a[g]; every fit and statistic reads these.
    The q x q scatter W[g] = sum_i vecd(R_i) vecd(R_i)', read only by
    cov-check, is None when only a and b were drawn.
    """

    n: tuple
    ybar: tuple
    a: tuple
    b: tuple
    W: tuple = None

    @classmethod
    def from_scatter(cls, n, ybar, W):
        """The statistics of counts n, means ybar and scatters W (one or a stack each)."""
        p = ybar[0].shape[-1]
        a = [np.sum(w[..., :p, :p], axis=(-2, -1)) / p for w in W]
        b = [np.trace(w, axis1=-2, axis2=-1) - x for w, x in zip(W, a)]
        return cls(n=tuple(n), ybar=tuple(ybar), a=tuple(x.tolist() for x in a),
                   b=tuple(x.tolist() for x in b), W=tuple(W))

    @classmethod
    def from_sample(cls, S, n1=None):
        """Reduce an (n, p, p) sample; with n1 given, its first n1 rows are group 1.

        Each scatter is taken about its group's own mean in a second pass,
        never from raw moments, so it is accurate at any data scale.
        """
        S = np.asarray(S, dtype=float)
        if S.ndim != 3 or S.shape[0] < 1 or S.shape[1] != S.shape[2]:
            raise ValueError("expected a nonempty (n, p, p) sample, got shape %s"
                             % (S.shape,))
        if n1 is not None and not 1 <= n1 < S.shape[0]:
            raise ValueError("need 1 <= n1 < n, got n1=%d, n=%d" % (n1, S.shape[0]))
        parts = (S,) if n1 is None else (S[:n1], S[n1:])
        ybar = [part.mean(axis=0) for part in parts]
        R = [vecd(part) - vecd(m) for part, m in zip(parts, ybar)]
        return cls.from_scatter([len(part) for part in parts], ybar,
                                [r.T @ r for r in R])

    @property
    def p(self):
        return self.ybar[0].shape[-1]

    def replicates(self):
        """Yield one SuffStats per replicate of statistics stacked over replicates."""
        W = zip(*self.W) if self.W else [None] * len(self.a[0])
        for y, a, b, w in zip(zip(*self.ybar), zip(*self.a), zip(*self.b), W):
            yield SuffStats(self.n, y, a, b, w)
