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
group the count, the mean, the residual variance on the trace line and
off it, and the log-determinant of the residual covariance, which only
cov-check reads. R is the only factor any draw uses, and _rng_from the
only code that turns a seed into a stream. A sample with a non-finite
entry is refused, naming its first such observation (from 1).

Samples are stored as (n, p, p) arrays of symmetric matrices.
"""

import math
from dataclasses import dataclass

import numpy as np

from .symcore import (check_integer, check_symmetric, norm_sq, sym_dim, vecd,
                      vecd_inv)


def _rng_from(seed, key=()):
    # the one rule from a seed to a (counter-based, order-insensitive) Philox
    # stream: an integer or a SeedSequence spawns `key` below its own spawn
    # key, exactly as SeedSequence.spawn does; a Generator is used as given
    if isinstance(seed, np.random.Generator):
        if key:
            raise ValueError("seed must be an integer or a SeedSequence to "
                             "spawn streams from, got a Generator")
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        # nonnegative, as the CLI's; numpy's errors name nothing (and it
        # takes True as 1)
        seed = check_integer(seed, "seed")
        if seed < 0:
            raise ValueError("seed must be nonnegative, got %d" % seed)
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key + tuple(key),
        pool_size=seed.pool_size)))


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


def _sigma_root(p, cov):
    # the symmetric root R = sqrt(sigma2) (I + k uu') of build_sigma(p, cov),
    # u = vecd(I)/sqrt(p) and k = (1 - p tau)^(-1/2) - 1: closed-form, so it
    # holds where 1/(1 - p tau) is below rounding
    cov.validate(p)
    u = vecd(np.eye(p)) / math.sqrt(p)
    k = math.expm1(-0.5 * math.log1p(-p * cov.tau))
    return math.sqrt(cov.sigma2) * (np.eye(sym_dim(p)) + k * np.outer(u, u))


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
    n = check_integer(n, "n")
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    z = _rng_from(seed).standard_normal((n, sym_dim(p)))
    return M + vecd_inv(z @ R, p)


@dataclass(frozen=True, eq=False)
class SuffStats:
    """Sufficient statistics of a one- or two-group sample.

    For each group g: the count n[g], the sample mean ybar[g] and the
    residual (R_i = Y_i - ybar[g]) sums of squares on the trace line
    u = vecd(I)/sqrt(p), a[g] = sum_i tr(R_i)^2 / p, and off it,
    b[g] = sum_i ||R_i||^2 - a[g]; every fit and statistic reads these.
    logdet[g] = log|W[g]/n[g]|, W[g] = sum_i vecd(R_i) vecd(R_i)' the
    q x q residual scatter, is -inf where W[g] is singular; only cov-check
    reads it, and it is None when only a and b were drawn.
    """

    n: tuple
    ybar: tuple
    a: tuple
    b: tuple
    logdet: tuple = None

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
        bad = np.flatnonzero(~np.isfinite(S).all(axis=(1, 2)))
        if bad.size:
            raise ValueError("observation %d has a non-finite entry"
                             % (bad[0] + 1))
        n1 = None if n1 is None else check_integer(n1, "n1")
        if n1 is not None and not 1 <= n1 < S.shape[0]:
            raise ValueError("need 1 <= n1 < n, got n1=%d, n=%d" % (n1, S.shape[0]))
        parts = (S,) if n1 is None else (S[:n1], S[n1:])
        ybar = [part.mean(axis=0) for part in parts]
        p, a, b, logdet = S.shape[1], [], [], []
        for part, m in zip(parts, ybar):
            r = vecd(part) - vecd(m)
            W = r.T @ r
            a.append(float(np.sum(W[:p, :p]) / p))
            b.append(float(np.trace(W) - a[-1]))
            # a scatter of n residuals has rank at most n - 1
            sign, ld = np.linalg.slogdet(W / len(part))
            logdet.append(float(ld) if sign > 0.0 and len(part) > len(W)
                          else -math.inf)
        return cls(tuple(len(part) for part in parts), tuple(ybar), tuple(a),
                   tuple(b), tuple(logdet))

    @property
    def p(self):
        return self.ybar[0].shape[-1]

    def replicates(self):
        """Yield one SuffStats per replicate of statistics stacked over replicates."""
        logdet = zip(*self.logdet) if self.logdet else [None] * len(self.a[0])
        for y, a, b, ld in zip(zip(*self.ybar), zip(*self.a), zip(*self.b), logdet):
            yield SuffStats(self.n, y, a, b, ld)
