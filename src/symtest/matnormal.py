"""The orthogonally invariant symmetric-matrix-variate normal distribution.

A random symmetric Y ~ N(M, sigma2, tau) has density proportional to
exp(-0.5 * ||Y - M||^2_{sigma2,tau}). In vecd coordinates its covariance
is block diagonal: sigma2 * (I_p + c 11') over the diagonal entries, with
c = tau / (1 - p*tau), and sigma2 * I over the scaled off-diagonal
entries. This module builds that covariance explicitly, evaluates the
log-density, draws exact samples over the whole parameter range
(tau < 1/p, both signs of c), and reduces a sample to its sufficient
statistics (SuffStats): per group the count, the mean and the vecd
residual scatter. The scatter can also be drawn directly from its
Wishart law (sample_scatter), so a Monte Carlo replicate of n
observations costs the same at any n.

Samples are stored as (n, p, p) arrays of symmetric matrices.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .symcore import SQRT2, check_integer, check_symmetric, norm_sq, sym_dim, vecd


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


def _assemble(diag, off, p):
    n = diag.shape[0]
    out = np.zeros((n, p, p))
    idx = np.arange(p)
    out[:, idx, idx] = diag
    iu = np.triu_indices(p, 1)
    out[:, iu[0], iu[1]] = off
    out[:, iu[1], iu[0]] = off
    return out


def sample(n, M, cov, seed):
    """Draw n i.i.d. symmetric matrices from N(M, sigma2, tau).

    `seed` may be an integer, a numpy SeedSequence, or a Generator;
    integers map to a fresh Philox stream, so results are deterministic
    per seed and identical however replicates are distributed across
    workers. Draw order is fixed: the shared scalar (c >= 0 branch only),
    then all diagonal normals, then all off-diagonal normals.

    For c >= 0 the construction is Z = sigma * (sqrt(c) w I_p + W) with
    w standard normal and W from the Gaussian orthogonal ensemble. For
    c < 0 that recipe has no real sqrt(c), so the diagonal is drawn
    through a Cholesky factor of sigma2 * (I_p + c 11') instead, with
    off-diagonals i.i.d. N(0, sigma2/2) as before.
    """
    M = check_symmetric(M, "M")
    p = M.shape[0]
    cov.validate(p)
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    rng = _rng_from(seed)
    q = sym_dim(p)
    c = cov.c(p)
    s = math.sqrt(cov.sigma2)
    if c >= 0.0:
        w = rng.standard_normal(n)
        diag = s * (math.sqrt(c) * w[:, None] + rng.standard_normal((n, p)))
    else:
        L = np.linalg.cholesky(cov.sigma2 * (np.eye(p) + c))
        diag = rng.standard_normal((n, p)) @ L.T
    off = (s / SQRT2) * rng.standard_normal((n, q - p))
    return _assemble(diag, off, p) + M


@functools.lru_cache(maxsize=16)
def _sigma_factor(p, cov):
    # Cholesky factor of build_sigma(p, cov), made once per (p, cov) and
    # read-only because every caller shares it
    L = np.linalg.cholesky(build_sigma(p, cov))
    L.setflags(write=False)
    return L


def sample_scatter(df, p, cov, rng):
    """Draw the q x q vecd scatter W ~ Wishart(df, build_sigma(p, cov)).

    The residual scatter of n observations from N(M, sigma2, tau) has this
    law with df = n - 1, independent of the sample mean. By the Bartlett
    decomposition (Anderson 2003, ch. 7) W = L T T' L', where L is the
    Cholesky factor of the model covariance and T is q x min(df, q),
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
    LT = _sigma_factor(p, cov) @ T
    return LT @ LT.T


def vecd_rows(S):
    """vecd applied to each matrix of an (n, p, p) sample, as an (n, q) array."""
    S = np.asarray(S, dtype=float)
    p = S.shape[1]
    iu = np.triu_indices(p, 1)
    return np.concatenate(
        [S[:, np.arange(p), np.arange(p)], SQRT2 * S[:, iu[0], iu[1]]], axis=1)


@dataclass(frozen=True, eq=False)
class SuffStats:
    """Sufficient statistics of a one- or two-group sample.

    For each group g: the count n[g], the sample mean ybar[g] and the
    q x q scatter W[g] = sum_i vecd(R_i) vecd(R_i)' of the residuals
    R_i = Y_i - ybar[g]. Every fit, estimator and statistic reads the
    data only through these, so a sample is reduced once.
    """

    n: tuple
    ybar: tuple
    W: tuple

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
        ybar = tuple(part.mean(axis=0) for part in parts)
        R = [vecd_rows(part) - vecd(m) for part, m in zip(parts, ybar)]
        return cls(n=tuple(len(part) for part in parts), ybar=ybar,
                   W=tuple(r.T @ r for r in R))

    @property
    def p(self):
        return self.ybar[0].shape[0]

    @functools.cached_property
    def A(self):
        """Per group, the summed squared residual traces sum_i tr(R_i)^2."""
        p = self.p
        return tuple(float(W[:p, :p].sum()) for W in self.W)

    @functools.cached_property
    def B(self):
        """Per group, the summed squared residual norms sum_i ||R_i||^2."""
        return tuple(float(np.trace(W)) for W in self.W)
