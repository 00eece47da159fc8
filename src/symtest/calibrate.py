"""Monte Carlo harness: null calibration, cone weights, consistency studies.

A truth, the generator of the data, holds M, sigma2 and tau, or M1, M2,
sigma2 and tau for two groups, and no other key (symcore.check_keys, in
_generator). Replicates are drawn in chunks, each from its own
independent, order-insensitive substream, the seed's child (c,) for chunk
c, (i, c) at grid point i of a consistency study (matnormal._rng_from).
So every report is bit-reproducible for a seed, and SeedSequence(s) gives
the report of the integer s. One- and two-group studies share one path: a
chunk draws each group's sufficient statistics directly from their exact
laws (_draws), so a replicate's cost does not grow with n_g. A
calibration binds its hypothesis once (lrt.parse_config). The fits never
depend on the covariance, so each chunk's stack of means is fitted to
each set in one call (lrt._project), with the residual sums of every fit
but FixedEigvecs and OrderedCone; only the statistic step lrt._statistic
runs replicate by replicate, forming Ybar - M for those two alone (their
chunk step waits on the benchmark's peak memory bound, ROADMAP item 1),
and the p-values of all replicates are taken in one lrt.pvalue call, the
reference's quantiles in one lrt.quantile call. An eigenvector study
fits nothing: it decomposes each chunk's means in one call.
"""

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import lrt
from .lrt import ConeWeights
from .symcore import (
    CovParams,
    _allocating,
    _number,
    check_integer,
    check_keys,
    check_symmetric,
    eigh_desc,
    float_array,
    sym_dim,
)
from .matnormal import SuffStats, _rng_from, _sigma_root, sample
from .onesample import (
    Unrestricted,
    _check_distinct,
    _fit,
    _fit_cov,
    contains,
    eigvec_uncertainty,
    pava,
)

PROBS = (0.5, 0.9, 0.95, 0.99)
_CHUNK = 1024  # replicates drawn from one stream
ALPHA = 0.05


@dataclass(eq=False)
class CalibrationReport:
    """Null-distribution check of one test against its reference."""

    test_id: str
    reps: int
    n: int
    n1: object
    n2: object
    dist: object
    quantile_probs: tuple
    empirical_quantiles: tuple
    theoretical_quantiles: tuple
    ks_distance: float
    alpha: float
    rejection_rate: float
    statistics: np.ndarray  # sorted; feeds QQ plot output


def _check_d_true(d_true):
    d = float_array(d_true, "d_true")
    if d.ndim != 1 or d.size < 1:
        raise ValueError("d_true must be a nonempty vector")
    if not np.all(np.isfinite(d)):
        raise ValueError("d_true must be finite")
    if np.any(np.diff(d) > 0.0):
        raise ValueError("d_true must be non-increasing")
    return d


def _check_reps(reps):
    reps = check_integer(reps, "reps")
    if reps < 1:
        raise ValueError("reps must be positive")
    return reps


def _cone_draw(d, cov, reps, seed):
    # pava of reps draws of the diagonal of N(diag(d), sigma2, tau): y = d + zB,
    # B the p x p diagonal block of the root R; y += d adds no (reps, p) array
    p, rng = d.size, _rng_from(seed)
    with _allocating("reps", reps):
        y = rng.standard_normal((reps, p))
    y = y @ _sigma_root(p, cov)[:p, :p]
    y += d
    return pava(y)


def estimate_cone_weights(d_true, reps, seed):
    """Face-dimension mixture weights of the order-cone projection at d_true.

    Draws y ~ N(d_true, I_p), projects onto the non-increasing cone, and
    tallies the number of distinct fitted values. The weights do not
    depend on sigma2 or tau, only on the gaps of d_true; deterministic
    given the seed, and equal to cone_boundary_law(d_true, 1, reps,
    seed)["dim_mass"], which makes the same draw.
    """
    d = _check_d_true(d_true)
    p = d.size
    reps = _check_reps(reps)
    counts = np.bincount(_cone_draw(d, CovParams(1.0), reps, seed)[1],
                         minlength=p + 1)
    return ConeWeights(d_true=tuple(float(v) for v in d),
                       face_dims=tuple(range(1, p + 1)),
                       weights=tuple(counts[1:] / reps),
                       reps=reps)


def _ks_distance(sorted_stats, dist, pvals):
    # sup |F_m - F| compares F_m with the CDF P(X <= x) = 1 - P(X > x) at
    # each statistic and with its left limit 1 - P(X >= x) = 1 - pvals just
    # below it; the two differ only at the point mass of a zero-df component
    m = sorted_stats.size
    i = np.arange(1, m + 1)
    cdf = 1.0 - dist.tail(sorted_stats, strict=True)
    cdf_below = 1.0 - pvals
    return float(max(np.max(i / m - cdf), np.max(cdf_below - (i - 1) / m)))


def _generator(truth, keys, what="truth", counts=(), optional=()):
    # the generator's means, one per group and of one shape, and its
    # (sigma2, tau), checked for that shape; truth also holds counts
    check_keys(truth, keys + ("sigma2", "tau") + counts, optional, what)
    means = tuple(check_symmetric(truth[k], k) for k in keys)
    if means[0].ndim != 2:  # check_symmetric also takes stacks
        raise ValueError("%s must be square, got shape %s" % (keys[0], means[0].shape))
    if means[-1].shape != means[0].shape:
        raise ValueError("M1 and M2 must have the same shape, got %s and %s"
                         % (means[0].shape, means[-1].shape))
    cov = CovParams(_number(truth["sigma2"], "sigma2"),
                    _number(truth["tau"], "tau"))
    return means, cov.validate(means[0].shape[0])


def _draws(means, sizes, cov, reps, seed, key=(), scatter=False):
    """Yield each chunk of replicates as stacked SuffStats, drawn directly.

    Chunk c of r <= _CHUNK replicates draws from one stream, the seed's
    child key + (c,), group 1 first: all r means
    Ybar_g ~ N(M_g, sigma2/n_g, tau) in one `sample` call, then
    a_g ~ v1 chi2(n_g - 1) and b_g ~ v2 chi2((q - 1)(n_g - 1)), independent
    of Ybar_g because v1 = sigma2/(1 - p tau) and v2 = sigma2 are the
    covariance's eigenvalues on the trace line and off it. With scatter, W_g ~ Wishart(n_g - 1, Sigma)
    is drawn instead by its Bartlett decomposition (Anderson 2003, ch. 7) in
    a frame whose first axis is the trace line, as r rows of c_i = T_ii^2 ~
    chi2(n_g - i), i = 1..q (n_g > q), then the r squares s ~ chi2(q(q-1)/2)
    below the diagonal: a_g = v1 c_1, b_g = v2 (c_2 + ... + c_q + s) and
    log|W_g/n_g| = log(v1/n_g) + (q - 1) log(v2/n_g) + sum_i log c_i.
    """
    p = means[0].shape[0]
    q = sym_dim(p)
    v1, v2 = cov.sigma2 / (1.0 - p * cov.tau), cov.sigma2
    for c, start in enumerate(range(0, reps, _CHUNK)):
        r = min(_CHUNK, reps - start)
        rng = _rng_from(seed, key + (c,))
        ybar, a, b, logdet = [], [], [], []
        for M, k in zip(means, sizes):
            ybar.append(sample(r, M, CovParams(cov.sigma2 / k, cov.tau), rng))
            # v chi2(df) as 2 v Gamma(df/2): chisquare rejects df 0 (n_g = 1)
            if scatter:
                chi = 2.0 * rng.standard_gamma(0.5 * (k - 1 - np.arange(q)), (r, q))
                s = 2.0 * rng.standard_gamma(0.25 * q * (q - 1), r)
                a.append((v1 * chi[:, 0]).tolist())
                b.append((v2 * (chi[:, 1:].sum(axis=1) + s)).tolist())
                logdet.append((np.log(chi).sum(axis=1) + np.log(v1 / k)
                               + (q - 1) * np.log(v2 / k)).tolist())
                continue
            for out, v, df in ((a, v1, k - 1), (b, v2, (q - 1) * (k - 1))):
                out.append((2.0 * v * rng.standard_gamma(0.5 * df, r)).tolist())
        yield SuffStats(sizes, tuple(ybar), tuple(a), tuple(b), tuple(logdet) or None)


def _fits(h, chunk):
    # per replicate, each set's (means, _fit's residual sums or None), fit
    # per chunk
    return zip(*(zip(zip(*means), repeat(None) if sums is None else zip(*sums))
                 for means, _, sums in lrt._project(h, chunk)))


def calibrate_null(config, truth, n, reps, seed):
    """Simulate the null `reps` times and compare the statistic to its reference.

    config is a hypothesis mapping as accepted by lrt.run_config. truth
    gives the generator: {"M": ..., "sigma2": ..., "tau": ...} for
    one-sample tests, {"M1": ..., "M2": ..., ...} for two-sample ones
    (then n is the pair (n1, n2)). The truth must lie in the null set.
    """
    reps = check_integer(reps, "reps")
    if reps < 1000:
        raise ValueError("calibration needs reps >= 1000, got %d" % reps)
    # two samples if the truth holds M1; the key rule refuses a non-mapping
    two_sample = isinstance(truth, Mapping) and "M1" in truth
    means, cov_true = _generator(truth, ("M1", "M2") if two_sample else ("M",))
    sizes = n if isinstance(n, (list, tuple)) else (n,)
    if len(sizes) != len(means):
        raise ValueError("a truth with %s needs n = %s, got %r" % (
            "M1 and M2" if two_sample else "M",
            "[n1, n2]" if two_sample else "a single count", n))
    sizes = tuple(check_integer(k, "n") for k in sizes)
    if min(sizes) < 1:
        raise ValueError("need n >= 1 per group, got %r" % (n,))
    for name, count in (("reps", reps), ("n", max(sizes))):
        if count >= 2 ** 63:  # no array is that long; the draws overflow
            raise ValueError("%s must be below 2**63, got %.3g"
                             % (name, min(count, 1e308)))
    h = lrt.parse_config(config, means[0].shape[0], sizes)
    if not contains(h.sets[0], *means):
        raise ValueError("generator mean is not in the null set of %r"
                         % h.test_id)
    with _allocating("reps", reps):
        stats = np.empty(reps)
    draws = _draws(means, sizes, cov_true, reps, seed, scatter=h.spec.scatter)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, chunk in zip(range(0, reps, _CHUNK), draws):
            stats[start:start + _CHUNK] = [
                lrt._statistic(h, drawn, fit)[0]
                for drawn, fit in zip(chunk.replicates(), _fits(h, chunk))]
    lrt._check_finite(h, stats)
    stats.sort()
    pvals = lrt.pvalue(h.dist, stats)
    n1, n2 = sizes if two_sample else (None, None)
    return CalibrationReport(
        test_id=h.test_id, reps=reps, n=sum(sizes), n1=n1, n2=n2,
        dist=h.dist, quantile_probs=PROBS,
        empirical_quantiles=tuple(np.quantile(stats, PROBS).tolist()),
        theoretical_quantiles=tuple(lrt.quantile(h.dist, PROBS).tolist()),
        alpha=ALPHA, ks_distance=_ks_distance(stats, h.dist, pvals),
        rejection_rate=float(np.mean(pvals <= ALPHA)), statistics=stats)


def consistency_study(estimator, truth, n_grid, reps, seed):
    """Monte Carlo error of an estimator over a grid of sample sizes.

    estimator is one of "mean", "sigma2", "tau" (one-sample, unrestricted
    fit), "pooled_sigma2", "pooled_tau" (two-sample, split n in half), or
    "eigvec_var" (eigenvector-perturbation variance against the
    1/(2(d_i - d_j)^2) law). Returns one row per n: scalar estimators get
    {"n", "rmse", "bias"}, "mean" gets {"n", "rmse"}, and "eigvec_var"
    gets {"n", "pairs"} with rows [i, j, var(sqrt(n) a_ij), predicted].
    """
    if estimator not in ("mean", "sigma2", "tau", "pooled_sigma2", "pooled_tau",
                         "eigvec_var"):
        raise ValueError("unknown estimator %r" % (estimator,))
    reps = _check_reps(reps)
    pooled = estimator.startswith("pooled_")
    means, cov = _generator(truth, ("M1", "M2") if pooled else ("M",))
    M = means[0]
    if estimator == "eigvec_var":
        dec = eigh_desc(M)
        _check_distinct(dec.lam, M.shape[0])
    if isinstance(n_grid, (str, Mapping)) or not isinstance(n_grid, Iterable):
        raise ValueError("n_grid must be a sequence of sample sizes, got %r"
                         % (n_grid,))
    # one observation per group at least; a covariance fit needs two, for
    # the spread within each group
    per_group = 1 if estimator in ("mean", "eigvec_var") else 2
    grid = [check_integer(v, "n") for v in n_grid]
    for n in grid:
        if n < per_group * len(means):
            raise ValueError("estimator %r requires n >= %d, got %d"
                             % (estimator, per_group * len(means), n))
    rows = []
    for i, n in enumerate(grid):
        sizes = (n // 2, n - n // 2) if pooled else (n,)
        vals = []
        for chunk in _draws(means, sizes, cov, reps, seed, (i,)):
            if estimator == "eigvec_var":  # the FixedEigvals fit keeps the means' frames
                a_hat, pred = eigvec_uncertainty(dec.V, dec.lam, chunk.ybar[0], n,
                                                 cov.sigma2)
                vals.extend(a_hat)
                continue
            # one fit per chunk; sigma2 and tau are fitted per replicate
            fitted, _, sums = _fit(Unrestricted(), *chunk.ybar, n=chunk.n)
            if estimator == "mean":
                vals.extend(np.sum((fitted[0] - M) ** 2, axis=(-2, -1)))
            else:
                k = 0 if estimator.endswith("sigma2") else 1
                vals.extend(_fit_cov(drawn, res)[k]
                            for drawn, res in zip(chunk.replicates(), zip(*sums)))
        vals = np.array(vals)
        if estimator == "mean":
            rows.append({"n": n, "rmse": float(np.sqrt(np.mean(vals)))})
        elif estimator == "eigvec_var":
            p = M.shape[0]
            rows.append({"n": n, "pairs": [
                [r, c, float(n * np.var(vals[:, r, c])), float(n * pred[r, c])]
                for r in range(p) for c in range(r + 1, p)]})
        else:
            target = cov.sigma2 if estimator.endswith("sigma2") else cov.tau
            rows.append({"n": n,
                         "rmse": float(np.sqrt(np.mean((vals - target) ** 2))),
                         "bias": float(np.mean(vals) - target)})
    return rows


def _block_pattern(tied):
    # run lengths of a fitted vector, from the flags of its adjacent ties
    # (pooled values share a mean, so a tie is exact equality)
    cuts = np.flatnonzero(~tied) + 1
    return tuple(int(v) for v in np.diff(np.concatenate(([0], cuts, [tied.size + 1]))))


def cone_boundary_law(d_true, n, reps, seed, cov=None):
    """Empirical face masses of the cone-projected eigenvalue estimate.

    Simulates the sample mean of n observations centered at diag(d_true)
    (only its diagonal matters for the order-cone fit), projects onto the
    non-increasing cone, and tallies where the estimate lands: by face
    dimension, by tie pattern, and by each adjacent tie. With tied d_true
    the estimate keeps positive mass on the tie faces no matter how large
    n is.
    """
    d = _check_d_true(d_true)
    p = d.size
    if cov is None:
        cov = CovParams(1.0, 0.0)
    cov.validate(p)
    n, reps = check_integer(n, "n"), _check_reps(reps)
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    # the diagonal of the sample mean, drawn from N(d_true, sigma2/n, tau)
    fitted, dims = _cone_draw(d, CovParams(cov.sigma2 / n, cov.tau), reps, seed)
    dim_counts = np.bincount(dims, minlength=p + 1)
    ties = fitted[:, 1:] == fitted[:, :-1]
    tie_counts = ties.sum(axis=0)
    patterns, pattern_counts = np.unique(ties, axis=0, return_counts=True)
    return {
        "d_true": tuple(float(v) for v in d),
        "n": n,
        "reps": reps,
        "dim_mass": {k: float(dim_counts[k] / reps) for k in range(1, p + 1)},
        "pattern_mass": dict(sorted(
            (_block_pattern(tied), float(cnt / reps))
            for tied, cnt in zip(patterns, pattern_counts))),
        "tie_mass": {(j, j + 1): float(tie_counts[j] / reps)
                     for j in range(p - 1)},
    }
