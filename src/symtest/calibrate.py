"""Monte Carlo harness: null calibration, cone weights, consistency studies.

Replicates draw from independent, order-insensitive substreams
(SeedSequence spawn keys), so every report is bit-reproducible for a
given seed no matter how the replicate loop is scheduled.
"""

from dataclasses import dataclass

import numpy as np

from . import lrt
from .symcore import CovParams, Multiplicities, eigh_desc
from .matnormal import sample
from .onesample import (
    FixedEigvals,
    FixedEigvecs,
    Mult,
    OrderedCone,
    Point,
    Unrestricted,
    contains,
    eigvec_uncertainty,
    mle,
    pava,
)
from .twosample import CommonEigvals, EqualMeans, Unrestricted2, contains2, mle2

PROBS = (0.5, 0.9, 0.95, 0.99)
ALPHA = 0.05


@dataclass(frozen=True)
class ConeWeights:
    """Empirical face-dimension frequencies of the order-cone projection.

    weights[i] is the fraction of replicates whose projection had
    face_dims[i] distinct values; the mixture component for face
    dimension k' is a chi-square with q - k' degrees of freedom.
    """

    d_true: object
    face_dims: tuple
    weights: tuple
    reps: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")

    def weight_for_dim(self, k):
        for dim, w in zip(self.face_dims, self.weights):
            if dim == k:
                return w
        return 0.0


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


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def estimate_cone_weights(d_true, reps, seed):
    """Face-dimension mixture weights of the order-cone projection at d_true.

    Draws y ~ N(d_true, I_p), projects onto the non-increasing cone, and
    tallies the number of distinct fitted values. The weights do not
    depend on sigma2 or tau, only on the gaps of d_true; deterministic
    given the seed.
    """
    d = np.asarray(d_true, dtype=float)
    if d.ndim != 1 or d.size < 1:
        raise ValueError("d_true must be a nonempty vector")
    if np.any(np.diff(d) > 0.0):
        raise ValueError("d_true must be non-increasing")
    p = d.size
    reps = int(reps)
    if reps < 1:
        raise ValueError("reps must be positive")
    y = d + _rng(seed).standard_normal((reps, p))
    counts = np.zeros(p + 1, dtype=np.int64)
    for row in y:
        counts[pava(row)[1]] += 1
    return ConeWeights(d_true=tuple(float(v) for v in d),
                       face_dims=tuple(range(1, p + 1)),
                       weights=tuple(counts[1:] / reps),
                       reps=reps)


def _parse_mult(config):
    return Multiplicities(tuple(int(v) for v in config["multiplicities"]))


def _check_truth_in_null(config, truth):
    """Raise unless the generator's mean(s) lie in the test's null set."""
    test_id = config["test_id"]

    def arr(key):
        return np.asarray(config[key], dtype=float)

    if test_id in ("2a0", "2s1", "2s2"):
        M1 = np.asarray(truth["M1"], dtype=float)
        M2 = np.asarray(truth["M2"], dtype=float)
        if test_id == "2a0":
            ok = contains2(EqualMeans(), M1, M2)
        elif test_id == "2s1":
            ok = contains2(CommonEigvals(_parse_mult(config)), M1, M2)
        else:
            ok = (contains2(EqualMeans(), M1, M2)
                  and contains2(CommonEigvals(_parse_mult(config)), M1, M2))
    elif test_id == "cov-check":
        ok = True
    else:
        M = np.asarray(truth["M"], dtype=float)
        if test_id in ("a0", "a1", "s1"):
            ok = contains(Point(arr("M0")), M)
        elif test_id == "a2":
            ok = contains(FixedEigvecs(arr("U0")), M)
        elif test_id == "c2":
            ok = contains(OrderedCone(arr("U0")), M)
        elif test_id == "s2":
            ok = contains(FixedEigvals(arr("D0"), _parse_mult(config)), M)
        elif test_id == "s3":
            ok = contains(Mult(_parse_mult(config)), M)
        else:
            raise ValueError("unknown test_id %r" % test_id)
    if not ok:
        raise ValueError("generator mean is not in the null set of %r" % test_id)


def _ks_distance(sorted_stats, dist):
    # sup |F_m - F| compares F_m with the CDF P(X <= x) = 1 - P(X > x) at
    # each statistic and with its left limit 1 - P(X >= x) just below it;
    # the two differ only at the point mass of a zero-df component
    m = sorted_stats.size
    i = np.arange(1, m + 1)
    cdf = 1.0 - lrt._tail(dist, sorted_stats, strict=True)
    cdf_below = 1.0 - lrt.pvalue(dist, sorted_stats)
    return float(max(np.max(i / m - cdf), np.max(cdf_below - (i - 1) / m)))


def calibrate_null(config, truth, n, reps, seed):
    """Simulate the null `reps` times and compare the statistic to its reference.

    config is a hypothesis mapping as accepted by lrt.run_config. truth
    gives the generator: {"M": ..., "sigma2": ..., "tau": ...} for
    one-sample tests, {"M1": ..., "M2": ..., ...} for two-sample ones
    (then n is the pair (n1, n2)). The truth must lie in the null set.
    """
    reps = int(reps)
    if reps < 1000:
        raise ValueError("calibration needs reps >= 1000, got %d" % reps)
    _check_truth_in_null(config, truth)
    cov_true = CovParams(float(truth["sigma2"]), float(truth["tau"]))
    two_sample = "M1" in truth
    if two_sample:
        n1, n2 = int(n[0]), int(n[1])
        M1 = np.asarray(truth["M1"], dtype=float)
        M2 = np.asarray(truth["M2"], dtype=float)
        n_total = n1 + n2
    else:
        n1 = n2 = None
        M = np.asarray(truth["M"], dtype=float)
        n_total = int(n)
    stats = np.empty(reps)
    pvals = np.empty(reps)
    dist = None
    for rep in range(reps):
        ss = np.random.SeedSequence(seed, spawn_key=(rep,))
        if two_sample:
            ss1, ss2 = ss.spawn(2)
            S = np.concatenate([sample(n1, M1, cov_true, ss1),
                                sample(n2, M2, cov_true, ss2)])
            res = lrt.run_config(config, S, n1=n1)
        else:
            S = sample(n_total, M, cov_true, ss)
            res = lrt.run_config(config, S)
        stats[rep] = res.statistic
        pvals[rep] = res.p_value
        if dist is None:
            dist = res.dist
    stats.sort()
    emp = tuple(float(np.quantile(stats, pr)) for pr in PROBS)
    theo = tuple(lrt.quantile(dist, pr) for pr in PROBS)
    return CalibrationReport(
        test_id=config["test_id"], reps=reps, n=n_total, n1=n1, n2=n2,
        dist=dist, quantile_probs=PROBS, empirical_quantiles=emp,
        theoretical_quantiles=theo, ks_distance=_ks_distance(stats, dist),
        alpha=ALPHA, rejection_rate=float(np.mean(pvals <= ALPHA)),
        statistics=stats)


def consistency_study(estimator, truth, n_grid, reps, seed):
    """Monte Carlo error of an estimator over a grid of sample sizes.

    estimator is one of "mean", "sigma2", "tau" (one-sample, unrestricted
    fit), "pooled_sigma2", "pooled_tau" (two-sample, split n in half), or
    "eigvec_var" (eigenvector-perturbation variance against the
    1/(2(d_i - d_j)^2) law). Returns one row per n: scalar estimators get
    {"n", "rmse", "bias"}, "mean" gets {"n", "rmse"}, and "eigvec_var"
    gets {"n", "pairs"} with rows [i, j, var(sqrt(n) a_ij), predicted].
    """
    est_id = estimator if isinstance(estimator, str) else estimator["id"]
    cov = CovParams(float(truth["sigma2"]), float(truth["tau"]))
    reps = int(reps)
    rows = []
    for i, n in enumerate(int(v) for v in n_grid):
        if est_id in ("pooled_sigma2", "pooled_tau"):
            M1 = np.asarray(truth["M1"], dtype=float)
            M2 = np.asarray(truth["M2"], dtype=float)
            n1 = n // 2
            vals = np.empty(reps)
            for rep in range(reps):
                ss = np.random.SeedSequence(seed, spawn_key=(i, rep))
                ss1, ss2 = ss.spawn(2)
                S = np.concatenate([sample(n1, M1, cov, ss1),
                                    sample(n - n1, M2, cov, ss2)])
                fit = mle2(Unrestricted2(), S, n1)
                vals[rep] = fit.sigma2_hat if est_id == "pooled_sigma2" else fit.tau_hat
            target = cov.sigma2 if est_id == "pooled_sigma2" else cov.tau
            rows.append({"n": n,
                         "rmse": float(np.sqrt(np.mean((vals - target) ** 2))),
                         "bias": float(np.mean(vals) - target)})
            continue
        M = np.asarray(truth["M"], dtype=float)
        if est_id == "mean":
            err2 = np.empty(reps)
            for rep in range(reps):
                ss = np.random.SeedSequence(seed, spawn_key=(i, rep))
                S = sample(n, M, cov, ss)
                err2[rep] = np.sum((S.mean(axis=0) - M) ** 2)
            rows.append({"n": n, "rmse": float(np.sqrt(np.mean(err2)))})
        elif est_id in ("sigma2", "tau"):
            vals = np.empty(reps)
            for rep in range(reps):
                ss = np.random.SeedSequence(seed, spawn_key=(i, rep))
                S = sample(n, M, cov, ss)
                fit = mle(Unrestricted(), S)
                vals[rep] = fit.sigma2_hat if est_id == "sigma2" else fit.tau_hat
            target = cov.sigma2 if est_id == "sigma2" else cov.tau
            rows.append({"n": n,
                         "rmse": float(np.sqrt(np.mean((vals - target) ** 2))),
                         "bias": float(np.mean(vals) - target)})
        elif est_id == "eigvec_var":
            dec = eigh_desc(M)
            p = M.shape[0]
            mult = Multiplicities((1,) * p)
            pset = FixedEigvals(dec.lam, mult)
            a = np.empty((reps, p, p))
            pred = None
            for rep in range(reps):
                ss = np.random.SeedSequence(seed, spawn_key=(i, rep))
                S = sample(n, M, cov, ss)
                fit = mle(pset, S, cov)
                a_hat, pred = eigvec_uncertainty(dec.V, dec.lam, fit.M_hat, n,
                                                 cov.sigma2)
                a[rep] = a_hat
            pairs = []
            for r in range(p):
                for c in range(r + 1, p):
                    emp = float(n * np.var(a[:, r, c]))
                    pairs.append([r, c, emp, float(n * pred[r, c])])
            rows.append({"n": n, "pairs": pairs})
        else:
            raise ValueError("unknown estimator %r" % est_id)
    return rows


def _block_pattern(fitted):
    # consecutive runs of exactly equal values (pooled values share a mean)
    sizes = []
    run = 1
    for a, b in zip(fitted[:-1], fitted[1:]):
        if b == a:
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return tuple(sizes)


def cone_boundary_law(d_true, n, reps, seed, cov=None):
    """Empirical face masses of the cone-projected eigenvalue estimate.

    Simulates the sample mean of n observations centered at diag(d_true)
    (only its diagonal matters for the order-cone fit), projects onto the
    non-increasing cone, and tallies where the estimate lands: by face
    dimension, by tie pattern, and by each adjacent tie. With tied d_true
    the estimate keeps positive mass on the tie faces no matter how large
    n is.
    """
    d = np.asarray(d_true, dtype=float)
    if np.any(np.diff(d) > 0.0):
        raise ValueError("d_true must be non-increasing")
    p = d.size
    if cov is None:
        cov = CovParams(1.0, 0.0)
    cov.validate(p)
    reps = int(reps)
    # the diagonal of the sample mean is Gaussian around d_true with
    # covariance (sigma2/n)(I + c 11'); no full matrices needed
    A = cov.sigma2 / n * (np.eye(p) + cov.c(p) * np.ones((p, p)))
    L = np.linalg.cholesky(A)
    y = d + _rng(seed).standard_normal((reps, p)) @ L.T
    dim_counts = np.zeros(p + 1, dtype=np.int64)
    pattern_counts = {}
    tie_counts = np.zeros(p - 1, dtype=np.int64) if p > 1 else np.zeros(0)
    for row in y:
        fitted, dim = pava(row)
        dim_counts[dim] += 1
        pat = _block_pattern(fitted)
        pattern_counts[pat] = pattern_counts.get(pat, 0) + 1
        for j in range(p - 1):
            if fitted[j] == fitted[j + 1]:
                tie_counts[j] += 1
    return {
        "d_true": tuple(float(v) for v in d),
        "n": int(n),
        "reps": reps,
        "dim_mass": {k: float(dim_counts[k] / reps) for k in range(1, p + 1)},
        "pattern_mass": {pat: float(cnt / reps)
                         for pat, cnt in sorted(pattern_counts.items())},
        "tie_mass": {(j, j + 1): float(tie_counts[j] / reps)
                     for j in range(p - 1)},
    }
