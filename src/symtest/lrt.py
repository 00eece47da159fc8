"""Likelihood-ratio statistics and reference distributions.

Every test reduces to a difference of projection distances of the sample
mean(s) under the null and alternative parameter sets, so every test_*
function takes the sample's sufficient statistics (matnormal.SuffStats)
rather than the sample itself. With known (sigma2, tau) the affine cases
are exactly chi-square, and the mean-shift cases have F variants when
the covariance is estimated; the curved and cone cases are asymptotic
(chi-square or chi-square mixture). When no covariance is supplied, tau
is estimated under the null fit, sigma2 follows, and both are plugged
into the statistic, with the reference distribution flagged as
asymptotic-only.

Tail probabilities come from scipy.special (chdtrc, fdtrc). The cone
test's mixture weights at a tied spectrum are exact: the level-probability
law of each tied block, convolved over the blocks.

Test identifiers (`test_id` on results and in CLI configs), each an
entry of the registry TESTS, through which run_config dispatches:

==========  ====================================================
a0          mean equals a given point vs. unrestricted
a1          eigenvalues equal a given point, eigenvectors fixed
a2          mean diagonalized by a given frame vs. unrestricted
c2          frame given and eigenvalues ordered (cone test)
s1          mean equals a given point vs. free eigenvectors
s2          spectrum equals a given point, eigenvectors free
s3          spectrum has a given multiplicity pattern
cov-check   covariance is orthogonally invariant
2a0         two-sample equal means vs. unrestricted
2s1         two samples share a spectrum (pattern known)
2s2         equal means given a shared spectrum
==========  ====================================================
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc, fdtrc

from .symcore import (
    CovParams,
    Multiplicities,
    block_average,
    check_symmetric,
    eigh_desc,
    norm_sq,
    sym_dim,
)
from .matnormal import SuffStats
from .onesample import (
    FixedEigvals,
    FixedEigvecs,
    Mult,
    OrderedCone,
    Point,
    Unrestricted,
    _fit_cov,
    estimate_sigma2,
    mle,
)
from .twosample import (
    CommonEigvals,
    EqualMeans,
    FitResult2,
    Unrestricted2,
    mle2,
)

CLAMP = 1e-9

_PLUGIN_NOTE = "covariance parameters estimated under the null fit"
_ASYMPTOTIC_NOTE = "reference distribution is asymptotic only"


class StatisticError(RuntimeError):
    """A nested-model statistic came out negative beyond rounding tolerance."""


@dataclass(frozen=True)
class ChiSq:
    """Exact chi-square reference with df degrees of freedom."""

    df: float


@dataclass(frozen=True)
class ChiSqApprox:
    """Chi-square reference valid asymptotically only."""

    df: float


@dataclass(frozen=True)
class FDist:
    df1: float
    df2: float


@dataclass(frozen=True)
class ChiSqMix:
    """Mixture of chi-squares; a zero-df component is a point mass at 0."""

    weights: tuple
    dfs: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        if len(self.weights) != len(self.dfs):
            raise ValueError("weights and dfs must have equal length")
        object.__setattr__(self, "weights", tuple(float(x) for x in self.weights))
        object.__setattr__(self, "dfs", tuple(float(x) for x in self.dfs))


@dataclass(eq=False)
class TestResult:
    statistic: float
    dist: object
    p_value: float
    fit_null: object
    fit_alt: object
    test_id: str
    warnings: tuple = field(default_factory=tuple)


def _chi2_tail(df, t, strict):
    if df == 0:
        # point mass at 0, which chdtrc leaves undefined
        return np.where(t < 0.0 if strict else t <= 0.0, 1.0, 0.0)
    return chdtrc(df, np.maximum(t, 0.0))


def _tail(dist, t, strict=False):
    """P(X > t) if strict, else P(X >= t); t is an array."""
    if isinstance(dist, (ChiSq, ChiSqApprox)):
        return _chi2_tail(dist.df, t, strict)
    if isinstance(dist, FDist):
        return fdtrc(dist.df1, dist.df2, np.maximum(t, 0.0))
    if isinstance(dist, ChiSqMix):
        return sum(w * _chi2_tail(df, t, strict)
                   for w, df in zip(dist.weights, dist.dfs))
    raise TypeError("unknown reference distribution %r" % (dist,))


def pvalue(dist, t):
    """Upper tail P(X >= t) of the reference at a scalar or an array t."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("statistic must be finite, got %r" % (t,))
    out = _tail(dist, t)
    return float(out) if out.ndim == 0 else out


def quantile(dist, prob):
    """Quantile inf{t : P(X > t) <= 1 - prob} by bisection on the tail.

    The strict tail puts a point mass at 0 (a zero-df component) below
    the quantile, so any prob within that mass gives exactly 0.
    """
    if not 0.0 <= prob < 1.0:
        raise ValueError("prob must be in [0, 1), got %r" % prob)
    target = 1.0 - prob

    def above(t):
        return _tail(dist, t, strict=True) > target

    if not above(0.0):
        return 0.0
    hi = 1.0
    while above(hi):
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("quantile bracket failed")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _clamp(t):
    # nested minima cannot differ by less than 0; allow rounding dust only
    if t < 0.0:
        if t < -CLAMP:
            raise StatisticError(
                "nested-model statistic is negative beyond rounding: %g" % t)
        return 0.0
    return float(t)


def _result(test_id, t, dist, fit_null, fit_alt, plugin):
    t = _clamp(t)
    if isinstance(dist, (ChiSq, ChiSqApprox)) and dist.df == 0 and t <= CLAMP:
        # df 0 means the null and alternative coincide: the statistic is
        # identically zero and anything below the clamp is rounding dust,
        # which must not flip the point-mass p-value from 1 to 0.
        t = 0.0
    warns = []
    if plugin:
        warns.append(_PLUGIN_NOTE)
    if isinstance(dist, (ChiSqApprox, ChiSqMix)):
        warns.append(_ASYMPTOTIC_NOTE)
    return TestResult(statistic=t, dist=dist, p_value=pvalue(dist, t),
                      fit_null=fit_null, fit_alt=fit_alt, test_id=test_id,
                      warnings=tuple(warns))


def _norm_cov(cov):
    if isinstance(cov, str):
        if cov != "estimate":
            raise ValueError("cov must be a CovParams, None, or 'estimate'")
        return None
    return cov


def _fits(fit, stats, null, alt, cov):
    """Null and alternative fits, and the covariance plugged into the statistic.

    The covariance is the known one, or else the null fit's estimates
    (flagged as a plug-in).
    """
    cov = _norm_cov(cov)
    fit_null, fit_alt = fit(null, stats, cov), fit(alt, stats, cov)
    if cov is not None:
        return fit_null, fit_alt, cov, False
    return (fit_null, fit_alt,
            CovParams(fit_null.sigma2_hat, fit_null.tau_hat), True)


def test_point_unrestricted(stats, M0, cov=None):
    """Mean equals M0 vs. unrestricted (a0).

    Known covariance: exact chi-square(q). Estimated covariance: the
    scaled ratio of the lack of fit to the within-sample dispersion with
    an F(q, q(n-1)) reference, requiring n >= 2.
    """
    n, q = sum(stats.n), sym_dim(stats.p)
    M0 = check_symmetric(M0, "M0")
    if _norm_cov(cov) is None and n < 2:
        raise ValueError("the F variant requires n >= 2")
    fit_null, fit_alt, use_cov, plugin = _fits(
        mle, stats, Point(M0), Unrestricted(), cov)
    ybar = fit_alt.M_hat
    if not plugin:
        t = n * norm_sq(ybar - M0, use_cov)
        return _result("a0", t, ChiSq(q), fit_null, fit_alt, False)
    tau = fit_null.tau_hat
    unit = CovParams(1.0, tau)
    s2 = estimate_sigma2(stats, (ybar,), tau)  # within-sample dispersion only
    t = (n - 1.0) * norm_sq(ybar - M0, unit) / (q * s2)
    return _result("a0", t, FDist(q, q * (n - 1.0)), fit_null, fit_alt, True)


def test_A1(stats, U0, M0, cov=None):
    """Mean equals M0 within the family diagonalized by U0 (a1).

    M0 must itself be diagonalized by U0. Exact chi-square(p) given the
    covariance; plug-in asymptotic otherwise.
    """
    M0 = check_symmetric(M0, "M0")
    fit_null, fit_alt, use_cov, plugin = _fits(
        mle, stats, Point(M0), FixedEigvecs(U0), cov)
    U0 = fit_alt.set.U0
    W0 = U0.T @ M0 @ U0
    d0 = np.diagonal(W0).copy()
    if np.abs(W0 - np.diag(d0)).max() > 1e-8 * max(1.0, np.abs(M0).max()):
        raise ValueError("M0 is not diagonalized by U0")
    d_hat = np.diagonal(U0.T @ stats.ybar[0] @ U0)
    t = stats.n[0] * norm_sq(np.diag(d_hat - d0), use_cov)
    dist = ChiSqApprox(stats.p) if plugin else ChiSq(stats.p)
    return _result("a1", t, dist, fit_null, fit_alt, plugin)


def test_A2(stats, U0, cov=None):
    """Mean is diagonalized by U0 vs. unrestricted (a2)."""
    p = stats.p
    q = sym_dim(p)
    fit_null, fit_alt, use_cov, plugin = _fits(
        mle, stats, FixedEigvecs(U0), Unrestricted(), cov)
    t = stats.n[0] * norm_sq(stats.ybar[0] - fit_null.M_hat, use_cov)
    dist = ChiSqApprox(q - p) if plugin else ChiSq(q - p)
    return _result("a2", t, dist, fit_null, fit_alt, plugin)


def _exact_cone_law(mult):
    """Face dimensions k..p of the cone projection and their exact weights.

    At a spectrum with tie pattern mult and widely separated blocks, a
    tied block of size m lands on l distinct values with probability
    |s(m, l)| / m!, s the Stirling numbers of the first kind (the
    equal-weight level-probability law; Robertson, Wright & Dykstra
    1988, ch. 2). Blocks are independent, so the face dimension is the
    sum of the block levels and its law the convolution of the block laws.
    """
    law = np.ones(1)
    for m in mult.m:
        row = np.ones(1)  # |s(j, l)| / j! for l = 1..j, from j = 1
        for j in range(1, m):
            # |s(j+1, l)| = j |s(j, l)| + |s(j, l-1)|
            row = (j * np.append(row, 0.0) + np.insert(row, 0, 0.0)) / (j + 1)
        law = np.convolve(law, row)
    return tuple(range(mult.k, mult.p + 1)), tuple(float(w) for w in law)


def test_C2(stats, U0, mult=None, cov=None, weights=None):
    """Mean lies in the ordered-eigenvalue cone of U0 vs. unrestricted (c2).

    The reference is a chi-square mixture over the faces of the cone at
    the true spectrum. Pass precomputed ConeWeights as `weights`, or the
    tie pattern `mult` of the true spectrum: the weights are then the
    exact law on faces k..p (faces below the block count k are
    unreachable in the limit).
    """
    q = sym_dim(stats.p)
    if weights is not None:
        mix_dims, mix_w = tuple(weights.face_dims), tuple(weights.weights)
    elif mult is not None:
        mix_dims, mix_w = _exact_cone_law(mult)
    else:
        raise ValueError(
            "supply cone weights or the tie pattern mult of the true spectrum")
    fit_null, fit_alt, use_cov, plugin = _fits(
        mle, stats, OrderedCone(U0), Unrestricted(), cov)
    dist = ChiSqMix(weights=mix_w, dfs=tuple(q - k for k in mix_dims))
    t = stats.n[0] * norm_sq(stats.ybar[0] - fit_null.M_hat, use_cov)
    return _result("c2", t, dist, fit_null, fit_alt, plugin)


def test_S1(stats, M0, D0, mult, cov=None):
    """Mean equals M0 vs. free eigenvectors with known spectrum D0 (s1).

    The statistic contains no tau and needs only sigma2; it vanishes when
    the sample mean's eigenvectors line up with M0's. It is the difference
    of the squared distances of Ybar to M0 and to the alternative fit,
    each formed directly, so it stays accurate at any data scale.
    """
    q = sym_dim(stats.p)
    M0 = check_symmetric(M0, "M0")
    D0 = np.asarray(D0, dtype=float)
    if np.abs(eigh_desc(M0).lam - D0).max() > 1e-8 * max(1.0, np.abs(D0).max()):
        raise ValueError("M0 does not have spectrum D0")
    fit_null, fit_alt, use_cov, plugin = _fits(
        mle, stats, Point(M0), FixedEigvals(D0, mult), cov)
    ybar = stats.ybar[0]
    lam = eigh_desc(ybar).lam
    t = (stats.n[0] / use_cov.sigma2) * (np.sum((ybar - M0) ** 2)
                                         - np.sum((lam - D0) ** 2))
    df = q - sum(m * (m + 1) for m in mult.m) / 2.0
    return _result("s1", t, ChiSqApprox(df), fit_null, fit_alt, plugin)


def test_S2(stats, D0, mult, cov=None):
    """Spectrum equals D0 (eigenvectors free) vs. unrestricted (s2)."""
    D0 = np.asarray(D0, dtype=float)
    fit_null, fit_alt, use_cov, plugin = _fits(
        mle, stats, FixedEigvals(D0, mult), Unrestricted(), cov)
    lam = eigh_desc(stats.ybar[0]).lam
    t = stats.n[0] * norm_sq(np.diag(lam - D0), use_cov)
    df = sum(m * (m + 1) for m in mult.m) / 2.0
    return _result("s2", t, ChiSqApprox(df), fit_null, fit_alt, plugin)


def test_S3(stats, mult, cov=None):
    """Spectrum has multiplicity pattern mult vs. unrestricted (s3).

    tau-free: the statistic is the eigenvalue dispersion about the block
    averages, scaled by sigma2.
    """
    fit_null, fit_alt, use_cov, plugin = _fits(
        mle, stats, Mult(mult), Unrestricted(), cov)
    lam = eigh_desc(stats.ybar[0]).lam
    resid = lam - block_average(lam, mult)
    t = stats.n[0] / use_cov.sigma2 * np.sum(resid ** 2)
    df = sum(m * (m + 1) for m in mult.m) / 2.0 - mult.k
    return _result("s3", t, ChiSqApprox(df), fit_null, fit_alt, plugin)


def test_sigma_structure(stats):
    """Covariance is orthogonally invariant vs. unrestricted (cov-check).

    Compares the two-parameter (sigma2, tau) fit against the free
    covariance MLE W/n of the embedded vectors; requires n > q(q+3)/2 so
    the latter is comfortably nonsingular. The chi-square calibration is
    claimed only when the fitted tau is positive and away from zero; a
    warning is attached otherwise.
    """
    n, p = sum(stats.n), stats.p
    q = sym_dim(p)
    min_n = q * (q + 3) // 2
    if n <= min_n:
        raise ValueError("need n > q(q+3)/2 = %d observations, got %d" % (min_n, n))
    fit_null = mle(Unrestricted(), stats)
    sign, logdet = np.linalg.slogdet(stats.W[0] / n)
    if sign <= 0.0:
        raise ValueError("empirical covariance of the embedded sample is singular")
    t = (n * q * math.log(fit_null.sigma2_hat)
         - n * math.log1p(-p * fit_null.tau_hat)
         - n * logdet)
    df = q * (q + 1) / 2.0 - 2.0
    res = _result("cov-check", t, ChiSqApprox(df), fit_null, None, False)
    if fit_null.tau_hat <= 0.0:
        res.warnings = res.warnings + (
            "fitted tau is nonpositive: the chi-square calibration is not "
            "guaranteed in this regime",)
    return res


def test2_equal_unrestricted(stats, cov=None):
    """Two-sample equal means vs. unrestricted (2a0).

    Known covariance: exact chi-square(q). Estimated: F(q, q(n-2))
    variant built from the pooled dispersion, requiring n >= 3.
    """
    n, q = sum(stats.n), sym_dim(stats.p)
    if _norm_cov(cov) is None and n < 3:
        raise ValueError("the F variant requires n >= 3")
    fit_null, fit_alt, use_cov, plugin = _fits(
        mle2, stats, EqualMeans(), Unrestricted2(), cov)
    (n1, n2), (ybar1, ybar2) = stats.n, stats.ybar
    if not plugin:
        t = (n1 * n2 / n) * norm_sq(ybar1 - ybar2, use_cov)
        return _result("2a0", t, ChiSq(q), fit_null, fit_alt, False)
    tau = fit_null.tau_hat
    unit = CovParams(1.0, tau)
    s12 = estimate_sigma2(stats, stats.ybar, tau)  # pooled dispersion only
    t = (n - 2.0) * n1 * n2 * norm_sq(ybar1 - ybar2, unit) / (q * n * n * s12)
    return _result("2a0", t, FDist(q, q * (n - 2.0)), fit_null, fit_alt, True)


def test2_S1(stats, mult, cov=None):
    """Two samples share one spectrum with pattern mult vs. unrestricted (2s1)."""
    fit_null, fit_alt, use_cov, plugin = _fits(
        mle2, stats, CommonEigvals(mult), Unrestricted2(), cov)
    (n1, n2), (ybar1, ybar2) = stats.n, stats.ybar
    n = n1 + n2
    lam1 = eigh_desc(ybar1).lam
    lam2 = eigh_desc(ybar2).lam
    lam_bar = (n1 * lam1 + n2 * lam2) / n
    resid = lam_bar - block_average(lam_bar, mult)
    t = ((n1 * n2 / n) * norm_sq(np.diag(lam1 - lam2), use_cov)
         + n / use_cov.sigma2 * np.sum(resid ** 2))
    df = sum(m * (m + 1) for m in mult.m) - mult.k
    return _result("2s1", t, ChiSqApprox(df), fit_null, fit_alt, plugin)


def test2_S2(stats, mult, cov=None):
    """Two-sample equal means given a shared spectrum pattern (2s2).

    The null pools the data into one sample carrying the multiplicity
    pattern; the alternative allows each group its own eigenvectors
    around a common spectrum.
    """
    cov = _norm_cov(cov)
    fit_alt = mle2(CommonEigvals(mult), stats, cov)
    (n1, n2), (ybar1, ybar2) = stats.n, stats.ybar
    n = n1 + n2
    q = sym_dim(stats.p)
    dec = eigh_desc(stats.mean)
    m0 = (dec.V * block_average(dec.lam, mult)) @ dec.V.T
    sigma2_hat, tau_hat = _fit_cov(stats, (m0, m0), cov)
    fit_null = FitResult2(M1_hat=m0, M2_hat=m0, sigma2_hat=sigma2_hat,
                          tau_hat=tau_hat, set=EqualMeans())
    lam1 = eigh_desc(ybar1).lam
    lam2 = eigh_desc(ybar2).lam
    lam_bar = (n1 * lam1 + n2 * lam2) / n
    r_pool = dec.lam - block_average(dec.lam, mult)
    r_bar = lam_bar - block_average(lam_bar, mult)
    # ||Ybar1 - Ybar2||^2 - ||lam1 - lam2||^2 = 2 (lam1.lam2 - tr(Ybar1 Ybar2)),
    # formed without differencing terms of the data's squared scale
    t = (n1 * n2 / (n * sigma2_hat)
         * (np.sum((ybar1 - ybar2) ** 2) - np.sum((lam1 - lam2) ** 2))
         + n / sigma2_hat * (np.sum(r_pool ** 2) - np.sum(r_bar ** 2)))
    df = q - sum(m * (m + 1) for m in mult.m) / 2.0
    return _result("2s2", t, ChiSqApprox(df), fit_null, fit_alt, cov is None)


# ---------------------------------------------------------------------------
# the test registry

def _array(value, shape):
    X = np.asarray(value, dtype=float)
    if X.shape != shape:
        raise ValueError("expected shape %s, got %s" % (shape, X.shape))
    return X


def _multiplicities(value, p):
    mult = Multiplicities(tuple(int(v) for v in value))
    if mult.p != p:
        raise ValueError("%r does not sum to p = %d" % (mult.m, p))
    return mult


def _cone_weights(value, p):
    from .calibrate import ConeWeights
    return ConeWeights(None, tuple(int(k) for k in value["face_dims"]),
                       tuple(float(x) for x in value["weights"]), 0)


def _covariance(value, p):
    if not isinstance(value, dict):
        raise ValueError('expected {"known": {"sigma2": x, "tau": y}} or '
                         '{"estimate": true}')
    if value.get("estimate"):
        return None
    known = value["known"]
    return CovParams(float(known["sigma2"]), float(known["tau"])).validate(p)


# config key -> (test-function parameter, parser of the value for p x p data)
_PARSERS = {
    "M0": ("M0", lambda v, p: _array(v, (p, p))),
    "U0": ("U0", lambda v, p: _array(v, (p, p))),
    "D0": ("D0", lambda v, p: _array(v, (p,))),
    "multiplicities": ("mult", _multiplicities),
    "weights": ("weights", _cone_weights),
    "cov": ("cov", _covariance),
}


@dataclass(frozen=True)
class Spec:
    """A registered test: its function and how a config maps onto it.

    run is called as run(stats, **args) with args parsed from the config
    keys `keys` (required) and `optional` (passed when present); null
    maps args to the null set(s) the generating mean(s) must lie in.
    """

    run: object
    keys: tuple
    two_sample: bool
    null: object
    optional: tuple = ("cov",)


TESTS = {
    "a0": Spec(test_point_unrestricted, ("M0",), False,
               lambda a: (Point(a["M0"]),)),
    "a1": Spec(test_A1, ("U0", "M0"), False, lambda a: (Point(a["M0"]),)),
    "a2": Spec(test_A2, ("U0",), False, lambda a: (FixedEigvecs(a["U0"]),)),
    # "reps" and "seed" in a c2 config are accepted and ignored: the
    # weights are exact
    "c2": Spec(test_C2, ("U0",), False, lambda a: (OrderedCone(a["U0"]),),
               optional=("cov", "multiplicities", "weights")),
    "s1": Spec(test_S1, ("M0", "D0", "multiplicities"), False,
               lambda a: (Point(a["M0"]),)),
    "s2": Spec(test_S2, ("D0", "multiplicities"), False,
               lambda a: (FixedEigvals(a["D0"], a["mult"]),)),
    "s3": Spec(test_S3, ("multiplicities",), False, lambda a: (Mult(a["mult"]),)),
    "cov-check": Spec(test_sigma_structure, (), False, lambda a: (), optional=()),
    "2a0": Spec(test2_equal_unrestricted, (), True, lambda a: (EqualMeans(),)),
    "2s1": Spec(test2_S1, ("multiplicities",), True,
                lambda a: (CommonEigvals(a["mult"]),)),
    "2s2": Spec(test2_S2, ("multiplicities",), True,
                lambda a: (EqualMeans(), CommonEigvals(a["mult"]))),
}


def parse_config(config, p):
    """Registry entry of a hypothesis config and its values, checked for p x p data.

    Returns (spec, args), args keyed by the test function's parameters.
    A missing required key raises KeyError; any other bad value raises
    ValueError.
    """
    if not isinstance(config, dict):
        raise ValueError("a hypothesis config must be a JSON object")
    test_id = config.get("test_id")
    if not isinstance(test_id, str) or test_id not in TESTS:
        raise ValueError("unknown test_id %r" % (test_id,))
    spec = TESTS[test_id]
    args = {}
    for key in spec.keys + spec.optional:
        if key not in config:
            if key in spec.keys:
                raise KeyError("config for %r requires %r" % (test_id, key))
            continue
        name, parse = _PARSERS[key]
        try:
            args[name] = parse(config[key], p)
        except (TypeError, ValueError) as e:
            raise ValueError("config for %r: bad %r: %s" % (test_id, key, e))
    return spec, args


def run_config(config, S, n1=None):
    """Run the test described by a hypothesis-config mapping on a sample.

    The mapping mirrors the CLI JSON format: a `test_id`, the set
    parameters as nested arrays (`M0`, `U0`, `D0`, `multiplicities`),
    and `cov` as {"known": {"sigma2": x, "tau": y}} or {"estimate": true}.
    Two-sample tests take the group-1 count n1. The sample is reduced to
    its SuffStats once and the test looked up in TESTS.
    """
    stats = SuffStats.from_sample(S, n1)
    spec, args = parse_config(config, stats.p)
    if spec.two_sample and n1 is None:
        raise ValueError("test %r needs a two-group sample" % config["test_id"])
    if not spec.two_sample and n1 is not None:
        raise ValueError("test %r is one-sample but the sample has two groups"
                         % config["test_id"])
    return spec.run(stats, **args)
