"""Likelihood-ratio statistics and reference distributions.

Every MLE of the mean is a Frobenius projection of the sample mean(s),
so twice the log-likelihood ratio is sum_g n_g (||Ybar_g - M0_g||^2 -
||Ybar_g - M1_g||^2) in the (sigma2, tau) norm, M0 and M1 the null and
alternative fits. Each test is one entry of the registry TESTS (config
keys, two-sample flag, null and alternative sets, reference). One entry
point runs them all: run(test_id, stats, **args) on Python objects, and
run_config on a JSON-style config, both binding the test to its
arguments once. The runner projects the sample means onto both sets
(onesample.project: one or two groups, one mean or a chunk's stack),
then its statistic step (_statistic) forms each fit's residual once and
keeps three numbers per group (onesample._residuals: tr r, ||r||^2 and
||r - (tr r/p) I||^2), from which it plugs in the null fit's (sigma2,
tau) when no covariance is given and evaluates that one statistic; the
TestResult adds the warnings and the p-value. pvalue takes a scalar or
an array of statistics. Given (sigma2, tau) the affine cases are
exactly chi-square, with F variants of the mean-shift cases for an
estimated covariance; the curved and cone cases are asymptotic
(chi-square or chi-square mixture), as is any plug-in reference.
cov-check, a test of the covariance, keeps its own statistic in
test_sigma_structure.

Tail probabilities come from scipy.special (chdtrc, fdtrc, imported on
use). The cone test's mixture weights at a tied spectrum are exact: the
level-probability law of each tied block, convolved over the blocks.

Test identifiers (`test_id` on results and in CLI configs), the keys of
TESTS, with the arguments of run (config key `multiplicities` for mult);
every test but cov-check also takes cov:

==========  ===============================================  ===================
test_id     null hypothesis (alternative, if restricted)     arguments
==========  ===============================================  ===================
a0          mean equals M0                                   M0
a1          mean equals M0 (eigenvectors fixed at U0)        U0, M0
a2          mean diagonalized by U0                          U0
c2          mean in U0's frame, eigenvalues ordered (cone)   U0, mult or weights
s1          mean equals M0 (spectrum D0, frame free)         M0, D0, mult
s2          spectrum equals D0, eigenvectors free            D0, mult
s3          spectrum has multiplicity pattern mult           mult
cov-check   covariance is orthogonally invariant             none
2a0         two samples have equal means                     none
2s1         two samples share a spectrum with pattern mult   mult
2s2         equal means (a spectrum of pattern mult shared)  mult
==========  ===============================================  ===================

M0 must lie in the alternative of a1 and s1 (diagonalized by U0, with
spectrum D0). The c2 reference is a chi-square mixture over the faces of
the cone at the true spectrum: given ConeWeights, or the exact law for
the true spectrum's tie pattern mult. Known covariance: a0 and 2a0 are
chi-square(q); estimated, they take the F(q, q(n - g)) variant. s1, s3
and 2s2 compare fits of equal trace, so their statistic needs no tau.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .symcore import (CovParams, Multiplicities, _number, check_integer,
                      sym_dim)
from .matnormal import SuffStats
from .onesample import (
    CommonEigvals,
    EqualMeans,
    FitResult,
    FixedEigvals,
    FixedEigvecs,
    Mult,
    OrderedCone,
    Point,
    Unrestricted,
    _fit_cov,
    _residuals,
    _sigma2,
    contains,
    mle,
    project,
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
        if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12):
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        if len(self.weights) != len(self.dfs):
            raise ValueError("weights and dfs must have equal length")
        object.__setattr__(self, "weights", tuple(float(x) for x in self.weights))
        object.__setattr__(self, "dfs", tuple(float(x) for x in self.dfs))


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
        if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12):
            raise ValueError("weights must be nonnegative and sum to 1")

    def weight_for_dim(self, k):
        for dim, w in zip(self.face_dims, self.weights):
            if dim == k:
                return w
        return 0.0


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
    from scipy.special import chdtrc
    return chdtrc(df, np.maximum(t, 0.0))


def _tail(dist, t, strict=False):
    """P(X > t) if strict, else P(X >= t); t is an array."""
    if isinstance(dist, (ChiSq, ChiSqApprox)):
        return _chi2_tail(dist.df, t, strict)
    if isinstance(dist, FDist):
        from scipy.special import fdtrc
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


def _clamp(t, dist=None, size=0.0):
    # nested minima cannot differ by less than 0; allow rounding dust only.
    # t's rounding error scales with the terms it is a difference of: allow
    # 64 ulps of their summed magnitude `size`, and at least CLAMP
    tol = max(CLAMP, 64.0 * np.finfo(float).eps * size)
    if t < 0.0:
        if t < -tol:
            raise StatisticError(
                "nested-model statistic is negative beyond rounding: %g" % t)
        return 0.0
    if isinstance(dist, (ChiSq, ChiSqApprox)) and dist.df == 0 and t <= tol:
        # df 0 means the null and alternative coincide: the statistic is
        # identically zero and anything below the tolerance is rounding
        # dust, which must not flip the point-mass p-value from 1 to 0.
        return 0.0
    return float(t)


def _result(test_id, t, dist, fit_null, fit_alt, plugin):
    # the TestResult of a clamped statistic: its warnings and p-value
    warns = []
    if plugin:
        warns.append(_PLUGIN_NOTE)
    if isinstance(dist, (ChiSqApprox, ChiSqMix)):
        warns.append(_ASYMPTOTIC_NOTE)
    if test_id == "cov-check" and fit_null.tau_hat <= 0.0:
        warns.append("fitted tau is nonpositive: the chi-square calibration "
                     "is not guaranteed in this regime")
    return TestResult(statistic=t, dist=dist, p_value=pvalue(dist, t),
                      fit_null=fit_null, fit_alt=fit_alt, test_id=test_id,
                      warnings=tuple(warns))


def _lr(stats, res0, res1, cov):
    """Twice the log-likelihood ratio of two mean fits in the cov norm.

    Sum over groups of n_g (||Ybar_g - M0_g||^2 - ||Ybar_g - M1_g||^2),
    each squared distance (ss - tau tr^2)/sigma2 from its own residual's
    _residuals, so the statistic stays accurate at any data scale. Returns
    the statistic and the summed magnitude of the terms it subtracts,
    which sets the size of its rounding error.
    """
    def sq(tr, ss, _):
        return (ss - cov.tau * tr * tr) / cov.sigma2

    terms = [(n, sq(*r0), sq(*r1)) for n, r0, r1 in zip(stats.n, res0, res1)]
    return (sum(n * (a - b) for n, a, b in terms),
            sum(n * (abs(a) + abs(b)) for n, a, b in terms))


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


def test_sigma_structure(stats):
    """Covariance is orthogonally invariant vs. unrestricted (cov-check).

    Compares the two-parameter (sigma2, tau) fit against the free
    covariance MLE W/n of the embedded vectors; requires n > q(q+3)/2 so
    the latter is comfortably nonsingular. The chi-square calibration is
    claimed only when the fitted tau is positive and away from zero; a
    warning is attached otherwise.
    """
    return _result("cov-check", *_sigma_statistic(stats))


def _sigma_statistic(stats):
    # the statistic step of test_sigma_structure, as _statistic returns it
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
    dist = ChiSqApprox(q * (q + 1) / 2.0 - 2.0)
    return _clamp(t, dist), dist, fit_null, None, False


# ---------------------------------------------------------------------------
# the test registry

def _array(value, shape):
    X = np.asarray(value, dtype=float)
    if X.shape != shape:
        raise ValueError("expected shape %s, got %s" % (shape, X.shape))
    if not np.all(np.isfinite(X)):
        raise ValueError("entries must be finite")
    return X


def _sequence(value):
    # a JSON array; a string would otherwise be read one character at a time
    if not isinstance(value, (list, tuple)):
        raise ValueError("expected an array, got %r" % (value,))
    return tuple(value)


def _multiplicities(value, p):
    mult = (value if isinstance(value, Multiplicities)
            else Multiplicities(_sequence(value)))
    if mult.p != p:
        raise ValueError("%r does not sum to p = %d" % (mult.m, p))
    return mult


def _cone_weights(value, p):
    if isinstance(value, ConeWeights):
        value = {"face_dims": value.face_dims, "weights": value.weights}
    dims = tuple(check_integer(k, "a face dimension")
                 for k in _sequence(value["face_dims"]))
    weights = tuple(float(x) for x in _sequence(value["weights"]))
    if len(set(dims)) != len(dims) or not all(1 <= k <= p for k in dims):
        raise ValueError("face dimensions must be distinct and in 1..%d, got %r"
                         % (p, dims))
    if len(weights) != len(dims):
        raise ValueError("need one weight per face dimension")
    return ConeWeights(None, dims, weights, 0)


def _covariance(value, p):
    # a known CovParams or None to estimate it, or their config form
    # {"known": {"sigma2": x, "tau": y}} or {"estimate": true}
    if value is None:
        return None
    if isinstance(value, CovParams):
        return value.validate(p)
    if not isinstance(value, dict):
        raise ValueError('cov must be a known CovParams or None to estimate '
                         'it; in a config, expected {"known": {"sigma2": x, '
                         '"tau": y}} or {"estimate": true}; got %r' % (value,))
    if value.get("estimate"):
        return None
    known = value["known"]
    return CovParams(_number(known["sigma2"], "sigma2"),
                     _number(known["tau"], "tau")).validate(p)


# config key -> (argument name in run, parser of the value for p x p data)
_PARSERS = {
    "M0": ("M0", lambda v, p: _array(v, (p, p))),
    "U0": ("U0", lambda v, p: _array(v, (p, p))),
    "D0": ("D0", lambda v, p: _array(v, (p,))),
    "multiplicities": ("mult", _multiplicities),
    "weights": ("weights", _cone_weights),
    "cov": ("cov", _covariance),
}


def _point_within(alt, what):
    # sets of M = M0 against the set alt(args), which must contain M0
    def sets(a):
        null, alt_set = Point(a["M0"]), alt(a)
        if not contains(alt_set, null.M0, tol=1e-8):
            raise ValueError("M0 %s" % what)
        return null, alt_set
    return sets


def _affine(df):
    # exact chi-square given the covariance, asymptotic with a plug-in
    return lambda a, stats, plugin: (ChiSqApprox if plugin else ChiSq)(df(stats.p))


def _mean_shift(a, stats, plugin):
    # chi-square(q) given the covariance, else F(q, q(n - g)) for g groups
    n, g, q = sum(stats.n), len(stats.n), sym_dim(stats.p)
    return FDist(q, q * (n - g)) if plugin else ChiSq(q)


def _curved(df):
    # asymptotic chi-square; df(o, k, q) from the dimension o of a fixed
    # spectrum's orbit, the pattern's block count k and q
    def reference(a, stats, plugin):
        mult = a["mult"]
        o = (stats.p * (stats.p - 1) - sum(m * (m - 1) for m in mult.m)) // 2
        return ChiSqApprox(df(o, mult.k, sym_dim(stats.p)))
    return reference


def _cone_mixture(a, stats, plugin):
    if a.get("weights") is not None:
        dims, weights = a["weights"].face_dims, a["weights"].weights
    elif a.get("mult") is not None:
        dims, weights = _exact_cone_law(a["mult"])
    else:
        raise ValueError(
            "supply cone weights or the tie pattern mult of the true spectrum")
    q = sym_dim(stats.p)
    return ChiSqMix(weights=tuple(weights), dfs=tuple(q - k for k in dims))


@dataclass(frozen=True)
class Spec:
    """A registered test: the single statement of what it tests.

    keys are the config keys it requires and optional those it accepts;
    args carry their values keyed by run's argument names (_PARSERS maps
    one to the other, "multiplicities" to mult). sets(args)
    is the (null, alternative) pair of parameter sets (fitting two groups
    if two_sample); reference(args, stats, plugin) the reference
    distribution, plugin telling whether the covariance is estimated; an
    F reference selects the F variant of the statistic. tau_free marks
    fits with equal traces: the statistic is then taken at tau = 0. The
    covariance test cov-check has no sets and runs test_sigma_structure.
    _bind calls sets once per run, run_config or calibrate_null call.
    """

    keys: tuple
    two_sample: bool
    sets: object = None
    reference: object = None
    optional: tuple = ("cov",)
    tau_free: bool = False


TESTS = {
    "a0": Spec(("M0",), False, lambda a: (Point(a["M0"]), Unrestricted()),
               _mean_shift),
    "a1": Spec(("U0", "M0"), False,
               _point_within(lambda a: FixedEigvecs(a["U0"]),
                             "is not diagonalized by U0"),
               _affine(lambda p: p)),
    "a2": Spec(("U0",), False,
               lambda a: (FixedEigvecs(a["U0"]), Unrestricted()),
               _affine(lambda p: sym_dim(p) - p)),
    # "reps" and "seed" in a c2 config are accepted and ignored: the
    # weights are exact
    "c2": Spec(("U0",), False, lambda a: (OrderedCone(a["U0"]), Unrestricted()),
               _cone_mixture, optional=("cov", "multiplicities", "weights")),
    "s1": Spec(("M0", "D0", "multiplicities"), False,
               _point_within(lambda a: FixedEigvals(a["D0"], a["mult"]),
                             "does not have spectrum D0"),
               _curved(lambda o, k, q: o), tau_free=True),
    "s2": Spec(("D0", "multiplicities"), False,
               lambda a: (FixedEigvals(a["D0"], a["mult"]), Unrestricted()),
               _curved(lambda o, k, q: q - o)),
    "s3": Spec(("multiplicities",), False,
               lambda a: (Mult(a["mult"]), Unrestricted()),
               _curved(lambda o, k, q: q - o - k), tau_free=True),
    "cov-check": Spec((), False, optional=()),
    "2a0": Spec((), True, lambda a: (EqualMeans(), Unrestricted()),
                _mean_shift),
    "2s1": Spec(("multiplicities",), True,
                lambda a: (CommonEigvals(a["mult"]), Unrestricted()),
                _curved(lambda o, k, q: 2 * (q - o) - k)),
    "2s2": Spec(("multiplicities",), True,
                lambda a: (EqualMeans(a["mult"]), CommonEigvals(a["mult"])),
                _curved(lambda o, k, q: o), tau_free=True),
}


@dataclass(frozen=True)
class _Hypothesis:
    """A registered test bound to its arguments, its sets built once.

    args are keyed by run's argument names; sets is the (null,
    alternative) pair, None for cov-check.
    """

    test_id: str
    spec: Spec
    args: dict
    sets: tuple


def _spec(test_id):
    if not isinstance(test_id, str) or test_id not in TESTS:
        raise ValueError("unknown test_id %r" % (test_id,))
    return TESTS[test_id]


def _bind(test_id, args, p, config=False):
    # check the argument names against the registry entry, parse every value
    # for p x p data, then build the sets once (which checks M0 against the
    # alternative for a1 and s1); config names the config keys in errors
    spec = _spec(test_id)
    keys = {_PARSERS[key][0]: key for key in spec.keys + spec.optional}
    for name in args:
        if name not in keys:
            raise TypeError("test %r takes no argument %r" % (test_id, name))
    for name in list(keys)[:len(spec.keys)]:
        if name not in args:
            raise TypeError("test %r requires argument %r" % (test_id, name))
    parsed = {}
    for name, value in args.items():
        try:
            parsed[name] = _PARSERS[keys[name]][1](value, p)
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError("%s %r: bad %r: %s" % (
                "config for" if config else "test", test_id,
                keys[name] if config else name,
                "missing key %r" % e.args[0] if isinstance(e, KeyError) else e))
    return _Hypothesis(test_id, spec, parsed,
                       None if spec.sets is None else spec.sets(parsed))


def _project(h, stats):
    # the projection half of _run: each set's (fitted means, face_dim). It
    # never reads the covariance, so stats may stack a whole chunk of replicates
    return [project(pset, *stats.ybar, n=stats.n) for pset in h.sets]


def _statistic(h, stats, fits=None):
    """The statistic step of a bound hypothesis on sufficient statistics.

    Returns (statistic, reference, null fit, alternative fit, plugin),
    projecting unless given fits, and reads each fit's residual once
    (_residuals). Without a known covariance the null fit's (sigma2, tau)
    is plugged in (which needs n > g for g groups); an F reference (mean
    shift) takes _lr at the within-group sigma2 for the null tau, scaled
    by (n - g) / (q n).
    """
    spec, n, g = h.spec, sum(stats.n), len(stats.n)
    if spec.two_sample != (g == 2):
        raise ValueError("test %r needs a %s sample, got %s" % (
            h.test_id, "two-group" if spec.two_sample else "one-group",
            "one group" if g == 1 else "two groups"))
    if h.sets is None:
        return _sigma_statistic(stats)
    cov = h.args.get("cov")
    plugin = cov is None
    if plugin and n <= g:
        raise ValueError("an estimated covariance requires n >= %d" % (g + 1))
    dist = spec.reference(h.args, stats, plugin)
    (null, alt), ((m0, dim0), (m1, dim1)) = h.sets, fits or _project(h, stats)
    res0, res1 = _residuals(stats, m0), _residuals(stats, m1)
    fit_null = FitResult(m0, *_fit_cov(stats, res0, cov), null, dim0)
    if plugin:
        cov = CovParams(fit_null.sigma2_hat, fit_null.tau_hat)
    fit_alt = FitResult(m1, cov.sigma2, cov.tau, alt, dim1)
    scale = 1.0
    if isinstance(dist, FDist):
        cov = CovParams(_sigma2(stats, res1, cov.tau), cov.tau)
        scale = (n - g) / (sym_dim(stats.p) * n)
    if spec.tau_free:
        cov = CovParams(cov.sigma2)
    t, size = _lr(stats, res0, res1, cov)
    return (_clamp(scale * t, dist, scale * size), dist, fit_null, fit_alt,
            plugin)


def _run(h, stats, fits=None):
    # the TestResult of _statistic: warnings and the p-value added
    return _result(h.test_id, *_statistic(h, stats, fits))


def run(test_id, stats, **args):
    """Run the registered test test_id on SuffStats (one or two groups).

    args are the test's arguments by name, as listed in the module
    docstring: M0 and U0 (p x p), D0 (a spectrum), mult (Multiplicities
    or a sequence), weights (ConeWeights) and cov, a known CovParams or
    None (the default) to estimate (sigma2, tau) under the null. Every
    value is parsed and checked for the data's p as a config value is. A
    missing or unknown name raises TypeError; a bad value raises
    ValueError.
    """
    return _run(_bind(test_id, args, stats.p), stats)


def parse_config(config, p):
    """The hypothesis a config describes, its values checked for p x p data.

    Returns the test bound to its parsed arguments, with its sets built.
    A missing required key raises KeyError; any other bad value raises
    ValueError.
    """
    if not isinstance(config, dict):
        raise ValueError("a hypothesis config must be a JSON object")
    test_id = config.get("test_id")
    spec = _spec(test_id)
    for key in spec.keys:
        if key not in config:
            raise KeyError("config for %r requires %r" % (test_id, key))
    return _bind(test_id, {_PARSERS[key][0]: config[key]
                           for key in spec.keys + spec.optional
                           if key in config}, p, config=True)


def run_config(config, S, n1=None):
    """Run the test described by a hypothesis-config mapping on a sample.

    The mapping mirrors the CLI JSON format: a `test_id`, the set
    parameters as nested arrays (`M0`, `U0`, `D0`, `multiplicities`),
    and `cov` as {"known": {"sigma2": x, "tau": y}} or {"estimate": true}.
    Two-sample tests take the group-1 count n1. The sample is reduced to
    its SuffStats once and the test bound by parse_config.
    """
    stats = SuffStats.from_sample(S, n1)
    return _run(parse_config(config, stats.p), stats)
