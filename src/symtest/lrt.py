"""Likelihood-ratio statistics and reference distributions.

Every MLE of the mean is a Frobenius projection of the sample mean(s),
so twice the log-likelihood ratio is sum_g n_g (||Ybar_g - M0_g||^2 -
||Ybar_g - M1_g||^2) in the (sigma2, tau) norm, M0 and M1 the null and
alternative fits. Each test is one entry of the registry TESTS (config
keys, null and alternative sets, reference, statistic).
One entry point runs them all: run(test_id, stats, **args) on Python
objects, and run_config on a JSON-style config. Both bind the test once
(_bind) to its arguments and to its data's shape, p and the group
counts: the checks that shape decides, the sets and the reference are
made there and nowhere else. Run's keywords, a config's keys but
test_id, seed and reps, and those of its cov, cov.known and c2 weights
pass the one key rule, symcore.check_keys. The runner fits both sets to
the sample means, one or a chunk's stack (onesample._fit), reading an
eigenframe fit's residual sums from its eigenvalue shift. Its statistic
step (_statistic) is per-sample arithmetic on the sums (_fit_cov) that
forms Ybar - M only of Point, EqualMeans, FixedEigvecs and OrderedCone fits.
Only _run adds the fits, the warnings and the p-value. A known sigma2
too small for the data's scale overflows the statistic: a run and a
calibration report it in one message (_check_finite). pvalue takes a
scalar or an array of statistics, quantile a scalar or an array of
probabilities.

The two sets fix a test's reference (_reference): chi-square with
dim(alternative) - dim(null) degrees of freedom (onesample.dimension),
exact when both sets are affine and (sigma2, tau) is known, else
asymptotic. a0 and 2a0 take F(q, q(n - g)) with a plug-in covariance,
c2 a chi-square mixture over the cone's faces. cov-check tests the
covariance: both its sets are unrestricted, and its statistic compares
the (sigma2, tau) fit with the free covariance W/n of the sample through
log|W/n| (SuffStats.logdet). Each law carries its report label and
evaluates its own tail(t, strict), P(X > t) if strict else P(X >= t),
with scipy.special (imported on use).

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
spectrum D0). c2's mixture weights are given as ConeWeights, or (not
both) exact for the true spectrum's tie pattern mult: the
level-probability law of each tied block, convolved over the blocks.
s1, s3 and 2s2 compare fits of equal trace, so their statistic needs no
tau. cov-check needs n > q(q+3)/2 observations so that W/n is
comfortably nonsingular; its statistic does not depend on (sigma2, tau).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .symcore import (CovParams, Multiplicities, _number, check_integer,
                      check_keys, float_array, sym_dim)
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
    _fit,
    _fit_cov,
    _fit_residuals,
    contains,
    dimension,
)

CLAMP = 1e-9
EPS = np.finfo(float).eps

_PLUGIN_NOTE = "covariance parameters estimated under the null fit"
_ASYMPTOTIC_NOTE = "reference distribution is asymptotic only"


class StatisticError(RuntimeError):
    """A nested-model statistic came out negative beyond rounding tolerance."""


@dataclass(frozen=True)
class ChiSq:
    """Exact chi-square reference with df degrees of freedom."""

    df: float
    label = "chisq"

    def tail(self, t, strict=False):
        if self.df == 0:  # a point mass at 0, which chdtrc leaves undefined
            return np.where(t < 0.0 if strict else t <= 0.0, 1.0, 0.0)
        from scipy.special import chdtrc
        return chdtrc(self.df, np.maximum(t, 0.0))


class ChiSqApprox(ChiSq):
    """Chi-square reference valid asymptotically only."""

    label = "chisq-approx"


def _check_weights(weights):
    w = np.asarray(weights, dtype=float)
    if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12):
        raise ValueError("weights must be nonnegative and sum to 1")


@dataclass(frozen=True)
class FDist:
    df1: float
    df2: float
    label = "f"

    def tail(self, t, strict=False):
        from scipy.special import fdtrc
        return fdtrc(self.df1, self.df2, np.maximum(t, 0.0))


@dataclass(frozen=True)
class ChiSqMix:
    """Mixture of chi-squares; a zero-df component is a point mass at 0."""

    weights: tuple
    dfs: tuple
    label = "chisq-mixture"

    def __post_init__(self):
        _check_weights(self.weights)
        if len(self.weights) != len(self.dfs):
            raise ValueError("weights and dfs must have equal length")
        object.__setattr__(self, "weights", tuple(float(x) for x in self.weights))
        object.__setattr__(self, "dfs", tuple(float(x) for x in self.dfs))

    def tail(self, t, strict=False):
        return sum(w * ChiSq(df).tail(t, strict)
                   for w, df in zip(self.weights, self.dfs))


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
        _check_weights(self.weights)

    def weight_for_dim(self, k):
        for dim, w in zip(self.face_dims, self.weights):
            if dim == k:
                return w
        return 0.0


@dataclass(eq=False)
class TestResult:
    """One test on one sample: statistic, reference law dist, p-value.

    fit_null and fit_alt both carry the covariance the statistic used,
    the known one or the one fitted under the null, not the alternative's
    own MLE of (sigma2, tau).
    """

    statistic: float
    dist: object
    p_value: float
    fit_null: object
    fit_alt: object
    test_id: str
    warnings: tuple = field(default_factory=tuple)


def pvalue(dist, t):
    """Upper tail P(X >= t) of the reference at a scalar or an array t."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("statistic must be finite, got %r"
                         % float(t[~np.isfinite(t)].flat[0]))
    if not hasattr(dist, "tail"):
        raise TypeError("unknown reference distribution %r" % (dist,))
    out = dist.tail(t)
    return float(out) if out.ndim == 0 else out


def quantile(dist, prob):
    """Quantile inf{t : P(X > t) <= 1 - prob} by bisection on the tail.

    prob is a scalar or an array; an array is bisected elementwise in one
    pass, each element's bracket doubled until it holds, with the bits of
    one call per element. The bisection halves at most 200 times and
    stops once no bracket moves, which gives the bits of all 200. The
    strict tail puts a point mass at 0 (a zero-df component) below the
    quantile, so any prob within that mass gives exactly 0.
    """
    probs = np.asarray(prob, dtype=float)
    if not np.all((probs >= 0.0) & (probs < 1.0)):
        raise ValueError("prob must be in [0, 1), got %r" % (prob,))
    target = 1.0 - probs

    def above(t):
        return dist.tail(t, strict=True) > target

    lo, hi = np.zeros_like(target), np.ones_like(target)
    grow = above(hi)
    while np.any(grow):
        hi = np.where(grow, 2.0 * hi, hi)
        if np.any(hi > 1e12):
            raise RuntimeError("quantile bracket failed")
        grow &= above(hi)
    live = above(0.0)  # else the point mass at 0 holds prob: exactly 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = above(mid)
        new = np.where(up, mid, lo), np.where(up, hi, mid)
        if not np.any(live & ((new[0] != lo) | (new[1] != hi))):
            break  # a fixed point: no further halving moves a live bracket
        lo, hi = new
    out = np.where(live, 0.5 * (lo + hi), 0.0)
    return float(out) if out.ndim == 0 else out


def _clamp(t, dist=None, size=0.0):
    # nested minima cannot differ by less than 0; allow rounding dust only.
    # t's rounding error scales with the terms it is a difference of: allow
    # 64 ulps of their summed magnitude `size`, and at least CLAMP
    tol = max(CLAMP, 64.0 * EPS * size)
    if t < 0.0:
        if t < -tol:
            raise StatisticError(
                "nested-model statistic is negative beyond rounding: %g" % t)
        return 0.0
    if isinstance(dist, ChiSq) and dist.df == 0 and t <= tol:
        # df 0 means the null and alternative coincide: the statistic is
        # identically zero and anything below the tolerance is rounding
        # dust, which must not flip the point-mass p-value from 1 to 0.
        return 0.0
    return float(t)


def _lr(h, stats, res0, res1, cov):
    """Twice the log-likelihood ratio of two mean fits in the cov norm.

    Sum over groups of n_g (||Ybar_g - M0_g||^2 - ||Ybar_g - M1_g||^2),
    each squared distance (ss - tau tr^2)/sigma2 from its own residual's
    _residuals, so the statistic stays accurate at any data scale. An F
    reference takes it at the within-group sigma2 for cov's tau, scaled by
    (n - g)/(q n); a tau_free entry at tau = 0. Returns the statistic and
    the summed magnitude of the terms it subtracts, which sets the size of
    its rounding error.
    """
    scale = 1.0
    if isinstance(h.dist, FDist):
        n = sum(stats.n)
        cov = CovParams(*_fit_cov(stats, res1, cov.tau))
        scale = (n - len(stats.n)) / (sym_dim(stats.p) * n)
    if h.spec.tau_free:
        cov = CovParams(cov.sigma2)

    def sq(tr, ss, _):
        return (ss - cov.tau * tr * tr) / cov.sigma2

    terms = [(n, sq(*r0), sq(*r1)) for n, r0, r1 in zip(stats.n, res0, res1)]
    return (scale * sum(n * (a - b) for n, a, b in terms),
            scale * sum(n * (abs(a) + abs(b)) for n, a, b in terms))


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


# ---------------------------------------------------------------------------
# the test registry

def _array(value, shape, name):
    X = float_array(value, name)
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
    check_keys(value, ("face_dims", "weights"))
    dims = tuple(check_integer(k, "a face dimension")
                 for k in _sequence(value["face_dims"]))
    weights = tuple(float(x) for x in _sequence(value["weights"]))
    if len(set(dims)) != len(dims) or not all(1 <= k <= p for k in dims):
        raise ValueError("face dimensions must be distinct and in 1..%d, got %r"
                         % (p, dims))
    if len(weights) != len(dims):
        raise ValueError("need one weight per face dimension")
    return ChiSqMix(weights, tuple(sym_dim(p) - k for k in dims))


def _covariance(value, p):
    # a None here is JSON null: _bind turns run's None into {"estimate": true}
    if isinstance(value, CovParams):
        return value.validate(p)
    if not isinstance(value, dict):
        raise ValueError('cov must be a known CovParams or None to estimate '
                         'it; in a config, expected {"known": {"sigma2": x, '
                         '"tau": y}} or {"estimate": true}; got %s'
                         % ("null" if value is None else repr(value)))
    # the form is chosen by "estimate"; then "known" is a stray key
    if "estimate" in value:
        if check_keys(value, ("estimate",))["estimate"] is not True:
            raise ValueError("'estimate' must be true, got %r"
                             % (value["estimate"],))
        return None
    known = check_keys(value, ("known",))["known"]
    if not isinstance(known, dict):
        raise ValueError("'known' must be an object with sigma2 and tau")
    check_keys(known, ("sigma2", "tau"))
    return CovParams(_number(known["sigma2"], "sigma2"),
                     _number(known["tau"], "tau")).validate(p)


# config key -> (argument name in run, parser of the value for p x p data)
_PARSERS = {
    "M0": ("M0", lambda v, p: _array(v, (p, p), "M0")),
    "U0": ("U0", lambda v, p: _array(v, (p, p), "U0")),
    "D0": ("D0", lambda v, p: _array(v, (p,), "D0")),
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


def _reference(a, sets, p, n, plugin):
    # chi2(d_alt - d_null): exact if both sets are affine and cov is known
    (d0, affine0), (d1, affine1) = (dimension(s, p, len(n)) for s in sets)
    return (ChiSq if affine0 and affine1 and not plugin else ChiSqApprox)(d1 - d0)


def _mean_shift(a, sets, p, n, plugin):
    # F(q, q(n - g)) for g groups with a plug-in covariance, else _reference
    if not plugin:
        return _reference(a, sets, p, n, plugin)
    return FDist(sym_dim(p), sym_dim(p) * (sum(n) - len(n)))


def _cone_mixture(a, sets, p, n, plugin):
    # the mixture the weights parsed into, or the exact one for mult
    if "weights" in a and "mult" in a:
        raise ValueError("give c2 'weights' or 'multiplicities', not both")
    if "weights" in a:
        return a["weights"]
    if "mult" not in a:
        raise ValueError(
            "supply cone weights or the tie pattern mult of the true spectrum")
    dims, weights = _exact_cone_law(a["mult"])
    return ChiSqMix(weights, tuple(sym_dim(p) - k for k in dims))


def _cov_check_reference(a, sets, p, n, plugin):
    # asymptotic chi-square, once W/n is comfortably nonsingular
    q = sym_dim(p)
    min_n = q * (q + 3) // 2
    if sum(n) <= min_n:
        raise ValueError("need n > q(q+3)/2 = %d observations, got %d"
                         % (min_n, sum(n)))
    return ChiSqApprox(q * (q + 1) / 2.0 - 2.0)


def _log_det_ratio(h, stats, res0, res1, cov):
    # cov-check: -n log(|W/n| / (v1 v2^(q-1))), v1 = sigma2/(1 - p tau) and
    # v2 = sigma2 the fitted covariance on the trace line and off it
    if stats.logdet is None:
        raise ValueError("cov-check reads the log-determinant of the scatter, "
                         "which only SuffStats.from_sample computes")
    n, p, logdet = stats.n[0], stats.p, stats.logdet[0]
    if logdet == -math.inf:
        raise ValueError("empirical covariance of the embedded sample is singular")
    t = (n * sym_dim(p) * math.log(cov.sigma2) - n * math.log1p(-p * cov.tau)
         - n * logdet)
    return t, 0.0


@dataclass(frozen=True)
class Spec:
    """A registered test: the single statement of what it tests.

    keys are the config keys it requires and optional those it accepts;
    args carry their values keyed by run's argument names (_PARSERS maps
    one to the other, "multiplicities" to mult). sets(args) is the (null,
    alternative) pair of parameter sets, the null's groups fixing the
    test's group count; reference(args, sets, p, n, plugin) the reference law
    for p x p data in groups of n, plugin telling whether the null fit's
    covariance is plugged in (by default _reference). statistic(h, stats,
    res0, res1, cov) gives the statistic and its size from the fits'
    _residuals and the known or null-fitted cov: _lr for every mean test,
    tau_free marking fits with equal traces. scatter marks a statistic
    that reads stats.logdet, so a Monte Carlo chunk draws it. _bind calls
    sets and reference once per run, run_config or calibrate_null call.
    """

    keys: tuple
    sets: object
    reference: object = _reference
    optional: tuple = ("cov",)
    tau_free: bool = False
    statistic: object = _lr
    scatter: bool = False


TESTS = {
    "a0": Spec(("M0",), lambda a: (Point(a["M0"]), Unrestricted()),
               reference=_mean_shift),
    "a1": Spec(("U0", "M0"), _point_within(lambda a: FixedEigvecs(a["U0"]),
                                           "is not diagonalized by U0")),
    "a2": Spec(("U0",), lambda a: (FixedEigvecs(a["U0"]), Unrestricted())),
    "c2": Spec(("U0",), lambda a: (OrderedCone(a["U0"]), Unrestricted()),
               reference=_cone_mixture, optional=("cov", "multiplicities", "weights")),
    "s1": Spec(("M0", "D0", "multiplicities"),
               _point_within(lambda a: FixedEigvals(a["D0"], a["mult"]),
                             "does not have spectrum D0"), tau_free=True),
    "s2": Spec(("D0", "multiplicities"),
               lambda a: (FixedEigvals(a["D0"], a["mult"]), Unrestricted())),
    "s3": Spec(("multiplicities",),
               lambda a: (Mult(a["mult"]), Unrestricted()), tau_free=True),
    # the (sigma2, tau) fit at the sample mean against the free covariance
    "cov-check": Spec((), lambda a: (Unrestricted(), Unrestricted()),
                      reference=_cov_check_reference, optional=(),
                      statistic=_log_det_ratio, scatter=True),
    "2a0": Spec((), lambda a: (EqualMeans(), Unrestricted()),
                reference=_mean_shift),
    "2s1": Spec(("multiplicities",),
                lambda a: (CommonEigvals(a["mult"]), Unrestricted())),
    "2s2": Spec(("multiplicities",),
                lambda a: (EqualMeans(a["mult"]), CommonEigvals(a["mult"])),
                tau_free=True),
}


@dataclass(frozen=True)
class _Hypothesis:
    """A registered test bound to its arguments and to its data's shape.

    args are keyed by run's argument names; sets is the (null,
    alternative) pair and dist the reference distribution, both built
    once; plugin tells whether the test takes a covariance and none was
    given, so the null fit's is plugged in.
    """

    test_id: str
    spec: Spec
    args: dict
    sets: tuple
    dist: object
    plugin: bool


def _bind(test_id, args, p, n, config=False):
    # args are config keys if config, else run's names, checked by the one
    # key rule (check_keys) with run's TypeError wording for names; parse
    # each value for p x p data, build the sets (which checks M0 for a1
    # and s1), check the group counts n against the null set's and build
    # the reference, once
    if not isinstance(test_id, str) or test_id not in TESTS:
        raise ValueError("unknown test_id %r" % (test_id,))
    if not config and args.get("cov", 0) is None:  # run's default: estimate
        args = dict(args, cov={"estimate": True})
    spec = TESTS[test_id]
    what = ("config for %r" if config else "test %r") % test_id
    keys = {key if config else _PARSERS[key][0]: key
            for key in spec.keys + spec.optional}
    check_keys(args, list(keys)[:len(spec.keys)], keys, what,
               arguments=not config)
    parsed = {}
    for name, value in args.items():
        arg, parse = _PARSERS[keys[name]]
        try:
            parsed[arg] = parse(value, p)
        except (TypeError, ValueError) as e:
            raise ValueError("%s: bad %r: %s" % (what, name, e))
    sets = spec.sets(parsed)
    g, two = len(n), sets[0].groups == (2,)
    if two != (g == 2):
        raise ValueError("test %r needs a %s sample, got %s" % (
            test_id, "two-group" if two else "one-group",
            "one group" if g == 1 else "two groups"))
    plugin = "cov" in keys and parsed.get("cov") is None
    if plugin and sum(n) <= g:
        raise ValueError("an estimated covariance requires n >= %d" % (g + 1))
    return _Hypothesis(test_id, spec, parsed, sets,
                       spec.reference(parsed, sets, p, n, plugin), plugin)


def _project(h, stats):
    # the projection half of _run: each set's onesample._fit. It never reads
    # the covariance, so stats may stack a whole chunk of replicates
    return [_fit(pset, *stats.ybar, n=stats.n) for pset in h.sets]


def _statistic(h, stats, fits):
    """The statistic of a bound hypothesis on one sample, and its covariance.

    fits are the null and alternative fits' (means, sums) for the sample
    (_project), sums an eigenframe fit's residual sums or None; of any
    other restricted fit, Ybar - M is formed once (_fit_residuals). Takes
    the known covariance or fits (sigma2, tau) under the null, and applies
    the entry's statistic and the clamp. Returns (statistic, CovParams).
    """
    res0, res1 = (sums or _fit_residuals(stats, pset, m)
                  for pset, (m, sums) in zip(h.sets, fits))
    cov = h.args.get("cov") or CovParams(*_fit_cov(stats, res0))
    t, size = h.spec.statistic(h, stats, res0, res1, cov)
    return _clamp(t, h.dist, size), cov


def _check_finite(h, t):
    # a known sigma2 too small for the data's scale overflows the statistic
    # (t one or an array of them), which the caller computed under np.errstate
    t = np.asarray(t)
    bad = t[~np.isfinite(t)]
    if bad.size and h.args.get("cov") is not None:
        raise ValueError("statistic is %r at the known sigma2 = %r, too small "
                         "for the data's scale"
                         % (float(bad[0]), h.args["cov"].sigma2))


def _run(h, stats):
    # the TestResult of a bound hypothesis: its fits, warnings and p-value
    fits = _project(h, stats)
    with np.errstate(over="ignore", invalid="ignore"):
        t, cov = _statistic(h, stats, [(m, sums) for m, _, sums in fits])
    _check_finite(h, t)
    fit_null, fit_alt = (FitResult(m, cov.sigma2, cov.tau, pset, dim)
                         for pset, (m, dim, _) in zip(h.sets, fits))
    warns = []
    if h.plugin:
        warns.append(_PLUGIN_NOTE)
    if isinstance(h.dist, (ChiSqApprox, ChiSqMix)):
        warns.append(_ASYMPTOTIC_NOTE)
    return TestResult(statistic=t, dist=h.dist, p_value=pvalue(h.dist, t),
                      fit_null=fit_null, fit_alt=fit_alt, test_id=h.test_id,
                      warnings=tuple(warns))


def run(test_id, stats, **args):
    """Run the registered test test_id on SuffStats (one or two groups).

    args are the test's arguments by name, as listed in the module
    docstring: M0 and U0 (p x p), D0 (a spectrum), mult (Multiplicities
    or a sequence), weights (ConeWeights) and cov, a known CovParams or
    None (the default) to estimate (sigma2, tau) under the null. Every
    value is parsed and checked for the data's p as a config value is. A
    missing or unknown name raises TypeError; a bad value, or data of the
    wrong group count or too small for the test, raises ValueError.
    """
    return _run(_bind(test_id, args, stats.p, stats.n), stats)


def parse_config(config, p, n):
    """The hypothesis a config describes, bound to p x p data in groups of n.

    n is the tuple of group counts. Every key but test_id, seed and reps
    is an argument, checked by run's rule under its config name. Returns
    the test bound to its parsed arguments, with its sets and reference
    built. A missing required key, a key the test does not take, any
    other bad value, or a group count the test does not take, raises
    ValueError.
    """
    if not isinstance(config, dict):
        raise ValueError("a hypothesis config must be a JSON object")
    # seed is echoed by a CLI report; reps is left from when c2 drew weights
    return _bind(config.get("test_id"), {
        key: value for key, value in config.items()
        if key not in ("test_id", "seed", "reps")}, p, n, config=True)


def run_config(config, S, n1=None):
    """Run the test described by a hypothesis-config mapping on a sample.

    The mapping mirrors the CLI JSON format: a `test_id`, the set
    parameters as nested arrays (`M0`, `U0`, `D0`, `multiplicities`),
    and `cov` as {"known": {"sigma2": x, "tau": y}} or {"estimate": true}.
    Two-sample tests take the group-1 count n1. The sample is reduced to
    its SuffStats once and the test bound by parse_config.
    """
    stats = SuffStats.from_sample(S, n1)
    return _run(parse_config(config, stats.p, stats.n), stats)
