"""Checks of symtest's outputs that do not use symtest's own code.

Statistics are recomputed in closed form with numpy.linalg.eigh: every
test statistic is a difference of squared distances from the sample
mean(s) to the null and alternative sets, in the (sigma2, tau) norm.
Degrees of freedom come from the dimensions of the sets, p-values and
quantiles from scipy.stats, cone-mixture weights from the exact tie law.

Monte Carlo outputs are checked statistically. Each statistical check
runs at level STAT_LEVEL; a run makes at most MAX_STAT_CHECKS of them, so
the family-wise false-alarm level of one run is below
STAT_LEVEL * MAX_STAT_CHECKS = 3e-7 (Bonferroni).
"""

import itertools
import math

import numpy as np
from scipy import optimize, stats

from workloads import exact_cone_weights, sym_dim

STAT_LEVEL = 1e-8
MAX_STAT_CHECKS = 30
Z = float(stats.norm.isf(STAT_LEVEL / 2.0))   # about 5.7 standard errors
STAT_RTOL = 1e-8       # a statistic off by 1e-6 relative must fail
STAT_ATOL = 1e-13      # times the size of the terms the statistic differences
P_RTOL = 1e-9
Q_RTOL = 1e-8
ALPHA = 0.05


class Checker:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures = []
        self.stat_checks = 0

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def close(self, got, want, rtol, atol, what):
        got, want = float(got), float(want)
        ok = math.isfinite(got) and abs(got - want) <= rtol * abs(want) + atol
        return self.expect(ok, "%s: got %.17g, expected %.17g" % (what, got, want))

    def statistical(self, ok, what):
        self.stat_checks += 1
        return self.expect(ok, what)


# ---------------------------------------------------------------------------
# projections of a symmetric matrix onto the hypothesis sets

def eig_desc(X):
    w, V = np.linalg.eigh(X)
    return w[::-1], V[:, ::-1]


def block_avg(lam, mult):
    out = np.empty_like(lam)
    lo = 0
    for m in mult:
        out[lo:lo + m] = lam[lo:lo + m].mean()
        lo += m
    return out


def iso_desc(y):
    """Projection of y onto {d_1 >= ... >= d_p} by exhaustive search.

    The projection is constant on consecutive blocks with the block means
    as values, so it is the best non-increasing block-mean vector over the
    2^(p-1) ways to cut y into consecutive blocks.
    """
    p = y.size
    best, best_err = None, math.inf
    for cuts in itertools.product((False, True), repeat=p - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [p]
        fit = np.concatenate([np.full(b - a, y[a:b].mean())
                              for a, b in zip(bounds, bounds[1:])])
        if np.all(np.diff(fit) <= 0.0):
            err = float(np.sum((y - fit) ** 2))
            if err < best_err:
                best, best_err = fit, err
    return best, 1 + int(np.sum(best[1:] != best[:-1]))


def proj_eigvals(Y, D0):
    _, V = eig_desc(Y)
    return (V * D0) @ V.T


def proj_mult(Y, mult):
    lam, V = eig_desc(Y)
    return (V * block_avg(lam, mult)) @ V.T


def proj_frame(Y, U0):
    return (U0 * np.diagonal(U0.T @ Y @ U0)) @ U0.T


def proj_cone(Y, U0):
    d, face = iso_desc(np.diagonal(U0.T @ Y @ U0).copy())
    return (U0 * d) @ U0.T, face


def common_eigvals(Y1, Y2, n1, n2, mult):
    lam1, V1 = eig_desc(Y1)
    lam2, V2 = eig_desc(Y2)
    d = block_avg((n1 * lam1 + n2 * lam2) / (n1 + n2), mult)
    return (V1 * d) @ V1.T, (V2 * d) @ V2.T


def nsq(X, sigma2, tau):
    """Squared (sigma2, tau) norm [tr(X^2) - tau tr(X)^2] / sigma2."""
    return (np.sum(X * X) - tau * np.trace(X) ** 2) / sigma2


def orbit_dim(p, mult):
    """Dimension of the matrices with a fixed spectrum of tie pattern mult."""
    return p * (p - 1) // 2 - sum(m * (m - 1) // 2 for m in mult)


# ---------------------------------------------------------------------------
# covariance fits

def _spectral_tau(T, Tr, n, p, q):
    # Along u = 1/sqrt(p) on the diagonal the vecd covariance is lam1, on
    # the other q - 1 directions lam0 = sigma2; with T the summed squared
    # residual norms and Tr the summed squared residual traces the MLEs
    # are lam1 = Tr / (p n) and lam0 = (T - Tr / p) / (n (q - 1)), and
    # lam0 / lam1 = 1 - p tau.
    lam1 = Tr / (p * n)
    lam0 = (T - Tr / p) / (n * (q - 1))
    return lam0, lam1, (1.0 - lam0 / lam1) / p


def cov_fit_one(S, M):
    """MLE of (sigma2, tau) for one sample given its fitted mean M."""
    return cov_mle(S - M)


def cov_mle(E):
    """MLE of (sigma2, tau) from the residuals E about the fitted mean(s)."""
    n, p = E.shape[0], E.shape[1]
    tr = np.trace(E, axis1=1, axis2=2)
    lam0, lam1, tau = _spectral_tau(np.sum(E * E), np.sum(tr ** 2), n, p,
                                    sym_dim(p))
    return lam0, tau


def cov_fit_two(S, n1, M1, M2):
    """Pooled (sigma2, tau) as the two-sample estimators define them.

    tau: residuals of all observations about the weighted average of the
    group means, plus group-size-weighted lack of fit. sigma2 given tau:
    residuals about each group's own mean plus the same lack of fit.
    """
    n, p = S.shape[0], S.shape[1]
    q = sym_dim(p)
    groups = ((S[:n1], M1), (S[n1:], M2))
    avg = S.mean(axis=0)
    R = S - avg
    T = np.sum(R * R)
    Tr = np.sum(np.trace(R, axis1=1, axis2=2) ** 2)
    for Sg, Mg in groups:
        r = Sg.mean(axis=0) - Mg
        T += len(Sg) * np.sum(r * r)
        Tr += len(Sg) * np.trace(r) ** 2
    _, _, tau = _spectral_tau(T, Tr, n, p, q)
    total = 0.0
    for Sg, Mg in groups:
        ybar = Sg.mean(axis=0)
        Rg = Sg - ybar
        total += np.sum(Rg * Rg) - tau * np.sum(np.trace(Rg, axis1=1, axis2=2) ** 2)
        total += len(Sg) * nsq(ybar - Mg, 1.0, tau)
    return total / (q * n), tau


def vecd_rows(S):
    p = S.shape[1]
    iu = np.triu_indices(p, 1)
    return np.concatenate([S[:, np.arange(p), np.arange(p)],
                           math.sqrt(2.0) * S[:, iu[0], iu[1]]], axis=1)


# ---------------------------------------------------------------------------
# reference values of one test

def _known(config):
    cov = config.get("cov")
    if cov and "known" in cov:
        return float(cov["known"]["sigma2"]), float(cov["known"]["tau"])
    return None


def expected_dist(config, p, n, n1):
    """Type and degrees of freedom of a test's reference distribution."""
    tid = config["test_id"]
    q = sym_dim(p)
    known = _known(config) is not None
    mult = tuple(int(m) for m in config.get("multiplicities", ()))
    approx = "chisq" if known else "chisq-approx"
    if tid in ("a0", "2a0"):
        if known:
            return {"type": "chisq", "df": q}
        return {"type": "f", "df1": q, "df2": q * (n - (1 if tid == "a0" else 2))}
    if tid == "a1":
        return {"type": approx, "df": p}
    if tid == "a2":
        return {"type": approx, "df": q - p}
    if tid == "c2":
        if "weights" in config:
            dims = [int(k) for k in config["weights"]["face_dims"]]
        else:
            dims = sorted(exact_cone_weights(mult))
        return {"type": "chisq-mixture", "dfs": [q - k for k in dims]}
    if tid == "cov-check":
        return {"type": "chisq-approx", "df": q * (q + 1) // 2 - 2}
    orbit = orbit_dim(p, mult)
    k = len(mult)
    df = {"s1": orbit, "s2": q - orbit, "s3": q - orbit - k,
          "2s1": 2 * q - 2 * orbit - k, "2s2": orbit}[tid]
    return {"type": "chisq-approx", "df": df}


def reference(config, S, n1=None, reported=None):
    """Closed-form statistic, its scale and the null fit of one test.

    scale is the size of the terms the statistic is a difference of; the
    absolute rounding of the statistic is a small multiple of
    scale * 1e-16.

    A two-sample test with estimated covariance plugs in either the pooled
    estimators as the program defines them (cov_fit_two) or the exact MLE
    given the null fit; the candidate nearer the reported (sigma2_hat,
    tau_hat) is used, so a report matching neither fails.
    """
    tid = config["test_id"]
    S = np.asarray(S, dtype=float)
    n, p = S.shape[0], S.shape[1]
    q = sym_dim(p)
    known = _known(config)
    mult = tuple(int(m) for m in config.get("multiplicities", ()))

    def arr(key):
        return np.asarray(config[key], dtype=float)

    out = {}
    if n1 is None:
        ybar = S.mean(axis=0)
        if tid == "cov-check":
            sigma2, tau = cov_fit_one(S, ybar)
            lam1 = sigma2 / (1.0 - p * tau)
            logdet = np.linalg.slogdet(np.cov(vecd_rows(S).T, bias=True))[1]
            t = n * ((q - 1) * math.log(sigma2) + math.log(lam1) - logdet)
            scale = n * (q * abs(math.log(sigma2)) + abs(math.log(lam1))
                         + abs(logdet) + 1.0)
            return {"statistic": t, "scale": scale,
                    "mle": {"M_hat": ybar, "sigma2_hat": sigma2, "tau_hat": tau}}
        if tid == "a0":
            null, alt = arr("M0"), ybar
        elif tid == "a1":
            null, alt = arr("M0"), proj_frame(ybar, arr("U0"))
        elif tid == "a2":
            null, alt = proj_frame(ybar, arr("U0")), ybar
        elif tid == "c2":
            null, face = proj_cone(ybar, arr("U0"))
            alt = ybar
            out["face_dim"] = face
        elif tid == "s1":
            null, alt = arr("M0"), proj_eigvals(ybar, arr("D0"))
        elif tid == "s2":
            null, alt = proj_eigvals(ybar, arr("D0")), ybar
        elif tid == "s3":
            null, alt = proj_mult(ybar, mult), ybar
        else:
            raise ValueError("no one-sample reference for %r" % tid)
        sigma2, tau = known if known else cov_fit_one(S, null)
        size = n * (np.sum(ybar * ybar) + np.sum(null * null)) / sigma2
        if tid == "a0" and not known:
            R = S - ybar
            s2 = (np.sum(R * R) - tau * np.sum(np.trace(R, axis1=1, axis2=2) ** 2)) / (q * n)
            t = (n - 1.0) * nsq(ybar - null, 1.0, tau) / (q * s2)
            size = size / (q * s2)
        else:
            t = n * (nsq(ybar - null, sigma2, tau) - nsq(ybar - alt, sigma2, tau))
        out.update(statistic=t, scale=size,
                   mle={"M_hat": null, "sigma2_hat": sigma2, "tau_hat": tau})
        return out

    n2 = n - n1
    y1, y2 = S[:n1].mean(axis=0), S[n1:].mean(axis=0)
    avg = S.mean(axis=0)
    if tid == "2a0":
        null, alt = (avg, avg), (y1, y2)
    elif tid == "2s1":
        null, alt = common_eigvals(y1, y2, n1, n2, mult), (y1, y2)
    elif tid == "2s2":
        m0 = proj_mult(avg, mult)
        null, alt = (m0, m0), common_eigvals(y1, y2, n1, n2, mult)
    else:
        raise ValueError("no two-sample reference for %r" % tid)
    if known:
        sigma2, tau = known
    else:
        candidates = [cov_fit_two(S, n1, *null),
                      cov_mle(np.concatenate([S[:n1] - null[0], S[n1:] - null[1]]))]
        sigma2, tau = candidates[0]
        if reported is not None:
            sigma2, tau = min(candidates, key=lambda c: abs(math.log(c[0] / reported[0]))
                              + abs(c[1] - reported[1]))
    size = sum(w * (np.sum(y * y) + np.sum(m * m))
               for w, y, m in ((n1, y1, null[0]), (n2, y2, null[1]))) / sigma2
    if tid == "2a0" and not known:
        R1, R2 = S[:n1] - y1, S[n1:] - y2
        within = sum(np.sum(R * R) - tau * np.sum(np.trace(R, axis1=1, axis2=2) ** 2)
                     for R in (R1, R2))
        s12 = within / (q * n)
        t = (n - 2.0) * n1 * n2 * nsq(y1 - y2, 1.0, tau) / (q * n * n * s12)
        size = size / (q * s12)
    else:
        t = sum(w * (nsq(y - a, sigma2, tau) - nsq(y - b, sigma2, tau))
                for w, y, a, b in ((n1, y1, null[0], alt[0]),
                                   (n2, y2, null[1], alt[1])))
    return {"statistic": t, "scale": size,
            "mle": {"M1_hat": null[0], "M2_hat": null[1], "sigma2_hat": sigma2,
                    "tau_hat": tau}}


# ---------------------------------------------------------------------------
# reference distributions

def _mix(dist):
    return list(zip(dist["weights"], dist["dfs"]))


def ref_sf(dist, t):
    kind = dist["type"]
    if kind in ("chisq", "chisq-approx"):
        return float(stats.chi2.sf(t, dist["df"]))
    if kind == "f":
        return float(stats.f.sf(t, dist["df1"], dist["df2"]))
    return float(sum(w * (stats.chi2.sf(t, df) if df > 0 else float(t <= 0.0))
                     for w, df in _mix(dist)))


def ref_cdf(dist, x):
    kind = dist["type"]
    if kind in ("chisq", "chisq-approx"):
        return stats.chi2.cdf(x, dist["df"])
    if kind == "f":
        return stats.f.cdf(x, dist["df1"], dist["df2"])
    return sum(w * (stats.chi2.cdf(x, df) if df > 0 else 1.0 * (np.asarray(x) >= 0.0))
               for w, df in _mix(dist))


def ref_ppf(dist, prob):
    kind = dist["type"]
    if kind in ("chisq", "chisq-approx"):
        return float(stats.chi2.ppf(prob, dist["df"]))
    if kind == "f":
        return float(stats.f.ppf(prob, dist["df1"], dist["df2"]))
    hi = max(stats.chi2.ppf(prob, df) for _, df in _mix(dist) if df > 0)
    return float(optimize.brentq(lambda x: ref_cdf(dist, x) - prob, 0.0, hi,
                                 xtol=1e-14, rtol=4 * np.finfo(float).eps))


# ---------------------------------------------------------------------------
# report checks

def dist_payload(dist):
    """In-process reference distribution as the CLI reports it."""
    kind = type(dist).__name__
    if kind == "ChiSq":
        return {"type": "chisq", "df": float(dist.df)}
    if kind == "ChiSqApprox":
        return {"type": "chisq-approx", "df": float(dist.df)}
    if kind == "FDist":
        return {"type": "f", "df1": float(dist.df1), "df2": float(dist.df2)}
    return {"type": "chisq-mixture", "weights": list(dist.weights),
            "dfs": list(dist.dfs)}


def result_payload(res, n, n1=None):
    """In-process TestResult as the fields of a CLI test report."""
    fit = res.fit_null
    mle = {"sigma2_hat": float(fit.sigma2_hat), "tau_hat": float(fit.tau_hat)}
    if hasattr(fit, "M_hat"):
        mle["M_hat"] = np.asarray(fit.M_hat).tolist()
        if getattr(fit, "face_dim", None) is not None:
            mle["face_dim"] = int(fit.face_dim)
    else:
        mle["M1_hat"] = np.asarray(fit.M1_hat).tolist()
        mle["M2_hat"] = np.asarray(fit.M2_hat).tolist()
    out = {"test_id": res.test_id, "n": int(n), "statistic": float(res.statistic),
           "distribution": dist_payload(res.dist), "p_value": float(res.p_value),
           "mle": mle}
    if n1 is not None:
        out.update(n1=int(n1), n2=int(n - n1))
    return out


def calibration_payload(rep):
    """In-process CalibrationReport as a CLI calibrate payload plus statistics."""
    out = {"test_id": rep.test_id, "reps": rep.reps, "n": rep.n,
           "distribution": dist_payload(rep.dist),
           "quantile_probs": list(rep.quantile_probs),
           "empirical_quantiles": list(rep.empirical_quantiles),
           "theoretical_quantiles": list(rep.theoretical_quantiles),
           "ks_distance": rep.ks_distance, "alpha": rep.alpha,
           "rejection_rate": rep.rejection_rate,
           "statistics": np.asarray(rep.statistics)}
    if rep.n1 is not None:
        out.update(n1=rep.n1, n2=rep.n2)
    return out


def check_dist(ck, label, got, want, cone_reps=None, mult=None):
    ok = ck.expect(got.get("type") == want["type"],
                   "%s: distribution %r, expected %r" % (label, got, want))
    if not ok:
        return
    for key in ("df", "df1", "df2", "dfs"):
        if key in want:
            ck.expect(np.array_equal(np.asarray(got.get(key), dtype=float),
                                     np.asarray(want[key], dtype=float)),
                      "%s: %s %r, expected %r" % (label, key, got.get(key), want[key]))
    if want["type"] != "chisq-mixture" or len(got["weights"]) != len(want["dfs"]):
        return
    w = np.asarray(got["weights"], dtype=float)
    ck.expect(abs(w.sum() - 1.0) < 1e-12 and np.all(w >= 0.0),
              "%s: mixture weights %r" % (label, got["weights"]))
    if "weights" in want:
        ck.expect(np.allclose(w, want["weights"], rtol=1e-12, atol=0.0),
                  "%s: weights %r, expected %r" % (label, list(w), want["weights"]))
    else:
        check_weights(ck, label, w, exact_cone_weights(mult), cone_reps)


def check_weights(ck, label, weights, law, reps):
    """Monte Carlo weights against the exact law, face by face."""
    dims = sorted(law)
    for k, w in zip(dims, weights):
        se = math.sqrt(law[k] * (1.0 - law[k]) / reps)
        ck.statistical(abs(w - law[k]) <= Z * se,
                       "%s: weight of face %d is %.6f, exact %.6f (se %.2g)"
                       % (label, k, w, law[k], se))


def check_test_report(ck, label, report, config, S, n1=None, cone_reps=None):
    """A test report (CLI JSON or converted result) against closed forms."""
    S = np.asarray(S, dtype=float)
    n, p = S.shape[0], S.shape[1]
    mle = report["mle"]
    ref = reference(config, S, n1, (mle["sigma2_hat"], mle["tau_hat"]))
    ck.expect(report.get("test_id") == config["test_id"],
              "%s: test_id %r" % (label, report.get("test_id")))
    ck.expect(report.get("n") == n, "%s: n %r, expected %d" % (label, report.get("n"), n))
    if n1 is not None:
        ck.expect(report.get("n1") == n1 and report.get("n2") == n - n1,
                  "%s: group sizes %r, %r" % (label, report.get("n1"), report.get("n2")))
    want = expected_dist(config, p, n, n1)
    mult = tuple(int(m) for m in config.get("multiplicities", ()))
    if config["test_id"] == "c2" and "weights" in config:
        want["weights"] = [float(w) for w in config["weights"]["weights"]]
    check_dist(ck, label, report["distribution"], want, cone_reps, mult)
    t = report["statistic"]
    ck.close(t, ref["statistic"], STAT_RTOL, STAT_ATOL * ref["scale"],
             "%s: statistic" % label)
    ck.close(report["p_value"], ref_sf(report["distribution"], t), P_RTOL, 1e-300,
             "%s: p-value" % label)
    for key in ("M_hat", "M1_hat", "M2_hat"):
        if key in ref["mle"]:
            M = np.asarray(mle.get(key), dtype=float)
            R = ref["mle"][key]
            ck.expect(M.shape == R.shape and np.abs(M - R).max()
                      <= 1e-9 * max(1.0, np.abs(R).max()),
                      "%s: %s differs from the projection" % (label, key))
    ck.close(mle["sigma2_hat"], ref["mle"]["sigma2_hat"], 1e-9, 0.0,
             "%s: sigma2_hat" % label)
    ck.close(mle["tau_hat"], ref["mle"]["tau_hat"], 1e-9, 1e-12,
             "%s: tau_hat" % label)
    if "face_dim" in ref:
        ck.expect(mle.get("face_dim") == ref["face_dim"],
                  "%s: face_dim %r, expected %d" % (label, mle.get("face_dim"),
                                                    ref["face_dim"]))
    return ref


def rotate_config(config, R):
    out = dict(config)
    if "M0" in config:
        out["M0"] = (R @ np.asarray(config["M0"]) @ R.T).tolist()
    if "U0" in config:
        out["U0"] = (R @ np.asarray(config["U0"])).tolist()
    return out


def check_equivariance(ck, label, run_config, config, S, n1, R, scale):
    """Y -> R Y R' with M0 and U0 rotated too leaves the statistic unchanged."""
    t = run_config(config, S, n1=n1).statistic
    SR = np.einsum("ij,njk,lk->nil", R, S, R)
    tR = run_config(rotate_config(config, R), SR, n1=n1).statistic
    ck.close(tR, t, STAT_RTOL, STAT_ATOL * scale,
             "%s: statistic after rotating data, M0 and U0" % label)


def check_calibration(ck, label, rep, config, truth, n):
    """A calibration report against scipy and the binomial and KS laws."""
    tid = config["test_id"]
    two = "M1" in truth
    p = np.asarray(truth["M1" if two else "M"]).shape[0]
    n_total = sum(n) if two else n
    reps = rep["reps"]
    ck.expect(rep["test_id"] == tid and rep["n"] == n_total,
              "%s: test_id/n %r/%r" % (label, rep["test_id"], rep["n"]))
    if two:
        ck.expect([rep.get("n1"), rep.get("n2")] == list(n),
                  "%s: group sizes %r, %r" % (label, rep.get("n1"), rep.get("n2")))
    want = expected_dist(config, p, n_total, n[0] if two else None)
    if tid == "c2":
        want["weights"] = [float(w) for w in config["weights"]["weights"]]
    check_dist(ck, label, rep["distribution"], want)
    dist = rep["distribution"]
    for pr, got in zip(rep["quantile_probs"], rep["theoretical_quantiles"]):
        ck.close(got, ref_ppf(dist, pr), Q_RTOL, 0.0,
                 "%s: theoretical quantile at %g" % (label, pr))
    emp = np.asarray(rep["empirical_quantiles"], dtype=float)
    ck.expect(np.all(np.diff(emp) >= 0.0), "%s: empirical quantiles not sorted" % label)
    ck.expect(rep["alpha"] == ALPHA, "%s: alpha %r" % (label, rep["alpha"]))
    crit = float(stats.kstwo.isf(STAT_LEVEL, reps))
    ck.statistical(rep["ks_distance"] <= crit,
                   "%s: KS distance %.4f above the critical value %.4f"
                   % (label, rep["ks_distance"], crit))
    lo = stats.binom.ppf(STAT_LEVEL / 2.0, reps, ALPHA) / reps
    hi = stats.binom.isf(STAT_LEVEL / 2.0, reps, ALPHA) / reps
    ck.statistical(lo <= rep["rejection_rate"] <= hi,
                   "%s: rejection rate %.4f outside [%.4f, %.4f]"
                   % (label, rep["rejection_rate"], lo, hi))
    stats_ = rep.get("statistics")
    if stats_ is None:
        return
    x = np.asarray(stats_, dtype=float)
    ok = ck.expect(x.size == reps and np.all(np.isfinite(x)) and np.all(x >= 0.0)
                   and np.all(np.diff(x) >= 0.0),
                   "%s: statistics not %d sorted finite nonnegative values" % (label, reps))
    if not ok:
        return
    ck.expect(np.allclose(emp, np.quantile(x, rep["quantile_probs"]), rtol=1e-12, atol=0.0),
              "%s: empirical quantiles do not match the statistics" % label)
    ks = stats.kstest(x, lambda v: ref_cdf(dist, v)).statistic
    ck.close(rep["ks_distance"], ks, 0.0, 1e-9, "%s: KS distance" % label)
    rate = float(np.mean([ref_sf(dist, v) <= ALPHA for v in x]))
    ck.close(rep["rejection_rate"], rate, 0.0, 1.0 / reps + 1e-12,
             "%s: rejection rate" % label)


def check_sample(ck, label, S, M, sigma2, tau):
    """Exact laws of a sample drawn from N(M, sigma2, tau).

    With e = vecd(Y - M) and u = 1/sqrt(p) on the diagonal coordinates,
    (1 - p tau) sum (u'e)^2 / sigma2 ~ chi2(n), sum |e - (u'e) u|^2 / sigma2
    ~ chi2(n (q - 1)), and n |mean e|^2 in the inverse covariance ~ chi2(q).
    """
    n, p = S.shape[0], S.shape[1]
    q = sym_dim(p)
    E = vecd_rows(S - np.asarray(M, dtype=float))
    along = E[:, :p].sum(axis=1) / math.sqrt(p)
    perp = np.sum(E * E, axis=1) - along ** 2
    shrink = 1.0 - p * tau
    laws = (("along-u dispersion", shrink * np.sum(along ** 2) / sigma2, n),
            ("orthogonal dispersion", np.sum(perp) / sigma2, n * (q - 1)))
    for what, value, df in laws:
        ck.statistical(stats.chi2.sf(value, df) > STAT_LEVEL / 2.0
                       and stats.chi2.cdf(value, df) > STAT_LEVEL / 2.0,
                       "%s: %s %.6g improbable under chi2(%d)" % (label, what, value, df))
    e = E.mean(axis=0)
    a = e[:p].sum() / math.sqrt(p)
    mean_stat = n * (shrink * a ** 2 + (np.sum(e * e) - a ** 2)) / sigma2
    ck.statistical(stats.chi2.sf(mean_stat, q) > STAT_LEVEL,
                   "%s: sample mean %.6g improbable under chi2(%d)" % (label, mean_stat, q))


def check_schema(ck, label, report, validator):
    errors = sorted(validator.iter_errors(report), key=lambda e: list(e.path))
    ck.expect(not errors, "%s: report fails the schema: %s"
              % (label, "; ".join(e.message for e in errors[:3])))
