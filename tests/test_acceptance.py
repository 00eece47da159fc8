"""Acceptance gate: one test per release criterion, one printed line each.

Each test records a single pass/fail line (echoed in the terminal
summary) stating the measured quantities at their required tolerances.
The criteria: Monte Carlo cone-mixture weights against their known
values, null calibration of the exact and asymptotic tests, the
covariance-structure check's size and power, the eigenvector
perturbation variance law, equivalence of every closed-form estimator
with direct numerical minimization, tangent orthogonality of fitted
residuals, estimator consistency, the algebraic identity suite, and the
CLI contract.
"""

import json
from importlib import resources

import numpy as np
import pytest
from scipy.optimize import minimize

from symtest import lrt
from symtest.calibrate import (
    calibrate_null,
    consistency_study,
    estimate_cone_weights,
)
from symtest.cli import main, read_dataset, write_dataset
from symtest.matnormal import SuffStats, sample
from symtest.onesample import (
    CommonEigvals,
    EqualMeans,
    FixedEigvals,
    FixedEigvecs,
    Mult,
    OrderedCone,
    Unrestricted,
    mle,
    pava,
)
from symtest.symcore import (
    CovParams,
    Multiplicities,
    eigh_desc,
    inner,
    norm_sq,
    vecd,
)

COV0 = CovParams(1.0, 0.0)


def random_symmetric(rng, p, scale=1.0):
    X = rng.standard_normal((p, p))
    return scale * (X + X.T) / 2.0


def random_orthogonal(rng, p):
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diagonal(R))


def random_cov(rng, p):
    return CovParams(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 0.9 / p))


# ---------------------------------------------------------------------------
# rotation parameterization for the numerical optimizer (criterion 6)

def rotation(params, p):
    if p == 2:
        c, s = np.cos(params[0]), np.sin(params[0])
        return np.array([[c, -s], [s, c]])
    theta = np.linalg.norm(params)
    if theta < 1e-14:
        return np.eye(3)
    x, y, z = np.asarray(params) / theta
    A = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(theta) * A + (1.0 - np.cos(theta)) * (A @ A)


# Levi-Civita symbol: [w]x[j, k] = -sum_l EPS[j, k, l] w[l]
EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0


def rotation_derivs(params, p, U):
    """dU/dv_i of U = rotation(params, p), stacked along axis 0.

    For the axis-angle map at v != 0,
    dU/dv_i = (v_i [v]x + [v x (I - U) e_i]x) U / |v|^2
    (Gallego & Yezzi 2015); at v = 0 it is [e_i]x.
    """
    if p == 2:
        c, s = np.cos(params[0]), np.sin(params[0])
        return np.array([[[-s, -c], [c, -s]]])
    v = np.asarray(params, dtype=float)
    theta2 = v @ v
    if np.sqrt(theta2) < 1e-14:
        return -EPS.transpose(2, 0, 1)
    K = -EPS @ v
    C = K @ (np.eye(3) - U)  # column i is v x (I - U) e_i
    dK = v[:, None, None] * K - np.einsum("jkl,li->ijk", EPS, C)
    return dK @ U / theta2


def frame_grad(Y, params, p, F):
    """Gradient of ||U'YU - F||^2 in the rotation parameters, F held fixed.

    By Danskin's theorem this is also the gradient of the minimum over F
    when F is the minimizing fit: 4 tr((B - F) U'Y dU/dv_i), B = U'YU.
    """
    U = rotation(params, p)
    G = (U.T @ Y @ U - F) @ U.T @ Y
    return 4.0 * np.einsum("jk,ikj->i", G, rotation_derivs(params, p, U))


def rotation_params(U):
    """Parameters reproducing the rotation U (det +1) via rotation()."""
    p = U.shape[0]
    if p == 2:
        return np.array([np.arctan2(U[1, 0], U[0, 0])])
    tr = np.clip((np.trace(U) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(tr)
    if theta < 1e-9:
        return np.zeros(3)
    if np.pi - theta > 1e-6:
        axis = np.array([U[2, 1] - U[1, 2], U[0, 2] - U[2, 0],
                         U[1, 0] - U[0, 1]]) / (2.0 * np.sin(theta))
    else:
        # Half-turn: U + I = 2 aa', recover the axis from the largest
        # diagonal entry to keep the division well conditioned.
        B = (U + np.eye(3)) / 2.0
        i = int(np.argmax(np.diagonal(B)))
        axis = B[i] / np.sqrt(B[i, i])
        axis = axis / np.linalg.norm(axis)
    return theta * axis


def det_plus(U):
    U = U.copy()
    if np.linalg.det(U) < 0.0:
        U[:, -1] = -U[:, -1]
    return U


def multistart_min(f, dim, rng, nstart, start=None):
    starts = [] if start is None else [np.asarray(start, dtype=float)]
    starts += [rng.uniform(-np.pi, np.pi, dim) for _ in range(nstart)]
    best = np.inf
    for s0 in starts:
        r = minimize(f, s0, method="BFGS", jac=True)
        if r.fun < best:
            best = float(r.fun)
    return best


def isotonic_decreasing(vals, wts):
    # weighted least-squares fit of a non-increasing sequence by pooling
    # adjacent violating blocks
    stack = []
    for v, w in zip(vals, wts):
        cv, cw, cn = float(v), float(w), 1
        while stack and stack[-1][0] < cv:
            pv, pw, pn = stack.pop()
            cv = (cv * cw + pv * pw) / (cw + pw)
            cw += pw
            cn += pn
        stack.append((cv, cw, cn))
    out = []
    for v, _, cnt in stack:
        out.extend([v] * cnt)
    return out


def block_fill(pattern, values):
    return np.concatenate([np.full(m, v) for m, v in zip(pattern, values)])


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_cone_mixture_weights(acceptance_line):
    import time
    t0 = time.perf_counter()
    iso = estimate_cone_weights((0.0, 0.0, 0.0), 100_000, 2024)
    # Weight per chi-square component, listed by ascending df: the
    # component with df q-k comes from projections with k distinct values.
    got_iso = (iso.weight_for_dim(3), iso.weight_for_dim(2),
               iso.weight_for_dim(1))
    want_iso = (1.0 / 6.0, 1.0 / 2.0, 1.0 / 3.0)
    obl = estimate_cone_weights((5.0, 5.0, 0.0), 100_000, 2025)
    got_obl = (obl.weight_for_dim(3), obl.weight_for_dim(2))
    want_obl = (0.5, 0.5)
    elapsed = time.perf_counter() - t0
    err = max(max(abs(g - w) for g, w in zip(got_iso, want_iso)),
              max(abs(g - w) for g, w in zip(got_obl, want_obl)))
    ok = err < 0.01 and elapsed < 30.0
    acceptance_line(1, ok,
                    "cone weights isotropic (%.4f, %.4f, %.4f) vs (1/6, 1/2, "
                    "1/3), tied-pair (%.4f, %.4f) vs (1/2, 1/2); max err "
                    "%.4f < 0.01, %.1f s" %
                    (got_iso + got_obl + (err, elapsed)))


def test_criterion_02_exact_null_calibration(acceptance_line):
    M0 = np.diag([4.0, 2.0, 1.0])
    U0 = np.eye(3)
    cov = {"known": {"sigma2": 1.0, "tau": 0.2}}
    truth = {"M": M0.tolist(), "sigma2": 1.0, "tau": 0.2}
    configs = {
        "a0": {"test_id": "a0", "M0": M0.tolist(), "cov": cov},
        "a1": {"test_id": "a1", "U0": U0.tolist(), "M0": M0.tolist(),
               "cov": cov},
        "a2": {"test_id": "a2", "U0": U0.tolist(), "cov": cov},
    }
    rates = {}
    for tid, config in configs.items():
        rep = calibrate_null(config, truth, n=50, reps=5000, seed=310)
        rates[tid] = rep.rejection_rate
    ok = all(0.040 <= r <= 0.060 for r in rates.values())
    acceptance_line(2, ok,
                    "exact tests at alpha 0.05, n=50, 5000 reps: %s, all "
                    "within [0.040, 0.060]" %
                    ", ".join("%s %.4f" % kv for kv in sorted(rates.items())))


def test_criterion_03_asymptotic_null_calibration(acceptance_line):
    est = {"estimate": True}
    distinct = np.diag([4.0, 2.0, 1.0])
    tied = np.diag([3.0, 3.0, 1.0])
    runs = [
        ("s1", {"test_id": "s1", "M0": distinct.tolist(), "D0": [4, 2, 1],
                "multiplicities": [1, 1, 1], "cov": est},
         {"M": distinct.tolist(), "sigma2": 1.0, "tau": 0.2}, 250),
        ("s2", {"test_id": "s2", "D0": [3, 3, 1], "multiplicities": [2, 1],
                "cov": est},
         {"M": tied.tolist(), "sigma2": 1.0, "tau": 0.2}, 250),
        ("s3", {"test_id": "s3", "multiplicities": [2, 1], "cov": est},
         {"M": tied.tolist(), "sigma2": 1.0, "tau": 0.2}, 250),
        ("2s1", {"test_id": "2s1", "multiplicities": [1, 1, 1], "cov": est},
         {"M1": distinct.tolist(), "M2": distinct.tolist(),
          "sigma2": 1.0, "tau": 0.2}, (250, 250)),
        ("2s2", {"test_id": "2s2", "multiplicities": [1, 1, 1], "cov": est},
         {"M1": distinct.tolist(), "M2": distinct.tolist(),
          "sigma2": 1.0, "tau": 0.2}, (250, 250)),
    ]
    parts = []
    ok = True
    for tid, config, truth, n in runs:
        rep = calibrate_null(config, truth, n=n, reps=5000, seed=311)
        good = rep.ks_distance < 0.03 and 0.035 <= rep.rejection_rate <= 0.070
        ok = ok and good
        parts.append("%s KS %.4f rate %.4f" % (tid, rep.ks_distance,
                                               rep.rejection_rate))
    acceptance_line(3, ok,
                    "asymptotic tests, 5000 reps, n=250 per group: %s; "
                    "KS < 0.03 and rate in [0.035, 0.070]" % "; ".join(parts))


def test_criterion_04_covariance_structure_check(acceptance_line):
    truth = {"M": np.zeros((3, 3)).tolist(), "sigma2": 1.0, "tau": 0.2}
    rep = calibrate_null({"test_id": "cov-check"}, truth, n=500, reps=2000,
                         seed=312)
    cov = CovParams(1.0, 0.2)
    hits = 0
    power_reps = 400
    for i in range(power_reps):
        ss = np.random.SeedSequence(313, spawn_key=(i,))
        S = sample(500, np.zeros((3, 3)), cov, ss)
        # Inflate the (1,1)-entry noise: no orthogonally invariant model
        # has a variance bump confined to one matrix entry.
        extra = np.random.Generator(np.random.Philox(ss.spawn(1)[0]))
        S[:, 0, 0] += extra.standard_normal(500)
        if lrt.run("cov-check", SuffStats.from_sample(S)).p_value <= 0.05:
            hits += 1
    power = hits / power_reps
    ok = 0.03 <= rep.rejection_rate <= 0.08 and power > 0.9
    acceptance_line(4, ok,
                    "covariance check: null rate %.4f in [0.03, 0.08] "
                    "(n=500, 2000 reps), power %.3f > 0.9 against an "
                    "inflated-entry alternative" % (rep.rejection_rate, power))


def test_criterion_05_eigenvector_variance_law(acceptance_line):
    truth = {"M": np.diag([4.0, 2.0, 1.0]).tolist(), "sigma2": 1.0,
             "tau": 0.2}
    rows = consistency_study("eigvec_var", truth, [500], 2000, 314)
    parts = []
    worst = 0.0
    for i, j, emp, pred in rows[0]["pairs"]:
        rel = abs(emp - pred) / pred
        worst = max(worst, rel)
        parts.append("(%d,%d) %.4f vs %.4f" % (i + 1, j + 1, emp, pred))
    ok = worst <= 0.10
    acceptance_line(5, ok,
                    "scaled eigenvector-angle variances: %s; max relative "
                    "error %.3f <= 0.10 (n=500, 2000 reps)" %
                    ("; ".join(parts), worst))


def test_criterion_06_projection_oracle(acceptance_line):
    rng = np.random.default_rng(315)
    tol = 1e-6
    worst = 0.0
    counts = {}

    def check(name, f_closed, f_num):
        nonlocal worst
        dev = abs(f_num - f_closed) / max(1.0, abs(f_closed))
        worst = max(worst, dev)
        counts[name] = counts.get(name, 0) + 1

    def frob(A):
        return float(np.sum(A * A))

    def descending(p, low=0.3, high=1.5):
        gaps = rng.uniform(low, high, p - 1)
        top = rng.uniform(-1.0, 1.0)
        return top - np.concatenate([[0.0], np.cumsum(gaps)])

    for p in (2, 3):
        dim = 1 if p == 2 else 3
        for it in range(500):
            Ybar = random_symmetric(rng, p, scale=1.2)
            S1 = Ybar[None]
            U0 = random_orthogonal(rng, p)

            # fixed eigenvector frame: diagonal extraction vs least squares
            fit = mle(FixedEigvecs(U0), SuffStats.from_sample(S1), COV0)
            G = np.stack([vecd(np.outer(U0[:, i], U0[:, i]))
                          for i in range(p)], axis=1)
            d_num, *_ = np.linalg.lstsq(G, vecd(Ybar), rcond=None)
            f_num = float(np.sum((vecd(Ybar) - G @ d_num) ** 2))
            check("frame", frob(Ybar - fit.M_hat), f_num)

            # ordered cone: pooling algorithm vs constrained minimizer
            fit = mle(OrderedCone(U0), SuffStats.from_sample(S1), COV0)
            target = np.diagonal(U0.T @ Ybar @ U0)

            def g(d):
                return frob(Ybar - U0 @ np.diag(d) @ U0.T)

            cons = [{"type": "ineq", "fun": (lambda d, k=k: d[k] - d[k + 1])}
                    for k in range(p - 1)]
            x0 = np.sort(target)[::-1]
            r = minimize(g, x0, method="SLSQP", constraints=cons,
                         options={"ftol": 1e-12, "maxiter": 200})
            check("cone", frob(Ybar - fit.M_hat), float(r.fun))

            # fixed spectrum: frame matching vs rotation-space search
            D0 = descending(p)
            fit = mle(FixedEigvals(D0, Multiplicities((1,) * p)),
                      SuffStats.from_sample(S1), COV0)
            V = det_plus(eigh_desc(Ybar).V)
            D = np.diag(D0)

            def f41(params):
                U = rotation(params, p)
                return (frob(Ybar - U @ D @ U.T),
                        frame_grad(Ybar, params, p, D))

            f_num = multistart_min(f41, dim, rng, 6 if p == 2 else 8,
                                   start=rotation_params(V))
            check("spectrum", frob(Ybar - fit.M_hat), f_num)

            # multiplicity pattern (and tied fixed spectrum) at p=3 only;
            # at p=2 the pooled pattern has the closed form tr/2 * I
            if p == 2:
                fit = mle(Mult(Multiplicities((2,))), SuffStats.from_sample(S1), COV0)
                lam = np.trace(Ybar) / 2.0
                check("pattern", frob(Ybar - fit.M_hat),
                      frob(Ybar - lam * np.eye(2)))
            else:
                pattern = (2, 1) if it % 2 == 0 else (1, 2)
                fit = mle(Mult(Multiplicities(pattern)), SuffStats.from_sample(S1), COV0)

                def f42(params):
                    U = rotation(params, 3)
                    B = U.T @ Ybar @ U
                    d = np.diagonal(B)
                    at = 0
                    means, wts = [], []
                    for m in pattern:
                        means.append(float(np.mean(d[at:at + m])))
                        wts.append(m)
                        at += m
                    lam = isotonic_decreasing(means, wts)
                    fitted = block_fill(pattern, lam)
                    off = np.sum(B * B) - np.sum(d * d)
                    return (float(off + np.sum((d - fitted) ** 2)),
                            frame_grad(Ybar, params, 3, np.diag(fitted)))

                f_num = multistart_min(f42, 3, rng, 8,
                                       start=rotation_params(V))
                check("pattern", frob(Ybar - fit.M_hat), f_num)

                if it < 250:
                    a, b = descending(2, low=0.4)
                    D0t = np.array([a, a, b])
                    fit = mle(FixedEigvals(D0t, Multiplicities((2, 1))),
                              SuffStats.from_sample(S1), COV0)
                    Dt = np.diag(D0t)

                    def f41t(params):
                        U = rotation(params, 3)
                        return (frob(Ybar - U @ Dt @ U.T),
                                frame_grad(Ybar, params, 3, Dt))

                    f_num = multistart_min(f41t, 3, rng, 8,
                                           start=rotation_params(V))
                    check("tied spectrum", frob(Ybar - fit.M_hat), f_num)

        # shared spectrum across two groups
        for it in range(250):
            Y1 = random_symmetric(rng, p, scale=1.2)
            Y2 = random_symmetric(rng, p, scale=1.2)
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            pattern = ((1,) * p if p == 2 or it % 2 == 0 else (2, 1))
            S = np.concatenate([np.repeat(Y1[None], n1, axis=0),
                                np.repeat(Y2[None], n2, axis=0)])
            fit = mle(CommonEigvals(Multiplicities(pattern)),
                      SuffStats.from_sample(S, n1), COV0)
            f_closed = n1 * frob(Y1 - fit.M1_hat) + n2 * frob(Y2 - fit.M2_hat)

            def f51(params):
                U1 = rotation(params[:dim], p)
                U2 = rotation(params[dim:], p)
                B1 = U1.T @ Y1 @ U1
                B2 = U2.T @ Y2 @ U2
                d1 = np.diagonal(B1)
                d2 = np.diagonal(B2)
                at = 0
                means, wts = [], []
                for m in pattern:
                    s = n1 * np.sum(d1[at:at + m]) + n2 * np.sum(d2[at:at + m])
                    w = (n1 + n2) * m
                    means.append(float(s / w))
                    wts.append(w)
                    at += m
                lam = isotonic_decreasing(means, wts)
                fitted = block_fill(pattern, lam)
                v1 = np.sum(B1 * B1) - np.sum(d1 * d1) + np.sum((d1 - fitted) ** 2)
                v2 = np.sum(B2 * B2) - np.sum(d2 * d2) + np.sum((d2 - fitted) ** 2)
                F = np.diag(fitted)
                return float(n1 * v1 + n2 * v2), np.concatenate([
                    n1 * frame_grad(Y1, params[:dim], p, F),
                    n2 * frame_grad(Y2, params[dim:], p, F)])

            start = np.concatenate([
                rotation_params(det_plus(eigh_desc(Y1).V)),
                rotation_params(det_plus(eigh_desc(Y2).V))])
            f_num = multistart_min(f51, 2 * dim, rng, 8 if p == 2 else 12,
                                   start=start)
            check("shared spectrum", f_closed, f_num)

    ok = worst <= tol
    acceptance_line(6, ok,
                    "closed-form fits vs numerical minimization: max scaled "
                    "objective gap %.2e <= 1e-6 over %s" %
                    (worst, ", ".join("%d %s" % (v, k)
                                      for k, v in counts.items())))


def test_criterion_07_tangent_orthogonality(acceptance_line):
    rng = np.random.default_rng(316)
    p, q = 3, 6
    worst = 0.0
    checks = 0

    def record(val, r_scale, t_scale):
        nonlocal worst, checks
        worst = max(worst, abs(val) / max(1.0, r_scale * t_scale))
        checks += 1

    def frobn(A):
        return float(np.sqrt(np.sum(A * A)))

    skews = [np.zeros((p, p)) for _ in range(3)]
    for idx, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        skews[idx][i, j] = 1.0
        skews[idx][j, i] = -1.0
    sym_basis = []
    for i in range(p):
        for j in range(i, p):
            E = np.zeros((p, p))
            E[i, j] = E[j, i] = 1.0
            sym_basis.append(E)

    for tau in (-1.0, 0.0, 0.3):
        cov = CovParams(1.0, tau)
        for _ in range(200):
            S = np.stack([random_symmetric(rng, p, 1.0) for _ in range(3)])
            ybar = S.mean(axis=0)
            U0 = random_orthogonal(rng, p)

            fit = mle(FixedEigvecs(U0), SuffStats.from_sample(S), cov)
            r = ybar - fit.M_hat
            for i in range(p):
                t = np.outer(U0[:, i], U0[:, i])
                record(inner(r, t, cov), frobn(r), frobn(t))

            fit = mle(OrderedCone(U0), SuffStats.from_sample(S), cov)
            r = ybar - fit.M_hat
            # Pooled values from the cone fit share one mean, so exact
            # equality delimits the blocks of the active face.
            d, _ = pava(np.diagonal(U0.T @ ybar @ U0))
            start = 0
            for k in range(1, p + 1):
                if k == p or d[k] != d[k - 1]:
                    ind = np.zeros(p)
                    ind[start:k] = 1.0
                    t = U0 @ np.diag(ind) @ U0.T
                    record(inner(r, t, cov), frobn(r), frobn(t))
                    start = k

            D0 = np.array([2.5, 1.0, -0.5])
            fit = mle(FixedEigvals(D0, Multiplicities((1, 1, 1))),
                      SuffStats.from_sample(S), cov)
            r = ybar - fit.M_hat
            for A in skews:
                t = A @ fit.M_hat - fit.M_hat @ A
                record(inner(r, t, cov), frobn(r), frobn(t))

            fit = mle(Mult(Multiplicities((2, 1))), SuffStats.from_sample(S), cov)
            r = ybar - fit.M_hat
            V = eigh_desc(ybar).V
            for A in skews:
                t = A @ fit.M_hat - fit.M_hat @ A
                record(inner(r, t, cov), frobn(r), frobn(t))
            for lo, hi in Multiplicities((2, 1)).blocks():
                ind = np.zeros(p)
                ind[lo:hi] = 1.0
                t = V @ np.diag(ind) @ V.T
                record(inner(r, t, cov), frobn(r), frobn(t))

            S2 = np.stack([random_symmetric(rng, p, 1.0) for _ in range(5)])
            n1 = 2
            y1, y2 = S2[:n1].mean(axis=0), S2[n1:].mean(axis=0)

            fit = mle(EqualMeans(), SuffStats.from_sample(S2, n1), cov)
            r1, r2 = y1 - fit.M1_hat, y2 - fit.M2_hat
            for T in sym_basis:
                val = n1 * inner(r1, T, cov) + 3 * inner(r2, T, cov)
                record(val, frobn(r1) + frobn(r2), frobn(T))

            for pattern in ((1, 1, 1), (2, 1)):
                fit = mle(CommonEigvals(Multiplicities(pattern)),
                          SuffStats.from_sample(S2, n1), cov)
                r1, r2 = y1 - fit.M1_hat, y2 - fit.M2_hat
                for A in skews:
                    t1 = A @ fit.M1_hat - fit.M1_hat @ A
                    record(n1 * inner(r1, t1, cov), frobn(r1), frobn(t1))
                    t2 = A @ fit.M2_hat - fit.M2_hat @ A
                    record(3 * inner(r2, t2, cov), frobn(r2), frobn(t2))
                V1, V2 = eigh_desc(y1).V, eigh_desc(y2).V
                for lo, hi in Multiplicities(pattern).blocks():
                    ind = np.zeros(p)
                    ind[lo:hi] = 1.0
                    t1 = V1 @ np.diag(ind) @ V1.T
                    t2 = V2 @ np.diag(ind) @ V2.T
                    val = n1 * inner(r1, t1, cov) + 3 * inner(r2, t2, cov)
                    record(val, frobn(r1) + frobn(r2), frobn(t1) + frobn(t2))

    ok = worst <= 1e-8
    acceptance_line(7, ok,
                    "residual-tangent inner products across tau in {-1, 0, "
                    "0.3}: max scaled value %.2e <= 1e-8 (%d checks)" %
                    (worst, checks))


def test_criterion_08_estimator_consistency(acceptance_line):
    M = np.diag([2.0, 1.0, 0.5])
    n = 10_000
    parts = []
    ok = True
    for k, tau in enumerate((-0.5, 0.0, 0.2)):
        cov = CovParams(1.7, tau)
        S = sample(n, M, cov, 400 + k)
        fit = mle(Unrestricted(), SuffStats.from_sample(S))
        rel = abs(fit.sigma2_hat - 1.7) / 1.7
        dtau = abs(fit.tau_hat - tau)
        ok = ok and rel < 0.05 and dtau <= 0.02
        parts.append("one tau=%.1f (%.3f, %.4f)" % (tau, rel, dtau))

        ss1, ss2 = np.random.SeedSequence(500 + k).spawn(2)
        S2 = np.concatenate([sample(n // 2, M, cov, ss1),
                             sample(n // 2, M, cov, ss2)])
        fit2 = mle(Unrestricted(), SuffStats.from_sample(S2, n // 2))
        rel = abs(fit2.sigma2_hat - 1.7) / 1.7
        dtau = abs(fit2.tau_hat - tau)
        ok = ok and rel < 0.05 and dtau <= 0.02
        parts.append("two tau=%.1f (%.3f, %.4f)" % (tau, rel, dtau))
    acceptance_line(8, ok,
                    "sigma2 relative error < 0.05 and tau error <= 0.02 at "
                    "n=10000: %s" % "; ".join(parts))


def test_criterion_09_identity_suite(acceptance_line):
    rng = np.random.default_rng(317)
    worst = {"mean-shift": 0.0, "two-sample split": 0.0, "isometry": 0.0,
             "trace-free": 0.0, "suffstats": 0.0}

    def dev(a, b):
        return abs(a - b) / max(1.0, abs(a), abs(b))

    for _ in range(1000):
        p = int(rng.integers(2, 5))
        cov = random_cov(rng, p)

        # expanding the difference of squared distances around the mean
        ybar = random_symmetric(rng, p)
        A, B = random_symmetric(rng, p), random_symmetric(rng, p)
        n = int(rng.integers(1, 30))
        lhs = n * norm_sq(ybar - A, cov) - n * norm_sq(ybar - B, cov)
        rhs = (2.0 * n * inner(ybar, B - A, cov)
               + n * norm_sq(A, cov) - n * norm_sq(B, cov))
        worst["mean-shift"] = max(worst["mean-shift"], dev(lhs, rhs))

        # splitting two-group lack of fit into average and difference
        y1, y2 = random_symmetric(rng, p), random_symmetric(rng, p)
        M1, M2 = random_symmetric(rng, p), random_symmetric(rng, p)
        n1, n2 = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        ntot = n1 + n2
        lhs = n1 * norm_sq(y1 - M1, cov) + n2 * norm_sq(y2 - M2, cov)
        yavg = (n1 * y1 + n2 * y2) / ntot
        Mavg = (n1 * M1 + n2 * M2) / ntot
        rhs = (ntot * norm_sq(yavg - Mavg, cov)
               + n1 * n2 / ntot * norm_sq((y1 - y2) - (M1 - M2), cov))
        worst["two-sample split"] = max(worst["two-sample split"],
                                        dev(lhs, rhs))

        # the embedding preserves the trace inner product
        lhs = float(np.dot(vecd(A), vecd(B)))
        rhs = float(np.trace(A @ B))
        worst["isometry"] = max(worst["isometry"], dev(lhs, rhs))

        # trace-free first argument makes the inner product tau-free
        A0 = A - np.trace(A) / p * np.eye(p)
        lhs = inner(A0, B, CovParams(cov.sigma2, cov.tau))
        rhs = inner(A0, B, CovParams(cov.sigma2, 0.0))
        worst["trace-free"] = max(worst["trace-free"], dev(lhs, rhs))

    # SuffStats against the raw-sample formulas, relative to the size of
    # each statistic, across tau and data scales 1e-6 to 1e6 (the mean ten
    # times the spread, so that a raw-moment scatter would cancel)
    def rel(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        size = max(np.abs(a).max(), np.abs(b).max())
        return float(np.abs(a - b).max() / size) if size > 0.0 else 0.0

    def rel_logdet(logdet, W, n):
        # log|W/n| where the scatter W is nonsingular (n > q), else -inf
        if n <= len(W):
            return 0.0 if logdet == -np.inf else np.inf
        return rel(logdet, np.linalg.slogdet(W / n)[1])

    srng = np.random.default_rng(318)
    for k in range(1000):
        p = int(srng.integers(2, 5))
        scale = 10.0 ** srng.uniform(-6.0, 6.0)
        cov = CovParams(scale ** 2, srng.uniform(-0.5, 0.9 / p))
        n1, n2 = int(srng.integers(1, 20)), int(srng.integers(1, 20))
        S = sample(n1 + n2, random_symmetric(srng, p, 10.0 * scale), cov,
                   np.random.SeedSequence(318, spawn_key=(k,)))
        for n_split, parts in ((None, (S,)), (n1, (S[:n1], S[n1:]))):
            stats = SuffStats.from_sample(S, n_split)
            dev_n = float(stats.n != tuple(len(G) for G in parts))
            for g, G in enumerate(parts):
                R = G - G.mean(axis=0)
                W = sum(np.outer(vecd(r), vecd(r)) for r in R)
                tr = np.trace(R, axis1=1, axis2=2)
                F = R - (tr / p)[:, None, None] * np.eye(p)
                worst["suffstats"] = max(
                    worst["suffstats"], dev_n,
                    rel(stats.ybar[g], G.mean(axis=0)),
                    rel(stats.a[g], np.sum(tr ** 2) / p),
                    rel(stats.b[g], np.sum(F * F)),
                    rel_logdet(stats.logdet[g], W, len(G)))

    bad = {k: v for k, v in worst.items() if v > 1e-9}
    acceptance_line(9, not bad,
                    "identities at 1e-9 (suffstats relative) over 1000 draws "
                    "each: %s" %
                    ", ".join("%s %.1e" % kv for kv in sorted(worst.items())))


def test_criterion_10_cli_contract(acceptance_line, tmp_path, capsys):
    schema = json.loads(
        resources.files("symtest").joinpath("schemas/report.schema.json")
        .read_text())
    jsonschema = pytest.importorskip("jsonschema")
    checks = []

    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"M": [[1.0, 0.2], [0.2, 0.5]], "n": 8,
                               "sigma2": 1.0, "tau": 0.1, "seed": 12}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", str(sim), "--out", str(a)])
    main(["simulate", "--config", str(sim), "--out", str(b)])
    checks.append(("simulate deterministic", a.read_bytes() == b.read_bytes()))

    configs = [
        {"test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
         "cov": {"known": {"sigma2": 1.0, "tau": 0.1}}},
        {"test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
         "cov": {"estimate": True}},
        {"test_id": "c2", "U0": [[1.0, 0.0], [0.0, 1.0]],
         "multiplicities": [2], "reps": 2000,
         "cov": {"known": {"sigma2": 1.0, "tau": 0.1}}},
    ]
    reports_ok = True
    bytes_ok = True
    for k, config in enumerate(configs):
        cfg = tmp_path / ("t%d.json" % k)
        cfg.write_text(json.dumps(config))
        argv = ["test", "--data", str(a), "--config", str(cfg),
                "--no-timestamp"]
        code = main(argv)
        out1 = capsys.readouterr().out
        main(argv)
        out2 = capsys.readouterr().out
        bytes_ok = bytes_ok and out1 == out2 and code == 0
        try:
            jsonschema.validate(json.loads(out1), schema)
        except jsonschema.ValidationError:
            reports_ok = False
    checks.append(("reports schema-valid", reports_ok))
    checks.append(("reports byte-stable", bytes_ok))

    bad = tmp_path / "bad.csv"
    bad.write_text("oops\n")
    cfg0 = tmp_path / "t0.json"
    code_bad = main(["test", "--data", str(bad), "--config", str(cfg0)])
    missing = main(["test", "--data", str(tmp_path / "none.csv"),
                    "--config", str(cfg0)])
    badjson = tmp_path / "bad.json"
    badjson.write_text("{")
    code_json = main(["test", "--data", str(a), "--config", str(badjson)])
    small = tmp_path / "small.csv"
    write_dataset(str(small), sample(20, np.zeros((3, 3)), COV0, 3))
    code_gate = main(["cov-check", "--data", str(small)])
    capsys.readouterr()
    checks.append(("exit codes on bad input",
                   (code_bad, missing, code_json, code_gate) == (2, 2, 2, 2)))

    S, n1 = read_dataset(str(a))
    checks.append(("round trip", n1 is None and S.shape == (8, 2, 2)))

    ok = all(flag for _, flag in checks)
    acceptance_line(10, ok, "CLI contract: %s" %
                    ", ".join("%s %s" % (name, "ok" if flag else "FAILED")
                              for name, flag in checks))
