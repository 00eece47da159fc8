"""Workload inputs, drawn by the benchmark itself from --seed.

Nothing here imports symtest: the samples come from the benchmark's own
sampler (a construction different from `symtest.matnormal.sample`), so
the checks in checks.py compare the program against independent data.

A workload is a fixed list of calls. Every round of a run repeats the
same list with the same inputs, so each run has the same mix and the
outputs of one round must equal those of the next.
"""

import csv
import json
import math
import os

import numpy as np

WORKLOADS = ("calibrate-curved", "calibrate-affine", "cli")
CAL_REPS = 1000          # smallest count calibrate_null accepts
CONE_REPS = 100000       # the CLI default for cone-weight simulation


def sym_dim(p):
    return p * (p + 1) // 2


def rng_for(seed, workload, stream=0):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), stream])


def rotation(rng, p):
    """A random rotation (QR of a Gaussian matrix, signs fixed, det +1)."""
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    Q = Q * np.sign(np.diagonal(R))
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    return Q


def frame(U, d):
    M = (U * np.asarray(d, dtype=float)) @ U.T
    return 0.5 * (M + M.T)


def draw(rng, n, M, sigma2, tau):
    """n matrices from N(M, sigma2, tau), built from the spectral form.

    In the isometric vecd coordinates the covariance is sigma2 on every
    direction orthogonal to u = 1/sqrt(p) (on the diagonal) and
    sigma2 / (1 - p tau) along u, so the diagonal is iid noise with its
    component along u rescaled; raw off-diagonal entries have variance
    sigma2 / 2.
    """
    M = np.asarray(M, dtype=float)
    p = M.shape[0]
    s = math.sqrt(sigma2)
    z = rng.standard_normal((n, p))
    along = z.mean(axis=1, keepdims=True)
    diag = s * (z + (1.0 / math.sqrt(1.0 - p * tau) - 1.0) * along)
    iu = np.triu_indices(p, 1)
    off = (s / math.sqrt(2.0)) * rng.standard_normal((n, iu[0].size))
    S = np.zeros((n, p, p))
    S[:, np.arange(p), np.arange(p)] = diag
    S[:, iu[0], iu[1]] = off
    S[:, iu[1], iu[0]] = off
    return S + M


def stirling_first(m):
    """Unsigned Stirling numbers of the first kind |s(m, l)|, l = 0..m."""
    row = [1]
    for j in range(m):
        nxt = [0] * (len(row) + 1)
        for l, v in enumerate(row):
            nxt[l] += j * v
            nxt[l + 1] += v
        row = nxt
    return row


def exact_cone_weights(mult):
    """Face-dimension law of the order-cone projection at a tied spectrum.

    A tied block of size m lands on l distinct values with probability
    |s(m, l)| / m! (the equal-weight level-probability law). Blocks
    separated by gaps much larger than the noise are independent, so the
    face dimension is the sum of the block levels and its law is the
    convolution of the block laws. Returns {face_dim: weight}.
    """
    law = {0: 1.0}
    for m in mult:
        counts = stirling_first(m)
        nxt = {}
        for a, wa in law.items():
            for l in range(1, m + 1):
                nxt[a + l] = nxt.get(a + l, 0.0) + wa * counts[l] / math.factorial(m)
        law = nxt
    return law


def _mat(M):
    return np.asarray(M, dtype=float).tolist()


# ---------------------------------------------------------------------------
# in-process calibration workloads

def _cal(label, config, truth, n, seed):
    return {"label": label, "config": config, "truth": truth, "n": n,
            "reps": CAL_REPS, "seed": int(seed)}


def calibrate_curved(seed):
    """Curved-set tests at p=3 (plus one s2 at p=6), n=100 per group.

    Every replicate runs several Jacobi eigensolves on tiny matrices.
    """
    rng = rng_for(seed, "calibrate-curved")
    est = {"estimate": True}
    sigma2, tau, n = 1.0, 0.1, 100
    d3, tied = [4.0, 2.0, 1.0], [3.0, 3.0, 1.0]
    d6 = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
    U, Ut, U1, U2, U6 = (rotation(rng, 3), rotation(rng, 3), rotation(rng, 3),
                         rotation(rng, 3), rotation(rng, 6))
    M, Mt, M6 = frame(U, d3), frame(Ut, tied), frame(U6, d6)
    one = {"sigma2": sigma2, "tau": tau}
    seeds = rng.integers(0, 2 ** 31, size=7)
    return [
        _cal("s1", {"test_id": "s1", "M0": _mat(M), "D0": d3,
                    "multiplicities": [1, 1, 1], "cov": est},
             dict(one, M=_mat(M)), n, seeds[0]),
        _cal("s2", {"test_id": "s2", "D0": d3, "multiplicities": [1, 1, 1],
                    "cov": est}, dict(one, M=_mat(M)), n, seeds[1]),
        _cal("s2-tied", {"test_id": "s2", "D0": tied, "multiplicities": [2, 1],
                         "cov": est}, dict(one, M=_mat(Mt)), n, seeds[2]),
        _cal("s3-tied", {"test_id": "s3", "multiplicities": [2, 1], "cov": est},
             dict(one, M=_mat(Mt)), n, seeds[3]),
        _cal("2s1", {"test_id": "2s1", "multiplicities": [1, 1, 1], "cov": est},
             dict(one, M1=_mat(frame(U1, d3)), M2=_mat(frame(U2, d3))),
             [n, n], seeds[4]),
        _cal("2s2", {"test_id": "2s2", "multiplicities": [1, 1, 1], "cov": est},
             dict(one, M1=_mat(M), M2=_mat(M)), [n, n], seeds[5]),
        _cal("s2-p6", {"test_id": "s2", "D0": d6, "multiplicities": [1] * 6,
                       "cov": est}, dict(one, M=_mat(M6)), n, seeds[6]),
    ]


def calibrate_affine(seed):
    """Affine-set tests at p=6, n=1500 per group; no eigensolve per replicate.

    c2 receives its mixture weights from the exact tie law, so the cone
    Monte Carlo is bypassed. n is large enough that the passes over the
    sample dominate, and small enough that one round takes about as long
    as a run measures.
    """
    rng = rng_for(seed, "calibrate-affine")
    est = {"estimate": True}
    sigma2, tau, n, p = 1.0, 0.05, 1500, 6
    d6 = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
    cone_d, cone_mult = [3.0, 3.0, 2.0, 2.0, 1.0, 0.0], (2, 2, 1, 1)
    A = rng.standard_normal((p, p))
    B = rng.standard_normal((p, p))
    M0, M2s = 0.5 * (A + A.T), 0.5 * (B + B.T)
    U1, U2, U3 = rotation(rng, p), rotation(rng, p), rotation(rng, p)
    law = exact_cone_weights(cone_mult)
    dims = sorted(law)
    one = {"sigma2": sigma2, "tau": tau}
    seeds = rng.integers(0, 2 ** 31, size=5)
    return [
        _cal("a0-F", {"test_id": "a0", "M0": _mat(M0), "cov": est},
             dict(one, M=_mat(M0)), n, seeds[0]),
        _cal("a1-known", {"test_id": "a1", "M0": _mat(frame(U1, d6)),
                          "U0": _mat(U1),
                          "cov": {"known": {"sigma2": sigma2, "tau": tau}}},
             dict(one, M=_mat(frame(U1, d6))), n, seeds[1]),
        _cal("a2", {"test_id": "a2", "U0": _mat(U2), "cov": est},
             dict(one, M=_mat(frame(U2, d6))), n, seeds[2]),
        _cal("2a0-F", {"test_id": "2a0", "cov": est},
             dict(one, M1=_mat(M2s), M2=_mat(M2s)), [n, n], seeds[3]),
        _cal("c2-weights", {"test_id": "c2", "U0": _mat(U3), "cov": est,
                            "weights": {"face_dims": dims,
                                        "weights": [law[k] for k in dims]}},
             dict(one, M=_mat(frame(U3, cone_d))), n, seeds[4]),
    ]


# ---------------------------------------------------------------------------
# command-line workload

def write_csv(path, S, n1=None):
    """The dataset format the CLI reads: header p=<int>,group, then the raw
    upper triangle of each observation in row-major order and its group."""
    p = S.shape[1]
    iu = np.triu_indices(p)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["p=%d" % p, "group"])
        for i, Y in enumerate(S):
            w.writerow(["%.17g" % v for v in Y[iu]]
                       + ["1" if n1 is None or i < n1 else "2"])


def read_csv(path):
    with open(path, newline="") as fh:
        return parse_csv(fh.read())


def parse_csv(text):
    """Parse a dataset CSV into (S, n1) without the program's reader."""
    rows = [r for r in csv.reader(text.splitlines()) if r]
    p = int(rows[0][0][2:])
    q = sym_dim(p)
    iu = np.triu_indices(p)
    vals = np.array([[float(v) for v in r[:q]] for r in rows[1:]])
    groups = np.array([r[q] for r in rows[1:]])
    S = np.zeros((len(vals), p, p))
    S[:, iu[0], iu[1]] = vals
    S[:, iu[1], iu[0]] = vals
    n1 = int(np.sum(groups == "1"))
    return S, (n1 if n1 < len(groups) else None)


def cli_inputs(seed, workdir):
    """Write the cli workload's datasets and configs; return its call list.

    Each call is {"label", "argv", "kind", ...} where kind selects the
    check: "test" (report of one hypothesis test, with the dataset and
    config it ran on), "simulate", "cone-weights" or "calibrate".
    """
    rng = rng_for(seed, "cli")
    p, sigma2, tau = 3, 1.0, 0.1
    d, tied = [4.0, 2.0, 1.0], [3.0, 3.0, 1.0]
    U = rotation(rng, p)
    MA, MB = frame(U, d), frame(U, tied)
    data = {
        "A": (draw(rng, 200, MA, sigma2, tau), None),
        "B": (draw(rng, 200, MB, sigma2, tau), None),
    }
    S1 = draw(rng, 150, MA, sigma2, tau)
    S2 = draw(rng, 150, MA, sigma2, tau)
    data["C"] = (np.concatenate([S1, S2]), 150)
    while True:
        # small noise keeps every observation positive definite
        SD = draw(rng, 200, MA, 0.01, tau)
        if np.linalg.eigvalsh(SD).min() > 0.0:
            break
    data["D"] = (SD, None)
    paths = {}
    for key, (S, n1) in data.items():
        paths[key] = os.path.join(workdir, "data_%s.csv" % key)
        write_csv(paths[key], S, n1)

    calls = []

    def config(name, obj):
        path = os.path.join(workdir, "cfg_%s.json" % name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    est = {"estimate": True}
    c2_seed, cw_seed, cal_seed, sim_seed = (int(v) for v in
                                            rng.integers(0, 2 ** 31, size=4))
    tests = [
        ("a0", "A", {"test_id": "a0", "M0": _mat(MA), "cov": est}),
        ("a1", "A", {"test_id": "a1", "M0": _mat(MA), "U0": _mat(U),
                     "cov": {"known": {"sigma2": sigma2, "tau": tau}}}),
        ("a2", "A", {"test_id": "a2", "U0": _mat(U), "cov": est}),
        ("c2-21", "B", {"test_id": "c2", "U0": _mat(U), "multiplicities": [2, 1],
                        "reps": CONE_REPS, "seed": c2_seed, "cov": est}),
        ("c2-3", "B", {"test_id": "c2", "U0": _mat(U), "multiplicities": [3],
                       "reps": CONE_REPS, "seed": c2_seed + 1, "cov": est}),
        ("s1", "A", {"test_id": "s1", "M0": _mat(MA), "D0": d,
                     "multiplicities": [1, 1, 1], "cov": est}),
        ("s2", "A", {"test_id": "s2", "D0": d, "multiplicities": [1, 1, 1],
                     "cov": est}),
        ("s3", "B", {"test_id": "s3", "multiplicities": [2, 1], "cov": est}),
        ("cov-check", "A", {"test_id": "cov-check"}),
        ("2a0", "C", {"test_id": "2a0", "cov": est}),
        ("2s1", "C", {"test_id": "2s1", "multiplicities": [1, 1, 1], "cov": est}),
        ("2s2", "C", {"test_id": "2s2", "multiplicities": [1, 1, 1], "cov": est}),
    ]
    sim_one = {"M": _mat(MA), "sigma2": sigma2, "tau": tau, "n": 1000,
               "seed": sim_seed}
    sim_two = {"M1": _mat(MA), "M2": _mat(MB), "n1": 600, "n2": 400,
               "sigma2": sigma2, "tau": tau, "seed": sim_seed + 1}
    for name, cfg in (("sim1", sim_one), ("sim2", sim_two)):
        out = os.path.join(workdir, "out_%s.csv" % name)
        calls.append({"label": "simulate-" + name[-1], "kind": "simulate",
                      "argv": ["simulate", "--config", config(name, cfg),
                               "--out", out],
                      "out": out, "truth": cfg})
    for name, key, cfg in tests:
        calls.append({"label": "test-" + name, "kind": "test", "data": key,
                      "config": cfg, "log": False,
                      "argv": ["test", "--data", paths[key], "--config",
                               config(name, cfg), "--no-timestamp"]})
    log_cfg = {"test_id": "s2", "D0": [math.log(v) for v in d],
               "multiplicities": [1, 1, 1], "cov": est}
    calls.append({"label": "test-s2-log", "kind": "test", "data": "D",
                  "config": log_cfg, "log": True,
                  "argv": ["test", "--data", paths["D"], "--config",
                           config("s2log", log_cfg), "--log-transform",
                           "--no-timestamp"]})
    calls.append({"label": "cov-check", "kind": "test", "data": "A",
                  "config": {"test_id": "cov-check"}, "log": False,
                  "argv": ["cov-check", "--data", paths["A"], "--no-timestamp"]})
    cw = {"d_true": [1.0, 1.0, 1.0, 1.0], "reps": CONE_REPS, "seed": cw_seed}
    calls.append({"label": "cone-weights", "kind": "cone-weights", "config": cw,
                  "argv": ["cone-weights", "--config", config("cw", cw),
                           "--no-timestamp"]})
    cal = {"test": {"test_id": "a1", "M0": _mat(MA), "U0": _mat(U),
                    "cov": {"known": {"sigma2": sigma2, "tau": tau}}},
           "truth": {"M": _mat(MA), "sigma2": sigma2, "tau": tau},
           "n": 50, "reps": CAL_REPS, "seed": cal_seed}
    calls.append({"label": "calibrate-a1", "kind": "calibrate", "config": cal,
                  "argv": ["calibrate", "--config", config("cal", cal),
                           "--no-timestamp"]})
    return {"calls": calls, "datasets": paths}


def build(workload, seed, workdir):
    """The inputs of one workload as a JSON-serialisable manifest."""
    if workload == "calibrate-curved":
        return {"calls": calibrate_curved(seed)}
    if workload == "calibrate-affine":
        return {"calls": calibrate_affine(seed)}
    if workload == "cli":
        return cli_inputs(seed, workdir)
    raise ValueError("unknown workload %r" % workload)
