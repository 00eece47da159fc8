"""Self-test of the checks: each must pass a correct output and fail a
corrupted one, so that no check passes vacuously.

  python3 symbench/selftest.py        (from the root of a checkout)

Correct outputs come from running symtest in process on the cli
workload's inputs. Each is then corrupted one way at a time: a statistic
off by 1e-6 relative, a wrong degree of freedom, cone weights moved by 10
standard errors, and so on. Prints one line per case and exits 1 if any
correct output fails or any corrupted one passes.
"""

import copy
import io
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout

import numpy as np
from scipy import stats

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import jsonschema  # noqa: E402
import symtest  # noqa: E402
import symtest.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 20240601
results = []


def case(name, run, corrupted):
    ck = checks.Checker()
    run(ck)
    ok = bool(ck.failures) == corrupted
    results.append(ok)
    verdict = ("rejected" if ck.failures else "passed")
    print("%-4s %-62s %s" % ("ok" if ok else "FAIL", name, verdict))
    if not ok and ck.failures:
        print("     " + ck.failures[0])


def corrupt(payload, path, fn):
    out = copy.deepcopy(payload)
    obj = out
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = fn(obj[path[-1]])
    return out


def bump(rel):
    return lambda v: v * (1.0 + rel)


def plus_one_df(dist):
    dist = dict(dist)
    for key in ("df", "df1", "dfs"):
        if key in dist:
            dist[key] = ([v + 1 for v in dist[key]] if key == "dfs" else dist[key] + 1)
            return dist
    raise KeyError("no df")


def move_weights(payload_weights, law, reps, face_dims):
    w = list(payload_weights)
    se = math.sqrt(law[face_dims[0]] * (1.0 - law[face_dims[0]]) / reps)
    w[0] += 10 * se
    w[1] -= 10 * se
    return w


def test_reports(workdir):
    manifest = workloads.cli_inputs(SEED, workdir)
    data = {k: workloads.read_csv(p) for k, p in manifest["datasets"].items()}
    for call in manifest["calls"]:
        if call["kind"] != "test":
            continue
        S, n1 = data[call["data"]]
        if call["log"]:
            w, V = np.linalg.eigh(S)
            S = np.einsum("nij,nj,nkj->nik", V, np.log(w), V)
        cfg = call["config"]
        reps = cfg.get("reps")
        res = symtest.run_config(cfg, S, n1=n1)
        good = checks.result_payload(res, S.shape[0], n1)
        label = call["label"]

        def check(payload, S=S, n1=n1, cfg=cfg, reps=reps):
            return lambda ck: checks.check_test_report(ck, "x", payload, cfg, S, n1, reps)

        case(label + ": correct report", check(good), False)
        case(label + ": statistic x (1 + 1e-6)",
             check(corrupt(good, ["statistic"], bump(1e-6))), True)
        case(label + ": df + 1", check(corrupt(good, ["distribution"], plus_one_df)), True)
        case(label + ": p-value x (1 + 1e-6)",
             check(corrupt(good, ["p_value"], bump(1e-6))), True)
        case(label + ": sigma2_hat x (1 + 1e-6)",
             check(corrupt(good, ["mle", "sigma2_hat"], bump(1e-6))), True)
        if cfg["test_id"] == "c2":
            law = workloads.exact_cone_weights(cfg["multiplicities"])
            dims = sorted(law)
            case(label + ": weights moved by 10 standard errors",
                 check(corrupt(good, ["distribution", "weights"],
                               lambda w: move_weights(w, law, reps, dims))), True)
        if call["argv"][0] == "test" and cfg["test_id"] != "c2":
            R = workloads.rotation(np.random.default_rng(1), S.shape[1])
            scale = checks.reference(cfg, S, n1)["scale"]
            calls = []

            def skewed(config, S_, n1=None):
                res_ = symtest.run_config(config, S_, n1=n1)
                calls.append(1)
                if len(calls) % 2 == 0:
                    res_.statistic *= 1.0 + 1e-6
                return res_

            case(label + ": rotated statistic x (1 + 1e-6)",
                 lambda ck: checks.check_equivariance(ck, "x", skewed, cfg, S, n1, R,
                                                      scale), True)
    # schema
    with open(os.path.join(SRC, "symtest", "schemas", "report.schema.json")) as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    call = next(c for c in manifest["calls"] if c["label"] == "test-s2")
    buf = io.StringIO()
    with redirect_stdout(buf):
        symtest.cli.main(call["argv"])
    report = json.loads(buf.getvalue())
    case("schema: CLI report", lambda ck: checks.check_schema(ck, "x", report, validator),
         False)
    case("schema: p_value 1.5", lambda ck: checks.check_schema(
        ck, "x", dict(report, p_value=1.5), validator), True)
    case("schema: unknown key", lambda ck: checks.check_schema(
        ck, "x", dict(report, extra=1), validator), True)


def test_calibrations():
    for call in (workloads.calibrate_affine(SEED)[1], workloads.calibrate_affine(SEED)[4],
                 workloads.calibrate_curved(SEED)[1]):
        two = "M1" in call["truth"]
        n = tuple(call["n"]) if two else call["n"]
        if not two and call["n"] > 500:
            n = 200     # keep the self-test quick; the checks do not depend on n
        rep = symtest.calibrate_null(call["config"], call["truth"], n, call["reps"],
                                     call["seed"])
        good = checks.calibration_payload(rep)
        label = "calibrate " + call["label"]

        def check(payload, call=call, n=n):
            return lambda ck: checks.check_calibration(ck, "x", payload, call["config"],
                                                       call["truth"], n)

        case(label + ": correct report", check(good), False)
        case(label + ": theoretical quantile x (1 + 1e-6)",
             check(corrupt(good, ["theoretical_quantiles"],
                           lambda q: [q[0], q[1] * (1 + 1e-6)] + list(q[2:]))), True)
        case(label + ": df + 1", check(corrupt(good, ["distribution"], plus_one_df)), True)
        case(label + ": KS distance 0.2",
             check(corrupt(good, ["ks_distance"], lambda v: 0.2)), True)
        case(label + ": rejection rate 0.12",
             check(corrupt(good, ["rejection_rate"], lambda v: 0.12)), True)
        case(label + ": statistics x (1 + 1e-6)",
             check(corrupt(good, ["statistics"], lambda x: x * (1 + 1e-6))), True)
        x = good["statistics"] * 1.3
        dist = good["distribution"]
        scaled = dict(good, statistics=x,
                      empirical_quantiles=list(np.quantile(x, good["quantile_probs"])),
                      ks_distance=stats.kstest(x, lambda v: checks.ref_cdf(dist, v)).statistic,
                      rejection_rate=float(np.mean([checks.ref_sf(dist, v) <= 0.05
                                                    for v in x])))
        case(label + ": consistent report of statistics x 1.3", check(scaled), True)
        if call["config"]["test_id"] == "c2":
            case(label + ": mixture weights moved by 0.01",
                 check(corrupt(good, ["distribution", "weights"],
                               lambda w: [w[0] + 0.01, w[1] - 0.01] + list(w[2:]))), True)


def test_cone_weights():
    law = workloads.exact_cone_weights([4])
    w = symtest.estimate_cone_weights([1.0, 1.0, 1.0, 1.0], workloads.CONE_REPS, SEED)
    good = np.asarray(w.weights)
    case("cone weights at (1,1,1,1) against 1/4, 11/24, 1/4, 1/24",
         lambda ck: checks.check_weights(ck, "x", good, law, workloads.CONE_REPS), False)
    bad = np.asarray(move_weights(good, law, workloads.CONE_REPS, sorted(law)))
    case("cone weights moved by 10 standard errors",
         lambda ck: checks.check_weights(ck, "x", bad, law, workloads.CONE_REPS), True)


def test_samples():
    M = np.diag([4.0, 2.0, 1.0])
    cov = symtest.CovParams(1.0, 0.1)
    S = symtest.sample(1000, M, cov, SEED)
    case("simulated sample against its model",
         lambda ck: checks.check_sample(ck, "x", S, M, 1.0, 0.1), False)
    case("simulated sample against sigma2 x 1.2",
         lambda ck: checks.check_sample(ck, "x", S, M, 1.2, 0.1), True)
    case("simulated sample against tau = -0.3",
         lambda ck: checks.check_sample(ck, "x", S, M, 1.0, -0.3), True)
    case("simulated sample against a mean moved by 0.3",
         lambda ck: checks.check_sample(ck, "x", S, M + 0.3 * np.eye(3), 1.0, 0.1), True)


def main():
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "work"))
    try:
        test_reports(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    test_calibrations()
    test_cone_weights()
    test_samples()
    bad = results.count(False)
    print("%d cases, %d wrong" % (len(results), bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
