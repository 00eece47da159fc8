"""symtest benchmark: one workload, one seed, one JSON line of metrics.

  python3 symbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the
checkout's src/symtest. Load is a closed loop with one client: calls run
one after another, in process on calibrate-*, as fresh `python -m
symtest.cli` processes on cli. A run repeats whole rounds of the
workload's fixed call list until S seconds have passed, then checks every
output (checks.py) and prints

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as its last line. --trace 0 reports the end-to-end metrics. --trace 1
times one plain round, then traces the layers (spans.py) for the rest of
the run and reports per-layer calls and self time per round.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUPS = 5           # fresh interpreters per run; setup_s is their median

# checks.py (scipy.stats, jsonschema) is imported only after the timed
# rounds, so that its modules do not count in peak_rss_mb.
import workloads  # noqa: E402
from spans import NAMES, Tracer  # noqa: E402


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_setup(workload, seed, workdir, env):
    """Set up SETUPS times in fresh interpreters; return times and imports."""
    times, imports = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "setup", workload,
             str(seed), workdir], env=env, cwd=ROOT, capture_output=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit("set-up failed:\n" + proc.stderr.decode(errors="replace"))
        with open(os.path.join(workdir, "manifest.json")) as fh:
            manifest = json.load(fh)
        imports.append(manifest.pop("import_s"))
    return times, imports, manifest


class ReplicateClock:
    """Timestamps the start of each Monte Carlo replicate.

    calibrate_null draws each replicate's sample(s) first, so a replicate
    runs from one replicate's first `sample` call to the next one's. The
    probe costs one clock read per call. When the call count does not
    match the replicate count, each replicate of that call is given the
    call's mean time instead.
    """

    def __init__(self, module):
        self.module = module
        self.orig = module.sample
        self.starts = []
        self.calls = 0
        self.per_rep = 1

    def _probe(self, *args, **kwargs):
        if self.calls % self.per_rep == 0:
            self.starts.append(time.perf_counter())
        self.calls += 1
        return self.orig(*args, **kwargs)

    def install(self):
        self.module.sample = self._probe

    def uninstall(self):
        self.module.sample = self.orig

    def reset(self, per_rep):
        self.starts, self.calls, self.per_rep = [], 0, per_rep

    def intervals(self, reps, total):
        if len(self.starts) == reps and self.calls == reps * self.per_rep:
            return np.diff(self.starts).tolist()
        return [total / reps] * reps


# ---------------------------------------------------------------------------
# one round of each workload kind

def calibrate_round(symtest, calls, clock):
    """Run every calibration once; return [(duration, report or None, intervals)]."""
    out = []
    for call in calls:
        two = "M1" in call["truth"]
        n = tuple(call["n"]) if two else call["n"]
        if clock:
            clock.reset(2 if two else 1)
        t0 = time.perf_counter()
        try:
            rep = symtest.calibrate_null(call["config"], call["truth"], n,
                                         call["reps"], call["seed"])
        except Exception as e:  # a failed operation is counted, not fatal
            print("%s failed: %r" % (call["label"], e), file=sys.stderr)
            rep = None
        dt = time.perf_counter() - t0
        ivals = clock.intervals(call["reps"], dt) if (clock and rep) else []
        out.append((dt, rep, ivals))
    return out


def cli_round(calls, env, workdir, traced):
    """Run every CLI call once; return [(duration, returncode, stdout, file, trace)]."""
    out = []
    for i, call in enumerate(calls):
        trace_path = os.path.join(workdir, "span_%d.json" % i)
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli", trace_path]
        else:
            cmd = [sys.executable, "-m", "symtest.cli"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + call["argv"], env=env, cwd=ROOT,
                              capture_output=True)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            print("%s exited %d: %s" % (call["label"], proc.returncode,
                                        proc.stderr.decode(errors="replace")[-500:]),
                  file=sys.stderr)
        written = None
        if call["kind"] == "simulate" and os.path.exists(call["out"]):
            with open(call["out"], "rb") as fh:
                written = fh.read()
            os.remove(call["out"])
        span = None
        if traced and os.path.exists(trace_path):
            with open(trace_path) as fh:
                span = json.load(fh)
            os.remove(trace_path)
        out.append((dt, proc.returncode, proc.stdout, written, span))
    return out


# ---------------------------------------------------------------------------
# checks of a whole run

def check_calibrate(workload, seed, calls, rounds, symtest):
    import checks
    ck = checks.Checker()
    first = {}
    for rnd in rounds:
        for call, (_, rep, _) in zip(calls, rnd):
            if rep is None:
                continue
            payload = checks.calibration_payload(rep)
            label = call["label"]
            if label not in first:
                first[label] = payload
                n = tuple(call["n"]) if "M1" in call["truth"] else call["n"]
                checks.check_calibration(ck, label, payload, call["config"],
                                         call["truth"], n)
            else:
                ref = first[label]
                same = all(np.array_equal(payload[k], ref[k]) if k == "statistics"
                           else payload[k] == ref[k] for k in ref)
                ck.expect(same, "%s: report differs between rounds" % label)
    # statistics recomputed on samples the benchmark draws itself
    for i, call in enumerate(calls):
        rng = workloads.rng_for(seed, workload, stream=100 + i)
        truth = call["truth"]
        sigma2, tau = truth["sigma2"], truth["tau"]
        if "M1" in truth:
            n1, n2 = call["n"]
            S = np.concatenate([workloads.draw(rng, n1, truth["M1"], sigma2, tau),
                                workloads.draw(rng, n2, truth["M2"], sigma2, tau)])
        else:
            n1 = None
            S = workloads.draw(rng, call["n"], truth["M"], sigma2, tau)
        check_result(ck, symtest, call["label"], call["config"], S, n1, rng)
    return ck


def check_result(ck, symtest, label, config, S, n1, rng):
    import checks
    res = symtest.run_config(config, S, n1=n1)
    ref = checks.check_test_report(ck, label + " (own sample)",
                                   checks.result_payload(res, S.shape[0], n1),
                                   config, S, n1)
    R = workloads.rotation(rng, S.shape[1])
    checks.check_equivariance(ck, label, symtest.run_config, config, S, n1, R,
                              ref["scale"])


def log_data(S):
    w, V = np.linalg.eigh(S)
    return np.einsum("nij,nj,nkj->nik", V, np.log(w), V)


def check_cli(seed, manifest, rounds, symtest):
    import jsonschema
    import checks
    ck = checks.Checker()
    with open(os.path.join(SRC, "symtest", "schemas", "report.schema.json")) as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    data = {k: workloads.read_csv(path) for k, path in manifest["datasets"].items()}
    calls = manifest["calls"]
    first = {}
    for rnd in rounds:
        for call, (_, rc, stdout, written, _) in zip(calls, rnd):
            if rc != 0:
                continue
            label = call["label"]
            if label in first:
                ck.expect((stdout, written) == first[label],
                          "%s: output differs between rounds" % label)
                continue
            first[label] = (stdout, written)
            check_cli_output(ck, checks, validator, call, stdout, written, data)
    # rotation equivariance of the tests the CLI ran, on the same data
    rng = workloads.rng_for(seed, "cli", stream=100)
    for call in calls:
        if call["argv"][0] != "test":
            continue
        S, n1 = data[call["data"]]
        if call["log"]:
            S = log_data(S)
        config = dict(call["config"])
        if config["test_id"] == "c2":
            # the statistic does not depend on the weights: skip their simulation
            law = workloads.exact_cone_weights(config.pop("multiplicities"))
            config["weights"] = {"face_dims": sorted(law),
                                 "weights": [law[k] for k in sorted(law)]}
        scale = checks.reference(config, S, n1)["scale"]
        checks.check_equivariance(ck, call["label"], symtest.run_config, config,
                                  S, n1, workloads.rotation(rng, S.shape[1]), scale)
    return ck


def check_cli_output(ck, checks, validator, call, stdout, written, data):
    label, kind = call["label"], call["kind"]
    if kind == "simulate":
        ck.expect(stdout == b"" and written, "%s: no dataset written" % label)
        S, n1 = workloads.parse_csv((written or b"p=1,group\n").decode())
        truth = call["truth"]
        if "M1" in truth:
            ck.expect(n1 == truth["n1"] and len(S) == truth["n1"] + truth["n2"],
                      "%s: group sizes" % label)
            parts = ((S[:n1], truth["M1"]), (S[n1:], truth["M2"]))
        else:
            ck.expect(n1 is None and len(S) == truth["n"], "%s: sample size" % label)
            parts = ((S, truth["M"]),)
        for g, (Sg, M) in enumerate(parts):
            checks.check_sample(ck, "%s group %d" % (label, g + 1), Sg, M,
                                truth["sigma2"], truth["tau"])
        return
    try:
        report = json.loads(stdout)
    except ValueError:
        ck.expect(False, "%s: output is not JSON" % label)
        return
    if kind == "test":
        checks.check_schema(ck, label, report, validator)
        S, n1 = data[call["data"]]
        checks.check_test_report(ck, label, report, call["config"],
                                 log_data(S) if call["log"] else S, n1,
                                 call["config"].get("reps"))
        ck.expect(report.get("seed") == call["config"].get("seed"),
                  "%s: seed %r" % (label, report.get("seed")))
        ck.expect("timestamp" not in report, "%s: timestamp with --no-timestamp" % label)
    elif kind == "cone-weights":
        cfg = call["config"]
        d = cfg["d_true"]
        ties = [len(list(run)) for _, run in itertools.groupby(d)]
        ck.expect(report.get("d_true") == d and report.get("reps") == cfg["reps"]
                  and report.get("seed") == cfg["seed"]
                  and report.get("face_dims") == list(range(1, len(d) + 1)),
                  "%s: fields %r" % (label, {k: report.get(k) for k in
                                             ("d_true", "reps", "seed", "face_dims")}))
        w = np.asarray(report.get("weights"), dtype=float)
        ck.expect(w.shape == (len(d),) and abs(w.sum() - 1.0) < 1e-12,
                  "%s: weights %r" % (label, report.get("weights")))
        if w.shape == (len(d),):
            law = workloads.exact_cone_weights(ties)
            checks.check_weights(ck, label, w[[k - 1 for k in sorted(law)]], law,
                                 cfg["reps"])
    elif kind == "calibrate":
        cfg = call["config"]
        ck.expect(report.get("reps") == cfg["reps"] and report.get("seed") == cfg["seed"],
                  "%s: reps/seed" % label)
        checks.check_calibration(ck, label, report, cfg["test"], cfg["truth"], cfg["n"])


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symtest", "__init__.py")):
        print("error: %s/symtest not found; run from the root of a symtest "
              "checkout" % SRC, file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=WORK)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    env = child_env()
    setup_times, import_times, manifest = run_setup(args.workload, args.seed,
                                                    workdir, env)
    sys.path.insert(0, SRC)
    import symtest
    import symtest.calibrate
    if not os.path.abspath(symtest.__file__).startswith(SRC + os.sep):
        raise SystemExit("imported symtest from %s, not from %s" % (symtest.__file__, SRC))
    calls = manifest["calls"]
    is_cli = args.workload == "cli"
    tracer = Tracer() if args.trace else None
    clock = None if (is_cli or args.trace) else ReplicateClock(symtest.calibrate)

    def one_round(traced):
        if is_cli:
            return cli_round(calls, env, workdir, traced)
        return calibrate_round(symtest, calls, clock)

    rounds, traced_flags = [], []
    start = time.perf_counter()
    if args.trace:
        rounds.append(one_round(False))
        traced_flags.append(False)
        if not is_cli:
            tracer.install()
    elif clock:
        clock.install()
    try:
        while True:
            rounds.append(one_round(bool(args.trace)))
            traced_flags.append(bool(args.trace))
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        if clock:
            clock.uninstall()
    peak_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    if is_cli:
        ck = check_cli(args.seed, manifest, rounds, symtest)
        per_call = [1] * len(calls)
        ok = [[r[1] == 0 for r in rnd] for rnd in rounds]
    else:
        ck = check_calibrate(args.workload, args.seed, calls, rounds, symtest)
        per_call = [c["reps"] for c in calls]
        ok = [[r[1] is not None for r in rnd] for rnd in rounds]
    import checks
    ck.expect(ck.stat_checks <= checks.MAX_STAT_CHECKS,
              "%d statistical checks exceed the family-wise budget" % ck.stat_checks)
    attempted = sum(per_call) * len(rounds)
    failed = sum(w for row in ok for w, good in zip(per_call, row) if not good)
    for msg in ck.failures[:20]:
        print("check failed: " + msg, file=sys.stderr)

    busy = [sum(r[0] for r in rnd) for rnd in rounds]
    if not args.trace:
        if is_cli:
            op_p50 = statistics.median(r[0] for rnd in rounds for r in rnd if r[1] == 0)
            peak_kb = peak_children
        else:
            # Replicate times cluster by test type, so the median of the
            # pooled mix sits between two clusters and jumps with small
            # shifts; take each call's median and average over the calls.
            per_call_ivals = [[v for rnd in rounds for v in rnd[i][2]]
                              for i in range(len(calls))]
            op_p50 = statistics.fmean(statistics.median(v) for v in per_call_ivals if v)
            peak_kb = peak_self
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": ((attempted - failed) / sum(busy), "1/s"),
            "op_p50_s": (op_p50, "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        with open(os.path.join(WORK, "times-%s-seed%d.json"
                               % (args.workload, args.seed)), "w") as fh:
            json.dump({"labels": [c["label"] for c in calls], "setup_s": setup_times,
                       "call_s": [[r[0] for r in rnd] for rnd in rounds]}, fh)
    else:
        traced_rounds = [rnd for rnd, t in zip(rounds, traced_flags) if t]
        if is_cli:
            spans = [r[4] for rnd in traced_rounds for r in rnd if r[4]]
            for span in spans:
                tracer.merge(span)
            import_times = [span["import_s"] for span in spans]
        k = len(traced_rounds)
        metrics = {}
        for name in NAMES:
            metrics[name + ".calls"] = (tracer.calls.get(name, 0) / k, "count")
            metrics[name + ".self_s"] = (tracer.self_s.get(name, 0.0) / k, "s")
        traced_ops = sum(per_call) * k
        metrics["cli.import_s"] = (statistics.median(import_times), "s")
        metrics["symcore.eigh_desc.calls_per_op"] = (
            tracer.calls.get("symcore.eigh_desc", 0) / traced_ops, "count/op")
        metrics["trace.overhead_pct"] = (100.0 * (busy[1] / busy[0] - 1.0), "%")
        out = tracer.to_json()
        out.update(workload=args.workload, seed=args.seed, traced_rounds=k,
                   round_s=busy)
        with open(os.path.join(WORK, "trace-%s-seed%d.json"
                               % (args.workload, args.seed)), "w") as fh:
            json.dump(out, fh, indent=1)
    result = {"correct": not ck.failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
