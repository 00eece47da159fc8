"""Steadiness of the end-to-end metrics across seeds.

  python3 symbench/steady.py [--workloads W ...] [--seeds 1-10] [--seconds 20]

Runs run.py once per workload and seed, one run at a time, and prints
each metric's median, quartiles and quartile spread as a share of the
median (statistics.quantiles(values, n=4)), plus the failed share. The
BENCHMARK.json bounds were set from these spreads. Raw result lines are
appended to symbench/work/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                    choices=WORKLOADS)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    log = os.path.join(HERE, "work", "steady.jsonl")
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode,
                                                     proc.stderr[-2000:]))
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(res)
            with open(log, "a") as fh:
                fh.write(json.dumps(dict(res, workload=workload, seed=seed)) + "\n")
            print("%s seed %d: correct=%s %s" % (
                workload, seed, res["correct"],
                " ".join("%s=%.5g" % (k, v["value"]) for k, v in res["metrics"].items())),
                flush=True)
        if len(results) < 2:
            continue
        print("\n%s: %d runs, all correct: %s, failed shares: %s" % (
            workload, len(results), all(r["correct"] for r in results),
            sorted({r["failed"] / r["attempted"] for r in results})))
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print("  %-12s median %.6g  quartiles [%.6g, %.6g]  spread %.3f" % (
                name, med, q1, q3, (q3 - q1) / med))
        print(flush=True)


if __name__ == "__main__":
    main()
