"""Null calibration harness and the command-line round trip.

calibrate_null simulates a test at a truth inside its null set and
compares the statistic with the declared reference: empirical quantiles,
a Kolmogorov-Smirnov distance, and the rejection rate at alpha = 0.05.
The CLI wraps the same machinery behind CSV datasets and JSON reports.
"""

import json
import pathlib
import tempfile

from symtest.calibrate import calibrate_null, consistency_study
from symtest.cli import main

config = {"test_id": "s2", "D0": [4.0, 2.0, 1.0],
          "multiplicities": [1, 1, 1], "cov": {"estimate": True}}
truth = {"M": [[4.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
         "sigma2": 1.0, "tau": 0.2}
rep = calibrate_null(config, truth, n=200, reps=2000, seed=21)
print("s2 calibration at n = 200 (%d replicates): %s" % (rep.reps, rep.dist))
for pr, emp, theo in zip(rep.quantile_probs, rep.empirical_quantiles,
                         rep.theoretical_quantiles):
    print("  q%.2d empirical %7.3f  theoretical %7.3f" % (100 * pr, emp, theo))
print("  KS %.4f, rejection at 0.05: %.4f" % (rep.ks_distance,
                                              rep.rejection_rate))

rows = consistency_study("tau", truth, [100, 1000, 10_000], reps=50, seed=22)
print("\ntau estimator error by sample size:")
for row in rows:
    print("  n %6d  rmse %.4f  bias %+.4f" % (row["n"], row["rmse"],
                                              row["bias"]))

print("\n--- CLI round trip ---")
with tempfile.TemporaryDirectory() as tmpdir:
    tmp = pathlib.Path(tmpdir)
    (tmp / "sim.json").write_text(json.dumps({
        "M": truth["M"], "n": 80, "sigma2": 1.0, "tau": 0.2, "seed": 5}))
    (tmp / "test.json").write_text(json.dumps(config))
    main(["simulate", "--config", str(tmp / "sim.json"),
          "--out", str(tmp / "data.csv")])
    print("wrote %s (header: %s)" % (tmp / "data.csv",
                                     (tmp / "data.csv").read_text()
                                     .splitlines()[0]))
    print("\nreport for `symtest test` on that dataset:")
    main(["test", "--data", str(tmp / "data.csv"),
          "--config", str(tmp / "test.json"), "--no-timestamp"])
