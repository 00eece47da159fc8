"""Checks for the Monte Carlo harness.

Cone weights are compared against exact exchangeability probabilities
(the pooling pattern of i.i.d. Gaussian noise follows the unsigned
Stirling numbers of the first kind), calibration reports against the
exact chi-square null, and consistency tables against root-n rates and
the eigenvector perturbation variance law.
"""

import math
import re

import numpy as np
import pytest

from symtest.calibrate import (
    CalibrationReport,
    ConeWeights,
    _draws,
    calibrate_null,
    cone_boundary_law,
    consistency_study,
    estimate_cone_weights,
)
import symtest.lrt as lrt
from symtest.matnormal import SuffStats, sample
from symtest.lrt import ChiSq, ChiSqApprox, ChiSqMix, FDist
from symtest.symcore import CovParams, Multiplicities

# Unsigned Stirling numbers of the first kind give P(k distinct pooled
# values) = |s(p, k)| / p! for i.i.d. continuous noise about a constant
# vector: (1/3, 1/2, 1/6) for p = 3 and dims (1, 2, 3).
STIRLING3 = {1: 1.0 / 3.0, 2: 1.0 / 2.0, 3: 1.0 / 6.0}


def binom_se(w, reps):
    return np.sqrt(w * (1.0 - w) / reps)


class TestConeWeightsType:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ConeWeights(d_true=(0.0,), face_dims=(1,), weights=(0.9,), reps=10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ConeWeights(d_true=(0.0, 0.0), face_dims=(1, 2),
                        weights=(1.5, -0.5), reps=10)

    def test_weight_for_dim(self):
        w = ConeWeights(d_true=(0.0, 0.0), face_dims=(1, 2),
                        weights=(0.25, 0.75), reps=10)
        assert w.weight_for_dim(2) == 0.75
        assert w.weight_for_dim(5) == 0.0


class TestEstimateConeWeights:
    def test_isotropic_p3_matches_exchangeability(self):
        w = estimate_cone_weights((0.0, 0.0, 0.0), 100_000, 42)
        assert w.face_dims == (1, 2, 3)
        for dim, want in STIRLING3.items():
            assert w.weight_for_dim(dim) == pytest.approx(want, abs=0.01)

    def test_one_large_gap_splits_half_half(self):
        # d1 far above a tied pair: the pair pools with probability 1/2
        # and the top value never joins it.
        w = estimate_cone_weights((10.0, 0.0, 0.0), 100_000, 43)
        assert w.weight_for_dim(1) == pytest.approx(0.0, abs=1e-4)
        assert w.weight_for_dim(2) == pytest.approx(0.5, abs=0.01)
        assert w.weight_for_dim(3) == pytest.approx(0.5, abs=0.01)

    def test_separated_values_rarely_pool(self):
        # Gaps of 5 against unit noise pool with probability about 2e-4
        # per adjacent pair, so nearly all mass sits on dimension 3.
        w = estimate_cone_weights((10.0, 5.0, 0.0), 20_000, 44)
        assert w.weight_for_dim(3) > 0.99

    def test_deterministic_given_seed(self):
        a = estimate_cone_weights((1.0, 0.0), 5000, 7)
        b = estimate_cone_weights((1.0, 0.0), 5000, 7)
        assert a.weights == b.weights
        assert a.face_dims == b.face_dims

    def test_shift_invariant_exactly(self):
        # Adding a constant shifts every draw and leaves the pooling
        # pattern untouched, so the tally is identical bit for bit.
        a = estimate_cone_weights((1.0, 0.0, 0.0), 5000, 11)
        b = estimate_cone_weights((8.5, 7.5, 7.5), 5000, 11)
        assert a.weights == b.weights

    def test_shift_invariant_across_seeds(self):
        reps = 40_000
        a = estimate_cone_weights((1.0, 0.0, 0.0), reps, 12)
        b = estimate_cone_weights((4.0, 3.0, 3.0), reps, 13)
        for dim in (1, 2, 3):
            se = binom_se(max(a.weight_for_dim(dim), 1e-3), reps)
            diff = abs(a.weight_for_dim(dim) - b.weight_for_dim(dim))
            assert diff < 2.0 * np.sqrt(2.0) * se + 1e-3

    @pytest.mark.parametrize("d_true,m", [
        ((0.0, 0.0, 0.0, 0.0), (4,)),
        ((50.0, 50.0, 0.0, 0.0), (2, 2)),
        ((90.0, 90.0, 90.0, 45.0, 0.0, 0.0), (3, 1, 2)),
    ])
    def test_separated_ties_match_exact_law(self, d_true, m):
        # blocks far apart pool independently, each by the |s(m, l)|/m! law
        reps = 40_000
        w = estimate_cone_weights(d_true, reps, 45)
        dims, law = lrt._exact_cone_law(Multiplicities(m))
        # no mass below face k: separated blocks never pool with each other
        assert sum(w.weight_for_dim(k) for k in dims) == pytest.approx(1.0, abs=1e-12)
        for k, want in zip(dims, law):
            assert abs(w.weight_for_dim(k) - want) < 4.0 * binom_se(want, reps)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            estimate_cone_weights((0.0, 1.0), 100, 0)

    def test_rejects_empty_and_bad_reps(self):
        with pytest.raises(ValueError, match="nonempty"):
            estimate_cone_weights((), 100, 0)
        with pytest.raises(ValueError, match="positive"):
            estimate_cone_weights((1.0, 0.0), 0, 0)

    @pytest.mark.parametrize("d_true", [(np.nan, 1.0), (np.inf, 1.0),
                                        (1.0, -np.inf)])
    def test_rejects_non_finite(self, d_true):
        with pytest.raises(ValueError, match="finite"):
            estimate_cone_weights(d_true, 100, 0)


class TestCalibrateNull:
    def test_finite_far_below_zero_tau(self):
        # known covariance with tau = -1e17 at p = 2, where 1/(1 - p tau)
        # is below rounding against 1
        cov = {"sigma2": 0.2, "tau": -1e17}
        config = {"test_id": "a1", "U0": np.eye(2).tolist(),
                  "M0": np.eye(2).tolist(), "cov": {"known": cov}}
        rep = calibrate_null(config, dict(cov, M=np.eye(2).tolist()), 5, 1000, 3)
        assert np.all(np.isfinite(rep.statistics))
        assert 0.0 <= rep.rejection_rate <= 1.0

    def test_exact_chi2_null_is_calibrated(self):
        # Known covariance makes the point-vs-unrestricted statistic an
        # exact chi-square at any n, so a 2000-rep run must sit inside
        # the 3 sigma binomial band around 0.05.
        config = {"test_id": "a0", "M0": [[1.0, 0.3], [0.3, 2.0]],
                  "cov": {"known": {"sigma2": 1.0, "tau": 0.25}}}
        truth = {"M": [[1.0, 0.3], [0.3, 2.0]], "sigma2": 1.0, "tau": 0.25}
        rep = calibrate_null(config, truth, n=10, reps=2000, seed=5)
        assert rep.dist == ChiSq(3)
        band = 3.0 * binom_se(0.05, 2000)
        assert abs(rep.rejection_rate - 0.05) < band
        assert rep.ks_distance < 1.63 / np.sqrt(2000)
        for emp, theo in zip(rep.empirical_quantiles,
                             rep.theoretical_quantiles):
            assert emp == pytest.approx(theo, rel=0.15)

    @pytest.mark.parametrize("config,groups,n", [
        ({"test_id": "s2", "D0": [2.0, 2.0, 2.0], "multiplicities": [3]}, 1, 5),
        ({"test_id": "s3", "multiplicities": [3]}, 1, 5),
        ({"test_id": "2s1", "multiplicities": [3]}, 2, (4, 6)),
    ], ids=["s2", "s3", "2s1"])
    def test_fully_tied_reference_is_exact(self, config, groups, n):
        # A fully tied spectrum makes both sets affine, so with a known
        # covariance the statistic is exactly chi-square at any n: the KS
        # distance of 20 000 replicates sits below its 95% critical value
        # and a single run carries no asymptotic note.
        cov = {"sigma2": 1.0, "tau": 0.1}
        config = dict(config, cov={"known": cov})
        M = (2.0 * np.eye(3)).tolist()
        truth = dict(cov, **({"M": M} if groups == 1 else {"M1": M, "M2": M}))
        rep = calibrate_null(config, truth, n, 20_000, 11)
        assert type(rep.dist) is ChiSq
        assert rep.ks_distance < 1.36 / math.sqrt(20_000)
        sizes = n if groups == 2 else (n,)
        S = np.concatenate([sample(k, np.array(M), CovParams(1.0, 0.1), 12 + i)
                            for i, k in enumerate(sizes)])
        res = lrt.run_config(config, S, n1=sizes[0] if groups == 2 else None)
        assert res.dist == rep.dist and res.warnings == ()

    def test_report_fields(self):
        config = {"test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
                  "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}}
        truth = {"M": [[0.0, 0.0], [0.0, 0.0]], "sigma2": 1.0, "tau": 0.0}
        rep = calibrate_null(config, truth, n=4, reps=1000, seed=1)
        assert isinstance(rep, CalibrationReport)
        assert rep.test_id == "a0"
        assert rep.reps == 1000 and rep.n == 4
        assert rep.n1 is None and rep.n2 is None
        assert rep.quantile_probs == (0.5, 0.9, 0.95, 0.99)
        assert rep.alpha == 0.05
        assert 0.0 <= rep.rejection_rate <= 1.0
        assert rep.statistics.shape == (1000,)
        assert np.all(np.diff(rep.statistics) >= 0.0)

    def test_bit_reproducible(self):
        config = {"test_id": "a1", "M0": [[2.0, 0.0], [0.0, 1.0]],
                  "U0": [[1.0, 0.0], [0.0, 1.0]],
                  "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}}
        truth = {"M": [[2.0, 0.0], [0.0, 1.0]], "sigma2": 1.0, "tau": 0.0}
        a = calibrate_null(config, truth, n=6, reps=1000, seed=9)
        b = calibrate_null(config, truth, n=6, reps=1000, seed=9)
        assert np.array_equal(a.statistics, b.statistics)
        assert a.rejection_rate == b.rejection_rate
        assert a.ks_distance == b.ks_distance
        assert a.empirical_quantiles == b.empirical_quantiles
        c = calibrate_null(config, truth, n=6, reps=1000, seed=10)
        assert not np.array_equal(a.statistics, c.statistics)

    def test_two_sample_path(self):
        config = {"test_id": "2a0",
                  "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}}
        M = [[1.0, 0.2], [0.2, 0.5]]
        truth = {"M1": M, "M2": M, "sigma2": 1.0, "tau": 0.0}
        rep = calibrate_null(config, truth, n=(5, 7), reps=1000, seed=21)
        assert rep.n == 12 and rep.n1 == 5 and rep.n2 == 7
        assert rep.dist == ChiSq(3)
        assert abs(rep.rejection_rate - 0.05) < 3.0 * binom_se(0.05, 1000)

    def test_cone_weights_estimated_once(self):
        # Without explicit weights the c2 run estimates them up front;
        # a separated spectrum leaves a single full-dimension component.
        config = {"test_id": "c2", "U0": [[1.0, 0.0], [0.0, 1.0]],
                  "multiplicities": [1, 1], "reps": 20_000, "seed": 3,
                  "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}}
        truth = {"M": [[3.0, 0.0], [0.0, 1.0]], "sigma2": 1.0, "tau": 0.0}
        rep = calibrate_null(config, truth, n=20, reps=1000, seed=30)
        assert isinstance(rep.dist, ChiSqMix)
        assert rep.dist.weights == (1.0,)
        assert rep.dist.dfs == (1.0,)
        assert abs(rep.rejection_rate - 0.05) < 3.0 * binom_se(0.05, 1000)

    def test_point_mass_reference(self):
        # s3 with all multiplicities 1 has df 0: every statistic is 0, as
        # the point-mass reference says, so KS distance and quantiles are 0
        config = {"test_id": "s3", "multiplicities": [1, 1, 1],
                  "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}}
        truth = {"M": np.diag([3.0, 2.0, 1.0]).tolist(), "sigma2": 1.0,
                 "tau": 0.0}
        rep = calibrate_null(config, truth, n=50, reps=1000, seed=31)
        assert rep.dist == ChiSqApprox(0)
        assert np.all(rep.statistics == 0.0)
        assert rep.ks_distance == 0.0
        assert rep.theoretical_quantiles == (0.0, 0.0, 0.0, 0.0)
        assert rep.rejection_rate == 0.0

    @pytest.mark.parametrize("n,reps", [(50.9, 1000), ((4, 4.5), 1000),
                                        (True, 1000), (8, 1000.7)])
    def test_rejects_non_integral_counts(self, n, reps):
        two = isinstance(n, tuple)
        config = {"test_id": "2a0" if two else "a0", "M0": np.eye(2).tolist()}
        M = np.eye(2).tolist()
        truth = dict({"M1": M, "M2": M} if two else {"M": M},
                     sigma2=1.0, tau=0.0)
        with pytest.raises(ValueError, match="must be an integer"):
            calibrate_null(config, truth, n=n, reps=reps, seed=0)

    def test_rejects_small_reps(self):
        config = {"test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
                  "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}}
        truth = {"M": [[0.0, 0.0], [0.0, 0.0]], "sigma2": 1.0, "tau": 0.0}
        with pytest.raises(ValueError, match="reps >= 1000"):
            calibrate_null(config, truth, n=4, reps=999, seed=0)

    def test_rejects_truth_outside_null(self):
        config = {"test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
                  "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}}
        truth = {"M": [[1.0, 0.0], [0.0, 0.0]], "sigma2": 1.0, "tau": 0.0}
        with pytest.raises(ValueError, match="not in the null set"):
            calibrate_null(config, truth, n=4, reps=1000, seed=0)

    def test_rejects_two_sample_truth_outside_null(self):
        config = {"test_id": "2a0",
                  "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}}
        truth = {"M1": [[1.0, 0.0], [0.0, 0.0]],
                 "M2": [[0.0, 0.0], [0.0, 0.0]], "sigma2": 1.0, "tau": 0.0}
        with pytest.raises(ValueError, match="not in the null set"):
            calibrate_null(config, truth, n=(4, 4), reps=1000, seed=0)

    def test_estimated_cov_uses_f_reference(self):
        config = {"test_id": "a0", "M0": [[1.0, 0.0], [0.0, 1.0]],
                  "cov": {"estimate": True}}
        truth = {"M": [[1.0, 0.0], [0.0, 1.0]], "sigma2": 2.0, "tau": 0.2}
        rep = calibrate_null(config, truth, n=8, reps=1000, seed=17)
        assert rep.dist == FDist(3, 21)
        assert abs(rep.rejection_rate - 0.05) < 3.0 * binom_se(0.05, 1000)

    def test_eigendecompositions_per_calibration(self, monkeypatch):
        # s1's sets are built once, which decomposes M0 to check its
        # spectrum; each chunk of at most 1024 replicates then decomposes
        # its stack of sample means in one call
        import sys
        from symtest.symcore import eigh_desc
        calls = []

        def counted(X):
            calls.append(None)
            return eigh_desc(X)

        for name, module in list(sys.modules.items()):
            if (name.startswith("symtest.")
                    and getattr(module, "eigh_desc", None) is eigh_desc):
                monkeypatch.setattr(module, "eigh_desc", counted)
        M = np.diag([3.0, 2.0, 1.0]).tolist()
        config = {"test_id": "s1", "M0": M, "D0": [3.0, 2.0, 1.0],
                  "multiplicities": [1, 1, 1],
                  "cov": {"known": {"sigma2": 1.0, "tau": 0.1}}}
        calibrate_null(config, {"M": M, "sigma2": 1.0, "tau": 0.1}, n=50,
                       reps=2500, seed=18)
        assert len(calls) == 1 + 3


class TestDirectDraw:
    # A replicate drawn as its sufficient statistics must give statistics
    # with the same law as one reduced from a full sample: two-sample KS
    # at level 0.001 on 2000 replicates each, at a fixed seed. a0 at
    # n = 5 has a singular scatter (n - 1 < q = 6); cov-check draws the
    # scatter's log-determinant from its Bartlett chi-squares.
    RUNS = [
        ({"test_id": "a0", "M0": np.diag([3.0, 2.0, 1.0]).tolist(),
          "cov": {"estimate": True}},
         {"M": np.diag([3.0, 2.0, 1.0]).tolist()}, 5),
        ({"test_id": "s2", "D0": [3.0, 2.0, 1.0], "multiplicities": [1, 1, 1],
          "cov": {"estimate": True}},
         {"M": np.diag([3.0, 2.0, 1.0]).tolist()}, 30),
        ({"test_id": "2s1", "multiplicities": [1, 1, 1],
          "cov": {"estimate": True}},
         {"M1": np.diag([3.0, 2.0, 1.0]).tolist(),
          "M2": [[2.5, 0.5, 0.0], [0.5, 2.5, 0.0], [0.0, 0.0, 1.0]]}, (15, 20)),
        ({"test_id": "cov-check"}, {"M": np.diag([3.0, 2.0, 1.0]).tolist()}, 30),
    ]

    @pytest.mark.parametrize("config,truth,n", RUNS,
                             ids=[r[0]["test_id"] for r in RUNS])
    def test_statistics_agree_in_law(self, config, truth, n):
        from scipy.stats import ks_2samp
        reps, cov = 2000, CovParams(1.0, 0.2)
        direct = calibrate_null(config, dict(truth, sigma2=1.0, tau=0.2), n,
                                reps, 71).statistics
        means = [truth[k] for k in ("M1", "M2") if k in truth] or [truth["M"]]
        sizes = n if isinstance(n, tuple) else (n,)
        reduced = np.empty(reps)
        for rep in range(reps):
            ss = np.random.SeedSequence(72, spawn_key=(rep,))
            S = np.concatenate([sample(k, M, cov, s) for k, M, s in zip(
                sizes, means, ss.spawn(len(sizes)))])
            reduced[rep] = lrt.run_config(
                config, S, sizes[0] if len(sizes) == 2 else None).statistic
        assert ks_2samp(direct, reduced).pvalue > 0.001

    @pytest.mark.parametrize("tau", [-0.5, 0.0, 0.25])
    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_variance_components_follow_their_laws(self, n, tau):
        # a/v1 ~ chi2(n - 1) and b/v2 ~ chi2((q - 1)(n - 1)) at p = 3,
        # v1 = sigma2/(1 - p tau) and v2 = sigma2, both as the chunk drawer
        # draws them (2000 replicates, two chunks) and as from_sample
        # reduces full samples: one-sample KS at level 0.001 each
        from scipy.stats import chi2, kstest
        reps, cov, M = 2000, CovParams(1.5, tau), np.diag([3.0, 2.0, 1.0])
        v1, v2 = cov.sigma2 / (1.0 - 3.0 * tau), cov.sigma2
        drawn = [s for chunk in _draws((M,), (n,), cov, reps, 73)
                 for s in chunk.replicates()]
        reduced = [SuffStats.from_sample(sample(
            n, M, cov, np.random.SeedSequence(74, spawn_key=(rep,))))
            for rep in range(reps)]
        for stats in (drawn, reduced):
            a = np.array([s.a[0] for s in stats]) / v1
            b = np.array([s.b[0] for s in stats]) / v2
            assert kstest(a, chi2(n - 1).cdf).pvalue > 0.001
            assert kstest(b, chi2(5 * (n - 1)).cdf).pvalue > 0.001

    @pytest.mark.parametrize("tau", [-0.5, 0.25])
    @pytest.mark.parametrize("n", [7, 30])
    def test_bartlett_draw_follows_the_scatter_laws(self, n, tau):
        # cov-check's draw at p = 3 (q = 6 < n): a and b keep their
        # chi-square laws, and log|W/n| has the law of from_sample's on
        # full samples (two-sample KS); 2000 replicates, level 0.001 each
        from scipy.stats import chi2, kstest, ks_2samp
        reps, cov, M = 2000, CovParams(1.5, tau), np.diag([3.0, 2.0, 1.0])
        v1, v2 = cov.sigma2 / (1.0 - 3.0 * tau), cov.sigma2
        drawn = [s for chunk in _draws((M,), (n,), cov, reps, 75, scatter=True)
                 for s in chunk.replicates()]
        reduced = [SuffStats.from_sample(sample(
            n, M, cov, np.random.SeedSequence(76, spawn_key=(rep,))))
            for rep in range(reps)]
        a = np.array([s.a[0] for s in drawn]) / v1
        b = np.array([s.b[0] for s in drawn]) / v2
        assert kstest(a, chi2(n - 1).cdf).pvalue > 0.001
        assert kstest(b, chi2(5 * (n - 1)).cdf).pvalue > 0.001
        assert ks_2samp([s.logdet[0] for s in drawn],
                        [s.logdet[0] for s in reduced]).pvalue > 0.001


class TestConsistencyStudy:
    def test_mean_rmse_scales_as_root_n(self):
        truth = {"M": [[1.0, 0.5], [0.5, -0.3]], "sigma2": 1.0, "tau": 0.2}
        rows = consistency_study("mean", truth, [50, 200, 800], 400, 101)
        assert [r["n"] for r in rows] == [50, 200, 800]
        scaled = [r["rmse"] * np.sqrt(r["n"]) for r in rows]
        assert rows[0]["rmse"] > rows[1]["rmse"] > rows[2]["rmse"]
        assert max(scaled) / min(scaled) < 1.1

    def test_sigma2_rmse_decreases(self):
        truth = {"M": [[2.0, 0.0], [0.0, 1.0]], "sigma2": 1.5, "tau": 0.0}
        rows = consistency_study("sigma2", truth, [40, 640], 200, 102)
        assert rows[0]["rmse"] > rows[1]["rmse"]
        assert abs(rows[1]["bias"]) < 4.0 * rows[1]["rmse"] / np.sqrt(200)

    def test_tau_bias_vanishes(self):
        truth = {"M": [[1.0, 0.0], [0.0, 0.0]], "sigma2": 1.0, "tau": 0.2}
        rows = consistency_study("tau", truth, [10_000], 100, 103)
        assert abs(rows[0]["bias"]) < 0.01

    def test_pooled_estimators_converge(self):
        M = [[2.0, 0.7], [0.7, 0.5]]
        truth = {"M1": M, "M2": M, "sigma2": 1.2, "tau": -0.5}
        for est in ("pooled_sigma2", "pooled_tau"):
            rows = consistency_study(est, truth, [100, 1600], 80, 104)
            assert rows[0]["rmse"] > rows[1]["rmse"]
            assert abs(rows[1]["bias"]) < 0.05

    def test_eigvec_variance_law(self):
        # Predicted var(sqrt(n) a_12) is sigma2 / (2 (d1 - d2)^2) = 1/8
        # for d = (3, 1); the empirical variance must land within 10%.
        truth = {"M": [[3.0, 0.0], [0.0, 1.0]], "sigma2": 1.0, "tau": 0.0}
        rows = consistency_study("eigvec_var", truth, [200], 2000, 105)
        (i, j, emp, pred), = rows[0]["pairs"]
        assert (i, j) == (0, 1)
        assert pred == pytest.approx(0.125, rel=1e-12)
        assert emp == pytest.approx(pred, rel=0.10)

    def test_pooled_means_must_share_a_shape(self):
        truth = {"M1": np.eye(2).tolist(), "M2": np.eye(3).tolist(),
                 "sigma2": 1.0, "tau": 0.0}
        with pytest.raises(ValueError, match="same shape"):
            consistency_study("pooled_tau", truth, [10], 5, 0)

    def test_truth_missing_key(self):
        # the same message as calibrate_null's, not a bare KeyError
        truth = {"M": [[1.0, 0.0], [0.0, 0.0]], "tau": 0.0}
        with pytest.raises(ValueError, match=r"^truth requires 'sigma2'$"):
            consistency_study("sigma2", truth, [10], 5, 0)

    @pytest.mark.parametrize("study", ["calibrate_null", "consistency_study"])
    def test_truth_stray_key(self, study):
        # a misspelled key is refused by name, not dropped in favour of the
        # other keys
        truth = {"M": [[1.0, 0.0], [0.0, 0.0]], "sigma2": 1.0, "tau": 0.0,
                 "sigma": 2.0}
        with pytest.raises(ValueError, match=r"^truth takes no key 'sigma'$"):
            if study == "calibrate_null":
                calibrate_null({"test_id": "a2", "U0": np.eye(2).tolist()},
                               truth, 10, 1000, 0)
            else:
                consistency_study("sigma2", truth, [10], 5, 0)

    @pytest.mark.parametrize("estimator,n,least", [
        ("sigma2", 1, 2), ("tau", 1, 2), ("pooled_sigma2", 3, 4),
        ("pooled_tau", 2, 4), ("pooled_tau", 3, 4), ("mean", 0, 1)])
    def test_too_small_n_is_rejected_before_drawing(self, monkeypatch,
                                                    estimator, n, least):
        # a covariance fit needs two observations per group; the whole grid
        # is checked before the first draw, with the estimator named
        import symtest.calibrate as cal
        M = [[1.0, 0.0], [0.0, 0.0]]
        truth = ({"M1": M, "M2": M} if estimator.startswith("pooled_")
                 else {"M": M})
        truth.update(sigma2=1.0, tau=0.0)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking n")

        monkeypatch.setattr(cal, "_draws", no_draw)
        with pytest.raises(ValueError, match=r"^estimator %r requires n >= %d, "
                           r"got %d$" % (estimator, least, n)):
            consistency_study(estimator, truth, [10, n], 5, 0)

    def test_unknown_estimator(self):
        truth = {"M": [[0.0, 0.0], [0.0, 0.0]], "sigma2": 1.0, "tau": 0.0}
        for estimator in ("median", {"id": "tau"}, 5):
            with pytest.raises(ValueError, match="unknown estimator"):
                consistency_study(estimator, truth, [10], 5, 0)


def test_monte_carlo_counts_must_be_integral():
    truth = {"M": [[1.0, 0.0], [0.0, 0.0]], "sigma2": 1.0, "tau": 0.0}
    with pytest.raises(ValueError, match="reps must be an integer"):
        estimate_cone_weights((1.0, 0.0), 100.5, 0)
    with pytest.raises(ValueError, match="reps must be an integer"):
        cone_boundary_law((1.0, 0.0), n=10, reps=100.5, seed=0)
    with pytest.raises(ValueError, match="reps must be an integer"):
        consistency_study("mean", truth, [10], 2.9, 0)
    with pytest.raises(ValueError, match="n must be an integer"):
        consistency_study("mean", truth, [10.7], 2, 0)


SEED_CALLS = {
    "sample": lambda seed: sample(2, np.eye(2), CovParams(1.0, 0.0), seed),
    "calibrate_null": lambda seed: calibrate_null(
        {"test_id": "a0", "M0": np.eye(2).tolist(),
         "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}},
        {"M": np.eye(2).tolist(), "sigma2": 1.0, "tau": 0.0}, 5, 1000, seed),
    "estimate_cone_weights": lambda seed: estimate_cone_weights(
        (1.0, 0.0), 100, seed),
    "consistency_study": lambda seed: consistency_study(
        "mean", {"M": np.eye(2).tolist(), "sigma2": 1.0, "tau": 0.0}, [5], 10,
        seed),
    "cone_boundary_law": lambda seed: cone_boundary_law(
        (1.0, 0.0), n=5, reps=100, seed=seed),
}


@pytest.mark.parametrize("seed,message", [
    (-1, "seed must be nonnegative, got -1"),
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True")], ids=["negative", "fraction",
                                                       "bool"])
@pytest.mark.parametrize("call", sorted(SEED_CALLS))
def test_library_seed_names_itself(call, seed, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        SEED_CALLS[call](seed)


@pytest.mark.parametrize("call", sorted(SEED_CALLS))
def test_library_seed_takes_a_generator_or_seed_sequence(call):
    # a seed sequence gives the draw of its integer at every entry point. A
    # generator passes unchanged where one stream is drawn; calibrate_null
    # and consistency_study spawn one stream per chunk, which a generator
    # cannot, so they refuse it by name
    def same(got, want):
        if isinstance(want, CalibrationReport):
            return np.array_equal(got.statistics, want.statistics)
        return np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want

    want = SEED_CALLS[call](7)
    assert same(SEED_CALLS[call](np.random.SeedSequence(7)), want)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    if call in ("calibrate_null", "consistency_study"):
        with pytest.raises(ValueError, match="^seed must be an integer or a "
                           "SeedSequence to spawn streams from, got a Generator$"):
            SEED_CALLS[call](gen)
    else:
        assert same(SEED_CALLS[call](gen), want)


def test_seed_sequence_spawns_below_its_own_key():
    # a spawned child seeds a calibration as SeedSequence.spawn defines it:
    # the child (1,) of 7 is the seed with entropy 7 and spawn key (1,)
    call = SEED_CALLS["calibrate_null"]
    child = np.random.SeedSequence(7).spawn(2)[1]
    got = call(child).statistics
    assert np.array_equal(
        got, call(np.random.SeedSequence(7, spawn_key=(1,))).statistics)
    assert not np.array_equal(got, call(7).statistics)


@pytest.mark.parametrize("reps", [0, -1])
def test_monte_carlo_counts_must_be_positive(reps):
    one = {"M": [[1.0, 0.0], [0.0, 0.0]], "sigma2": 1.0, "tau": 0.0}
    two = {"M1": one["M"], "M2": one["M"], "sigma2": 1.0, "tau": 0.0}
    with pytest.raises(ValueError, match="reps must be positive"):
        estimate_cone_weights((1.0, 0.0), reps, 0)
    with pytest.raises(ValueError, match="reps must be positive"):
        cone_boundary_law((1.0, 0.0), n=10, reps=reps, seed=0)
    for estimator, truth in (("mean", one), ("tau", one), ("eigvec_var", one),
                             ("pooled_sigma2", two)):
        with pytest.raises(ValueError, match="reps must be positive"):
            consistency_study(estimator, truth, [10], reps, 0)


class TestConeBoundaryLaw:
    def test_distinct_spectrum_stays_interior(self):
        out = cone_boundary_law((3.0, 1.0), n=100, reps=5000, seed=201)
        assert out["dim_mass"][2] == 1.0
        assert out["tie_mass"][(0, 1)] == 0.0

    def test_tied_pair_keeps_half_mass(self):
        out = cone_boundary_law((2.0, 2.0, 0.0), n=100, reps=20_000, seed=202)
        assert out["tie_mass"][(0, 1)] == pytest.approx(0.5, abs=0.015)
        assert out["tie_mass"][(1, 2)] < 1e-3
        # Tie patterns: (2, 1) when the pair pools, (1, 1, 1) otherwise.
        assert out["pattern_mass"][(2, 1)] == pytest.approx(0.5, abs=0.015)
        total = sum(out["pattern_mass"].values())
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_isotropic_matches_cone_weights(self):
        # Same limit law seen two ways: face masses of the projected
        # estimate and the mixture weights from unit-noise projection.
        out = cone_boundary_law((0.0, 0.0, 0.0), n=25, reps=20_000, seed=203)
        w = estimate_cone_weights((0.0, 0.0, 0.0), 20_000, 204)
        for dim, want in STIRLING3.items():
            assert out["dim_mass"][dim] == pytest.approx(want, abs=0.012)
            assert out["dim_mass"][dim] == pytest.approx(
                w.weight_for_dim(dim), abs=0.015)

    def test_masses_free_of_scale_and_trace_coupling(self):
        # With exact ties the pooling pattern is invariant to sigma2 and
        # tau: scaling and the common trace shift do not reorder values.
        out = cone_boundary_law((0.0, 0.0, 0.0), n=25, reps=20_000, seed=205,
                                cov=CovParams(4.0, 0.3))
        for dim, want in STIRLING3.items():
            se = binom_se(want, 20_000)
            assert abs(out["dim_mass"][dim] - want) < 3.0 * se

    @pytest.mark.parametrize("d_true", [(1.0, 1.0, 1.0, 1.0),
                                        (3.0, 2.0, 2.0, 1.0, 0.5), (1.0,)])
    def test_dim_mass_is_the_cone_weights(self, d_true):
        # at n = 1 and unit covariance both make the same draw
        w = estimate_cone_weights(d_true, 20_000, 207)
        out = cone_boundary_law(d_true, 1, 20_000, 207)
        assert w.weights == tuple(out["dim_mass"].values())

    def test_finite_far_below_zero_tau(self):
        # tau = -1e17 at p = 2: 1/(1 - p tau) is below rounding against 1
        out = cone_boundary_law((2.0, 1.0), n=5, reps=1000, seed=208,
                                cov=CovParams(0.2, -1e17))
        assert sum(out["dim_mass"].values()) == pytest.approx(1.0)

    def test_summary_layout(self):
        out = cone_boundary_law((1.0, 0.0), n=50, reps=2000, seed=206)
        assert out["d_true"] == (1.0, 0.0)
        assert out["n"] == 50 and out["reps"] == 2000
        assert set(out["dim_mass"]) == {1, 2}
        assert sum(out["dim_mass"].values()) == pytest.approx(1.0)
        for pat in out["pattern_mass"]:
            assert sum(pat) == 2

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            cone_boundary_law((0.0, 1.0), n=10, reps=100, seed=0)

    @pytest.mark.parametrize("d_true", [(np.nan, 1.0), (1.0, -np.inf)])
    def test_rejects_non_finite(self, d_true):
        with pytest.raises(ValueError, match="finite"):
            cone_boundary_law(d_true, n=10, reps=100, seed=0)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_empty_sample(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            cone_boundary_law((1.0, 0.0), n=n, reps=100, seed=0)
