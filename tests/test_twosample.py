"""Checks for the two-sample MLE machinery.

The weighted two-group objective splits exactly into an average part and
a difference part; that algebraic identity anchors several tests here,
and the pooled covariance estimators (the one-sample estimators applied
to two groups) are checked against inline formulas and by consistency on
large simulated samples, at equal and unequal means.
"""

import numpy as np
import pytest

from symtest.matnormal import SuffStats, sample
from symtest.onesample import (
    CommonEigvals,
    EqualMeans,
    FitResult,
    Mult,
    Unrestricted,
    contains,
    estimate_sigma2,
    estimate_tau,
    mle,
    project,
)
from symtest.symcore import CovParams, Multiplicities, norm_sq, sym_dim


def random_symmetric(rng, p, scale=1.0):
    X = rng.standard_normal((p, p))
    return scale * (X + X.T) / 2.0


def group_means(S, n1):
    # raw-sample group means and their count-weighted average
    y1, y2 = S[:n1].mean(axis=0), S[n1:].mean(axis=0)
    n2 = S.shape[0] - n1
    return y1, y2, (n1 * y1 + n2 * y2) / (n1 + n2)


def two_group_sample(n1, n2, M1, M2, cov, seed):
    ss = np.random.SeedSequence(seed)
    s1, s2 = ss.spawn(2)
    return np.concatenate([sample(n1, M1, cov, s1), sample(n2, M2, cov, s2)])


def weighted_objective(Y1, Y2, M1, M2, n1, n2, cov):
    return n1 * norm_sq(Y1 - M1, cov) + n2 * norm_sq(Y2 - M2, cov)


def split_objective(Y1, Y2, M1, M2, n1, n2, cov):
    # Same quantity written through the weighted average and the difference.
    n = n1 + n2
    avg_y = (n1 * Y1 + n2 * Y2) / n
    avg_m = (n1 * M1 + n2 * M2) / n
    return (n * norm_sq(avg_y - avg_m, cov)
            + (n1 * n2 / n) * norm_sq((Y1 - Y2) - (M1 - M2), cov))


class TestObjectiveSplit:
    def test_identity_on_random_inputs(self):
        rng = np.random.default_rng(111)
        for _ in range(25):
            p = int(rng.integers(2, 5))
            cov = CovParams(float(rng.uniform(0.5, 2.0)),
                            float(rng.uniform(-1.0, 1.0 / p - 0.01)))
            n1, n2 = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            Y1, Y2 = random_symmetric(rng, p), random_symmetric(rng, p)
            M1, M2 = random_symmetric(rng, p), random_symmetric(rng, p)
            a = weighted_objective(Y1, Y2, M1, M2, n1, n2, cov)
            b = split_objective(Y1, Y2, M1, M2, n1, n2, cov)
            assert a == pytest.approx(b, rel=1e-11, abs=1e-11)

    def test_equal_means_fit_minimizes_objective(self):
        # Under M1 = M2 = M the split form shows the optimum at the
        # weighted average; no candidate can do better.
        rng = np.random.default_rng(112)
        cov = CovParams(1.0, 0.1)
        Y1, Y2 = random_symmetric(rng, 3), random_symmetric(rng, 3)
        n1, n2 = 4, 9
        avg = (n1 * Y1 + n2 * Y2) / (n1 + n2)
        best = weighted_objective(Y1, Y2, avg, avg, n1, n2, cov)
        for _ in range(50):
            M = avg + 0.5 * random_symmetric(rng, 3)
            assert weighted_objective(Y1, Y2, M, M, n1, n2, cov) >= best - 1e-12


class TestCommonEigvalsProjection:
    def test_diagonal_hand_example(self):
        (M1, M2), _ = project(CommonEigvals(Multiplicities((1, 1))),
                              np.diag([4.0, 2.0]), np.diag([2.0, 0.0]), n=(5, 5))
        assert np.allclose(M1, np.diag([3.0, 1.0]), atol=1e-12)
        assert np.allclose(M2, np.diag([3.0, 1.0]), atol=1e-12)

    def test_weighted_spectrum(self):
        (M1, M2), _ = project(CommonEigvals(Multiplicities((1, 1))),
                              np.diag([4.0, 2.0]), np.diag([0.0, -2.0]), n=(1, 3))
        assert np.allclose(np.diagonal(M1), [1.0, -1.0], atol=1e-12)
        assert np.allclose(np.diagonal(M2), [1.0, -1.0], atol=1e-12)

    def test_keeps_each_groups_frame(self):
        rng = np.random.default_rng(113)
        Q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        Q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        Y1 = (Q1 * np.array([6.0, 3.0, 1.0])) @ Q1.T
        Y2 = (Q2 * np.array([4.0, 3.0, 2.0])) @ Q2.T
        M1, M2 = project(CommonEigvals(Multiplicities((1, 1, 1))), Y1, Y2, n=(2, 2))[0]
        # Shared spectrum (5, 3, 1.5), original eigenvector frames.
        assert np.allclose(np.sort(np.linalg.eigvalsh(M1)),
                           np.sort(np.linalg.eigvalsh(M2)), atol=1e-11)
        assert np.allclose(M1 @ Y1, Y1 @ M1, atol=1e-10)
        assert np.allclose(M2 @ Y2, Y2 @ M2, atol=1e-10)

    def test_fixed_point_when_spectra_match(self):
        rng = np.random.default_rng(114)
        Q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        Q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        d = np.array([4.0, 4.0, 1.0])
        Y1 = (Q1 * d) @ Q1.T
        Y2 = (Q2 * d) @ Q2.T
        M1, M2 = project(CommonEigvals(Multiplicities((2, 1))), Y1, Y2, n=(3, 7))[0]
        assert np.allclose(M1, Y1, atol=1e-10)
        assert np.allclose(M2, Y2, atol=1e-10)

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(115)
        Y1, Y2 = random_symmetric(rng, 3), random_symmetric(rng, 3)
        mult = Multiplicities((1, 2))
        M1, M2 = project(CommonEigvals(mult), Y1, Y2, n=(4, 6))[0]
        M2s, M1s = project(CommonEigvals(mult), Y2, Y1, n=(6, 4))[0]
        assert np.allclose(M1, M1s, atol=1e-11)
        assert np.allclose(M2, M2s, atol=1e-11)

    def test_full_pooling(self):
        Y1, Y2 = np.diag([3.0, 1.0]), np.diag([2.0, 0.0])
        M1, M2 = project(CommonEigvals(Multiplicities((2,))), Y1, Y2, n=(1, 1))[0]
        assert np.allclose(M1, 1.5 * np.eye(2), atol=1e-13)
        assert np.allclose(M2, 1.5 * np.eye(2), atol=1e-13)


class TestPooledEstimators:
    def test_sigma2_at_group_means_is_within_dispersion(self):
        S = two_group_sample(6, 9, np.eye(2), np.zeros((2, 2)),
                             CovParams(1.0, 0.2), 116)
        y1, y2, _ = group_means(S, 6)
        tau = 0.2
        q = sym_dim(2)
        want = 0.0
        for part, ybar in ((S[:6], y1), (S[6:], y2)):
            for Y in part:
                r = Y - ybar
                want += np.sum(r * r) - tau * np.trace(r) ** 2
        want /= q * 15
        got = estimate_sigma2(SuffStats.from_sample(S, 6), (y1, y2), tau)
        assert got == pytest.approx(want, rel=1e-12)

    def test_sigma2_lack_of_fit_uses_group_sizes(self):
        S = two_group_sample(4, 8, np.eye(2), np.eye(2), CovParams(1.0, 0.0), 117)
        y1, y2, avg = group_means(S, 4)
        stats = SuffStats.from_sample(S, 4)
        base = estimate_sigma2(stats, (y1, y2), 0.0)
        at_avg = estimate_sigma2(stats, (avg, avg), 0.0)
        # The split identity: constraining both means to the weighted
        # average adds (n1 n2 / n^2 q) || Y1bar - Y2bar ||^2.
        q = sym_dim(2)
        extra = (4 * 8 / 12.0) * np.sum((y1 - y2) ** 2) / (q * 12)
        assert at_avg == pytest.approx(base + extra, rel=1e-10)

    def test_sigma2_rejects_tau_out_of_range(self):
        S = np.zeros((4, 2, 2))
        with pytest.raises(ValueError, match="tau"):
            estimate_sigma2(SuffStats.from_sample(S, 2),
                            (np.zeros((2, 2)), np.zeros((2, 2))), 0.5)

    def test_tau_degenerate_sample(self):
        S = np.stack([np.eye(2)] * 4)
        y1, y2, _ = group_means(S, 2)
        with pytest.raises(ValueError, match="undefined"):
            estimate_tau(SuffStats.from_sample(S, 2), (y1, y2))

    def test_tau_reduces_to_merged_one_sample(self):
        # Under equal means both groups are centred at the weighted average
        # of the group means, which is the overall mean, so the pooled
        # shape estimator is the one-group estimator on the merged sample.
        S = two_group_sample(7, 5, np.diag([2.0, 0.0]),
                             np.array([[1.0, 0.7], [0.7, 1.0]]),
                             CovParams(1.0, 0.1), 130)
        a = mle(EqualMeans(), SuffStats.from_sample(S, 7)).tau_hat
        b = estimate_tau(SuffStats.from_sample(S), (S.mean(axis=0),))
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("tau_true", [0.25, -0.5])
    def test_pooled_estimators_consistent(self, tau_true):
        cov = CovParams(1.3, tau_true)
        M = np.array([[2.0, 0.7], [0.7, 0.5]])
        S = two_group_sample(12_000, 8_000, M, M, cov, 118)
        y1, y2, _ = group_means(S, 12_000)
        stats = SuffStats.from_sample(S, 12_000)
        tau_hat = estimate_tau(stats, (y1, y2))
        s2_hat = estimate_sigma2(stats, (y1, y2), tau_hat)
        assert tau_hat == pytest.approx(tau_true, abs=0.04)
        assert s2_hat == pytest.approx(1.3, abs=0.04)

    def test_consistent_at_unequal_means(self):
        # Each group is centred at its own mean, so the spread between the
        # groups does not leak into the shape estimate.
        cov = CovParams(1.3, 0.1)
        M1 = np.array([[2.0, 0.7], [0.7, 0.5]])
        S = two_group_sample(12_000, 8_000, M1, M1 + 2.0 * np.eye(2), cov, 131)
        fit = mle(Unrestricted(), SuffStats.from_sample(S, 12_000))
        assert fit.tau_hat == pytest.approx(0.1, abs=0.04)
        assert fit.sigma2_hat == pytest.approx(1.3, abs=0.04)

    def test_consistent_at_rotated_frames(self):
        # The 2s1 null: one spectrum, group frames 0.9 rad apart.
        cov = CovParams(1.3, 0.2)
        c, s = np.cos(0.9), np.sin(0.9)
        R = np.array([[c, -s], [s, c]])
        M1 = np.diag([3.0, 1.0])
        S = two_group_sample(12_000, 8_000, M1, R @ M1 @ R.T, cov, 132)
        fit = mle(CommonEigvals(Multiplicities((1, 1))),
                  SuffStats.from_sample(S, 12_000))
        assert fit.tau_hat == pytest.approx(0.2, abs=0.04)
        assert fit.sigma2_hat == pytest.approx(1.3, abs=0.04)


class TestMle2Dispatch:
    def test_unrestricted_keeps_group_means(self):
        S = two_group_sample(5, 7, np.eye(2), np.zeros((2, 2)),
                             CovParams(1.0, 0.0), 119)
        y1, y2, _ = group_means(S, 5)
        fit = mle(Unrestricted(), SuffStats.from_sample(S, 5))
        assert isinstance(fit, FitResult) and len(fit.means) == 2
        assert np.array_equal(fit.M1_hat, y1)
        assert np.array_equal(fit.M2_hat, y2)

    def test_equal_means_uses_weighted_average(self):
        S = two_group_sample(5, 7, np.eye(2), np.zeros((2, 2)),
                             CovParams(1.0, 0.0), 120)
        _, _, avg = group_means(S, 5)
        fit = mle(EqualMeans(), SuffStats.from_sample(S, 5))
        assert np.array_equal(fit.M1_hat, avg)
        assert np.array_equal(fit.M2_hat, fit.M1_hat)

    def test_common_eigvals_dispatch(self):
        S = two_group_sample(6, 6, np.diag([3.0, 1.0]), np.diag([3.0, 1.0]),
                             CovParams(0.5, 0.0), 121)
        y1, y2, _ = group_means(S, 6)
        fit = mle(CommonEigvals(Multiplicities((1, 1))),
                  SuffStats.from_sample(S, 6))
        (want1, want2), _ = project(CommonEigvals(Multiplicities((1, 1))), y1, y2,
                                    n=(6, 6))
        assert np.allclose(fit.M1_hat, want1, atol=1e-13)
        assert np.allclose(fit.M2_hat, want2, atol=1e-13)

    def test_equal_means_with_pattern_is_pooled_mult_projection(self):
        # EqualMeans(mult) fits the pooled one-sample Mult projection,
        # covariance estimates included
        mult = Multiplicities((2, 1))
        S = two_group_sample(7, 9, np.diag([2.0, 2.0, 1.0]),
                             np.diag([2.5, 1.5, 1.0]), CovParams(0.8, 0.1), 124)
        fit = mle(EqualMeans(mult), SuffStats.from_sample(S, 7))
        pooled = mle(Mult(mult), SuffStats.from_sample(S))
        assert np.array_equal(fit.M1_hat, fit.M2_hat)
        assert np.allclose(fit.M1_hat, pooled.M_hat, rtol=0, atol=1e-13)
        assert fit.sigma2_hat == pytest.approx(pooled.sigma2_hat, rel=1e-12)
        assert fit.tau_hat == pytest.approx(pooled.tau_hat, rel=1e-10)

    def test_known_cov_recorded(self):
        S = two_group_sample(3, 3, np.eye(2), np.eye(2), CovParams(1.0, 0.0), 122)
        fit = mle(EqualMeans(), SuffStats.from_sample(S, 3),
                  cov=CovParams(2.5, -0.25))
        assert fit.sigma2_hat == 2.5
        assert fit.tau_hat == -0.25

    def test_rejects_one_group(self):
        with pytest.raises(ValueError, match="two-group"):
            mle(EqualMeans(), SuffStats.from_sample(np.zeros((4, 2, 2))))

    def test_rejects_unknown_set(self):
        with pytest.raises(TypeError, match="parameter set"):
            mle(object(), SuffStats.from_sample(np.zeros((4, 2, 2)), 2))


class TestContains2:
    def test_unrestricted(self):
        assert contains(Unrestricted(), np.eye(2), np.zeros((2, 2)))

    def test_equal_means(self):
        assert contains(EqualMeans(), np.eye(2), np.eye(2))
        assert not contains(EqualMeans(), np.eye(2), np.zeros((2, 2)))

    def test_equal_means_with_pattern(self):
        # EqualMeans(mult) holds where the means are equal and the common
        # mean lies in the pooled Mult set
        rng = np.random.default_rng(125)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        mult = Multiplicities((1, 2))
        for d in ([4.0, 2.0, 2.0], [4.0, 3.0, 2.0], [3.0, 3.0, 3.0]):
            M = (Q * np.array(d)) @ Q.T
            want = contains(Mult(mult), M)
            assert contains(EqualMeans(mult), M, M) == want
            assert not contains(EqualMeans(mult), M, M + 0.1 * np.eye(3))
        assert contains(EqualMeans(mult), np.eye(3), np.eye(3))
        assert not contains(EqualMeans(mult), np.diag([4.0, 3.0, 2.0]),
                             np.diag([4.0, 3.0, 2.0]))

    def test_common_eigvals(self):
        rng = np.random.default_rng(123)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        d = np.array([4.0, 2.0, 2.0])
        pset = CommonEigvals(Multiplicities((1, 2)))
        assert contains(pset, np.diag(d), (Q * d) @ Q.T)
        # Matching spectra that break the multiplicity pattern fail.
        d2 = np.array([4.0, 3.0, 2.0])
        assert not contains(pset, np.diag(d2), (Q * d2) @ Q.T)
        # Different spectra fail outright.
        assert not contains(pset, np.diag(d), np.diag([5.0, 2.0, 2.0]))
