"""Checks for the invariant matrix-normal density, sampler, and moments.

The density is validated against a dense multivariate-normal evaluation
in vecd coordinates and by direct numerical integration to 1. The
sampler is validated by matching empirical first and second moments to
the model covariance on both sides of the diagonal-coupling range.
"""

import math
import warnings

import numpy as np
import pytest

from symtest import lrt
from symtest.calibrate import _draws
from symtest.matnormal import (
    SuffStats,
    build_sigma,
    log_density,
    sample,
)
from symtest.onesample import EqualMeans, project
from symtest.symcore import CovParams, sym_dim, vecd, vecd_inv


class TestBuildSigma:
    def test_tau_zero_is_identity(self):
        assert np.array_equal(build_sigma(3, CovParams(1.0, 0.0)), np.eye(6))

    def test_positive_coupling(self):
        # tau = 0.2, p = 3: c = 0.5, diagonal block I + 0.5 * ones.
        sig = build_sigma(3, CovParams(1.0, 0.2))
        want = np.array([[1.5, 0.5, 0.5], [0.5, 1.5, 0.5], [0.5, 0.5, 1.5]])
        assert np.allclose(sig[:3, :3], want, atol=1e-15)
        assert np.array_equal(sig[3:, 3:], np.eye(3))
        assert np.array_equal(sig[:3, 3:], np.zeros((3, 3)))

    def test_negative_coupling(self):
        # tau = -2, p = 2: c = -0.4.
        sig = build_sigma(2, CovParams(1.0, -2.0))
        assert np.allclose(sig[:2, :2], [[0.6, -0.4], [-0.4, 0.6]], atol=1e-15)
        assert sig[2, 2] == 1.0

    def test_sigma2_scales_everything(self):
        cov = CovParams(3.0, 0.1)
        assert np.allclose(build_sigma(2, cov),
                           3.0 * build_sigma(2, CovParams(1.0, 0.1)), atol=1e-14)

    def test_positive_definite_across_range(self):
        for p in (1, 2, 4):
            for tau in (-10.0, -1.0, 0.0, 0.9 / p):
                sig = build_sigma(p, CovParams(0.7, tau))
                assert np.linalg.eigvalsh(sig).min() > 0.0

    def test_rejects_tau_out_of_range(self):
        with pytest.raises(ValueError, match="tau"):
            build_sigma(2, CovParams(1.0, 0.5))


class TestLogDensity:
    def test_mode_value_tau_zero(self):
        M = np.array([[1.0, 0.5], [0.5, 2.0]])
        want = -1.5 * math.log(2.0 * math.pi)
        assert log_density(M, M, CovParams(1.0, 0.0)) == pytest.approx(want, rel=1e-15)

    def test_mode_value_with_coupling(self):
        M = np.zeros((2, 2))
        want = -1.5 * math.log(2.0 * math.pi) + 0.5 * math.log(0.5)
        assert log_density(M, M, CovParams(1.0, 0.25)) == pytest.approx(want, rel=1e-14)

    def test_matches_dense_gaussian(self):
        # Same value as the q-variate normal with covariance build_sigma.
        rng = np.random.default_rng(31)
        for p, tau in ((2, 0.0), (2, 0.25), (3, -0.5), (4, 0.2)):
            cov = CovParams(1.3, tau)
            q = sym_dim(p)
            sig = build_sigma(p, cov)
            sign, logdet = np.linalg.slogdet(sig)
            assert sign > 0
            for _ in range(5):
                A = rng.standard_normal((p, p))
                Y = (A + A.T) / 2.0
                B = rng.standard_normal((p, p))
                M = (B + B.T) / 2.0
                r = vecd(Y) - vecd(M)
                want = (-0.5 * q * math.log(2.0 * math.pi) - 0.5 * logdet
                        - 0.5 * r @ np.linalg.solve(sig, r))
                assert log_density(Y, M, cov) == pytest.approx(want, rel=1e-12)

    def test_integrates_to_one(self):
        # Trapezoid rule over vecd coordinates for p = 2.
        p = 2
        cov = CovParams(0.8, 0.25)
        M = np.array([[0.3, -0.2], [-0.2, 0.1]])
        mu = vecd(M)
        sig = build_sigma(p, cov)
        sign, logdet = np.linalg.slogdet(sig)
        prec = np.linalg.inv(sig)

        axes = [np.linspace(m - 7.0, m + 7.0, 121) for m in mu]
        G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1) - mu
        quad = np.einsum("...i,ij,...j->...", G, prec, G)
        logf = -0.5 * 3 * math.log(2.0 * math.pi) - 0.5 * logdet - 0.5 * quad

        # The vectorized formula must agree with log_density pointwise.
        i0, i1, i2 = 40, 77, 5
        v = np.array([axes[0][i0], axes[1][i1], axes[2][i2]])
        assert logf[i0, i1, i2] == pytest.approx(
            log_density(vecd_inv(v, p), M, cov), rel=1e-12)

        f = np.exp(logf)
        total = f
        for ax in reversed(axes):
            total = np.trapezoid(total, ax, axis=-1)
        assert total == pytest.approx(1.0, abs=1e-3)


class TestSample:
    def test_deterministic_per_seed(self):
        M = np.eye(2)
        cov = CovParams(1.0, 0.1)
        s1 = sample(10, M, cov, 42)
        s2 = sample(10, M, cov, 42)
        s3 = sample(10, M, cov, 43)
        assert np.array_equal(s1, s2)
        assert not np.array_equal(s1, s3)

    def test_seed_sequence_matches_int(self):
        M = np.zeros((3, 3))
        cov = CovParams(2.0, -0.5)
        a = sample(5, M, cov, 7)
        b = sample(5, M, cov, np.random.SeedSequence(7))
        assert np.array_equal(a, b)

    def test_shapes_and_symmetry(self):
        S = sample(4, np.eye(3), CovParams(1.0, 0.2), 0)
        assert S.shape == (4, 3, 3)
        assert np.array_equal(S, np.transpose(S, (0, 2, 1)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample(0, np.eye(2), CovParams(1.0), 0)

    def test_moments_tau_zero(self):
        n = 100_000
        M = np.array([[1.0, -0.5], [-0.5, 2.0]])
        S = sample(n, M, CovParams(1.0, 0.0), 101)
        assert np.abs(SuffStats.from_sample(S).ybar[0] - M).max() < 0.02
        V = vecd(S)
        emp = np.cov(V.T)
        assert np.abs(emp - np.eye(3)).max() < 0.02

    def test_moments_positive_coupling(self):
        # tau = 0.25, p = 2: c = 0.5, so cov(Z11, Z22) = 0.5 sigma2 and the
        # raw off-diagonal has variance sigma2 / 2.
        n = 100_000
        cov = CovParams(1.0, 0.25)
        S = sample(n, np.zeros((2, 2)), cov, 202)
        z11, z22, z12 = S[:, 0, 0], S[:, 1, 1], S[:, 0, 1]
        assert np.cov(z11, z22)[0, 1] == pytest.approx(0.5, abs=0.02)
        assert z11.var(ddof=1) == pytest.approx(1.5, abs=0.03)
        assert z12.var(ddof=1) == pytest.approx(0.5, abs=0.015)

    def test_moments_negative_coupling(self):
        # tau = -2, p = 2: c = -0.4, a negative coupling.
        n = 100_000
        cov = CovParams(1.0, -2.0)
        S = sample(n, np.zeros((2, 2)), cov, 303)
        z11, z22, z12 = S[:, 0, 0], S[:, 1, 1], S[:, 0, 1]
        assert np.cov(z11, z22)[0, 1] == pytest.approx(-0.4, abs=0.02)
        assert z11.var(ddof=1) == pytest.approx(0.6, abs=0.02)
        assert z22.var(ddof=1) == pytest.approx(0.6, abs=0.02)
        assert z12.var(ddof=1) == pytest.approx(0.5, abs=0.015)

    def test_vecd_covariance_matches_model(self):
        # Positive and negative coupling both reproduce build_sigma, p = 3.
        n = 200_000
        for tau, seed in ((0.3, 404), (-1.0, 505)):
            cov = CovParams(1.2, tau)
            S = sample(n, np.eye(3), cov, seed)
            emp = empirical_sigma(S)
            assert np.abs(emp - build_sigma(3, cov)).max() < 0.03

    def test_finite_far_below_zero_tau(self):
        # tau = -1e17, p = 2: 1/(1 - p tau) is below rounding against 1,
        # where a Cholesky factor of the covariance fails
        cov = CovParams(0.2, -1e17)
        S = sample(5, np.eye(2), cov, 1)
        assert S.shape == (5, 2, 2) and np.all(np.isfinite(S))
        assert np.array_equal(S, np.transpose(S, (0, 2, 1)))
        # the direct draw of a, b and log|W/n|, as cov-check's calibration
        # makes it (n = 5 > q = 3)
        drawn = next(_draws((np.eye(2),), (5,), cov, 4, 2, scatter=True))
        assert all(np.all(np.isfinite(v)) for v in
                   (drawn.a, drawn.b, drawn.logdet))


class TestVecdRows:
    def test_matches_vecd(self):
        rng = np.random.default_rng(51)
        A = rng.standard_normal((4, 3, 3))
        S = (A + np.transpose(A, (0, 2, 1))) / 2.0
        rows = vecd(S)
        assert rows.shape == (4, 6)
        for i in range(4):
            assert np.array_equal(rows[i], vecd(S[i]))

    @pytest.mark.parametrize("p", [1, 3])
    def test_stacks_map_matrix_by_matrix(self, p):
        rng = np.random.default_rng(52)
        A = rng.standard_normal((2, 4, p, p))
        S = (A + np.swapaxes(A, -1, -2)) / 2.0
        V = vecd(S)
        assert V.shape == (2, 4, sym_dim(p))
        back = vecd_inv(V, p)
        for i in range(2):
            for j in range(4):
                assert np.array_equal(V[i, j], vecd(S[i, j]))
                assert np.array_equal(back[i, j], vecd_inv(V[i, j], p))


def empirical_sigma(S):
    # the vecd covariance MLE W/n, W the scatter of the vecd rows about their mean
    R = vecd(S) - vecd(S.mean(axis=0))
    return R.T @ R / S.shape[0]


class TestEmpiricalSigma:
    def test_zero_for_constant_sample(self):
        S = np.tile(np.eye(2), (5, 1, 1))
        assert np.array_equal(empirical_sigma(S), np.zeros((3, 3)))

    def test_two_point_sample(self):
        # Y1 = M + X, Y2 = M - X: the residuals are +/- X, so the estimate
        # is the rank-one matrix vecd(X) vecd(X)'.
        X = np.array([[1.0, 2.0], [2.0, -1.0]])
        M = np.array([[0.5, 0.0], [0.0, 0.5]])
        S = np.stack([M + X, M - X])
        v = vecd(X)
        assert np.allclose(empirical_sigma(S), np.outer(v, v), atol=1e-12)
        X2 = np.array([[0.0, 1.0], [1.0, 3.0]])
        S4 = np.stack([M + X, M - X, M + X2, M - X2])
        v2 = vecd(X2)
        want = (np.outer(v, v) + np.outer(v2, v2)) / 2.0
        assert np.allclose(empirical_sigma(S4), want, atol=1e-12)

    def test_requires_more_than_q(self):
        # the covariance check, the only user of W/n, needs n > q(q+3)/2
        S = np.zeros((27, 3, 3))
        with pytest.raises(ValueError, match="n > q"):
            lrt.run("cov-check", SuffStats.from_sample(S))

    def test_consistent_for_large_n(self):
        cov = CovParams(1.0, 0.2)
        S = sample(150_000, np.zeros((2, 2)), cov, 606)
        assert np.abs(empirical_sigma(S) - build_sigma(2, cov)).max() < 0.025


class TestMeans:
    def test_single_observation(self):
        Y = np.array([[2.0, 1.0], [1.0, 0.0]])
        stats = SuffStats.from_sample(Y[None])
        assert np.array_equal(stats.ybar[0], Y)
        assert stats.n == (1,)
        assert stats.logdet == (-math.inf,)

    def test_rejects_flat_input(self):
        with pytest.raises(ValueError, match="sample"):
            SuffStats.from_sample(np.eye(3))

    def test_group_means_weighted_identity(self):
        rng = np.random.default_rng(61)
        A = rng.standard_normal((7, 2, 2))
        S = (A + np.transpose(A, (0, 2, 1))) / 2.0
        stats = SuffStats.from_sample(S, 3)
        y1, y2 = stats.ybar
        (avg, _), _ = project(EqualMeans(), *stats.ybar, n=stats.n)
        assert stats.n == (3, 4)
        assert np.allclose(y1, S[:3].mean(axis=0), atol=1e-15)
        assert np.allclose(y2, S[3:].mean(axis=0), atol=1e-15)
        # n * avg = n1 * ybar1 + n2 * ybar2, and avg equals the overall mean.
        assert np.allclose(7 * avg, 3 * y1 + 4 * y2, atol=1e-13)
        assert np.allclose(avg, S.mean(axis=0), atol=1e-13)

    def test_group_means_opposite_groups(self):
        X = np.array([[1.0, 0.5], [0.5, -2.0]])
        S = np.stack([X, -X])
        stats = SuffStats.from_sample(S, 1)
        y1, y2 = stats.ybar
        assert np.array_equal(y1, X)
        assert np.array_equal(y2, -X)
        (avg, _), _ = project(EqualMeans(), *stats.ybar, n=stats.n)
        assert np.allclose(avg, np.zeros((2, 2)), atol=1e-16)

    @pytest.mark.parametrize("n1", [0, 5, 7])
    def test_group_means_rejects_bad_split(self, n1):
        S = np.zeros((5, 2, 2))
        with pytest.raises(ValueError, match="n1"):
            SuffStats.from_sample(S, n1)


class TestSampleBoundary:
    # the reduction of a sample refuses what no fit could use, by name,
    # before any arithmetic
    CONFIGS = {
        "a0": {"test_id": "a0", "M0": np.eye(2).tolist(), "cov": {"estimate": True}},
        "s2": {"test_id": "s2", "D0": [2.0, 1.0], "multiplicities": [1, 1],
               "cov": {"estimate": True}},
        "2a0": {"test_id": "2a0", "cov": {"estimate": True}},
        "2s1": {"test_id": "2s1", "multiplicities": [1, 1],
                "cov": {"estimate": True}},
    }

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("test_id,n1,bad", [
        ("a0", None, 3), ("s2", None, 3), ("2a0", 5, 3), ("2s1", 5, 3),
        ("2a0", 5, 7), ("2s1", 5, 7)])
    def test_non_finite_observation_is_named(self, test_id, n1, bad, value):
        S = sample(10, np.diag([2.0, 1.0]), CovParams(1.0, 0.1), 5)
        S[bad, 1, 0] = S[bad, 0, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^observation %d has a "
                               "non-finite entry$" % (bad + 1)):
                lrt.run_config(self.CONFIGS[test_id], S, n1)

    @pytest.mark.parametrize("n1", [True, 2.5, "x", 1.0 + 1e-9])
    def test_split_must_be_an_integer(self, n1):
        with pytest.raises(ValueError, match="^n1 must be an integer, got "):
            SuffStats.from_sample(np.zeros((5, 2, 2)), n1)

    def test_integral_split_is_taken_as_its_integer(self):
        S = sample(5, np.eye(2), CovParams(1.0), 3)
        for n1 in (2.0, np.int64(2), "2"):
            assert SuffStats.from_sample(S, n1).n == (2, 3)

    @pytest.mark.parametrize("n", [True, 2.5, "x", None])
    def test_sample_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            sample(n, np.eye(2), CovParams(1.0), 0)

    def test_integral_count_is_taken_as_its_integer(self):
        want = sample(3, np.eye(2), CovParams(1.0), 0)
        for n in (3.0, np.int64(3), "3"):
            assert np.array_equal(sample(n, np.eye(2), CovParams(1.0), 0), want)
