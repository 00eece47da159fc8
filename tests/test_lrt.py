"""Checks for the likelihood-ratio statistics and reference distributions.

Statistics are validated four ways: closed-form values on constructed
samples, algebraic identities (the expanded form of the projection
difference, tau cancellation, scalar reductions to z and t squares),
invariance under orthogonal conjugation of data and hypothesis, and the
behavior of p-values/quantiles against the tail-function fixtures.
"""

import math
import re

import numpy as np
import pytest

import symtest.lrt as lrt
from symtest.lrt import (
    ChiSq,
    ChiSqApprox,
    ChiSqMix,
    FDist,
    StatisticError,
    pvalue,
    quantile,
    run_config,
)
from symtest.matnormal import SuffStats, build_sigma, sample
from symtest.onesample import FixedEigvecs, OrderedCone, project
from symtest.symcore import CovParams, Multiplicities, inner, norm_sq, sym_dim

COV0 = CovParams(1.0, 0.0)
# the test ids whose null set fits only two groups, so their data has two
TWO_GROUP = ("2a0", "2s1", "2s2")


def random_symmetric(rng, p, scale=1.0):
    X = rng.standard_normal((p, p))
    return scale * (X + X.T) / 2.0


def random_orthogonal(rng, p):
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diagonal(R))


def sample_with_mean(Ybar, X, extra=None):
    """A deterministic sample whose mean is exactly Ybar."""
    mats = [Ybar + X, Ybar - X]
    if extra is not None:
        mats += [Ybar + extra, Ybar - extra]
    return np.stack(mats)


class TestRefDistTypes:
    def test_mixture_validation(self):
        ChiSqMix(weights=(0.5, 0.5), dfs=(3, 4))
        with pytest.raises(ValueError, match="sum to 1"):
            ChiSqMix(weights=(0.5, 0.4), dfs=(3, 4))
        with pytest.raises(ValueError, match="sum to 1"):
            ChiSqMix(weights=(1.5, -0.5), dfs=(3, 4))
        with pytest.raises(ValueError, match="length"):
            ChiSqMix(weights=(0.5, 0.5), dfs=(3,))

    def test_mixture_rejects_nan_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ChiSqMix(weights=(float("nan"),), dfs=(3,))

    def test_mixture_casts_to_float(self):
        mix = ChiSqMix(weights=(1,), dfs=(3,))
        assert mix.weights == (1.0,)
        assert mix.dfs == (3.0,)


class TestPvalue:
    def test_zero_statistic(self):
        assert pvalue(ChiSq(6), 0.0) == 1.0
        assert pvalue(FDist(3, 10), 0.0) == 1.0

    def test_chi2_quantile_fixture(self):
        assert pvalue(ChiSq(6), 12.591587243743977) == pytest.approx(0.05, abs=1e-4)

    def test_mixture_is_weighted_average(self):
        mix = ChiSqMix(weights=(0.5, 0.5), dfs=(3, 4))
        for t in (0.5, 2.0, 7.81, 20.0):
            want = 0.5 * pvalue(ChiSq(3), t) + 0.5 * pvalue(ChiSq(4), t)
            assert pvalue(mix, t) == pytest.approx(want, rel=1e-14)

    def test_mixture_against_monte_carlo(self):
        rng = np.random.default_rng(301)
        m = 200_000
        comp = rng.random(m) < 0.5
        draws = np.where(comp, rng.chisquare(3, m), rng.chisquare(4, m))
        mix = ChiSqMix(weights=(0.5, 0.5), dfs=(3, 4))
        for t in (2.0, 5.0, 9.0):
            freq = np.mean(draws > t)
            assert pvalue(mix, t) == pytest.approx(freq, abs=0.005)

    def test_df_zero_is_point_mass(self):
        mix = ChiSqMix(weights=(0.3, 0.7), dfs=(0, 2))
        assert pvalue(mix, 0.0) == 1.0
        # For t > 0 the point-mass component contributes nothing.
        assert pvalue(mix, 1.0) == pytest.approx(0.7 * pvalue(ChiSq(2), 1.0),
                                                 rel=1e-14)

    def test_monotone_and_bounded(self):
        for dist in (ChiSq(4), FDist(6, 282), ChiSqMix((0.5, 0.5), (3, 4))):
            ts = np.linspace(0.0, 30.0, 40)
            ps = [pvalue(dist, t) for t in ts]
            assert all(0.0 <= v <= 1.0 for v in ps)
            assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            pvalue(ChiSq(3), float("nan"))

    def test_array_matches_scalars(self):
        ts = np.array([0.0, 0.5, 3.0, 12.0])
        for dist in (ChiSq(4), FDist(6, 282), ChiSqMix((0.3, 0.7), (0, 2))):
            got = pvalue(dist, ts)
            assert isinstance(got, np.ndarray) and got.shape == ts.shape
            assert np.array_equal(got, [pvalue(dist, t) for t in ts])
        assert isinstance(pvalue(ChiSq(4), 1.0), float)

    def test_rejects_unknown_dist(self):
        with pytest.raises(TypeError, match="distribution"):
            pvalue(object(), 1.0)


class TestQuantile:
    def test_chi2_95(self):
        assert quantile(ChiSq(6), 0.95) == pytest.approx(12.591587243743977,
                                                         abs=1e-6)

    def test_round_trip(self):
        for dist in (ChiSq(3), FDist(6, 294), ChiSqMix((0.5, 0.5), (3, 4))):
            for prob in (0.5, 0.9, 0.99):
                t = quantile(dist, prob)
                assert pvalue(dist, t) == pytest.approx(1.0 - prob, abs=1e-9)
        # an array of probabilities is one call with the bits of one call
        # per element, point masses at 0 included
        probs = np.array([0.0, 0.3, 0.5, 0.9, 0.95, 0.99])
        for dist in (ChiSq(3), ChiSqApprox(0), FDist(6, 60),
                     ChiSqMix((0.5, 0.5), (0, 2)), ChiSqApprox(19)):
            got = quantile(dist, probs)
            assert isinstance(got, np.ndarray) and got.shape == probs.shape
            assert np.array_equal(got, [quantile(dist, pr) for pr in probs])

    def test_zero_prob(self):
        assert quantile(ChiSq(3), 0.0) == 0.0

    def test_point_mass_at_zero(self):
        # P(X > 0) = 0 for df 0, so every quantile is exactly 0; a mixture
        # keeps quantile 0 up to the mass of its zero-df component.
        for prob in (0.5, 0.95, 0.99):
            assert quantile(ChiSqApprox(0), prob) == 0.0
        mix = ChiSqMix((0.5, 0.5), (0, 2))
        assert quantile(mix, 0.4) == 0.0
        assert quantile(mix, 0.75) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_rejects_prob_one(self):
        with pytest.raises(ValueError, match="prob"):
            quantile(ChiSq(3), 1.0)

    @pytest.mark.parametrize("dist", [
        ChiSq(6), ChiSqApprox(15), FDist(21, 31479), ChiSqApprox(0),
        ChiSqMix((0.3, 0.5, 0.2), (0, 2, 5))], ids=str)
    def test_early_stop_keeps_the_bits_of_200_halvings(self, dist):
        # the bisection stops once no bracket moves; every element, one in
        # the point mass at 0 and one too small to converge included, keeps
        # the bits that all 200 halvings give
        probs = np.concatenate([[0.0, 0.2, 1e-300, 0.5, 0.9, 0.95, 0.99],
                                np.arange(1, 100) / 100.0])
        target = 1.0 - probs
        lo, hi = np.zeros_like(probs), np.ones_like(probs)
        while np.any(dist.tail(hi, strict=True) > target):
            hi = np.where(dist.tail(hi, strict=True) > target, 2.0 * hi, hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            up = dist.tail(mid, strict=True) > target
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        want = np.where(dist.tail(0.0, strict=True) > target, 0.5 * (lo + hi),
                        0.0)
        assert quantile(dist, probs).tobytes() == want.tobytes()


class TestClamp:
    def test_rounding_dust_clamps_to_zero(self):
        assert lrt._clamp(-5e-10) == 0.0
        assert lrt._clamp(0.0) == 0.0
        assert lrt._clamp(2.5) == 2.5

    def test_negative_raises(self):
        with pytest.raises(StatisticError, match="negative"):
            lrt._clamp(-1e-8)

    @pytest.mark.parametrize("seed", [30, 48, 88])
    def test_tolerance_relative_to_subtracted_terms(self, seed):
        # The sample mean lies 1e4 times farther from M0 than M0 from the
        # origin: the two squared distances s1 subtracts are about 2.8e11
        # each, one ulp of which is far above the absolute CLAMP.
        D = np.diag([3.0, 2.0, 1.0])
        S = sample(200, 1e4 * D, CovParams(1.0, 0.0), seed)
        res = lrt.run("s1", SuffStats.from_sample(S), M0=D, D0=[3.0, 2.0, 1.0],
                      mult=Multiplicities((1, 1, 1)), cov=CovParams(1.0, 0.0))
        assert 0.0 <= res.statistic < 1e-2


class TestPointUnrestricted:
    def test_zero_at_null(self):
        M0 = np.array([[1.0, 0.3], [0.3, 2.0]])
        X = np.array([[0.5, -0.2], [-0.2, 0.1]])
        S = sample_with_mean(M0, X)
        res = lrt.run("a0", SuffStats.from_sample(S), M0=M0, cov=COV0)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.test_id == "a0"

    def test_known_cov_statistic_and_dist(self):
        cov = CovParams(1.5, 0.2)
        S = sample(12, np.eye(3), cov, 310)
        M0 = np.zeros((3, 3))
        res = lrt.run("a0", SuffStats.from_sample(S), M0=M0, cov=cov)
        want = 12 * norm_sq(S.mean(axis=0) - M0, cov)
        assert res.statistic == pytest.approx(want, rel=1e-13)
        assert res.dist == ChiSq(6)
        assert res.p_value == pytest.approx(pvalue(ChiSq(6), want), rel=1e-13)
        assert res.warnings == ()

    def test_scalar_reduction_is_z_square(self):
        rng = np.random.default_rng(311)
        y = rng.standard_normal(20) * 2.0 + 1.0
        S = y.reshape(-1, 1, 1)
        m0, sigma2 = 1.0, 4.0
        res = lrt.run("a0", SuffStats.from_sample(S),
                      M0=[[m0]], cov=CovParams(sigma2, 0.0))
        z_sq = 20 * (y.mean() - m0) ** 2 / sigma2
        assert res.statistic == pytest.approx(z_sq, rel=1e-13)
        assert res.dist == ChiSq(1)

    def test_scalar_f_form_is_t_square(self):
        # q = 1: the (1 - tau) factors of the numerator and denominator
        # cancel, leaving the squared one-sample t statistic for any tau.
        rng = np.random.default_rng(312)
        y = rng.standard_normal(15) + 0.3
        ybar, m0, n = y.mean(), 0.0, 15
        t_sq = n * (ybar - m0) ** 2 / (np.sum((y - ybar) ** 2) / (n - 1))
        for tau in (0.0, 0.5, -2.0):
            unit = CovParams(1.0, tau)
            r = np.array([[ybar - m0]])
            s2 = sum(norm_sq(np.array([[v - ybar]]), unit) for v in y) / n
            stat = (n - 1) * norm_sq(r, unit) / s2
            assert stat == pytest.approx(t_sq, rel=1e-12)

    def test_estimated_cov_uses_f(self):
        S = sample(10, np.eye(2), CovParams(1.0, 0.1), 313)
        res = lrt.run("a0", SuffStats.from_sample(S), M0=np.eye(2))
        assert res.dist == FDist(3, 27)
        assert lrt._PLUGIN_NOTE in res.warnings
        assert 0.0 <= res.p_value <= 1.0

    def test_estimated_cov_needs_two_obs(self):
        S = sample(1, np.eye(2), COV0, 314)
        with pytest.raises(ValueError, match="n >= 2"):
            lrt.run("a0", SuffStats.from_sample(S), M0=np.eye(2))

    def test_rejects_bad_cov_string(self):
        S = sample(4, np.eye(2), COV0, 316)
        with pytest.raises(ValueError, match="estimate"):
            lrt.run("a0", SuffStats.from_sample(S),
                    M0=np.eye(2), cov="plugin")

    def test_cov_none_estimates_but_config_null_is_refused(self):
        # run's cov=None, its default, estimates (sigma2, tau); JSON null in
        # a config is neither of its two forms
        S = sample(6, np.eye(2), COV0, 317)
        stats = SuffStats.from_sample(S)
        given, default = (lrt.run("a0", stats, M0=np.eye(2), **kw)
                          for kw in ({"cov": None}, {}))
        assert (given.statistic, given.dist, given.warnings) == (
            default.statistic, default.dist, default.warnings)
        with pytest.raises(ValueError, match=r"'cov': .*in a config, expected "
                           r"\{\"known\".* or \{\"estimate\": true\}; got null"):
            run_config({"test_id": "a0", "M0": np.eye(2).tolist(),
                        "cov": None}, S)


class TestA1:
    def test_zero_when_diagonal_matches(self):
        M0 = np.diag([3.0, 1.0])
        # Off-diagonal disturbance only: diag(Ybar) still equals diag(M0).
        X = np.array([[0.0, 0.7], [0.7, 0.0]])
        S = sample_with_mean(M0, X)
        res = lrt.run("a1", SuffStats.from_sample(S), U0=np.eye(2), M0=M0, cov=COV0)
        assert res.statistic == 0.0
        assert res.dist == ChiSq(2)

    def test_diagonal_shift_value(self):
        # tau = 0: T = n (a^2 + b^2) for a diagonal shift (a, b).
        a, b, n = 0.6, -0.2, 4
        M0 = np.diag([3.0, 1.0])
        Ybar = M0 + np.diag([a, b])
        S = np.stack([Ybar] * n)
        res = lrt.run("a1", SuffStats.from_sample(S), U0=np.eye(2), M0=M0, cov=COV0)
        assert res.statistic == pytest.approx(n * (a * a + b * b), rel=1e-13)

    def test_tau_coupling_in_statistic(self):
        a, b, n = 0.6, -0.2, 4
        cov = CovParams(2.0, 0.25)
        M0 = np.diag([3.0, 1.0])
        S = np.stack([M0 + np.diag([a, b])] * n)
        res = lrt.run("a1", SuffStats.from_sample(S), U0=np.eye(2), M0=M0, cov=cov)
        want = n * norm_sq(np.diag([a, b]), cov)
        assert res.statistic == pytest.approx(want, rel=1e-13)

    def test_rejects_m0_off_frame(self):
        M0 = np.array([[2.0, 1.0], [1.0, 2.0]])
        S = np.stack([M0] * 3)
        with pytest.raises(ValueError, match="diagonalized"):
            lrt.run("a1", SuffStats.from_sample(S), U0=np.eye(2), M0=M0, cov=COV0)

    def test_plugin_flagged_asymptotic(self):
        S = sample(20, np.diag([3.0, 1.0]), CovParams(1.0, 0.1), 320)
        res = lrt.run("a1", SuffStats.from_sample(S), U0=np.eye(2),
                      M0=np.diag([3.0, 1.0]))
        assert res.dist == ChiSqApprox(2)
        assert lrt._PLUGIN_NOTE in res.warnings
        assert lrt._ASYMPTOTIC_NOTE in res.warnings


class TestA2:
    def test_zero_when_diagonalized(self):
        rng = np.random.default_rng(321)
        U = random_orthogonal(rng, 3)
        Ybar = (U * np.array([4.0, 2.0, 1.0])) @ U.T
        S = sample_with_mean(Ybar, (U * np.array([0.1, 0.5, -0.2])) @ U.T)
        res = lrt.run("a2", SuffStats.from_sample(S), U0=U, cov=COV0)
        assert res.statistic <= 1e-18
        assert res.dist == ChiSq(3)

    def test_off_diagonal_energy(self):
        # U0 = I: the statistic is the tau-free off-diagonal energy of Ybar.
        Ybar = np.array([[2.0, 0.3, 0.0],
                         [0.3, 1.0, -0.4],
                         [0.0, -0.4, 0.5]])
        S = np.stack([Ybar] * 7)
        cov = CovParams(2.0, 0.2)
        res = lrt.run("a2", SuffStats.from_sample(S), U0=np.eye(3), cov=cov)
        want = 7 * 2.0 * (0.3 ** 2 + 0.4 ** 2) / 2.0
        assert res.statistic == pytest.approx(want, rel=1e-12)
        # Trace-free residual: changing tau alone changes nothing.
        res2 = lrt.run("a2", SuffStats.from_sample(S),
                       U0=np.eye(3), cov=CovParams(2.0, -1.0))
        assert res2.statistic == pytest.approx(res.statistic, rel=1e-13)

    def test_df_is_q_minus_p(self):
        S = sample(6, np.eye(3), COV0, 322)
        assert lrt.run("a2", SuffStats.from_sample(S),
                       U0=np.eye(3), cov=COV0).dist == ChiSq(3)
        S2 = sample(6, np.eye(2), COV0, 323)
        assert lrt.run("a2", SuffStats.from_sample(S2),
                       U0=np.eye(2), cov=COV0).dist == ChiSq(1)


class TestC2:
    def test_mixture_for_oblate_pattern(self):
        S = sample(40, np.diag([3.0, 3.0, 1.0]), COV0, 324)
        res = lrt.run("c2", SuffStats.from_sample(S),
                      U0=np.eye(3), mult=Multiplicities((2, 1)), cov=COV0)
        assert res.dist.dfs == (4.0, 3.0)
        assert res.dist.weights == (0.5, 0.5)

    def test_mixture_for_isotropic_pattern(self):
        S = sample(40, np.eye(3), COV0, 325)
        res = lrt.run("c2", SuffStats.from_sample(S),
                      U0=np.eye(3), mult=Multiplicities((3,)), cov=COV0)
        assert res.dist.dfs == (5.0, 4.0, 3.0)
        want = (1.0 / 3.0, 1.0 / 2.0, 1.0 / 6.0)
        assert res.dist.weights == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("m,dims,want", [
        ((4,), (1, 2, 3, 4), (1 / 4, 11 / 24, 1 / 4, 1 / 24)),
        ((2, 2), (2, 3, 4), (1 / 4, 1 / 2, 1 / 4)),
        ((3, 1, 2), (3, 4, 5, 6), (1 / 6, 5 / 12, 1 / 3, 1 / 12)),
        ((1, 1), (2,), (1.0,)),
    ])
    def test_exact_level_probability_law(self, m, dims, want):
        # |s(m, l)| / m! per tied block, convolved over the blocks
        got_dims, got = lrt._exact_cone_law(Multiplicities(m))
        assert got_dims == dims
        assert got == pytest.approx(want, rel=1e-14)
        assert sum(got) == pytest.approx(1.0, rel=1e-15)

    def test_distinct_pattern_collapses_to_chi2(self):
        S = sample(40, np.diag([5.0, 3.0, 1.0]), COV0, 326)
        res = lrt.run("c2", SuffStats.from_sample(S),
                      U0=np.eye(3), mult=Multiplicities((1, 1, 1)), cov=COV0)
        assert res.dist.weights == (1.0,)
        assert res.dist.dfs == (3.0,)

    def test_explicit_weights_used_verbatim(self):
        from symtest.calibrate import ConeWeights

        w = ConeWeights(d_true=None, face_dims=(2, 3), weights=(0.5, 0.5), reps=0)
        S = sample(10, np.diag([3.0, 2.0, 1.0]), COV0, 327)
        res = lrt.run("c2", SuffStats.from_sample(S), U0=np.eye(3), weights=w, cov=COV0)
        assert res.dist == ChiSqMix(weights=(0.5, 0.5), dfs=(4.0, 3.0))

    def test_config_weights_checked_once(self, monkeypatch):
        # a config's weights parse straight into their mixture: one
        # sum-to-1 check per run, and a bad sum names the key
        calls, check = [], lrt._check_weights
        monkeypatch.setattr(lrt, "_check_weights",
                            lambda w: calls.append(w) or check(w))
        config = {"test_id": "c2", "U0": np.eye(3).tolist(),
                  "weights": {"face_dims": [2, 3], "weights": [0.5, 0.5]}}
        S = sample(10, np.diag([3.0, 2.0, 1.0]), COV0, 327)
        res = run_config(config, S)
        assert calls == [(0.5, 0.5)]
        assert res.dist == ChiSqMix(weights=(0.5, 0.5), dfs=(4.0, 3.0))
        config["weights"]["weights"] = [0.5, 0.4]
        with pytest.raises(ValueError, match="^%s$" % re.escape(
                "config for 'c2': bad 'weights': weights must be nonnegative "
                "and sum to 1")):
            run_config(config, S)

    def test_zero_iff_mean_in_cone(self):
        w_args = dict(mult=Multiplicities((1, 1)), cov=COV0)
        # Ordered diagonal mean: statistic 0.
        S = np.stack([np.diag([3.0, 1.0])] * 5)
        assert lrt.run("c2", SuffStats.from_sample(S),
                       U0=np.eye(2), **w_args).statistic == 0.0
        # Order violated: the projection pools, statistic positive.
        S = np.stack([np.diag([1.0, 3.0])] * 5)
        assert lrt.run("c2", SuffStats.from_sample(S),
                       U0=np.eye(2), **w_args).statistic > 0.5
        # Diagonal ordered but off-diagonal energy present: positive.
        S = np.stack([np.array([[3.0, 0.4], [0.4, 1.0]])] * 5)
        assert lrt.run("c2", SuffStats.from_sample(S),
                       U0=np.eye(2), **w_args).statistic > 0.5

    def test_statistic_is_projection_distance(self):
        rng = np.random.default_rng(328)
        cov = CovParams(1.3, 0.2)
        S = sample(15, np.diag([4.0, 2.0, 1.0]), cov, 329)
        res = lrt.run("c2", SuffStats.from_sample(S),
                      U0=np.eye(3), mult=Multiplicities((1, 1, 1)), cov=cov)
        (fit,), _ = project(OrderedCone(np.eye(3)), S.mean(axis=0))
        want = 15 * norm_sq(S.mean(axis=0) - fit, cov)
        assert res.statistic == pytest.approx(want, rel=1e-12)

    def test_requires_weights_or_mult(self):
        S = sample(5, np.eye(2), COV0, 330)
        with pytest.raises(ValueError, match="weights"):
            lrt.run("c2", SuffStats.from_sample(S), U0=np.eye(2), cov=COV0)


class TestS1:
    def test_zero_when_frames_align(self):
        rng = np.random.default_rng(331)
        U = random_orthogonal(rng, 3)
        D0 = np.array([4.0, 2.0, 1.0])
        M0 = (U * D0) @ U.T
        # Sample mean has M0's eigenvectors but different eigenvalues.
        Ybar = (U * np.array([5.0, 2.5, 0.5])) @ U.T
        S = sample_with_mean(Ybar, 0.1 * (U * np.array([1.0, -1.0, 0.0])) @ U.T)
        res = lrt.run("s1", SuffStats.from_sample(S),
                      M0=M0, D0=D0, mult=Multiplicities((1, 1, 1)), cov=COV0)
        assert abs(res.statistic) <= 1e-9
        assert res.dist == ChiSqApprox(3)

    def test_positive_when_frames_differ(self):
        D0 = np.array([4.0, 1.0])
        M0 = np.diag(D0)
        c, s = math.cos(0.4), math.sin(0.4)
        R = np.array([[c, -s], [s, c]])
        Ybar = (R * D0) @ R.T
        S = np.stack([Ybar] * 9)
        res = lrt.run("s1", SuffStats.from_sample(S),
                      M0=M0, D0=D0, mult=Multiplicities((1, 1)), cov=COV0)
        assert res.statistic > 0.1

    def test_tau_free(self):
        S = sample(14, np.diag([4.0, 2.0, 1.0]), CovParams(1.0, 0.2), 332)
        D0 = np.array([4.0, 2.0, 1.0])
        M0 = np.diag(D0)
        mult = Multiplicities((1, 1, 1))
        t0 = lrt.run("s1", SuffStats.from_sample(S),
                     M0=M0, D0=D0, mult=mult, cov=CovParams(2.0, 0.0)).statistic
        t1 = lrt.run("s1", SuffStats.from_sample(S),
                     M0=M0, D0=D0, mult=mult, cov=CovParams(2.0, 0.3)).statistic
        t2 = lrt.run("s1", SuffStats.from_sample(S),
                     M0=M0, D0=D0, mult=mult, cov=CovParams(2.0, -5.0)).statistic
        assert t0 == t1 == t2

    def test_sigma2_scales_inversely(self):
        S = sample(14, np.diag([4.0, 2.0, 1.0]), COV0, 333)
        D0 = np.array([4.0, 2.0, 1.0])
        mult = Multiplicities((1, 1, 1))
        t1 = lrt.run("s1", SuffStats.from_sample(S), M0=np.diag(D0), D0=D0,
                     mult=mult, cov=CovParams(1.0, 0.0)).statistic
        t4 = lrt.run("s1", SuffStats.from_sample(S), M0=np.diag(D0), D0=D0,
                     mult=mult, cov=CovParams(4.0, 0.0)).statistic
        assert t4 == pytest.approx(t1 / 4.0, rel=1e-13)

    def test_df_formula(self):
        S = sample(10, np.diag([4.0, 2.0, 1.0]), COV0, 334)
        D0 = np.array([4.0, 2.0, 1.0])
        res = lrt.run("s1", SuffStats.from_sample(S),
                      M0=np.diag(D0), D0=D0, mult=Multiplicities((1, 1, 1)), cov=COV0)
        assert res.dist.df == 3.0
        D0b = np.array([4.0, 4.0, 1.0])
        res = lrt.run("s1", SuffStats.from_sample(S),
                      M0=np.diag(D0b), D0=D0b, mult=Multiplicities((2, 1)), cov=COV0)
        assert res.dist.df == 2.0

    def test_isotropic_pattern_gives_df_zero(self):
        # All eigenvalues tied: the statistic vanishes identically and the
        # reference collapses to a point mass at 0.
        S = sample(10, 2.0 * np.eye(3), COV0, 335)
        D0 = np.array([2.0, 2.0, 2.0])
        res = lrt.run("s1", SuffStats.from_sample(S),
                      M0=np.diag(D0), D0=D0, mult=Multiplicities((3,)), cov=COV0)
        assert abs(res.statistic) <= 1e-9
        assert res.dist.df == 0.0
        assert res.p_value == 1.0

    def test_stable_at_large_scale(self):
        # lam.D0 - tr(Ybar M0) is a small difference of terms of size
        # scale^2; formed as a difference of squared distances it keeps
        # its chi-square(3) null at every scale.
        cov = CovParams(1e-6, 0.0)
        D0 = np.array([3.0, 2.0, 1.0])
        mult = Multiplicities((1, 1, 1))
        for scale in (1.0, 1e3, 1e5):
            M0 = np.diag(scale * D0)
            stats = [lrt.run("s1", SuffStats.from_sample(sample(50, M0, cov, seed)),
                             M0=M0, D0=scale * D0, mult=mult,
                             cov=cov).statistic for seed in range(200)]
            assert min(stats) >= 0.0
            assert np.mean(stats) == pytest.approx(3.0, abs=0.6)

    def test_rejects_spectrum_mismatch(self):
        S = sample(5, np.eye(2), COV0, 336)
        with pytest.raises(ValueError, match="spectrum"):
            lrt.run("s1", SuffStats.from_sample(S),
                    M0=np.diag([3.0, 1.0]), D0=np.array([2.0, 1.0]),
                    mult=Multiplicities((1, 1)), cov=COV0)


class TestS2:
    def test_zero_when_spectrum_matches(self):
        rng = np.random.default_rng(337)
        U = random_orthogonal(rng, 3)
        D0 = np.array([4.0, 2.0, 1.0])
        Ybar = (U * D0) @ U.T
        S = np.stack([Ybar] * 6)
        res = lrt.run("s2", SuffStats.from_sample(S),
                      D0=D0, mult=Multiplicities((1, 1, 1)), cov=COV0)
        assert res.statistic <= 1e-18

    def test_statistic_value(self):
        cov = CovParams(1.5, 0.25)
        Ybar = np.diag([5.0, 2.0])
        S = np.stack([Ybar] * 8)
        D0 = np.array([4.0, 3.0])
        res = lrt.run("s2", SuffStats.from_sample(S), D0=D0,
                      mult=Multiplicities((1, 1)), cov=cov)
        want = 8 * norm_sq(np.diag([1.0, -1.0]), cov)
        assert res.statistic == pytest.approx(want, rel=1e-12)

    def test_df_formula(self):
        S = sample(10, 2 * np.eye(3), COV0, 338)
        res = lrt.run("s2", SuffStats.from_sample(S),
                      D0=np.array([2.0, 2.0, 2.0]), mult=Multiplicities((3,)), cov=COV0)
        assert res.dist == ChiSq(6)  # a fully tied spectrum is affine
        S2 = sample(10, np.diag([3.0, 1.0, 1.0]), COV0, 339)
        res = lrt.run("s2", SuffStats.from_sample(S2),
                      D0=np.array([3.0, 1.0, 1.0]), mult=Multiplicities((1, 2)),
                      cov=COV0)
        assert res.dist == ChiSqApprox(4)


class TestS3:
    def test_zero_for_block_constant_spectrum(self):
        rng = np.random.default_rng(340)
        U = random_orthogonal(rng, 3)
        Ybar = (U * np.array([3.0, 3.0, 1.0])) @ U.T
        S = np.stack([Ybar] * 6)
        res = lrt.run("s3", SuffStats.from_sample(S),
                      mult=Multiplicities((2, 1)), cov=COV0)
        assert res.statistic <= 1e-16

    def test_statistic_value(self):
        Ybar = np.diag([5.0, 3.0, 1.0])
        S = np.stack([Ybar] * 6)
        res = lrt.run("s3", SuffStats.from_sample(S),
                      mult=Multiplicities((2, 1)), cov=CovParams(2.0, 0.0))
        # Block averages (4, 4, 1): residual (1, -1, 0).
        assert res.statistic == pytest.approx(6 * 2.0 / 2.0, rel=1e-13)

    def test_tau_free(self):
        S = sample(12, np.diag([4.0, 4.0, 1.0]), CovParams(1.0, 0.2), 341)
        mult = Multiplicities((2, 1))
        t1 = lrt.run("s3", SuffStats.from_sample(S),
                     mult=mult, cov=CovParams(1.0, 0.0)).statistic
        t2 = lrt.run("s3", SuffStats.from_sample(S),
                     mult=mult, cov=CovParams(1.0, 0.3)).statistic
        assert t1 == t2

    def test_df_formula(self):
        S = sample(10, np.diag([4.0, 4.0, 1.0]), COV0, 342)
        assert lrt.run("s3", SuffStats.from_sample(S),
                       mult=Multiplicities((2, 1)), cov=COV0).dist.df == 2.0
        S2 = sample(10, np.diag([5.0, 3.0, 1.0]), COV0, 343)
        assert lrt.run("s3", SuffStats.from_sample(S2),
                       mult=Multiplicities((1, 1, 1)), cov=COV0).dist.df == 0.0


class TestSigmaStructure:
    def test_df_and_basic_run(self):
        S = sample(120, np.eye(3), CovParams(1.0, 0.2), 344)
        res = lrt.run("cov-check", SuffStats.from_sample(S))
        assert res.dist == ChiSqApprox(19)
        assert res.statistic >= 0.0
        assert 0.0 <= res.p_value <= 1.0

    def test_minimum_sample_size(self):
        S = sample(27, np.eye(3), COV0, 345)
        with pytest.raises(ValueError, match="q\\(q\\+3\\)/2"):
            lrt.run("cov-check", SuffStats.from_sample(S))
        # 28 observations is exactly enough.
        lrt.run("cov-check", SuffStats.from_sample(sample(28, np.eye(3), COV0, 346)))

    def test_requires_logdet(self):
        # SuffStats built from a, b alone serve every mean test, but
        # cov-check reads the log-determinant only from_sample computes
        s = SuffStats.from_sample(sample(40, np.eye(3), COV0, 349))
        stats = SuffStats(s.n, s.ybar, s.a, s.b)
        lrt.run("a0", stats, M0=np.eye(3))
        with pytest.raises(ValueError, match="SuffStats.from_sample"):
            lrt.run("cov-check", stats)

    @pytest.mark.parametrize("p,n", [(2, 30), (3, 60)])
    def test_statistic_free_of_sigma2_and_tau(self, p, n):
        # The root of an invariant covariance only rescales the trace line
        # and its complement, so one seed gives the same statistic at every
        # (sigma2, tau): no fitted tau calls the reference into question.
        M = np.diag(np.arange(p, 0.0, -1.0))
        stats = [lrt.run("cov-check", SuffStats.from_sample(
                     sample(n, M, CovParams(sigma2, tau), 347))).statistic
                 for sigma2 in (1e-3, 1.0, 1e3) for tau in (-0.5, 0.0, 0.25)]
        assert stats[0] > 0.0
        assert np.allclose(stats, stats[0], rtol=1e-12, atol=0.0)

    def test_power_against_non_invariant_cov(self):
        # Double the variance of the (1,1) coordinate: the invariance test
        # should reject decisively at n = 500.
        rng = np.random.default_rng(348)
        for seed in (1, 2, 3):
            S = sample(500, np.eye(2), CovParams(1.0, 0.2),
                       np.random.SeedSequence(seed))
            S = S.copy()
            S[:, 0, 0] = 1.0 + (S[:, 0, 0] - 1.0) * math.sqrt(2.0)
            res = lrt.run("cov-check", SuffStats.from_sample(S))
            assert res.p_value < 0.01


class TestTwoSampleEqual:
    def test_zero_when_group_means_match(self):
        X = np.array([[0.4, 0.1], [0.1, -0.3]])
        Ybar = np.array([[2.0, 0.5], [0.5, 1.0]])
        S = np.concatenate([sample_with_mean(Ybar, X),
                            sample_with_mean(Ybar, -2.0 * X)])
        res = lrt.run("2a0", SuffStats.from_sample(S, 2), cov=COV0)
        assert res.statistic <= 1e-18
        assert res.test_id == "2a0"

    def test_known_cov_statistic(self):
        cov = CovParams(1.2, 0.15)
        S = np.concatenate([sample(4, np.eye(2), cov, 350),
                            sample(8, np.zeros((2, 2)), cov, 351)])
        y1 = S[:4].mean(axis=0)
        y2 = S[4:].mean(axis=0)
        res = lrt.run("2a0", SuffStats.from_sample(S, 4), cov=cov)
        want = (4 * 8 / 12) * norm_sq(y1 - y2, cov)
        assert res.statistic == pytest.approx(want, rel=1e-13)
        assert res.dist == ChiSq(3)

    def test_scalar_reduction_is_two_sample_t_square(self):
        rng = np.random.default_rng(352)
        y = rng.standard_normal(14)
        n1, n2 = 6, 8
        y1, y2 = y[:n1], y[n1:]
        S = y.reshape(-1, 1, 1)
        res = lrt.run("2a0", SuffStats.from_sample(S, n1),
                      cov=CovParams(1.0, 0.0))
        z_sq = (n1 * n2 / 14) * (y1.mean() - y2.mean()) ** 2
        assert res.statistic == pytest.approx(z_sq, rel=1e-12)
        # The F form reduces to the pooled-variance t square: tau cancels.
        sp2 = (np.sum((y1 - y1.mean()) ** 2) + np.sum((y2 - y2.mean()) ** 2)) / 12
        t_sq = (y1.mean() - y2.mean()) ** 2 / (sp2 * (1 / n1 + 1 / n2))
        for tau in (0.0, 0.5):
            unit = CovParams(1.0, tau)
            gap = np.array([[y1.mean() - y2.mean()]])
            s12 = (sum(norm_sq(np.array([[v - y1.mean()]]), unit) for v in y1)
                   + sum(norm_sq(np.array([[v - y2.mean()]]), unit) for v in y2)) / 14
            stat = 12 * n1 * n2 * norm_sq(gap, unit) / (14 ** 2 * s12 / 14) / 14
            assert stat == pytest.approx(t_sq, rel=1e-12)

    def test_estimated_cov_f_reference(self):
        cov = CovParams(1.0, 0.1)
        S = np.concatenate([sample(10, np.eye(2), cov, 353),
                            sample(10, np.eye(2), cov, 354)])
        res = lrt.run("2a0", SuffStats.from_sample(S, 10))
        assert res.dist == FDist(3, 54)
        assert lrt._PLUGIN_NOTE in res.warnings

    def test_estimated_cov_needs_three_obs(self):
        S = np.stack([np.eye(2), 2 * np.eye(2)])
        with pytest.raises(ValueError, match="n >= 3"):
            lrt.run("2a0", SuffStats.from_sample(S, 1))


class Test2S1:
    def test_zero_for_shared_block_constant_spectra(self):
        rng = np.random.default_rng(355)
        Q1, Q2 = random_orthogonal(rng, 3), random_orthogonal(rng, 3)
        d = np.array([4.0, 4.0, 1.0])
        S = np.concatenate([np.stack([(Q1 * d) @ Q1.T] * 3),
                            np.stack([(Q2 * d) @ Q2.T] * 5)])
        res = lrt.run("2s1", SuffStats.from_sample(S, 3),
                      mult=Multiplicities((2, 1)), cov=COV0)
        assert res.statistic <= 1e-16

    def test_statistic_value(self):
        cov = CovParams(2.0, 0.1)
        y1 = np.diag([5.0, 1.0])
        y2 = np.diag([4.0, 2.0])
        S = np.concatenate([np.stack([y1] * 6), np.stack([y2] * 2)])
        res = lrt.run("2s1", SuffStats.from_sample(S, 6),
                      mult=Multiplicities((1, 1)), cov=cov)
        lam_gap = np.diag([1.0, -1.0])
        want = (6 * 2 / 8) * norm_sq(lam_gap, cov)
        assert res.statistic == pytest.approx(want, rel=1e-12)

    def test_df_simple_pattern_is_p(self):
        S = np.concatenate([sample(6, np.diag([3.0, 1.0]), COV0, 356),
                            sample(6, np.diag([3.0, 1.0]), COV0, 357)])
        res = lrt.run("2s1", SuffStats.from_sample(S, 6),
                      mult=Multiplicities((1, 1)), cov=COV0)
        assert res.dist == ChiSqApprox(2)

    def test_df_full_pooling_is_2q_minus_1(self):
        S = np.concatenate([sample(6, np.eye(2), COV0, 358),
                            sample(6, np.eye(2), COV0, 359)])
        res = lrt.run("2s1", SuffStats.from_sample(S, 6),
                      mult=Multiplicities((2,)), cov=COV0)
        assert res.dist == ChiSq(5)  # a fully tied spectrum is affine

    def test_pooled_term_uses_weighted_average(self):
        # Unequal group sizes: the residual term is evaluated at
        # (n1 L1 + n2 L2) / n, detectable through the statistic value.
        cov = COV0
        y1 = np.diag([6.0, 2.0])
        y2 = np.diag([3.0, 1.0])
        S = np.concatenate([np.stack([y1] * 1), np.stack([y2] * 3)])
        res = lrt.run("2s1", SuffStats.from_sample(S, 1),
                      mult=Multiplicities((2,)), cov=cov)
        lam_bar = (np.array([6.0, 2.0]) + 3 * np.array([3.0, 1.0])) / 4
        resid = lam_bar - lam_bar.mean()
        want = ((1 * 3 / 4) * norm_sq(np.diag([3.0, 1.0]), cov)
                + 4 * np.sum(resid ** 2))
        assert res.statistic == pytest.approx(want, rel=1e-12)


class Test2S2:
    def test_zero_when_group_means_equal(self):
        Ybar = np.array([[3.0, 0.4], [0.4, 1.0]])
        X = np.array([[0.2, 0.0], [0.0, -0.2]])
        S = np.concatenate([sample_with_mean(Ybar, X),
                            sample_with_mean(Ybar, 2.0 * X)])
        res = lrt.run("2s2", SuffStats.from_sample(S, 2),
                      mult=Multiplicities((1, 1)), cov=COV0)
        assert abs(res.statistic) <= 1e-12

    def test_zero_when_frames_equal(self):
        # Same eigenvectors, different eigenvalues: both brackets vanish.
        rng = np.random.default_rng(360)
        Q = random_orthogonal(rng, 3)
        y1 = (Q * np.array([5.0, 3.0, 1.0])) @ Q.T
        y2 = (Q * np.array([4.0, 2.0, 0.5])) @ Q.T
        S = np.concatenate([np.stack([y1] * 4), np.stack([y2] * 4)])
        res = lrt.run("2s2", SuffStats.from_sample(S, 4),
                      mult=Multiplicities((1, 1, 1)), cov=COV0)
        assert abs(res.statistic) <= 1e-9

    def test_positive_when_frames_differ(self):
        c, s = math.cos(0.5), math.sin(0.5)
        R = np.array([[c, -s], [s, c]])
        d = np.array([5.0, 1.0])
        y1 = np.diag(d)
        y2 = (R * d) @ R.T
        S = np.concatenate([np.stack([y1] * 8), np.stack([y2] * 8)])
        res = lrt.run("2s2", SuffStats.from_sample(S, 8),
                      mult=Multiplicities((1, 1)), cov=COV0)
        assert res.statistic > 1.0

    def test_df_formula(self):
        S = np.concatenate([sample(6, np.diag([4.0, 2.0, 1.0]), COV0, 361),
                            sample(6, np.diag([4.0, 2.0, 1.0]), COV0, 362)])
        res = lrt.run("2s2", SuffStats.from_sample(S, 6),
                      mult=Multiplicities((1, 1, 1)), cov=COV0)
        assert res.dist == ChiSqApprox(3)

    def test_stable_at_large_scale(self):
        # the lam1.lam2 - tr(Ybar1 Ybar2) term cancels like s1's
        cov = CovParams(1e-6, 0.0)
        mult = Multiplicities((1, 1, 1))
        for scale in (1.0, 1e3, 1e5):
            M = np.diag(scale * np.array([3.0, 2.0, 1.0]))
            stats = [lrt.run("2s2", SuffStats.from_sample(
                np.concatenate([sample(25, M, cov, 2 * seed),
                                sample(25, M, cov, 2 * seed + 1)]), 25),
                mult=mult, cov=cov).statistic for seed in range(100)]
            assert min(stats) >= 0.0
            assert np.mean(stats) == pytest.approx(3.0, abs=0.8)

    def test_null_fit_is_pooled_equal_means(self):
        S = np.concatenate([sample(6, np.diag([4.0, 1.0]), COV0, 363),
                            sample(9, np.diag([4.0, 1.0]), COV0, 364)])
        res = lrt.run("2s2", SuffStats.from_sample(S, 6),
                      mult=Multiplicities((1, 1)), cov=COV0)
        assert np.array_equal(res.fit_null.M1_hat, res.fit_null.M2_hat)
        lam = np.linalg.eigvalsh(res.fit_null.M1_hat)
        assert np.all(np.diff(lam) != 0.0)


class TestExpandedFormIdentity:
    def test_projection_difference_expansion(self):
        # n||Y - M0||^2 - n||Y - MA||^2 = 2n<Y, MA - M0> + n||M0||^2 - n||MA||^2
        rng = np.random.default_rng(365)
        for _ in range(20):
            p = int(rng.integers(2, 5))
            n = int(rng.integers(2, 40))
            cov = CovParams(float(rng.uniform(0.5, 2.0)),
                            float(rng.uniform(-1.0, 1.0 / p - 0.05)))
            Ybar = random_symmetric(rng, p)
            U = random_orthogonal(rng, p)
            m_alt = project(FixedEigvecs(U), Ybar)[0][0]
            (m_null,), _ = project(OrderedCone(U), Ybar)
            a = n * norm_sq(Ybar - m_null, cov) - n * norm_sq(Ybar - m_alt, cov)
            b = (2 * n * inner(Ybar, m_alt - m_null, cov)
                 + n * norm_sq(m_null, cov) - n * norm_sq(m_alt, cov))
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestInvariance:
    def test_conjugation_equivariance(self):
        # Rotating the data and the hypothesis together leaves every
        # statistic unchanged.
        rng = np.random.default_rng(366)
        cov = CovParams(1.0, 0.1)
        S = sample(10, np.diag([4.0, 2.0, 1.0]), cov, 367)
        Q = random_orthogonal(rng, 3)
        SQ = np.einsum("ij,njk,lk->nil", Q, S, Q)
        U0 = np.eye(3)
        M0 = np.diag([4.0, 2.0, 1.0])
        D0 = np.array([4.0, 2.0, 1.0])
        mult = Multiplicities((1, 1, 1))

        a = lrt.run("a0", SuffStats.from_sample(S), M0=M0, cov=cov).statistic
        b = lrt.run("a0", SuffStats.from_sample(SQ),
                    M0=Q @ M0 @ Q.T, cov=cov).statistic
        assert b == pytest.approx(a, rel=1e-10)
        a = lrt.run("a1", SuffStats.from_sample(S), U0=U0, M0=M0, cov=cov).statistic
        b = lrt.run("a1", SuffStats.from_sample(SQ),
                    U0=Q @ U0, M0=Q @ M0 @ Q.T, cov=cov).statistic
        assert b == pytest.approx(a, rel=1e-10, abs=1e-12)
        a = lrt.run("a2", SuffStats.from_sample(S), U0=U0, cov=cov).statistic
        b = lrt.run("a2", SuffStats.from_sample(SQ), U0=Q @ U0, cov=cov).statistic
        assert b == pytest.approx(a, rel=1e-10, abs=1e-12)
        a = lrt.run("s1", SuffStats.from_sample(S), M0=M0, D0=D0, mult=mult,
                    cov=cov).statistic
        b = lrt.run("s1", SuffStats.from_sample(SQ),
                    M0=Q @ M0 @ Q.T, D0=D0, mult=mult, cov=cov).statistic
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9)

    def test_rotation_invariance_of_spectral_tests(self):
        # Tests built from eigenvalues alone ignore a rotation of the data.
        rng = np.random.default_rng(368)
        cov = CovParams(1.0, 0.1)
        S = sample(10, np.diag([4.0, 2.0, 1.0]), cov, 369)
        Q = random_orthogonal(rng, 3)
        SQ = np.einsum("ij,njk,lk->nil", Q, S, Q)
        D0 = np.array([4.0, 2.0, 1.0])
        mult = Multiplicities((1, 1, 1))
        assert (lrt.run("s2", SuffStats.from_sample(SQ), D0=D0, mult=mult,
                        cov=cov).statistic
                == pytest.approx(lrt.run("s2", SuffStats.from_sample(S), D0=D0,
                                         mult=mult, cov=cov).statistic, rel=1e-9))
        assert (lrt.run("s3", SuffStats.from_sample(SQ),
                        mult=Multiplicities((2, 1)), cov=cov).statistic
                == pytest.approx(lrt.run("s3", SuffStats.from_sample(S),
                                         mult=Multiplicities((2, 1)),
                                         cov=cov).statistic,
                                 rel=1e-9))

    @pytest.mark.parametrize("test_id", sorted(lrt.TESTS))
    def test_scale_invariance_with_estimated_covariance(self, test_id):
        # Scaling the data by c, and M0 and D0 with it, scales both fits by
        # c and the plugged-in sigma2 by c^2: the statistic and p-value
        # must not move, at any data scale. cov-check fits its covariance
        # too (it takes no cov, so no plug-in note) and needs n > 27.
        rng = np.random.default_rng(372)
        U = random_orthogonal(rng, 3)
        d = np.array([4.0, 2.0, 1.0])
        M = (U * d) @ U.T
        config = {"test_id": test_id, "M0": M, "U0": U.tolist(), "D0": d,
                  "multiplicities": [1, 2] if test_id == "s3" else [1, 1, 1]}
        spec = lrt.TESTS[test_id]
        config = {k: v for k, v in config.items()
                  if k in ("test_id",) + spec.keys + spec.optional}
        two = test_id in TWO_GROUP
        S = sample(40 if test_id == "cov-check" else 12, M,
                   CovParams(1.0, 0.1), 373)
        if two:
            S = np.concatenate([S, sample(9, M, CovParams(1.0, 0.1), 374)])

        def run_at(c):
            scaled = {k: (c * v).tolist() if k in ("M0", "D0") else v
                      for k, v in config.items()}
            res = run_config(scaled, c * S, n1=12 if two else None)
            assert (lrt._PLUGIN_NOTE in res.warnings) == (test_id != "cov-check")
            return res

        base = run_at(1.0)
        assert base.statistic > 0.0 and 0.0 < base.p_value < 1.0
        for c in (1e-6, 1e6):
            res = run_at(c)
            assert res.statistic == pytest.approx(base.statistic, rel=1e-9)
            assert res.p_value == pytest.approx(base.p_value, rel=1e-9)

    @staticmethod
    def grid_case(test_id, scale, ratio):
        # test_id's config and sample (S, n1) with noise of sd `scale` per
        # vecd coordinate about a mean of spectrum ratio * scale * (4, 2, 1)
        rng = np.random.default_rng(375)
        U = random_orthogonal(rng, 3)
        d = scale * ratio * np.array([4.0, 2.0, 1.0])
        M = (U * d) @ U.T
        spec = lrt.TESTS[test_id]
        config = {"test_id": test_id, "M0": M, "U0": U, "D0": d,
                  "multiplicities": [1, 2] if test_id == "s3" else [1, 1, 1]}
        config = {k: v for k, v in config.items()
                  if k in ("test_id",) + spec.keys + spec.optional}
        cov = CovParams(scale ** 2, 0.1)
        S = sample(40 if test_id == "cov-check" else 12, M, cov, 376)
        if test_id not in TWO_GROUP:
            return config, S, None
        return config, np.concatenate([S, sample(9, M, cov, 377)]), 12

    @staticmethod
    def assert_same_test(a, b):
        assert a.statistic > 0.0
        assert b.statistic == pytest.approx(a.statistic, rel=1e-9, abs=0.0)
        assert b.p_value == pytest.approx(a.p_value, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("ratio", [0.1, 10.0])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("test_id", sorted(lrt.TESTS))
    def test_rotation_equivariance_on_grid(self, test_id, scale, ratio):
        # Y -> R Y R' with M0 -> R M0 R' and U0 -> R U0 (D0 is a spectrum,
        # unchanged) leaves every statistic and p-value where it was, at
        # every data scale and mean-to-noise ratio
        config, S, n1 = self.grid_case(test_id, scale, ratio)
        R = random_orthogonal(np.random.default_rng(378), 3)
        moved = dict(config)
        if "M0" in config:
            moved["M0"] = R @ config["M0"] @ R.T
        if "U0" in config:
            moved["U0"] = R @ config["U0"]
        self.assert_same_test(run_config(config, S, n1=n1),
                              run_config(moved, R @ S @ R.T, n1=n1))

    @pytest.mark.parametrize("ratio", [0.1, 10.0])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("test_id", ["s1", "s3", "2s2"])
    def test_shift_invariance_of_tau_free_tests(self, test_id, scale, ratio):
        # the tau-free tests compare fits of equal trace: Y -> Y + cI with
        # M0 -> M0 + cI and D0 -> D0 + c moves neither statistic nor p-value
        config, S, n1 = self.grid_case(test_id, scale, ratio)
        c = 5.0 * scale * ratio
        moved = dict(config)
        if "M0" in config:
            moved["M0"] = config["M0"] + c * np.eye(3)
        if "D0" in config:
            moved["D0"] = config["D0"] + c
        self.assert_same_test(run_config(config, S, n1=n1),
                              run_config(moved, S + c * np.eye(3), n1=n1))

    def test_sign_flips_of_frame_columns(self):
        S = sample(10, np.diag([4.0, 2.0, 1.0]), COV0, 370)
        M0 = np.diag([4.0, 2.0, 1.0])
        F = np.diag([1.0, -1.0, -1.0])
        for runner in (
            lambda U: lrt.run("a1", SuffStats.from_sample(S), U0=U, M0=M0,
                              cov=COV0).statistic,
            lambda U: lrt.run("a2", SuffStats.from_sample(S), U0=U, cov=COV0).statistic,
            lambda U: lrt.run("c2", SuffStats.from_sample(S),
                              U0=U, mult=Multiplicities((1, 1, 1)),
                              cov=COV0).statistic,
        ):
            assert runner(np.eye(3) @ F) == pytest.approx(runner(np.eye(3)),
                                                          rel=1e-12)

    def test_within_block_rotation_of_fit_representative(self):
        # A rotation inside a tied eigenvalue block changes the eigenvector
        # representative but not the fitted matrix, hence no statistic.
        rng = np.random.default_rng(371)
        U = random_orthogonal(rng, 3)
        d = np.array([3.0, 3.0, 1.0])
        theta = 0.7
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        M_a = (U * d) @ U.T
        M_b = ((U @ R) * d) @ (U @ R).T
        assert np.abs(M_a - M_b).max() <= 1e-12


class TestRunConfig:
    def test_dispatch_matches_direct_call(self):
        cov = CovParams(1.0, 0.1)
        S = sample(12, np.diag([3.0, 1.0]), cov, 372)
        config = {"test_id": "a0", "M0": [[3.0, 0.0], [0.0, 1.0]],
                  "cov": {"known": {"sigma2": 1.0, "tau": 0.1}}}
        res = run_config(config, S)
        want = lrt.run("a0", SuffStats.from_sample(S),
                       M0=np.diag([3.0, 1.0]), cov=cov)
        assert res.statistic == want.statistic
        assert res.p_value == want.p_value

    def test_estimate_flag(self):
        S = sample(12, np.diag([3.0, 1.0]), COV0, 373)
        config = {"test_id": "a2", "U0": [[1.0, 0.0], [0.0, 1.0]],
                  "cov": {"estimate": True}}
        res = run_config(config, S)
        assert res.dist == ChiSqApprox(1)
        assert lrt._PLUGIN_NOTE in res.warnings

    def test_two_sample_dispatch(self):
        S = np.concatenate([sample(6, np.eye(2), COV0, 374),
                            sample(6, np.eye(2), COV0, 375)])
        config = {"test_id": "2a0", "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}}
        res = run_config(config, S, n1=6)
        want = lrt.run("2a0", SuffStats.from_sample(S, 6), cov=COV0)
        assert res.statistic == want.statistic

    def test_two_sample_requires_n1(self):
        S = sample(6, np.eye(2), COV0, 376)
        with pytest.raises(ValueError, match="two-group"):
            run_config({"test_id": "2a0"}, S)

    def test_missing_key(self):
        S = sample(6, np.eye(2), COV0, 377)
        with pytest.raises(ValueError, match="M0"):
            run_config({"test_id": "a0"}, S)

    def test_unknown_test_id(self):
        S = sample(6, np.eye(2), COV0, 378)
        with pytest.raises(ValueError, match="test_id"):
            run_config({"test_id": "zz"}, S)

    def test_registry_matches_schema_enum(self):
        import json
        from importlib import resources
        schema = json.loads(resources.files("symtest")
                            .joinpath("schemas/report.schema.json").read_text())
        assert set(lrt.TESTS) == set(schema["properties"]["test_id"]["enum"])

    @pytest.mark.parametrize("known,fragment", [
        ({"sigma2": 1.0, "tau": 0.9}, "tau must be < 1/p"),
        ({"sigma2": -1.0, "tau": 0.0}, "sigma2 must be positive"),
    ])
    def test_known_cov_validated(self, known, fragment):
        S = sample(6, np.eye(2), COV0, 380)
        config = {"test_id": "a0", "M0": np.eye(2).tolist(),
                  "cov": {"known": known}}
        with pytest.raises(ValueError, match=fragment):
            run_config(config, S)

    @pytest.mark.parametrize("test_id,key", [
        ("a0", "covv"), ("a0", "U0"), ("s3", "mult"), ("cov-check", "cov")])
    def test_rejects_a_key_the_test_does_not_take(self, test_id, key):
        # a misspelled key, or one of another test, is never dropped: a0
        # with "covv" would otherwise run with an estimated covariance
        config, _ = RUN_CASES[test_id]
        config = dict(config, test_id=test_id)
        config[key] = {"known": {"sigma2": 1.0, "tau": 0.1}}
        S = sample(400 if test_id == "cov-check" else 12, MEAN, COV0, 382)
        n1 = 6 if test_id in TWO_GROUP else None
        with pytest.raises(ValueError, match=re.escape(
                "config for %r takes no key %r" % (test_id, key))):
            run_config(config, S, n1=n1)

    @pytest.mark.parametrize("test_id", sorted(lrt.TESTS))
    def test_seed_and_reps_are_no_arguments(self, test_id):
        # every test's config may hold a seed and a replicate count, which
        # leave the result as it is
        config, _ = RUN_CASES[test_id]
        config = dict(config, test_id=test_id)
        S = sample(400 if test_id == "cov-check" else 12, MEAN, COV0, 383)
        n1 = 6 if test_id in TWO_GROUP else None
        want = run_config(config, S, n1=n1)
        for extra in ({"seed": 3}, {"seed": 3, "reps": 100000}):
            got = run_config(dict(config, **extra), S, n1=n1)
            assert (got.statistic, got.p_value, got.dist) == (
                want.statistic, want.p_value, want.dist)

    @pytest.mark.parametrize("test_id", [5, None, ["a0"]])
    def test_non_string_test_id(self, test_id):
        S = sample(6, np.eye(2), COV0, 381)
        with pytest.raises(ValueError, match="unknown test_id"):
            run_config({"test_id": test_id}, S)

    def test_one_sample_test_rejects_two_groups(self):
        S = sample(6, np.eye(2), COV0, 382)
        with pytest.raises(ValueError, match="two groups"):
            run_config({"test_id": "a0", "M0": np.eye(2).tolist()}, S, n1=3)

    @pytest.mark.parametrize("key,value,fragment", [
        ("M0", np.eye(3).tolist(), "bad 'M0': expected shape (2, 2)"),
        ("multiplicities", [1, 2], "sum to p"),
        ("multiplicities", 3, "bad 'multiplicities'"),
        ("D0", [1.0], "bad 'D0': expected shape (2,)"),
    ])
    def test_bad_config_values(self, key, value, fragment):
        S = sample(6, np.eye(2), COV0, 383)
        config = {"test_id": "s1", "M0": np.eye(2).tolist(), "D0": [1.0, 1.0],
                  "multiplicities": [2], key: value}
        with pytest.raises(ValueError, match=re.escape(fragment)):
            run_config(config, S)

    @pytest.mark.parametrize("test_id,expected", [
        ("s1", 2), ("s2", 1), ("s3", 1), ("2s1", 2), ("2s2", 3)])
    def test_eigendecompositions_per_run(self, monkeypatch, test_id, expected):
        # each sample mean is decomposed once by its fit; s1 adds one
        # decomposition of M0 to check its spectrum
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
        M = np.diag([3.0, 2.0, 1.0])
        config = {"test_id": test_id, "M0": M.tolist(), "D0": [3.0, 2.0, 1.0],
                  "multiplicities": [1, 1, 1]}
        config = {k: v for k, v in config.items()
                  if k in ("test_id",) + lrt.TESTS[test_id].keys}
        S = sample(20, M, CovParams(1.0, 0.1), 384)
        two = test_id in TWO_GROUP
        if two:
            S = np.concatenate([S, sample(20, M, CovParams(1.0, 0.1), 385)])
        run_config(config, S, n1=20 if two else None)
        assert len(calls) == expected

    @pytest.mark.parametrize("test_id,cov,expected", [
        ("a0", {"estimate": True}, 1), ("a0", None, 1),
        ("a0", {"known": {"sigma2": 1.0, "tau": 0.1}}, 1),
        ("s2", {"estimate": True}, 0), ("2a0", {"estimate": True}, 1),
        ("s1", {"estimate": True}, 1), ("2s2", {"estimate": True}, 1),
        ("s3", {"estimate": True}, 0), ("2s1", {"estimate": True}, 0),
        ("cov-check", None, 0)],
        ids=["a0-estimate", "a0-default", "a0-known", "s2-estimate",
             "2a0-estimate", "s1-estimate", "2s2-estimate", "s3-estimate",
             "2s1-estimate", "cov-check"])
    def test_residual_passes_per_run(self, monkeypatch, test_id, cov, expected):
        # each restricted fit's residual is formed once, whatever the
        # covariance: the null fit's (sigma2, tau), the F variant's sigma2
        # at the alternative and the statistic all read those sums. An
        # unrestricted fit is the sample mean, whose residual is zero, and
        # an eigenframe fit (FixedEigvals, Mult, CommonEigvals) reads its
        # sums from the eigenvalue shift, so neither forms Ybar - M
        import sys
        from symtest import onesample
        calls = []
        residuals = onesample._residuals

        def counted(*args):
            calls.append(None)
            return residuals(*args)

        for name, module in list(sys.modules.items()):
            if (name.startswith("symtest.")
                    and getattr(module, "_residuals", None) is residuals):
                monkeypatch.setattr(module, "_residuals", counted)
        M = np.diag([3.0, 2.0, 1.0])
        config = {"test_id": test_id, "M0": M.tolist(), "D0": [3.0, 2.0, 1.0],
                  "multiplicities": [1, 1, 1], "cov": cov}
        config = {k: v for k, v in config.items() if v is not None and (
            k in ("test_id", "cov") + lrt.TESTS[test_id].keys)}
        # cov-check needs n > q(q+3)/2 = 27
        S = sample(40 if test_id == "cov-check" else 20, M,
                   CovParams(1.0, 0.1), 386)
        two = test_id in TWO_GROUP
        if two:
            S = np.concatenate([S, sample(20, M, CovParams(1.0, 0.1), 387)])
        run_config(config, S, n1=20 if two else None)
        assert len(calls) == expected

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("test_id", [
        "a0", "a2", "c2", "s2", "s3", "cov-check", "2a0", "2s1"])
    def test_unrestricted_fit_skips_its_pass_bit_for_bit(
            self, monkeypatch, test_id, scale):
        # an unrestricted fit's residual is not formed; the statistic, the
        # p-value and the covariance fit equal those of a full pass, bit
        # for bit, with a known and with an estimated covariance
        from symtest import onesample
        M = np.diag([3.0, 2.0, 1.0])
        config = {"test_id": test_id, "M0": (scale * M).tolist(),
                  "U0": np.eye(3).tolist(), "D0": [3 * scale, 2 * scale, scale],
                  "multiplicities": [1, 1, 1]}
        spec = lrt.TESTS[test_id]
        config = {k: v for k, v in config.items()
                  if k in ("test_id",) + spec.keys + spec.optional}
        S = scale * sample(40, M, CovParams(1.0, 0.1), 389)
        n1 = 20 if test_id in TWO_GROUP else None
        covs = [None] if test_id == "cov-check" else [
            {"estimate": True},
            {"known": {"sigma2": scale ** 2, "tau": 0.1}}]

        def bits(res):
            return [float(x).hex() for x in (
                res.statistic, res.p_value, res.fit_null.sigma2_hat,
                res.fit_null.tau_hat)]

        for cov in covs:
            c = config if cov is None else dict(config, cov=cov)
            h = lrt.parse_config(c, 3, (40,) if n1 is None else (20, 20))
            assert any(isinstance(pset, onesample.Unrestricted) for pset in h.sets)
            fast = bits(run_config(c, S, n1=n1))
            with monkeypatch.context() as m:
                m.setattr(lrt, "_fit_residuals", lambda stats, pset, means:
                          onesample._residuals(stats, means))
                full = bits(run_config(c, S, n1=n1))
            assert fast == full

    @pytest.mark.parametrize("test_id,sizes", [
        ("a0", (1,)), ("a1", (1,)), ("s3", (1,)), ("2a0", (1, 1)),
        ("2s1", (1, 1))])
    def test_estimated_cov_needs_a_second_observation(self, test_id, sizes):
        # one observation per group leaves no within-group spread
        M = np.diag([3.0, 2.0, 1.0])
        config = {"test_id": test_id, "M0": M.tolist(), "U0": np.eye(3).tolist(),
                  "multiplicities": [1, 1, 1]}
        config = {k: v for k, v in config.items()
                  if k in ("test_id",) + lrt.TESTS[test_id].keys}
        S = sample(len(sizes), M, CovParams(1.0, 0.1), 388)
        with pytest.raises(ValueError, match="requires n >= %d" % (len(sizes) + 1)):
            run_config(config, S, n1=1 if len(sizes) == 2 else None)

    def test_c2_explicit_weights(self):
        S = sample(8, np.diag([3.0, 1.0]), COV0, 379)
        config = {"test_id": "c2", "U0": [[1.0, 0.0], [0.0, 1.0]],
                  "cov": {"known": {"sigma2": 1.0, "tau": 0.0}},
                  "weights": {"face_dims": [1, 2], "weights": [0.5, 0.5]}}
        res = run_config(config, S)
        assert res.dist == ChiSqMix(weights=(0.5, 0.5), dfs=(2.0, 1.0))


# per test id: a config's keys for 3 x 3 data and the same values as run's
# arguments
MEAN = np.diag([3.0, 2.0, 1.0])
RUN_CASES = {
    "a0": ({"M0": MEAN.tolist()}, dict(M0=MEAN)),
    "a1": ({"U0": np.eye(3).tolist(), "M0": MEAN.tolist()},
           dict(U0=np.eye(3), M0=MEAN)),
    "a2": ({"U0": np.eye(3).tolist()}, dict(U0=np.eye(3))),
    "c2": ({"U0": np.eye(3).tolist(), "multiplicities": [2, 1]},
           dict(U0=np.eye(3), mult=Multiplicities((2, 1)))),
    "s1": ({"M0": MEAN.tolist(), "D0": [3.0, 2.0, 1.0],
            "multiplicities": [1, 1, 1]},
           dict(M0=MEAN, D0=np.array([3.0, 2.0, 1.0]),
                mult=Multiplicities((1, 1, 1)))),
    "s2": ({"D0": [3.0, 2.0, 1.0], "multiplicities": [1, 1, 1]},
           dict(D0=np.array([3.0, 2.0, 1.0]), mult=Multiplicities((1, 1, 1)))),
    "s3": ({"multiplicities": [2, 1]}, dict(mult=Multiplicities((2, 1)))),
    "cov-check": ({}, {}),
    "2a0": ({}, {}),
    "2s1": ({"multiplicities": [1, 1, 1]}, dict(mult=Multiplicities((1, 1, 1)))),
    "2s2": ({"multiplicities": [1, 1, 1]}, dict(mult=Multiplicities((1, 1, 1)))),
}
COV_MODES = {"known": ({"known": {"sigma2": 1.0, "tau": 0.1}}, CovParams(1.0, 0.1)),
             "estimated": ({"estimate": True}, None)}


def assert_same_fit(a, b):
    if b is None:
        assert a is None
        return
    assert len(a.means) == len(b.means)
    assert all(np.array_equal(x, y) for x, y in zip(a.means, b.means))
    assert (a.sigma2_hat, a.tau_hat, a.face_dim) == (
        b.sigma2_hat, b.tau_hat, b.face_dim)


class TestRun:
    @pytest.mark.parametrize("test_id,mode", [
        (t, m) for t in RUN_CASES for m in ("known", "estimated", "none")
        if t != "cov-check" or m == "none"])
    def test_matches_run_config(self, test_id, mode):
        config, args = RUN_CASES[test_id]
        config, args = dict(config, test_id=test_id), dict(args)
        if mode != "none":
            config["cov"], args["cov"] = COV_MODES[mode]
        cov = CovParams(1.0, 0.1)
        S = sample(400 if test_id == "cov-check" else 30, MEAN, cov, 391)
        n1 = None
        if test_id in TWO_GROUP:
            S, n1 = np.concatenate([S, sample(25, MEAN, cov, 392)]), 30
        got = lrt.run(test_id, SuffStats.from_sample(S, n1), **args)
        want = run_config(config, S, n1=n1)
        assert (got.test_id, got.statistic, got.p_value, got.dist,
                got.warnings) == (want.test_id, want.statistic, want.p_value,
                                  want.dist, want.warnings)
        assert_same_fit(got.fit_null, want.fit_null)
        assert_same_fit(got.fit_alt, want.fit_alt)

    @pytest.mark.parametrize("test_id,args,fragment", [
        ("a0", {}, "test 'a0' requires argument 'M0'"),
        ("s1", dict(M0=MEAN, D0=np.array([3.0, 2.0, 1.0])),
         "test 's1' requires argument 'mult'"),
        ("a2", dict(U0=np.eye(3), M0=MEAN), "test 'a2' takes no argument 'M0'"),
        ("s3", dict(multiplicities=Multiplicities((2, 1))),
         "test 's3' takes no argument 'multiplicities'"),
        ("cov-check", dict(cov=COV0), "test 'cov-check' takes no argument 'cov'"),
    ])
    def test_rejects_argument_names(self, test_id, args, fragment):
        stats = SuffStats.from_sample(sample(6, MEAN, COV0, 393))
        with pytest.raises(TypeError, match=re.escape(fragment)):
            lrt.run(test_id, stats, **args)

    @pytest.mark.parametrize("test_id", sorted(RUN_CASES))
    def test_run_and_run_config_reject_the_same_name(self, test_id):
        # one argument rule: a name the test does not take is refused by run
        # and by run_config alike, and the message names it
        config, args = RUN_CASES[test_id]
        S = sample(400 if test_id == "cov-check" else 12, MEAN, COV0, 396)
        n1 = 6 if test_id in TWO_GROUP else None
        other = next(k for k in ("U0", "M0", "D0") if k not in args)
        for name in ("bogus", other):
            with pytest.raises(TypeError, match="takes no argument %r" % name):
                lrt.run(test_id, SuffStats.from_sample(S, n1),
                        **dict(args, **{name: np.eye(3)}))
            with pytest.raises(ValueError, match="takes no key %r" % name):
                run_config(dict(config, test_id=test_id, **{name: np.eye(3)}),
                           S, n1=n1)

    def test_rejects_unknown_test_id(self):
        stats = SuffStats.from_sample(sample(6, MEAN, COV0, 394))
        with pytest.raises(ValueError, match="unknown test_id 'zz'"):
            lrt.run("zz", stats)

    @pytest.mark.parametrize("cov,fragment", [
        (CovParams(1.0, 0.5), "tau must be < 1/p"),
        (CovParams(1.0, 0.9), "tau must be < 1/p"),
        (CovParams(-1.0, 0.0), "sigma2 must be positive"),
        ("estimate", "cov must be a known CovParams"),
    ])
    def test_known_cov_validated(self, cov, fragment):
        # tau = 1/p at p = 2 is no distribution; it must not yield a p-value
        stats = SuffStats.from_sample(sample(6, np.eye(2), COV0, 395))
        with pytest.raises(ValueError, match=re.escape(fragment)):
            lrt.run("a0", stats, M0=np.eye(2), cov=cov)

    @pytest.mark.parametrize("p,test_id,args,fragment", [
        (2, "a0", dict(M0=np.eye(3)), "bad 'M0': expected shape (2, 2)"),
        (2, "a2", dict(U0=np.eye(3)), "bad 'U0': expected shape (2, 2)"),
        (2, "s3", dict(mult=(1, 2)), "does not sum to p = 2"),
        (2, "s3", dict(mult=Multiplicities((2, 1))), "does not sum to p = 2"),
        (2, "s3", dict(mult="11"), "expected an array"),
        (3, "c2", dict(U0=np.eye(3), weights=lrt.ConeWeights(
            None, (1, 2, 3, 4), (0.25,) * 4, 0)), "in 1..3"),
        (2, "s2", dict(D0=[1.0, np.nan], mult=(1, 1)), "must be finite"),
    ])
    def test_values_parsed_for_p(self, p, test_id, args, fragment):
        # run parses every value as the config route does, for the data's p
        stats = SuffStats.from_sample(sample(8, np.eye(p), COV0, 397))
        with pytest.raises(ValueError, match=re.escape(fragment)):
            lrt.run(test_id, stats, **args)

    def test_sequence_mult_runs_as_multiplicities(self):
        stats = SuffStats.from_sample(sample(8, MEAN, COV0, 398))
        got = lrt.run("s3", stats, mult=[2, 1])
        want = lrt.run("s3", stats, mult=Multiplicities((2, 1)))
        assert (got.statistic, got.dist) == (want.statistic, want.dist)

    @pytest.mark.parametrize("test_id,groups,message", [
        ("2a0", 1, "test '2a0' needs a two-group sample, got one group"),
        ("a0", 2, "test 'a0' needs a one-group sample, got two groups"),
        ("cov-check", 2,
         "test 'cov-check' needs a one-group sample, got two groups"),
        ("a1", 2, "test 'a1' needs a one-group sample, got two groups"),
        ("a2", 2, "test 'a2' needs a one-group sample, got two groups"),
        ("c2", 2, "test 'c2' needs a one-group sample, got two groups"),
        ("s1", 2, "test 's1' needs a one-group sample, got two groups"),
        ("s2", 2, "test 's2' needs a one-group sample, got two groups"),
        ("s3", 2, "test 's3' needs a one-group sample, got two groups"),
        ("2s1", 1, "test '2s1' needs a two-group sample, got one group"),
        ("2s2", 1, "test '2s2' needs a two-group sample, got one group"),
    ])
    def test_rejects_group_count(self, test_id, groups, message):
        # every test given the other group count; the count comes from the
        # null set the arguments build, so no registry field states it
        S = sample(8, MEAN, COV0, 396)
        stats = SuffStats.from_sample(S, 4 if groups == 2 else None)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            lrt.run(test_id, stats, **RUN_CASES[test_id][1])

    @pytest.mark.parametrize("entry", ["run", "run_config", "calibrate_null"])
    def test_sets_built_once_per_call(self, monkeypatch, entry):
        # the sets and the reference are built once per call, and only a
        # single run builds the two FitResults: a calibration builds none
        import dataclasses
        from symtest import onesample
        from symtest.calibrate import calibrate_null
        spec, calls = lrt.TESTS["s1"], []

        def counter(name, f):
            def counted(*a, **kw):
                calls.append(name)
                return f(*a, **kw)
            return counted

        monkeypatch.setitem(lrt.TESTS, "s1", dataclasses.replace(
            spec, sets=counter("sets", spec.sets),
            reference=counter("reference", spec.reference)))
        for module in (lrt, onesample):
            monkeypatch.setattr(module, "FitResult",
                                counter("FitResult", onesample.FitResult))
        config, args = RUN_CASES["s1"]
        config = dict(config, test_id="s1", cov=COV_MODES["known"][0])
        S = sample(20, MEAN, CovParams(1.0, 0.1), 397)
        if entry == "run":
            lrt.run("s1", SuffStats.from_sample(S), **args)
        elif entry == "run_config":
            run_config(config, S)
        else:
            calibrate_null(config, {"M": MEAN.tolist(), "sigma2": 1.0, "tau": 0.1},
                           n=20, reps=1000, seed=398)
        fits = 0 if entry == "calibrate_null" else 2
        assert calls == ["sets", "reference"] + ["FitResult"] * fits
