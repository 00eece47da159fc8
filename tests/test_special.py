"""Accuracy of the chi-square and F tail probabilities of lrt.pvalue.

Reference values were frozen from a 50-digit arbitrary-precision run.
The regularized incomplete gamma fixtures Q(a, x) are chi-square tails,
Q(a, x) = P(chi2(2a) > 2x), and the incomplete beta fixtures I_x(a, b)
are F tails, I_x(a, b) = P(F(2b, 2a) > a(1 - x) / (b x)).
"""

import numpy as np
import pytest
import scipy.special as sps

from symtest.lrt import ChiSq, FDist, pvalue

# (a, x, Q(a, x)) at 20 significant digits.
GAMMAINC_Q_FIXTURES = [
    (0.5, 0.25, 0.47950012218695346232),
    (0.5, 3.0, 0.014305878435429639526),
    (1.5, 0.5, 0.80125195690120080243),
    (3.0, 6.296, 0.049992458189210025559),
    (3.0, 2.0, 0.67667641618306345947),
    (9.5, 40.0, 1.8596255029858507723e-9),
    (10.0, 3.0, 0.99889751186988452026),
    (25.0, 24.0, 0.55400122307499568648),
    (0.05, 0.9, 0.013613573965436628552),
    (50.0, 75.0, 0.00090393204235400908576),
    (2.5, 1e-08, 1.0),
    (6.0, 60.0, 6.1802235808116025733e-20),
]

# (a, b, x, I_x(a, b)) at 20 significant digits.
BETAINC_FIXTURES = [
    (0.5, 0.5, 0.3, 0.36901011956554537504),
    (3.0, 75.0, 0.02, 0.20006065038172046792),
    (75.0, 3.0, 0.98, 0.79993934961827919061),
    (2.0, 2.0, 0.5, 0.5),
    (1.5, 11.5, 0.115, 0.58777101889035516204),
    (12.0, 12.0, 0.6, 0.83635655936010735082),
    (0.3, 0.7, 0.8, 0.87303452573119258494),
    (40.0, 40.0, 0.45, 0.1856930116269923887),
    (5.0, 1.0, 0.99, 0.95099004989999995734),
]

# (t, df, upper tail) at 20 significant digits.
CHI2_SF_FIXTURES = [
    (12.591587243743977, 6, 0.050000000000000051908),
    (3.0, 3, 0.39162517627108895548),
    (0.5, 1, 0.47950012218695346232),
    (70.0, 19, 9.1981536914797144001e-8),
    (25.0, 12, 0.014822874597441556855),
    (0.001, 2, 0.99950012497916927056),
    (40.0, 6, 4.5551495055892127998e-7),
    (11.070497693516351, 5, 0.050000000000000051957),
]

# (t, df1, df2, upper tail) at 20 significant digits.
F_SF_FIXTURES = [
    (1.0, 6, 294, 0.42545194958521334403),
    (2.2, 6, 294, 0.04304271335755784589),
    (4.0, 1, 10, 0.073388034770740365618),
    (0.5, 3, 7, 0.69403638756881372389),
    (3.5, 6, 588, 0.0020736147810836821689),
]



def gamma_q(a, x):
    return pvalue(ChiSq(2.0 * a), 2.0 * x)


def beta_i(a, b, x):
    return pvalue(FDist(2.0 * b, 2.0 * a), a * (1.0 - x) / (b * x))


class TestGammainc:
    @pytest.mark.parametrize("a,x,expected", GAMMAINC_Q_FIXTURES)
    def test_frozen_values(self, a, x, expected):
        assert gamma_q(a, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a,x,expected", GAMMAINC_Q_FIXTURES)
    def test_complement(self, a, x, expected):
        # the lower tail P(a, x) from scipy's independent series
        assert float(sps.gammainc(a, x)) + gamma_q(a, x) == pytest.approx(1.0, abs=1e-14)

    def test_against_scipy_grid(self):
        a_vals = [0.25, 0.5, 1.0, 2.5, 7.0, 19.5, 60.0]
        x_vals = np.array([1e-6, 0.1, 0.9, 2.0, 8.0, 30.0, 120.0])
        for a in a_vals:
            got = pvalue(ChiSq(2.0 * a), 2.0 * x_vals)
            assert got.shape == x_vals.shape
            np.testing.assert_allclose(got, sps.gammaincc(a, x_vals),
                                       rtol=1e-12, atol=1e-300)
            assert np.array_equal(got, [gamma_q(a, x) for x in x_vals])

    def test_edges(self):
        assert gamma_q(3.0, 0.0) == 1.0
        assert gamma_q(3.0, -0.5) == 1.0
        with pytest.raises(ValueError):
            pvalue(ChiSq(6.0), float("inf"))
        with pytest.raises(ValueError):
            pvalue(ChiSq(6.0), np.array([1.0, np.nan]))


class TestBetainc:
    @pytest.mark.parametrize("a,b,x,expected", BETAINC_FIXTURES)
    def test_frozen_values(self, a, b, x, expected):
        assert beta_i(a, b, x) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        # 1/X ~ F(d2, d1) when X ~ F(d1, d2)
        for a, b, _, _ in BETAINC_FIXTURES:
            for t in (0.3, 1.0, 2.5):
                total = (pvalue(FDist(2.0 * b, 2.0 * a), t)
                         + pvalue(FDist(2.0 * a, 2.0 * b), 1.0 / t))
                assert total == pytest.approx(1.0, abs=1e-13)

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = float(rng.uniform(0.2, 80.0))
            b = float(rng.uniform(0.2, 80.0))
            t = float(rng.uniform(0.01, 6.0))
            x = 2.0 * a / (2.0 * a + 2.0 * b * t)
            assert pvalue(FDist(2.0 * b, 2.0 * a), t) == pytest.approx(
                float(sps.betainc(a, b, x)), rel=1e-11, abs=1e-300)

    def test_edges(self):
        assert pvalue(FDist(6.0, 4.0), 0.0) == 1.0
        assert pvalue(FDist(6.0, 4.0), -1.0) == 1.0
        assert 0.0 < pvalue(FDist(6.0, 4.0), 1e12) < 1e-20
        with pytest.raises(ValueError):
            pvalue(FDist(6.0, 4.0), float("nan"))


class TestChi2Sf:
    @pytest.mark.parametrize("t,df,expected", CHI2_SF_FIXTURES)
    def test_frozen_values(self, t, df, expected):
        assert pvalue(ChiSq(df), t) == pytest.approx(expected, rel=1e-12)

    def test_df_zero_point_mass(self):
        assert pvalue(ChiSq(0), 0.0) == 1.0
        assert pvalue(ChiSq(0), 1e-12) == 0.0
        assert pvalue(ChiSq(0), 5.0) == 0.0
        assert np.array_equal(pvalue(ChiSq(0), np.array([-1.0, 0.0, 2.0])),
                              [1.0, 1.0, 0.0])

    def test_at_origin(self):
        assert pvalue(ChiSq(4), 0.0) == 1.0
        assert pvalue(ChiSq(4), -1.0) == 1.0

    def test_monotone_in_t(self):
        vals = pvalue(ChiSq(6), np.linspace(0.0, 30.0, 200))
        assert np.all(np.diff(vals) <= 0.0)


class TestFSf:
    @pytest.mark.parametrize("t,df1,df2,expected", F_SF_FIXTURES)
    def test_frozen_values(self, t, df1, df2, expected):
        assert pvalue(FDist(df1, df2), t) == pytest.approx(expected, rel=1e-12)

    def test_against_scipy(self):
        import scipy.stats as st
        rng = np.random.default_rng(11)
        for _ in range(100):
            d1 = float(rng.integers(1, 40))
            d2 = float(rng.integers(2, 600))
            t = float(rng.uniform(0.01, 6.0))
            assert pvalue(FDist(d1, d2), t) == pytest.approx(float(st.f.sf(t, d1, d2)),
                                                             rel=1e-10)

    def test_at_origin(self):
        assert pvalue(FDist(3, 10), 0.0) == 1.0
