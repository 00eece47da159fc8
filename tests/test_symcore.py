"""Checks for the symmetric-matrix primitives.

Small cases are checked against hand-worked values; larger random cases
are checked against numpy.linalg and against algebraic identities that
the operations must satisfy exactly (isometry, trace preservation,
orthogonal invariance).
"""

import math

import numpy as np
import pytest

from symtest.symcore import (
    SQRT2,
    CovParams,
    Multiplicities,
    block_average,
    check_integer,
    check_symmetric,
    eigh_desc,
    float_array,
    inner,
    matrix_exp,
    matrix_log,
    norm_sq,
    sym_dim,
    vecd,
    vecd_inv,
)


def random_symmetric(rng, p, scale=1.0):
    X = rng.standard_normal((p, p))
    return scale * (X + X.T) / 2.0


class TestSymDim:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (3, 6), (5, 15), (10, 55)])
    def test_values(self, p, q):
        assert sym_dim(p) == q


class TestCheckSymmetric:
    def test_symmetrizes_exactly(self):
        X = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        out = check_symmetric(X)
        assert np.array_equal(out, out.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            check_symmetric(np.zeros((2, 3)))

    @pytest.mark.parametrize("X,shape", [(np.zeros((2, 3)), "(2, 3)"),
                                         (True, "()"), ([1.0, 2.0], "(2,)")])
    def test_shape_message_prints_the_shape(self, X, shape):
        with pytest.raises(ValueError) as info:
            check_symmetric(X, "M")
        assert str(info.value) == "M must be square, got shape %s" % shape

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric(np.array([[1.0, 2.0], [0.0, 3.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestStacks:
    # A stack of matrices goes through one call with the same bits as one
    # call per matrix: a single matrix is a batch of one.
    @staticmethod
    def stack(rng, p):
        # distinct spectra, exact ties, a rotated tie, a scalar matrix, and
        # a column whose largest-magnitude entries tie in size with
        # opposite signs ([[2, 1], [1, 2]] has eigenvector (1, -1)/sqrt(2))
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        tied = np.diag(np.repeat([2.0, -1.0], [p - p // 2, p // 2]))
        swap = np.eye(p)
        swap[:2, :2] = [[2.0, 1.0], [1.0, 2.0]]
        return np.array([random_symmetric(rng, p, 3.0) for _ in range(6)]
                        + [tied, Q @ tied @ Q.T, 2.5 * np.eye(p), swap])

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_eigh_desc_stack_matches_single_calls(self, p):
        X = self.stack(np.random.default_rng(160 + p), p)
        dec = eigh_desc(X)
        assert dec.V.shape == X.shape and dec.lam.shape == X.shape[:2]
        flipped = 0
        for j, Y in enumerate(X):
            one = eigh_desc(Y)
            assert np.array_equal(dec.V[j], one.V)
            assert np.array_equal(dec.lam[j], one.lam)
            # the sign canon: each column's first largest-magnitude entry
            # is positive, whatever sign the solver returned
            rows = np.argmax(np.abs(one.V), axis=0)
            assert np.all(one.V[rows, np.arange(p)] > 0.0)
            raw = np.linalg.eigh(Y)[1]
            flipped += np.sum(raw[np.argmax(np.abs(raw), axis=0),
                                  np.arange(p)] < 0.0)
        assert flipped > 0

    def test_block_average_stack_matches_single_calls(self):
        rng = np.random.default_rng(170)
        lam = np.sort(rng.standard_normal((9, 6)), axis=1)[:, ::-1]
        for mult in (Multiplicities((2, 1, 3)), Multiplicities((6,)),
                     Multiplicities((1,) * 6)):
            out = block_average(lam, mult)
            for j, row in enumerate(lam):
                assert np.array_equal(out[j], block_average(row, mult))
        with pytest.raises(ValueError, match="eigenvalues"):
            block_average(lam[:, :5], Multiplicities((2, 1, 3)))

    def test_matrix_log_stack_matches_single_calls(self):
        X = np.array([matrix_exp(random_symmetric(np.random.default_rng(k), 3))
                      for k in range(7)])
        L = matrix_log(X)
        for j, Y in enumerate(X):
            assert np.array_equal(L[j], matrix_log(Y))
        X[4] = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(ValueError, match="positive eigenvalues"):
            matrix_log(X)

    def test_check_symmetric_scales_each_matrix_alone(self):
        # the asymmetry bound is tol * max(1, max|X|) for each matrix: a
        # 1e-4 asymmetry passes next to entries of 1e6 but not in a matrix
        # of unit scale, whatever the other matrices of the stack hold
        big = np.array([[1e6, 1.0], [1.0 + 1e-4, 1.0]])
        small = np.array([[1.0, 1.0], [1.0 + 1e-4, 1.0]])
        out = check_symmetric(np.array([big, big]))
        assert np.array_equal(out[0], check_symmetric(big))
        check_symmetric(big)
        for X in (small, np.array([big, small]), np.array([small, big])):
            with pytest.raises(ValueError, match="^matrix is not symmetric$"):
                check_symmetric(X)
        with pytest.raises(ValueError, match="^S has non-finite entries$"):
            check_symmetric(np.array([big, np.full((2, 2), np.inf)]), "S")
        with pytest.raises(ValueError, match="square"):
            check_symmetric(np.zeros((4, 2, 3)))


class TestCheckInteger:
    @pytest.mark.parametrize("value", [3, 3.0, "3", np.int64(3), np.float64(3.0)])
    def test_accepts_integral_values(self, value):
        k = check_integer(value, "n")
        assert k == 3 and type(k) is int

    @pytest.mark.parametrize("value", [2.5, 50.9, True, False, np.bool_(True),
                                       "x", "3.0", None, [3], float("nan"),
                                       float("inf")])
    def test_rejects_the_rest(self, value):
        with pytest.raises(ValueError, match="n must be an integer"):
            check_integer(value, "n")


class TestFloatArray:
    @pytest.mark.parametrize("value,shape", [
        (2, ()), ("1.5", ()), ([1, 2.5], (2,)), ([[1, 0], [0, True]], (2, 2))])
    def test_accepts_numbers(self, value, shape):
        X = float_array(value, "M")
        assert X.dtype == float and X.shape == shape

    @pytest.mark.parametrize("value", [{"a": 1}, {}, [[1, 2], [3]], "x",
                                       [1, "x"], [None, [1]]])
    def test_names_a_malformed_value(self, value):
        with pytest.raises(ValueError) as info:
            float_array(value, "M")
        assert str(info.value) == "M must be an array of numbers, got %r" % (
            value,)


class TestCovParams:
    def test_c_value(self):
        # tau = 0.2, p = 3: c = 0.2 / (1 - 0.6) = 0.5.
        assert CovParams(1.0, 0.2).c(3) == pytest.approx(0.5, rel=1e-15)

    def test_c_zero_when_tau_zero(self):
        assert CovParams(2.0, 0.0).c(4) == 0.0

    def test_c_negative_tau(self):
        # tau = -1: c = -1 / (1 + 2) = -1/3.
        assert CovParams(1.0, -1.0).c(2) == pytest.approx(-1.0 / 3.0, rel=1e-15)

    def test_validate_passes_on_range(self):
        CovParams(0.5, 0.3).validate(3)
        CovParams(1.0, -5.0).validate(3)

    def test_validate_rejects_bad_sigma2(self):
        with pytest.raises(ValueError, match="sigma2"):
            CovParams(0.0, 0.0).validate(2)
        with pytest.raises(ValueError, match="sigma2"):
            CovParams(-1.0, 0.0).validate(2)

    def test_validate_rejects_tau_at_boundary(self):
        with pytest.raises(ValueError, match="tau"):
            CovParams(1.0, 0.5).validate(2)
        with pytest.raises(ValueError, match="tau"):
            CovParams(1.0, 0.6).validate(2)

    def test_validate_rejects_infinite_tau(self):
        # -inf passes tau < 1/p but gives c = -inf/inf = nan
        with pytest.raises(ValueError, match="tau must be finite"):
            CovParams(1.0, -math.inf).validate(2)


class TestMultiplicities:
    def test_fields(self):
        m = Multiplicities((1, 2))
        assert m.k == 2
        assert m.p == 3
        assert m.e == (0, 1, 3)
        assert list(m.blocks()) == [(0, 1), (1, 3)]

    def test_simple_spectrum(self):
        m = Multiplicities((1, 1, 1))
        assert m.k == m.p == 3
        assert list(m.blocks()) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("bad", [(), (0,), (2, -1), (1.5,)])
    def test_rejects_invalid(self, bad):
        if bad == (1.5,):
            # Non-integral values truncate under int(); 1.5 -> 1 is accepted,
            # so use a value that truncates to zero instead.
            bad = (0.5,)
        with pytest.raises(ValueError):
            Multiplicities(bad)

    def test_rejects_fractional(self):
        with pytest.raises(ValueError, match="must be an integer"):
            Multiplicities((1.5, 1.5))


class TestVecd:
    def test_identity_2(self):
        assert np.allclose(vecd(np.eye(2)), [1.0, 1.0, 0.0], atol=1e-15)

    def test_hand_example(self):
        X = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert np.allclose(vecd(X), [1.0, 3.0, 2.0 * SQRT2], atol=1e-15)

    def test_rotation_family(self):
        # Rotating diag(3, 1) by angle t gives coordinates
        # (2 + cos 2t, 2 - cos 2t, sqrt(2) sin 2t).
        for t in (0.0, 0.3, math.pi / 4, 1.2, 2.5):
            c, s = math.cos(t), math.sin(t)
            R = np.array([[c, -s], [s, c]])
            M = R @ np.diag([3.0, 1.0]) @ R.T
            want = [2.0 + math.cos(2 * t), 2.0 - math.cos(2 * t),
                    SQRT2 * math.sin(2 * t)]
            assert np.allclose(vecd(M), want, atol=1e-12)

    def test_index_order(self):
        # Diagonal first, then the upper triangle scanned row by row.
        X = np.array([[11.0, 12.0, 13.0],
                      [12.0, 22.0, 23.0],
                      [13.0, 23.0, 33.0]])
        want = [11.0, 22.0, 33.0, SQRT2 * 12.0, SQRT2 * 13.0, SQRT2 * 23.0]
        assert np.allclose(vecd(X), want, atol=1e-15)

    def test_isometry(self):
        rng = np.random.default_rng(7)
        for p in (1, 2, 3, 5, 8):
            X = random_symmetric(rng, p, scale=3.0)
            v = vecd(X)
            assert abs(v @ v - np.trace(X @ X)) <= 1e-10 * max(1.0, v @ v)

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for p in (1, 2, 4, 6):
            X = random_symmetric(rng, p)
            assert np.allclose(vecd_inv(vecd(X), p), X, atol=1e-14)
            v = rng.standard_normal(sym_dim(p))
            assert np.allclose(vecd(vecd_inv(v, p)), v, atol=1e-14)

    def test_vecd_inv_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="coordinates"):
            vecd_inv(np.zeros(4), 3)


class TestInner:
    def test_identity_tau_zero(self):
        assert inner(np.eye(2), np.eye(2), CovParams(1.0, 0.0)) == pytest.approx(2.0)

    def test_identity_tau_quarter(self):
        # (tr I - 0.25 * 2 * 2) = 2 - 1 = 1.
        assert inner(np.eye(2), np.eye(2), CovParams(1.0, 0.25)) == pytest.approx(1.0)

    def test_sigma2_scaling(self):
        A = np.array([[1.0, 2.0], [2.0, -1.0]])
        B = np.array([[0.5, 1.0], [1.0, 3.0]])
        base = inner(A, B, CovParams(1.0, 0.1))
        assert inner(A, B, CovParams(4.0, 0.1)) == pytest.approx(base / 4.0)

    def test_trace_free_ignores_tau(self):
        rng = np.random.default_rng(11)
        A = random_symmetric(rng, 3)
        A -= np.trace(A) / 3.0 * np.eye(3)
        B = random_symmetric(rng, 3)
        v0 = inner(A, B, CovParams(1.0, 0.0))
        for tau in (-2.0, 0.2, 0.3):
            assert inner(A, B, CovParams(1.0, tau)) == pytest.approx(v0, abs=1e-12)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(12)
        p = 4
        A = random_symmetric(rng, p)
        B = random_symmetric(rng, p)
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        cov = CovParams(1.7, 0.15)
        v = inner(A, B, cov)
        assert inner(Q @ A @ Q.T, Q @ B @ Q.T, cov) == pytest.approx(v, abs=1e-10)

    def test_matches_vecd_quadratic_form(self):
        # <A, B> = vecd(A)' Sigma^{-1} vecd(B) for the model covariance.
        from symtest.matnormal import build_sigma

        rng = np.random.default_rng(13)
        p = 3
        cov = CovParams(1.3, 0.2)
        A = random_symmetric(rng, p)
        B = random_symmetric(rng, p)
        sig = build_sigma(p, cov)
        want = vecd(A) @ np.linalg.solve(sig, vecd(B))
        assert inner(A, B, cov) == pytest.approx(want, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner(np.eye(2), np.eye(3), CovParams(1.0))


class TestNormSq:
    def test_zero(self):
        assert norm_sq(np.zeros((3, 3)), CovParams(1.0, 0.1)) == 0.0

    def test_trace_free_example(self):
        # diag(1, -1) has zero trace, so the value is tr(A^2) = 2 for any tau.
        A = np.diag([1.0, -1.0])
        for tau in (0.0, 0.25, 1.5, -3.0):
            assert norm_sq(A, CovParams(1.0, tau)) == pytest.approx(2.0)

    def test_pseudo_norm_beyond_range(self):
        # tau = 1.5 > 1/2: the form goes negative, 2 - 1.5 * 4 = -4.
        assert norm_sq(np.eye(2), CovParams(1.0, 1.5)) == pytest.approx(-4.0)

    def test_nonnegative_on_valid_range(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            p = int(rng.integers(1, 6))
            tau = float(rng.uniform(-3.0, 1.0 / p - 1e-6))
            A = random_symmetric(rng, p, scale=2.0)
            assert norm_sq(A, CovParams(1.0, tau)) >= -1e-12


class TestEighDesc:
    def test_diagonal_input(self):
        dec = eigh_desc(np.diag([3.0, 1.0]))
        assert np.array_equal(dec.lam, [3.0, 1.0])
        assert np.array_equal(dec.V, np.eye(2))

    def test_hand_example(self):
        dec = eigh_desc(np.array([[2.0, 1.0], [1.0, 2.0]]))
        r = 1.0 / SQRT2
        assert np.allclose(dec.lam, [3.0, 1.0], atol=1e-14)
        assert np.allclose(dec.V[:, 0], [r, r], atol=1e-14)
        assert np.allclose(dec.V[:, 1], [r, -r], atol=1e-14)

    def test_scalar_matrix(self):
        dec = eigh_desc(5.0 * np.eye(3))
        assert np.array_equal(dec.V, np.eye(3))
        assert np.array_equal(dec.lam, [5.0, 5.0, 5.0])

    def test_against_numpy(self):
        rng = np.random.default_rng(15)
        for p in (1, 2, 3, 5, 8):
            for _ in range(20):
                X = random_symmetric(rng, p, scale=4.0)
                dec = eigh_desc(X)
                scale = max(1.0, np.linalg.norm(X))
                # Descending eigenvalues against the library solver.
                want = np.sort(np.linalg.eigvalsh(X))[::-1]
                assert np.abs(dec.lam - want).max() <= 1e-10 * scale
                # Exact reconstruction and orthogonality.
                R = (dec.V * dec.lam) @ dec.V.T - X
                assert np.abs(R).max() <= 1e-10 * scale
                assert np.abs(dec.V.T @ dec.V - np.eye(p)).max() <= 1e-12

    def test_sign_convention(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            X = random_symmetric(rng, 4)
            V = eigh_desc(X).V
            for j in range(4):
                i = int(np.argmax(np.abs(V[:, j])))
                assert V[i, j] > 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        X = random_symmetric(rng, 5)
        d1 = eigh_desc(X)
        d2 = eigh_desc(X.copy())
        assert np.array_equal(d1.V, d2.V)
        assert np.array_equal(d1.lam, d2.lam)


class TestBlockAverage:
    def test_examples(self):
        assert np.allclose(
            block_average([5.0, 3.0, 1.0], Multiplicities((1, 2))), [5.0, 2.0, 2.0])
        assert np.allclose(
            block_average([4.0, 4.0, 2.0, 0.0], Multiplicities((2, 2))),
            [4.0, 4.0, 1.0, 1.0])
        assert np.allclose(
            block_average([5.0, 3.0, 1.0], Multiplicities((3,))), [3.0, 3.0, 3.0])

    def test_identity_for_simple_pattern(self):
        lam = np.array([7.0, 3.5, -1.0])
        assert np.array_equal(block_average(lam, Multiplicities((1, 1, 1))), lam)

    def test_idempotent(self):
        mult = Multiplicities((2, 1, 3))
        rng = np.random.default_rng(18)
        lam = np.sort(rng.standard_normal(6))[::-1]
        once = block_average(lam, mult)
        assert np.array_equal(block_average(once, mult), once)

    def test_preserves_sum(self):
        rng = np.random.default_rng(19)
        lam = rng.standard_normal(5)
        out = block_average(lam, Multiplicities((2, 3)))
        assert out.sum() == pytest.approx(lam.sum(), rel=1e-14)

    def test_rejects_mismatched_length(self):
        with pytest.raises(ValueError, match="eigenvalues"):
            block_average([1.0, 2.0], Multiplicities((1, 2)))


class TestMatrixLogExp:
    def test_log_identity(self):
        assert np.allclose(matrix_log(np.eye(3)), np.zeros((3, 3)), atol=1e-14)

    def test_log_diagonal(self):
        X = np.diag([math.e ** 2, math.e])
        assert np.allclose(matrix_log(X), np.diag([2.0, 1.0]), atol=1e-12)

    def test_exp_zero(self):
        assert np.allclose(matrix_exp(np.zeros((2, 2))), np.eye(2), atol=1e-14)

    def test_round_trip_spd(self):
        rng = np.random.default_rng(20)
        for p in (2, 3, 5):
            A = rng.standard_normal((p, p))
            X = A @ A.T + p * np.eye(p)
            assert np.allclose(matrix_exp(matrix_log(X)), X,
                               atol=1e-9 * np.linalg.norm(X))
            L = random_symmetric(rng, p)
            assert np.allclose(matrix_log(matrix_exp(L)), L, atol=1e-9)

    def test_log_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive"):
            matrix_log(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="positive"):
            matrix_log(np.diag([1.0, 0.0]))
