"""Checks for the one-sample MLE machinery.

The mean projections are checked against hand-worked values and, for the
monotone cone, against an exhaustive search over every block pattern.
The covariance estimators are checked by consistency on large simulated
samples, and the eigenvector uncertainty map by recovering planted
rotations.
"""

import itertools
import math
import re

import numpy as np
import pytest
import scipy.linalg

from symtest.matnormal import SuffStats, sample
from symtest.onesample import (
    CommonEigvals,
    EqualMeans,
    FitResult,
    FixedEigvals,
    FixedEigvecs,
    Mult,
    OrderedCone,
    Point,
    Unrestricted,
    _fit,
    _fit_residuals,
    _residuals,
    _rotation_log,
    contains,
    eigvec_uncertainty,
    estimate_sigma2,
    estimate_tau,
    mle,
    pava,
    project,
)
from symtest.symcore import CovParams, Multiplicities, eigh_desc, sym_dim


def random_symmetric(rng, p, scale=1.0):
    X = rng.standard_normal((p, p))
    return scale * (X + X.T) / 2.0


def random_orthogonal(rng, p):
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diagonal(R))


def schur_log(R):
    """Principal logarithm of one rotation from its real Schur form, whose
    2 x 2 blocks are plane rotations with directly readable angles: the
    oracle for the closed-form log."""
    T, Z = scipy.linalg.schur(R, output="real")
    p = R.shape[0]
    L = np.zeros((p, p))
    i = 0
    while i < p:
        if i + 1 < p and abs(T[i + 1, i]) > 1e-12:
            L[i + 1, i] = math.atan2(T[i + 1, i], T[i, i])
            L[i, i + 1] = -L[i + 1, i]
            i += 2
        else:
            assert T[i, i] > 0.0, "rotation angle pi"
            i += 1
    A = Z @ L @ Z.T
    return 0.5 * (A - A.T)


def planted_rotation(rng, angles, p):
    # Q exp(L) Q' for a random orthogonal Q and L rotating plane k of the
    # standard frame by angles[k], with the log Q L Q'
    L = np.zeros((p, p))
    for k, angle in enumerate(angles):
        L[2 * k + 1, 2 * k], L[2 * k, 2 * k + 1] = angle, -angle
    Q = random_orthogonal(rng, p)
    return Q @ scipy.linalg.expm(L) @ Q.T, Q @ L @ Q.T


def pava_brute_force(y):
    """Exhaustive projection onto the non-increasing cone.

    Tries every partition of the coordinates into consecutive blocks,
    keeps the partitions whose blockwise means are non-increasing, and
    returns the feasible fit with the smallest squared error.
    """
    y = np.asarray(y, dtype=float)
    p = y.shape[0]
    best, best_sse = None, np.inf
    for cuts in itertools.product([0, 1], repeat=p - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [p]
        fit = np.empty(p)
        for lo, hi in zip(bounds, bounds[1:]):
            fit[lo:hi] = y[lo:hi].mean()
        means = [fit[lo] for lo in bounds[:-1]]
        if any(a < b - 1e-12 for a, b in zip(means, means[1:])):
            continue
        sse = float(np.sum((fit - y) ** 2))
        if sse < best_sse - 1e-12:
            best, best_sse = fit, sse
    return best, best_sse


def pava_row_loop(y):
    # stack pool-adjacent-violators on one vector, pooling on strict
    # violation with the (m1 c1 + m2 c2) / (c1 + c2) update
    means, counts = [], []
    for v in y:
        means.append(v)
        counts.append(1)
        while len(means) > 1 and means[-2] < means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            means.append((m1 * c1 + m2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    out = np.repeat(means, counts)
    return out, 1 + int(np.sum(out[1:] != out[:-1]))


class TestPava:
    def test_increasing_input_pools_everything(self):
        fit, dim = pava([1.0, 2.0, 3.0])
        assert np.allclose(fit, [2.0, 2.0, 2.0], atol=1e-15)
        assert dim == 1

    def test_partial_violation(self):
        fit, dim = pava([3.0, 1.0, 2.0])
        assert np.allclose(fit, [3.0, 1.5, 1.5], atol=1e-15)
        assert dim == 2

    def test_ordered_input_unchanged(self):
        y = np.array([5.0, 3.0, 3.0, 1.0])
        fit, dim = pava(y)
        assert np.array_equal(fit, y)
        assert dim == 3

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            p = int(rng.integers(2, 7))
            y = rng.standard_normal(p) * rng.uniform(0.5, 3.0)
            fit, dim = pava(y)
            want, want_sse = pava_brute_force(y)
            assert np.abs(fit - want).max() <= 1e-10
            sse = float(np.sum((fit - y) ** 2))
            assert sse <= want_sse + 1e-10
            assert dim == 1 + int(np.sum(want[1:] < want[:-1] - 1e-12))

    def test_grid_of_small_cases(self):
        vals = (-1.0, 0.0, 1.0)
        for y in itertools.product(vals, repeat=3):
            fit, _ = pava(np.array(y))
            want, _ = pava_brute_force(np.array(y))
            assert np.abs(fit - want).max() <= 1e-12

    def test_preserves_mean(self):
        rng = np.random.default_rng(72)
        y = rng.standard_normal(6)
        fit, _ = pava(y)
        assert fit.mean() == pytest.approx(y.mean(), rel=1e-13)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 10])
    def test_batch_bit_identical_to_row_loop(self, p):
        # Gaussian rows, constant rows, exact ties and rounded rows: the
        # batched fit and face dimension equal a row-by-row stack PAVA bit
        # for bit.
        rng = np.random.default_rng(75 + p)
        y = rng.standard_normal((3000, p))
        y[:300] = rng.standard_normal((300, 1))
        y[300:600, : p // 2] = y[300:600, p // 2: 2 * (p // 2)]
        y[600:1500] = np.round(y[600:1500], 1)
        fit, dims = pava(y)
        assert fit.shape == y.shape and dims.shape == (3000,)
        for row, f, d in zip(y, fit, dims):
            want, want_dim = pava_row_loop(row)
            assert np.array_equal(f, want)
            assert d == want_dim
        one, one_dim = pava(y[7])
        assert np.array_equal(one, fit[7]) and one_dim == dims[7]


class TestFixedEigvecsProjection:
    def test_identity_frame_keeps_diagonal(self):
        Ybar = np.array([[2.0, 5.0], [5.0, -1.0]])
        assert np.array_equal(project(FixedEigvecs(np.eye(2)), Ybar)[0][0],
                              np.diag([2.0, -1.0]))

    def test_fixed_point(self):
        rng = np.random.default_rng(73)
        U = random_orthogonal(rng, 3)
        M = (U * np.array([4.0, 1.0, -2.0])) @ U.T
        assert np.allclose(project(FixedEigvecs(U), M)[0][0], M, atol=1e-12)

    def test_signed_permutation_invariance(self):
        rng = np.random.default_rng(74)
        U = random_orthogonal(rng, 3)
        Ybar = random_symmetric(rng, 3)
        base = project(FixedEigvecs(U), Ybar)[0][0]
        perm = U[:, [2, 0, 1]] * np.array([1.0, -1.0, -1.0])
        assert np.allclose(project(FixedEigvecs(perm), Ybar)[0][0], base, atol=1e-12)

    def test_is_orthogonal_projection(self):
        # Residual is orthogonal to every matrix diagonalized by U.
        rng = np.random.default_rng(75)
        U = random_orthogonal(rng, 4)
        Ybar = random_symmetric(rng, 4)
        fit = project(FixedEigvecs(U), Ybar)[0][0]
        other = (U * rng.standard_normal(4)) @ U.T
        assert np.sum((Ybar - fit) * other) == pytest.approx(0.0, abs=1e-12)


class TestOrderedConeProjection:
    def test_reduces_to_pava_on_trailing_diagonal(self):
        rng = np.random.default_rng(76)
        U = random_orthogonal(rng, 4)
        Ybar = random_symmetric(rng, 4)
        (fit,), dim = project(OrderedCone(U), Ybar)
        y = np.diagonal(U.T @ Ybar @ U)
        d, want_dim = pava(y)
        assert np.allclose(fit, (U * d) @ U.T, atol=1e-12)
        assert dim == want_dim

    def test_ordered_matrix_is_fixed(self):
        U = np.eye(3)
        M = np.diag([3.0, 2.0, -1.0])
        (fit,), dim = project(OrderedCone(U), M)
        assert np.allclose(fit, M, atol=1e-15)
        assert dim == 3


class TestFixedEigvalsProjection:
    def test_diagonal_case(self):
        pset = FixedEigvals([3.0, 2.0], Multiplicities((1, 1)))
        (M,), _ = project(pset, np.diag([5.0, 1.0]))
        assert np.allclose(M, np.diag([3.0, 2.0]), atol=1e-14)

    def test_hand_example(self):
        # Ybar = [[2, 2], [2, 2]] has frame (1,1)/sqrt2, (1,-1)/sqrt2; with
        # spectrum (3, 1) the projection is [[2, 1], [1, 2]].
        Ybar = np.array([[2.0, 2.0], [2.0, 2.0]])
        M = project(FixedEigvals([3.0, 1.0], Multiplicities((1, 1))), Ybar)[0][0]
        assert np.allclose(M, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)

    def test_scalar_spectrum(self):
        rng = np.random.default_rng(77)
        Ybar = random_symmetric(rng, 3)
        M = project(FixedEigvals([2.5, 2.5, 2.5], Multiplicities((3,))), Ybar)[0][0]
        assert np.allclose(M, 2.5 * np.eye(3), atol=1e-12)

    def test_output_spectrum_is_exact(self):
        rng = np.random.default_rng(78)
        D0 = np.array([4.0, 1.0, -1.0])
        (M,), _ = project(FixedEigvals(D0, Multiplicities((1, 1, 1))),
                          random_symmetric(rng, 3))
        assert np.allclose(np.sort(np.linalg.eigvalsh(M))[::-1], D0, atol=1e-10)

    def test_rejects_unsorted_spectrum(self):
        with pytest.raises(ValueError, match="decreasing"):
            project(FixedEigvals([1.0, 3.0], Multiplicities((1, 1))), np.eye(2))

    def test_rejects_spectrum_pattern_mismatch(self):
        with pytest.raises(ValueError, match="block"):
            project(FixedEigvals([3.0, 1.0], Multiplicities((2,))), np.eye(2))


class TestMultProjection:
    def test_simple_pattern_is_identity(self):
        rng = np.random.default_rng(79)
        Ybar = random_symmetric(rng, 3)
        fit = project(Mult(Multiplicities((1, 1, 1))), Ybar)[0][0]
        assert np.allclose(fit, Ybar, atol=1e-11)

    def test_full_pooling_gives_scaled_identity(self):
        rng = np.random.default_rng(80)
        Ybar = random_symmetric(rng, 4)
        fit = project(Mult(Multiplicities((4,))), Ybar)[0][0]
        assert np.allclose(fit, np.trace(Ybar) / 4.0 * np.eye(4), atol=1e-12)

    def test_block_average_of_spectrum(self):
        rng = np.random.default_rng(81)
        V = random_orthogonal(rng, 3)
        Ybar = (V * np.array([5.0, 3.0, 1.0])) @ V.T
        fit = project(Mult(Multiplicities((1, 2))), Ybar)[0][0]
        want = (V * np.array([5.0, 2.0, 2.0])) @ V.T
        assert np.allclose(fit, want, atol=1e-11)

    def test_preserves_trace(self):
        rng = np.random.default_rng(82)
        Ybar = random_symmetric(rng, 5)
        fit = project(Mult(Multiplicities((2, 3))), Ybar)[0][0]
        assert np.trace(fit) == pytest.approx(np.trace(Ybar), rel=1e-13)

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(83)
        Ybar = random_symmetric(rng, 4)
        Q = random_orthogonal(rng, 4)
        mult = Multiplicities((1, 3))
        a = project(Mult(mult), Q @ Ybar @ Q.T)[0][0]
        b = Q @ project(Mult(mult), Ybar)[0][0] @ Q.T
        assert np.allclose(a, b, atol=1e-10)

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


def all_sets(rng, scale):
    """Every parameter set at the given data scale, each with group means off it.

    Returns (set, means, counts, tolerance at scale 1) tuples; the counts
    weight the two-group fits unequally.
    """
    U = random_orthogonal(rng, 3)
    mult = Multiplicities((1, 2))
    Y1, Y2 = (random_symmetric(rng, 3, scale) for _ in range(2))
    one = [(Unrestricted(), 1e-12),
           (Point(random_symmetric(rng, 3, scale)), 1e-12),
           (FixedEigvecs(U), 1e-12),
           (OrderedCone(U), 1e-12),
           (FixedEigvals(scale * np.array([3.0, 1.0, 1.0]), mult), 1e-11),
           (Mult(mult), 1e-11)]
    two = [(Unrestricted(), 1e-12), (EqualMeans(), 1e-12),
           (EqualMeans(mult), 1e-11), (CommonEigvals(mult), 1e-11)]
    return ([(pset, (Y1,), None, tol) for pset, tol in one]
            + [(pset, (Y1, Y2), (4, 7), tol) for pset, tol in two])


FRAME_FREE = (Unrestricted, FixedEigvals, Mult, EqualMeans, CommonEigvals)


class TestProjectionGeometry:
    def test_idempotent_all_sets(self):
        rng = np.random.default_rng(85)
        for scale in SCALES:
            for pset, Y, n, tol in all_sets(rng, scale):
                fit, _ = project(pset, *Y, n=n)
                again, _ = project(pset, *fit, n=n)
                for a, f in zip(again, fit):
                    assert np.allclose(a, f, rtol=0, atol=tol * scale), (pset, scale)
                assert contains(pset, *fit), (pset, scale)

    def test_step_off_the_set_is_rejected(self):
        # A step of 1e-6 relative to the scale contains measures in, along
        # the projection residual, leaves every restricted set.
        rng = np.random.default_rng(851)
        for scale in SCALES:
            for pset, Y, _, _ in all_sets(rng, scale):
                if isinstance(pset, Unrestricted):
                    continue
                fit, _ = project(pset, *Y)
                step = 1e-6 * max(1.0, *(np.abs(F).max() for F in fit))
                off = [F + step * (y - F) / np.abs(y - F).max()
                       for F, y in zip(fit, Y)]
                assert not contains(pset, *off), (pset, scale)

    def test_frame_free_sets_are_equivariant(self):
        rng = np.random.default_rng(852)
        for scale in SCALES:
            Q = random_orthogonal(rng, 3)
            for pset, Y, n, tol in all_sets(rng, scale):
                if not isinstance(pset, FRAME_FREE):
                    continue
                rotated, _ = project(pset, *(Q @ y @ Q.T for y in Y), n=n)
                fit, _ = project(pset, *Y, n=n)
                for r, f in zip(rotated, fit):
                    assert np.allclose(r, Q @ f @ Q.T, rtol=0, atol=tol * scale), (
                        pset, scale)

    def test_contraction_on_convex_sets(self):
        # Projections onto a subspace and onto a closed convex cone cannot
        # increase distances.
        rng = np.random.default_rng(86)
        U = random_orthogonal(rng, 4)
        for _ in range(20):
            Y1 = random_symmetric(rng, 4, scale=2.0)
            Y2 = random_symmetric(rng, 4, scale=2.0)
            gap = np.linalg.norm(Y1 - Y2)
            a = project(FixedEigvecs(U), Y1)[0][0] - project(FixedEigvecs(U), Y2)[0][0]
            assert np.linalg.norm(a) <= gap + 1e-10
            b = project(OrderedCone(U), Y1)[0][0] - project(OrderedCone(U), Y2)[0][0]
            assert np.linalg.norm(b) <= gap + 1e-10


class TestProjectStacks:
    # project on a stack of r means per group equals r single calls bit for
    # bit, for every set, at distinct and tied spectra
    @staticmethod
    def stack(rng, r, U):
        # random means, and means with exactly or nearly tied spectra: tied
        # eigenvalues, tied coordinates in the frame U (which the cone pools
        # to a lower face) and a scalar matrix
        tied = np.diag([2.0, 2.0, -1.0])
        out = [random_symmetric(rng, 3, 2.0) for _ in range(r - 4)]
        out += [tied, U @ tied @ U.T, U @ np.diag([-1.0, 2.0, 2.0]) @ U.T,
                0.5 * np.eye(3)]
        return np.array(out)[rng.permutation(r)]

    def test_project_stack_matches_single_calls(self):
        rng = np.random.default_rng(88)
        r = 9
        for pset, Y, n, _ in all_sets(rng, 1.0):
            U = getattr(pset, "U0", random_orthogonal(rng, 3))
            stacks = [self.stack(rng, r, U) for _ in Y]
            fit, dims = project(pset, *stacks, n=n)
            assert [f.shape for f in fit] == [(r, 3, 3)] * len(fit), pset
            if isinstance(pset, OrderedCone):
                assert isinstance(dims, np.ndarray) and dims.shape == (r,)
                assert len(set(dims.tolist())) > 1
            for j in range(r):
                one, dim = project(pset, *(y[j] for y in stacks), n=n)
                assert len(one) == len(fit)
                for f, o in zip(fit, one):
                    assert np.array_equal(f[j], o), (pset, j)
                assert (dim is None) == (dims is None)
                if dims is not None:
                    assert dims[j] == dim


def eigenframe_fits(rng, p):
    """Each eigenframe set at p x p, with group means off it.

    Returns (set, means, counts) tuples: FixedEigvals at a distinct and a
    tied D0, Mult at a tied pattern, CommonEigvals at a distinct and a tied
    one, the two-group fits with unequal counts.
    """
    distinct = Multiplicities((1,) * p)
    tied = Multiplicities((2,) + (1,) * (p - 2))
    D = np.linspace(2.0, -1.0, p)
    Y1, Y2 = (random_symmetric(rng, p, 2.0) for _ in range(2))
    return [(FixedEigvals(D, distinct), (Y1,), None),
            (FixedEigvals(np.concatenate(([D[0]], D[:-1])), tied), (Y1,), None),
            (Mult(tied), (Y1,), None),
            (CommonEigvals(distinct), (Y1, Y2), (4, 7)),
            (CommonEigvals(tied), (Y1, Y2), (4, 7))]


def formed_fits(rng, p):
    """Point and EqualMeans at p x p, with group means off them.

    Returns (set, means, counts) tuples: Point, and EqualMeans with no
    pattern, a distinct and a tied one, at unequal counts. Each forms
    Ybar_g - M_g in _fit, on one mean or a whole stack.
    """
    distinct = Multiplicities((1,) * p)
    tied = Multiplicities((2,) + (1,) * (p - 2))
    Y1, Y2, M0 = (random_symmetric(rng, p, 2.0) for _ in range(3))
    return [(Point(M0), (Y1,), None),
            (EqualMeans(), (Y1, Y2), (4, 7)),
            (EqualMeans(distinct), (Y1, Y2), (4, 7)),
            (EqualMeans(tied), (Y1, Y2), (4, 7))]


def hexes(sums):
    # each group's sums as the exact bits of Python floats
    for group in sums:
        assert all(type(x) is float for x in group), sums
    return [[x.hex() for x in group] for group in sums]


def assert_sums_close(sums, ref, shifts, rtol):
    # [tr, ss, off] per group within rtol: tr relative to sum |d|, the size of
    # its terms (a block average leaves tr near 0), ss and off to themselves
    for got, want, d in zip(sums, ref, shifts):
        size = [np.abs(d).sum(), abs(want[1]), abs(want[2])]
        for g, w, z in zip(got, want, size):
            assert abs(g - float(w)) <= rtol * z, (got, want)


class TestEigenframeSums:
    # an eigenframe fit keeps each mean's eigenvectors, so Ybar_g - M_g =
    # V_g diag(lam_g - fit) V_g' and _fit reads its sums from the shift; a
    # Point or EqualMeans fit forms Ybar_g - M_g there, one mean or a stack

    @staticmethod
    def shifts(pset, Y, n):
        # each group's eigenvalue shift lam_g - fit, from the fitted means
        fit, _ = project(pset, *Y, n=n)
        return [eigh_desc(y).lam - eigh_desc(f).lam for y, f in zip(Y, fit)]

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_sums_match_the_rebuilt_fit(self, p):
        rng = np.random.default_rng(890 + p)
        for pset, Y, n in eigenframe_fits(rng, p):
            fit, _, sums = _fit(pset, *Y, n=n)
            g = len(Y)
            stats = SuffStats(n or (1,), Y, (0.0,) * g, (0.0,) * g)
            assert len(sums) == g
            assert all(type(x) is float for group in sums for x in group)
            assert_sums_close(sums, _residuals(stats, fit),
                              self.shifts(pset, Y, n), 1e-12)
        for pset, Y, n in formed_fits(rng, p):
            fit, _, sums = _fit(pset, *Y, n=n)
            g = len(Y)
            stats = SuffStats(n or (1,), Y, (0.0,) * g, (0.0,) * g)
            assert len(sums) == g
            assert hexes(sums) == hexes(_residuals(stats, fit)), pset

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_stack_gives_the_bits_of_single_calls(self, p):
        rng = np.random.default_rng(900 + p)
        r = 7
        for formed, (pset, Y, n) in (
                [(False, f) for f in eigenframe_fits(rng, p)]
                + [(True, f) for f in formed_fits(rng, p)]):
            # random means, a mean on the set and a scalar matrix
            stacks = [np.array([random_symmetric(rng, p, 2.0)
                                for _ in range(r - 2)] + [y, 0.5 * np.eye(p)])
                      for y in project(pset, *Y, n=n)[0]]
            fit, _, sums = _fit(pset, *stacks, n=n)
            assert [len(s) for s in sums] == [r] * len(Y)
            for j in range(r):
                rows = hexes([s[j] for s in sums])
                assert rows == hexes(_fit(pset, *(y[j] for y in stacks),
                                          n=n)[2]), (pset, j)
                if formed:
                    # the per-sample route a calibration took before
                    stats = SuffStats(n or (1,), tuple(y[j] for y in stacks),
                                      (0.0,) * len(Y), (0.0,) * len(Y))
                    assert rows == hexes(_residuals(
                        stats, tuple(m[j] for m in fit))), (pset, j)

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_sums_match_a_60_digit_oracle(self, p):
        # the fit in exact arithmetic: mpmath eigenvalues of each mean, the
        # set's fitted spectrum and the shift's three sums, at 60 digits
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(910 + p)
        with mpmath.workdps(60):
            for pset, Y, n in eigenframe_fits(rng, p):
                lam = [sorted(mpmath.eigsy(mpmath.matrix(y.tolist()),
                                           eigvals_only=True), reverse=True)
                       for y in Y]
                k = n or (1,)
                mean = [sum(w * l[i] for w, l in zip(k, lam)) / sum(k)
                        for i in range(p)]
                if isinstance(pset, FixedEigvals):
                    fit = [mpmath.mpf(float(x)) for x in pset.D0]
                else:
                    fit = [None] * p
                    for lo, hi in pset.mult.blocks():
                        fit[lo:hi] = [sum(mean[lo:hi]) / (hi - lo)] * (hi - lo)
                ref, shifts = [], []
                for l in lam:
                    d = [a - b for a, b in zip(l, fit)]
                    tr = sum(d)
                    ref.append((tr, sum(x * x for x in d),
                                sum((x - tr / p) ** 2 for x in d)))
                    shifts.append(np.array([float(x) for x in d]))
                assert_sums_close(_fit(pset, *Y, n=n)[2], ref, shifts, 1e-11)


class TestCovarianceEstimators:
    def test_sigma2_at_sample_mean_is_dispersion(self):
        rng = np.random.default_rng(87)
        S = sample(10, np.eye(2), CovParams(1.0, 0.1), 901)
        ybar = S.mean(axis=0)
        tau = 0.1
        q = sym_dim(2)
        want = sum(
            np.sum((Y - ybar) ** 2) - tau * np.trace(Y - ybar) ** 2 for Y in S
        ) / (q * len(S))
        assert estimate_sigma2(SuffStats.from_sample(S),
                               (ybar,), tau) == pytest.approx(want, rel=1e-12)

    def test_sigma2_adds_lack_of_fit(self):
        rng = np.random.default_rng(88)
        S = sample(10, np.eye(2), CovParams(1.0, 0.0), 902)
        ybar = S.mean(axis=0)
        M0 = np.zeros((2, 2))
        base = estimate_sigma2(SuffStats.from_sample(S), (ybar,), 0.0)
        shifted = estimate_sigma2(SuffStats.from_sample(S), (M0,), 0.0)
        q = sym_dim(2)
        assert shifted == pytest.approx(base + np.sum(ybar ** 2) / q, rel=1e-10)

    def test_sigma2_warns_when_degenerate(self):
        Y = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.warns(UserWarning, match="degenerate"):
            out = estimate_sigma2(SuffStats.from_sample(Y[None]), (Y,), 0.0)
        assert out == 0.0

    def test_sigma2_rejects_tau_out_of_range(self):
        S = np.zeros((3, 2, 2))
        with pytest.raises(ValueError, match="tau"):
            estimate_sigma2(SuffStats.from_sample(S), (np.zeros((2, 2)),), 0.5)

    def test_tau_rejects_degenerate_sample(self):
        Y = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="undefined"):
            estimate_tau(SuffStats.from_sample(Y[None]), (Y,))

    def test_tau_rejects_p1(self):
        S = np.ones((5, 1, 1))
        with pytest.raises(ValueError, match="p >= 2"):
            estimate_tau(SuffStats.from_sample(S), (np.zeros((1, 1)),))

    @pytest.mark.parametrize("tau_true", [0.25, 0.0, -1.0])
    def test_tau_consistent(self, tau_true):
        cov = CovParams(1.0, tau_true)
        S = sample(20_000, np.diag([2.0, 1.0]), cov, 903)
        tau_hat = estimate_tau(SuffStats.from_sample(S), (S.mean(axis=0),))
        assert tau_hat == pytest.approx(tau_true, abs=0.03)
        assert tau_hat < 0.5

    def test_sigma2_consistent(self):
        cov = CovParams(1.7, 0.2)
        S = sample(20_000, np.zeros((3, 3)), cov, 904)
        tau_hat = estimate_tau(SuffStats.from_sample(S), (S.mean(axis=0),))
        s2 = estimate_sigma2(SuffStats.from_sample(S), (S.mean(axis=0),), tau_hat)
        assert s2 == pytest.approx(1.7, abs=0.05)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("n1", [None, 7])
    def test_residual_at_the_sample_mean_is_exactly_zero(self, scale, n1):
        # the identity that lets an Unrestricted fit skip its residual pass:
        # Ybar_g - Ybar_g is exactly zero, so its sums are exactly 0.0
        S = scale * sample(15, np.diag([3.0, 1.0, -2.0]), CovParams(1.0, 0.1), 905)
        stats = SuffStats.from_sample(S, n1)
        res = _residuals(stats, stats.ybar)
        assert len(res) == len(stats.n)
        for sums in res:
            assert [(type(x), x, math.copysign(1.0, x)) for x in sums] == [
                (float, 0.0, 1.0)] * 3
        assert _fit_residuals(stats, Unrestricted(), stats.ybar) == res

    def test_tau_stays_below_upper_limit(self):
        # The estimator never reaches the boundary tau = 1/p.
        for seed in range(5):
            S = sample(10, np.zeros((2, 2)), CovParams(0.5, 0.4), seed)
            assert estimate_tau(SuffStats.from_sample(S), (S.mean(axis=0),)) < 0.5


def parent_oracle(groups, means):
    """tau_hat and sigma2(tau) from the summed squared norms and traces of
    the raw residuals Y_i - M_g, one fitted mean M_g per group."""
    R = np.concatenate([part - m for part, m in zip(groups, means)])
    p = R.shape[1]
    q, n = sym_dim(p), len(R)
    sq = float(np.sum(R * R))
    tr2 = float(np.sum(np.trace(R, axis1=1, axis2=2) ** 2))
    tau = -(sq - (q / p) * tr2) / ((q - 1.0) * tr2)
    return tau, lambda t: (sq - t * tr2) / (q * n)


class TestTwoComponentFit:
    """The fit from the two variance components: against the raw-residual
    formulas, at p = 1, and under the model's invariances."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("tau", [-1.0, 0.0, 0.3])
    @pytest.mark.parametrize("two", [False, True])
    def test_matches_raw_residual_oracle(self, two, tau, scale):
        rng = np.random.default_rng(911)
        M = scale * np.diag([3.0, 2.0, 1.0])
        cov = CovParams(scale ** 2, tau)
        groups = [sample(12, M, cov, 912)]
        if two:
            groups.append(sample(9, M + scale * np.eye(3), cov, 913))
            pset = CommonEigvals(Multiplicities((1, 1, 1)))
        else:
            pset = FixedEigvecs(random_orthogonal(rng, 3))
        stats = SuffStats.from_sample(np.concatenate(groups),
                                      12 if two else None)
        fit = mle(pset, stats)
        tau_want, sigma2_want = parent_oracle(groups, fit.means)
        assert estimate_tau(stats, fit.means) == pytest.approx(tau_want, rel=1e-12)
        assert fit.tau_hat == pytest.approx(tau_want, rel=1e-12)
        assert fit.sigma2_hat == pytest.approx(sigma2_want(tau_want), rel=1e-12)
        for t in (-1.0, 0.0, 0.3):
            assert estimate_sigma2(stats, fit.means, t) == pytest.approx(
                sigma2_want(t), rel=1e-12)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_sigma2_at_p1_scales_the_sample_variance(self, tau):
        S = sample(9, np.array([[2.0]]), CovParams(3.0, 0.0), 914)
        got = estimate_sigma2(SuffStats.from_sample(S), (S.mean(axis=0),), tau)
        assert got == pytest.approx((1.0 - tau) * np.var(S), rel=1e-12)

    @staticmethod
    def unrestricted_fit(S, n1):
        fit = mle(Unrestricted(), SuffStats.from_sample(S, n1))
        return fit.sigma2_hat, fit.tau_hat

    @pytest.mark.parametrize("n1", [None, 8])
    def test_rotation_keeps_the_fit(self, n1):
        rng = np.random.default_rng(915)
        S = sample(14, np.diag([3.0, 1.0, 0.0]), CovParams(1.2, 0.2), 916)
        R = random_orthogonal(rng, 3)
        want = self.unrestricted_fit(S, n1)
        got = self.unrestricted_fit(R @ S @ R.T, n1)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("c", [1e-6, -3.0, 1e6])
    @pytest.mark.parametrize("n1", [None, 8])
    def test_scale_multiplies_sigma2_and_keeps_tau(self, n1, c):
        S = sample(14, np.diag([3.0, 1.0, 0.0]), CovParams(1.2, -0.4), 917)
        sigma2, tau = self.unrestricted_fit(S, n1)
        got_sigma2, got_tau = self.unrestricted_fit(c * S, n1)
        assert got_sigma2 == pytest.approx(c * c * sigma2, rel=1e-10)
        assert got_tau == pytest.approx(tau, rel=1e-10)

    @pytest.mark.parametrize("c", [-5.0, 1e3])
    @pytest.mark.parametrize("n1", [None, 8])
    def test_shift_by_multiple_of_identity_keeps_the_fit(self, n1, c):
        S = sample(14, np.diag([3.0, 1.0, 0.0]), CovParams(1.2, 0.3), 918)
        want = self.unrestricted_fit(S, n1)
        got = self.unrestricted_fit(S + c * np.eye(3), n1)
        assert got == pytest.approx(want, rel=1e-9)


class TestMleDispatch:
    def test_unrestricted_is_sample_mean(self):
        S = sample(8, np.eye(2), CovParams(1.0, 0.1), 905)
        fit = mle(Unrestricted(), SuffStats.from_sample(S))
        assert np.array_equal(fit.M_hat, S.mean(axis=0))
        assert fit.face_dim is None
        assert isinstance(fit, FitResult)

    def test_point_returns_m0(self):
        S = sample(8, np.eye(2), CovParams(1.0, 0.0), 906)
        M0 = np.array([[1.0, 0.5], [0.5, 1.0]])
        fit = mle(Point(M0), SuffStats.from_sample(S))
        assert np.array_equal(fit.M_hat, M0)

    def test_cone_fills_face_dim(self):
        S = sample(8, np.diag([3.0, 1.0]), CovParams(1.0, 0.0), 907)
        fit = mle(OrderedCone(np.eye(2)), SuffStats.from_sample(S))
        assert fit.face_dim in (1, 2)

    def test_known_cov_recorded_and_allows_n1(self):
        Y = np.array([[2.0, 1.0], [1.0, 0.0]])
        cov = CovParams(1.5, 0.25)
        fit = mle(Point(np.zeros((2, 2))), SuffStats.from_sample(Y[None]), cov=cov)
        assert fit.sigma2_hat == 1.5
        assert fit.tau_hat == 0.25

    @pytest.mark.parametrize("cov,fragment", [
        (CovParams(1.0, 0.9), "tau must be < 1/p"),
        (CovParams(1.0, 1.0 / 3.0), "tau must be < 1/p"),
        (CovParams(-1.0, 0.0), "sigma2 must be positive"),
        (CovParams(1.0, float("nan")), "tau must be"),
    ])
    def test_known_cov_checked_for_p(self, cov, fragment):
        # a known covariance is checked as lrt.run checks it, never recorded
        # as a fit that is no distribution at p = 3
        S = sample(8, np.eye(3), CovParams(1.0, 0.1), 909)
        with pytest.raises(ValueError, match=re.escape(fragment)):
            mle(Unrestricted(), SuffStats.from_sample(S), cov)

    def test_estimates_follow_null_fit(self):
        S = sample(50, np.diag([4.0, 4.0]), CovParams(1.0, 0.0), 908)
        fit_point = mle(Point(np.zeros((2, 2))), SuffStats.from_sample(S))
        fit_free = mle(Unrestricted(), SuffStats.from_sample(S))
        # The fixed-point fit has a lack-of-fit term, so its scale estimate
        # is strictly larger.
        assert fit_point.sigma2_hat > fit_free.sigma2_hat

    def test_rejects_unknown_set(self):
        with pytest.raises(TypeError, match="parameter set"):
            mle(object(), SuffStats.from_sample(np.zeros((2, 2, 2))))

    def test_rejects_flat_sample(self):
        with pytest.raises(ValueError, match="sample"):
            mle(Unrestricted(), SuffStats.from_sample(np.zeros((2, 2))))


class TestContains:
    def test_unrestricted(self):
        assert contains(Unrestricted(), np.eye(2))

    def test_point(self):
        M0 = np.array([[1.0, 0.2], [0.2, 1.0]])
        assert contains(Point(M0), M0)
        assert not contains(Point(M0), M0 + 1e-6)
        assert contains(Point(M0), M0 + 1e-12)

    def test_fixed_eigvecs(self):
        rng = np.random.default_rng(91)
        U = random_orthogonal(rng, 3)
        M = (U * np.array([1.0, 5.0, -2.0])) @ U.T
        assert contains(FixedEigvecs(U), M)
        assert not contains(FixedEigvecs(np.eye(3)), M)

    def test_ordered_cone_checks_order(self):
        U = np.eye(2)
        assert contains(OrderedCone(U), np.diag([3.0, 1.0]))
        assert contains(OrderedCone(U), np.diag([2.0, 2.0]))
        assert not contains(OrderedCone(U), np.diag([1.0, 3.0]))

    def test_fixed_eigvals(self):
        pset = FixedEigvals(np.array([3.0, 1.0]), Multiplicities((1, 1)))
        assert contains(pset, np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert not contains(pset, np.diag([3.0, 2.0]))

    def test_mult(self):
        pset = Mult(Multiplicities((2, 1)))
        assert contains(pset, np.diag([2.0, 2.0, 1.0]))
        assert not contains(pset, np.diag([3.0, 2.0, 1.0]))


class TestEigvecUncertainty:
    def test_zero_error_at_truth(self):
        rng = np.random.default_rng(92)
        U = random_orthogonal(rng, 3)
        D0 = np.array([5.0, 2.0, -1.0])
        M = (U * D0) @ U.T
        A, pred = eigvec_uncertainty(U, D0, M, n=10, sigma2=1.0)
        assert np.abs(A).max() <= 1e-8
        assert np.allclose(A, -A.T, atol=1e-15)

    def test_predicted_table(self):
        U = np.eye(2)
        D0 = np.array([3.0, 1.0])
        _, pred = eigvec_uncertainty(U, D0, np.diag(D0), n=25, sigma2=2.0)
        # sigma2 / (2 n gap^2) with gap 2: 2 / (2 * 25 * 4) = 1/100.
        assert pred[0, 1] == pytest.approx(0.01, rel=1e-12)
        assert pred[1, 0] == pytest.approx(0.01, rel=1e-12)
        assert pred[0, 0] == 0.0

    def test_recovers_planted_rotation(self):
        rng = np.random.default_rng(93)
        for p in (2, 3, 4):
            U = random_orthogonal(rng, p)
            D0 = np.arange(p, 0, -1) * 2.0
            A = rng.standard_normal((p, p)) * 0.05
            A = A - A.T
            Uhat = U @ scipy.linalg.expm(A)
            M = (Uhat * D0) @ Uhat.T
            A_hat, _ = eigvec_uncertainty(U, D0, M, n=10, sigma2=1.0)
            assert np.abs(A_hat - A).max() <= 1e-8

    def test_sign_flips_do_not_matter(self):
        rng = np.random.default_rng(94)
        U = random_orthogonal(rng, 3)
        D0 = np.array([4.0, 2.0, 1.0])
        M = (U * D0) @ U.T
        # The fitted frame comes out of the decomposition with canonical
        # signs no matter how U was oriented.
        A, _ = eigvec_uncertainty(U * np.array([-1.0, 1.0, -1.0]), D0, M, 5, 1.0)
        assert np.abs(A).max() <= 1e-8

    def test_stack_matches_one_call_per_fit(self):
        # a stack of fits is decomposed in one call, with the bits of one
        # call per fit; the frames include reflections of U
        rng = np.random.default_rng(95)
        U = random_orthogonal(rng, 3)
        D0 = np.array([4.0, 2.0, 1.0])
        fits = []
        for k in range(6):
            A = rng.standard_normal((3, 3)) * 0.2
            V = U @ scipy.linalg.expm(A - A.T) * np.where(k % 2, -1.0, 1.0)
            fits.append((V * D0) @ V.T)
        A_hat, pred = eigvec_uncertainty(U, D0, np.array(fits), 10, 1.0)
        assert A_hat.shape == (6, 3, 3)
        for F, A in zip(fits, A_hat):
            one, pred_one = eigvec_uncertainty(U, D0, F, 10, 1.0)
            assert np.array_equal(A, one) and np.array_equal(pred, pred_one)

    def test_rejects_repeated_eigenvalues(self):
        with pytest.raises(ValueError, match="unidentifiable"):
            eigvec_uncertainty(np.eye(2), np.array([2.0, 2.0]), np.eye(2), 5, 1.0)

    @pytest.mark.parametrize("bad,match", [
        ({"D0": [4.0, 2.0]}, "D0"),
        ({"D0": [4.0, np.nan, 1.0]}, "D0"),
        ({"D0": [np.inf, 2.0, 1.0]}, "D0"),
        ({"fit_M": np.eye(2)}, "fit_M"),
        ({"fit_M": np.zeros((5, 3, 2))}, "fit_M"),
        ({"fit_M": np.zeros((2, 5, 3, 3))}, "fit_M"),
        ({"fit_M": np.triu(np.ones((3, 3)))}, "fit_M"),
        ({"fit_M": np.diag([4.0, np.nan, 1.0])}, "fit_M"),
        ({"n": 0}, r"\bn\b"),
        ({"n": -4}, r"\bn\b"),
        ({"n": 2.5}, r"\bn\b"),
        ({"sigma2": 0.0}, "sigma2"),
        ({"sigma2": -1.0}, "sigma2"),
        ({"sigma2": np.nan}, "sigma2"),
        ({"sigma2": np.inf}, "sigma2"),
    ], ids=["D0-short", "D0-nan", "D0-inf", "fit_M-small", "fit_M-oblong",
            "fit_M-4d", "fit_M-asymmetric", "fit_M-nan", "n-zero",
            "n-negative", "n-fraction", "sigma2-zero", "sigma2-negative",
            "sigma2-nan", "sigma2-inf"])
    def test_rejects_bad_arguments(self, bad, match):
        args = dict(U_true=np.eye(3), D0=[4.0, 2.0, 1.0],
                    fit_M=np.diag([4.0, 2.0, 1.0]), n=10, sigma2=1.0)
        with pytest.raises(ValueError, match=match):
            eigvec_uncertainty(**dict(args, **bad))


class TestRotationLog:
    @pytest.mark.parametrize("p", [2, 3, 4, 6])
    def test_matches_the_schur_log(self, p):
        # one stacked call against the Schur form rotation by rotation: R = I
        # and, for angles theta from 1e-6 to 3, one plane turned by theta,
        # distinct angles in every plane, a tied pair (p >= 4) and a tied
        # pair beside a third plane (p = 6)
        rng = np.random.default_rng(96 + p)
        grid = [()]
        for theta in (1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 2.5, 3.0):
            grid += [(theta,)]
            if p >= 4:
                grid += [(theta, 0.7 * theta), (theta, theta)]
            if p == 6:
                grid += [(theta, 0.7 * theta, 0.4 * theta), (theta, theta, 0.3)]
        rotations, logs = zip(*(planted_rotation(rng, a, p) for a in grid))
        A = _rotation_log(np.array(rotations))
        assert A.shape == (len(grid), p, p)
        for R, L, got in zip(rotations, logs, A):
            assert np.abs(got - schur_log(R)).max() <= 1e-12
            assert np.abs(got - L).max() <= 1e-12
            assert np.array_equal(got, -got.T)

    def test_refuses_an_angle_of_pi(self):
        # one rotation by pi or by pi - 1e-5, and a stack holding one among
        # fine rotations
        rng = np.random.default_rng(97)
        half_turn, _ = planted_rotation(rng, (math.pi,), 3)
        near_turn, _ = planted_rotation(rng, (math.pi - 1e-5,), 3)
        fine = [planted_rotation(rng, (a,), 3)[0] for a in (0.0, 0.4, 3.1)]
        for stack in ([half_turn], [near_turn],
                      fine[:2] + [half_turn] + fine[2:]):
            with pytest.raises(ValueError, match="rotation angle pi"):
                _rotation_log(np.array(stack))
        assert np.all(np.isfinite(_rotation_log(np.array(fine))))
