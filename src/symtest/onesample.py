"""Maximum-likelihood estimation for one sample of symmetric matrices.

Under the orthogonally invariant model, the MLE of the mean M over any of
the supported parameter sets is the Frobenius projection of the sample
mean onto the set, independent of (sigma2, tau). The sets are:

- Unrestricted: all of S_p.
- Point(M0): the single matrix M0.
- FixedEigvecs(U0): matrices diagonalized by the fixed frame U0.
- OrderedCone(U0): the FixedEigvecs set with eigenvalues constrained to
  be non-increasing along U0's columns (projection by PAVA).
- FixedEigvals(D0, mult): matrices with known spectrum D0, eigenvectors
  free.
- Mult(mult): matrices whose spectrum has the given multiplicity pattern,
  values free.

The variance scale and shape (sigma2, tau) are then estimated in closed
form from the fitted mean. eigvec_uncertainty gives the asymptotic
normal law of the eigenvector estimation error for distinct-spectrum
fits, expressed as a rotation logarithm.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .symcore import (
    Multiplicities,
    block_average,
    check_symmetric,
    eigh_desc,
    sym_dim,
)
from .matnormal import sample_mean


def _check_orthogonal(U, name="U0", tol=1e-8):
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("%s must be square" % name)
    if np.abs(U.T @ U - np.eye(U.shape[0])).max() > tol:
        raise ValueError("%s is not orthogonal to within %g" % (name, tol))
    return U


def _check_spectrum(D0, mult):
    """Validate that D0 is non-increasing with exact ties matching mult."""
    D0 = np.asarray(D0, dtype=float)
    if D0.ndim != 1:
        raise ValueError("D0 must be a vector of eigenvalues")
    if mult.p != D0.shape[0]:
        raise ValueError("multiplicities %r inconsistent with %d eigenvalues"
                         % (mult.m, D0.shape[0]))
    values = []
    for lo, hi in mult.blocks():
        block = D0[lo:hi]
        if np.any(block != block[0]):
            raise ValueError("eigenvalues within a multiplicity block must be equal")
        values.append(block[0])
    if any(a <= b for a, b in zip(values, values[1:])):
        raise ValueError("block eigenvalues must be strictly decreasing")
    return D0


class ParamSet:
    """Base tag for the one-sample parameter sets."""


@dataclass(frozen=True, eq=False)
class Unrestricted(ParamSet):
    pass


@dataclass(frozen=True, eq=False)
class Point(ParamSet):
    M0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "M0", check_symmetric(self.M0, "M0"))


@dataclass(frozen=True, eq=False)
class FixedEigvecs(ParamSet):
    U0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U0", _check_orthogonal(self.U0))


@dataclass(frozen=True, eq=False)
class OrderedCone(ParamSet):
    U0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U0", _check_orthogonal(self.U0))


@dataclass(frozen=True, eq=False)
class FixedEigvals(ParamSet):
    D0: np.ndarray
    mult: Multiplicities

    def __post_init__(self):
        object.__setattr__(self, "D0", _check_spectrum(self.D0, self.mult))


@dataclass(frozen=True, eq=False)
class Mult(ParamSet):
    mult: Multiplicities


@dataclass(eq=False)
class FitResult:
    """Fitted mean and covariance parameters for a one-sample set.

    face_dim is filled for cone fits only: the number of distinct values
    the monotone projection landed on.
    """

    M_hat: np.ndarray
    sigma2_hat: float
    tau_hat: float
    set: ParamSet
    face_dim: int = None


def pava(y):
    """Least-squares projection of y onto {d_1 >= d_2 >= ... >= d_p}.

    Pool-adjacent-violators with equal initial weights: blocks are pooled
    on strict order violation, so every entry of a pooled block carries
    the same float. Returns (fitted vector, number of distinct values).
    """
    y = np.asarray(y, dtype=float)
    # Stack of (mean, count) blocks with strictly decreasing means.
    means = []
    counts = []
    for v in y:
        means.append(v)
        counts.append(1)
        while len(means) > 1 and means[-2] < means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            means.append((m1 * c1 + m2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    out = np.repeat(means, counts)
    face_dim = 1 + int(np.sum(out[1:] != out[:-1]))
    return out, face_dim


def mle_fixed_eigvecs(U0, Ybar):
    """Projection of Ybar onto the matrices diagonalized by U0."""
    d = np.diagonal(U0.T @ Ybar @ U0)
    return (U0 * d) @ U0.T


def mle_ordered_cone(U0, Ybar):
    """Projection onto the U0-diagonalized matrices with ordered eigenvalues.

    Returns (fitted matrix, face dimension of the cone face reached).
    """
    y = np.diagonal(U0.T @ Ybar @ U0)
    d, face_dim = pava(y)
    return (U0 * d) @ U0.T, face_dim


def mle_fixed_eigvals(D0, mult, Ybar):
    """Projection onto the matrices with known spectrum D0.

    The minimizer pairs the descending eigenvectors of Ybar with the
    descending D0; any within-block rotation gives the same objective, and
    the canonical representative (identity block rotation) is returned.
    """
    _check_spectrum(np.asarray(D0, dtype=float), mult)
    dec = eigh_desc(Ybar)
    return (dec.V * np.asarray(D0, dtype=float)) @ dec.V.T


def mle_multiplicities(mult, Ybar):
    """Projection onto the matrices whose spectrum has pattern mult."""
    dec = eigh_desc(Ybar)
    d = block_average(dec.lam, mult)
    return (dec.V * d) @ dec.V.T


def _norms_about_mean(S, tau):
    # Sum over observations of ||Y_i - Ybar||^2_{1,tau} and of tr(Y_i - Ybar)^2.
    S = np.asarray(S, dtype=float)
    R = S - S.mean(axis=0)
    traces = np.trace(R, axis1=1, axis2=2)
    sq = np.sum(R * R, axis=(1, 2))
    return np.sum(sq - tau * traces ** 2), np.sum(traces ** 2)


def estimate_sigma2(S, M_hat, tau):
    """MLE of sigma2 given the fitted mean and tau.

    Equals the within-sample dispersion s2 plus the lack-of-fit term
    (1/q) ||Ybar - M_hat||^2 in the unit-scale tau norm. A zero value
    (possible only in degenerate samples, e.g. n = 1 with a perfect fit)
    is returned as-is with a warning.
    """
    S = np.asarray(S, dtype=float)
    n, p = S.shape[0], S.shape[1]
    q = sym_dim(p)
    if not tau < 1.0 / p:
        raise ValueError("tau must be < 1/p")
    ybar = sample_mean(S)
    sum_sq, _ = _norms_about_mean(S, tau)
    r = ybar - M_hat
    lack = np.sum(r * r) - tau * np.trace(r) ** 2
    out = sum_sq / (q * n) + lack / q
    if out <= 0.0:
        warnings.warn("degenerate variance estimate (sigma2_hat = %g)" % out)
    return out


def estimate_tau(S, M_hat):
    """MLE of tau given the fitted mean.

    The estimator is a ratio of the pseudo-norm at tau = q/p to the
    squared traces of the residuals; it is undefined for n = 1 (all
    residual terms vanish) and whenever every residual is trace-free.
    """
    S = np.asarray(S, dtype=float)
    n, p = S.shape[0], S.shape[1]
    if p < 2:
        raise ValueError("tau estimation requires p >= 2")
    q = sym_dim(p)
    sum_pseudo, sum_tr = _norms_about_mean(S, q / p)
    ybar = sample_mean(S)
    r = ybar - M_hat
    tr_r = np.trace(r)
    num = sum_pseudo + n * (np.sum(r * r) - (q / p) * tr_r ** 2)
    den = (q - 1.0) * (sum_tr + n * tr_r ** 2)
    if den == 0.0:
        raise ValueError("tau estimate undefined: all residual traces vanish "
                         "(n = 1 or degenerate sample)")
    return -num / den


def mle(pset, S, cov=None):
    """MLE of (M, sigma2, tau) over the given parameter set.

    When cov is provided, the mean fit is unchanged (it never depends on
    the covariance) and the known (sigma2, tau) are recorded in the result
    instead of being estimated; this also permits n = 1.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 3 or S.shape[0] < 1:
        raise ValueError("expected a nonempty (n, p, p) sample")
    ybar = sample_mean(S)
    face_dim = None
    if isinstance(pset, Unrestricted):
        m_hat = ybar
    elif isinstance(pset, Point):
        m_hat = pset.M0
    elif isinstance(pset, FixedEigvecs):
        m_hat = mle_fixed_eigvecs(pset.U0, ybar)
    elif isinstance(pset, OrderedCone):
        m_hat, face_dim = mle_ordered_cone(pset.U0, ybar)
    elif isinstance(pset, FixedEigvals):
        m_hat = mle_fixed_eigvals(pset.D0, pset.mult, ybar)
    elif isinstance(pset, Mult):
        m_hat = mle_multiplicities(pset.mult, ybar)
    else:
        raise TypeError("unknown parameter set %r" % (pset,))
    if cov is not None:
        sigma2_hat, tau_hat = cov.sigma2, cov.tau
    else:
        tau_hat = estimate_tau(S, m_hat)
        sigma2_hat = estimate_sigma2(S, m_hat, tau_hat)
    return FitResult(M_hat=m_hat, sigma2_hat=sigma2_hat, tau_hat=tau_hat,
                     set=pset, face_dim=face_dim)


def contains(pset, M, tol=1e-9):
    """Membership predicate: is M in the parameter set to within tol?

    The tolerance is on max absolute entry (or eigenvalue) differences,
    scaled by the magnitude of M.
    """
    M = check_symmetric(M, "M", tol=max(tol, 1e-12))
    scale = max(1.0, np.abs(M).max())
    bound = tol * scale
    if isinstance(pset, Unrestricted):
        return True
    if isinstance(pset, Point):
        return np.abs(M - pset.M0).max() <= bound
    if isinstance(pset, (FixedEigvecs, OrderedCone)):
        W = pset.U0.T @ M @ pset.U0
        off = np.abs(W - np.diag(np.diagonal(W))).max()
        if off > bound:
            return False
        if isinstance(pset, FixedEigvecs):
            return True
        d = np.diagonal(W)
        return bool(np.all(d[:-1] >= d[1:] - bound))
    if isinstance(pset, FixedEigvals):
        lam = eigh_desc(M).lam
        return np.abs(lam - pset.D0).max() <= bound
    if isinstance(pset, Mult):
        lam = eigh_desc(M).lam
        return np.abs(lam - block_average(lam, pset.mult)).max() <= bound
    raise TypeError("unknown parameter set %r" % (pset,))


def _align_signs(U, Uhat):
    # Column sign flips of Uhat making diag(U' Uhat) entries positive, which
    # maximizes tr(U' Uhat) over sign changes and hence minimizes the
    # Frobenius distance ||U Uhat' - I||.
    R = U.T @ Uhat
    signs = np.where(np.diagonal(R) < 0.0, -1.0, 1.0)
    return Uhat * signs


def _rotation_log(R):
    # Principal logarithm of a special orthogonal matrix via the real Schur
    # form, whose 2x2 blocks are plane rotations with directly readable
    # angles. Restricted to rotations with no angle at pi, where the
    # principal log is unique. scipy.linalg is imported here, its only use,
    # so that importing symtest does not pay for it.
    import scipy.linalg

    T, Z = scipy.linalg.schur(R, output="real")
    p = R.shape[0]
    L = np.zeros((p, p))
    i = 0
    while i < p:
        if i + 1 < p and abs(T[i + 1, i]) > 1e-12:
            angle = math.atan2(T[i + 1, i], T[i, i])
            L[i, i + 1] = -angle
            L[i + 1, i] = angle
            i += 2
        else:
            if T[i, i] < 0.0:
                raise ValueError("rotation angle pi: principal log is not unique")
            i += 1
    A = Z @ L @ Z.T
    return 0.5 * (A - A.T)


def eigvec_uncertainty(U_true, D0, fit_M, n, sigma2):
    """Eigenvector estimation error and its predicted asymptotic variance.

    For a fit with known distinct spectrum D0, the estimated frame Uhat
    (recovered from fit_M, sign-aligned to U_true) differs from U_true by
    a rotation; A_hat = log(U_true' Uhat) is its antisymmetric tangent
    coordinate. Entry (i, j) of the returned variance table is the
    asymptotic prediction var(a_ij) = sigma2 / (2 n (d_i - d_j)^2); the
    diagonal is zero.
    """
    U_true = _check_orthogonal(U_true, "U_true")
    D0 = np.asarray(D0, dtype=float)
    if np.any(D0[:-1] <= D0[1:]):
        raise ValueError("spectrum must be strictly decreasing: equal eigenvalues "
                         "leave the eigenvectors unidentifiable")
    uhat = eigh_desc(fit_M).V
    uhat = _align_signs(U_true, uhat)
    R = U_true.T @ uhat
    if np.linalg.det(R) < 0.0:
        # Sign alignment can land on a reflection; flip the most ambiguous
        # column (smallest aligned diagonal) to reach the rotation group.
        j = int(np.argmin(np.abs(np.diagonal(R))))
        uhat = uhat.copy()
        uhat[:, j] = -uhat[:, j]
        R = U_true.T @ uhat
    a_hat = _rotation_log(R)
    gaps = D0[:, None] - D0[None, :]
    with np.errstate(divide="ignore"):
        predicted = sigma2 / (2.0 * n * gaps ** 2)
    np.fill_diagonal(predicted, 0.0)
    return a_hat, predicted
