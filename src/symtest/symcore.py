"""Symmetric-matrix primitives shared by every other module.

Matrices are plain (p, p) numpy arrays, kept exactly symmetric by
construction. This module provides the isometric vecd embedding into
R^q with q = p(p+1)/2, the (sigma2, tau) inner product, the LAPACK
eigendecomposition with a canonical ordering and sign convention,
block averaging of eigenvalues, and the eigenvalue-wise matrix
log/exp used for log-domain preprocessing.
"""

import contextlib
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)


def sym_dim(p):
    """Number of free entries q = p(p+1)/2 of a p x p symmetric matrix."""
    return p * (p + 1) // 2


def check_symmetric(X, name="matrix", tol=1e-8):
    """Validate and return X as a float symmetric (p, p) array, or a stack.

    Symmetry is enforced exactly by averaging with the transpose after
    checking that the asymmetry is below `tol` relative to the scale of X,
    max(1, max|X|); a stack (..., p, p) applies that rule matrix by matrix.
    """
    X = float_array(X, name)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError("%s must be square, got shape %s" % (name, X.shape))
    if not np.all(np.isfinite(X)):
        raise ValueError("%s has non-finite entries" % name)
    XT = np.swapaxes(X, -1, -2)
    scale = np.maximum(1.0, np.abs(X).max(axis=(-2, -1)))
    if np.any(np.abs(X - XT).max(axis=(-2, -1)) > tol * scale):
        raise ValueError("%s is not symmetric" % name)
    return 0.5 * (X + XT)


def check_integer(value, name):
    """Validate and return value as an int.

    Integral numbers and numeric strings are accepted; booleans and
    fractions raise ValueError rather than being truncated.
    """
    try:
        if not isinstance(value, (bool, np.bool_)) and (
                isinstance(value, str) or int(value) == value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("%s must be an integer, got %r" % (name, value))


@contextlib.contextmanager
def _allocating(name, count):
    """Make numpy's refusal to allocate an array of `count` rows a ValueError
    naming the count: a MemoryError when memory cannot hold it, a ValueError
    past the address space. Wrap only the allocation, so that no other
    error is blamed on the count; it fails before touching any memory.
    """
    try:
        yield
    except (MemoryError, ValueError):
        raise ValueError("%s = %.3g is too large for memory"
                         % (name, min(count, 1e308))) from None


def _number(value, name):
    # value as a float: a number or numeric string, never a boolean; its
    # range, finiteness included, is left to CovParams.validate
    try:
        if not isinstance(value, (bool, np.bool_)):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ValueError("%s must be a finite number, got %r" % (name, value))


def check_keys(obj, required, optional=(), what=None, arguments=False):
    """Validate and return obj, a mapping with each key of required and
    none outside required + optional: the one key rule of every config.

    A stray key, then a missing one, is a ValueError, "<what> takes no key
    'k'" or "<what> requires 'k'"; for run's keywords (arguments) a
    TypeError, "... argument 'k'"; nested in a value its caller names
    (what None), "unexpected key 'k'" or "missing key 'k'".
    """
    if what is None:
        stray, missing = "unexpected key", "missing key"
    elif arguments:
        stray, missing = what + " takes no argument", what + " requires argument"
    else:
        stray, missing = what + " takes no key", what + " requires"
    if not isinstance(obj, Mapping):
        raise ValueError("%s must be a mapping, got %r" % (what or "value", obj))
    error = TypeError if arguments else ValueError
    for key in obj:
        if key not in required and key not in optional:
            raise error("%s %r" % (stray, key))
    for key in required:
        if key not in obj:
            raise error("%s %r" % (missing, key))
    return obj


def float_array(value, name):
    """value as a float array; a non-numeric or ragged one is a ValueError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError("%s must be an array of numbers, got %r"
                         % (name, value)) from None


@dataclass(frozen=True)
class CovParams:
    """Covariance parameters (sigma2, tau) of the orthogonally invariant model.

    sigma2 is the overall variance scale and tau couples the diagonal
    entries; tau < 1/p is required for a proper distribution. The derived
    parameter c = tau / (1 - p*tau) is the correlation-like coefficient of
    the diagonal block.
    """

    sigma2: float
    tau: float = 0.0

    def c(self, p):
        return self.tau / (1.0 - p * self.tau)

    def validate(self, p):
        if not (self.sigma2 > 0.0 and math.isfinite(self.sigma2)):
            raise ValueError("sigma2 must be positive, got %r" % (self.sigma2,))
        if not (self.tau < 1.0 / p):
            raise ValueError("tau must be < 1/p = %g, got %r" % (1.0 / p, self.tau))
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite, got %r" % (self.tau,))
        return self


@dataclass(frozen=True)
class Multiplicities:
    """Ordered multiplicities m_1, ..., m_k of the k distinct eigenvalues.

    The cumulative sums e_0 = 0, e_j = m_1 + ... + m_j delimit the blocks;
    e_k equals the matrix dimension p.
    """

    m: tuple

    def __post_init__(self):
        m = tuple(check_integer(v, "a multiplicity") for v in self.m)
        if len(m) == 0 or any(v < 1 for v in m):
            raise ValueError("multiplicities must be positive integers, got %r" % (self.m,))
        object.__setattr__(self, "m", m)

    @property
    def k(self):
        return len(self.m)

    @property
    def p(self):
        return sum(self.m)

    @property
    def e(self):
        out = [0]
        for v in self.m:
            out.append(out[-1] + v)
        return tuple(out)

    def blocks(self):
        """Yield (start, stop) index pairs, one per block."""
        e = self.e
        for j in range(self.k):
            yield e[j], e[j + 1]


@dataclass(eq=False)
class EigenDecomp:
    """X = V diag(lam) V' with lam non-increasing; stacked for a stack of X."""

    V: np.ndarray
    lam: np.ndarray


def vecd(X):
    """Embed a symmetric matrix into R^q: (diagonal, sqrt(2) * upper triangle).

    The sqrt(2) scaling makes the embedding isometric: the squared
    Euclidean length of vecd(X) equals tr(X^2). A stack of matrices
    (..., p, p) maps to a stack of vectors (..., q), matrix by matrix.
    """
    X = np.asarray(X, dtype=float)
    iu = np.triu_indices(X.shape[-1], 1)
    return np.concatenate([np.diagonal(X, axis1=-2, axis2=-1),
                           SQRT2 * X[..., iu[0], iu[1]]], axis=-1)


def vecd_inv(v, p):
    """Invert vecd: symmetric matrices (..., p, p) from coordinates (..., q)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (sym_dim(p),):
        raise ValueError("expected %d coordinates for p=%d, got shape %s"
                         % (sym_dim(p), p, v.shape))
    X = np.empty(v.shape[:-1] + (p, p))
    i = np.arange(p)
    X[..., i, i] = v[..., :p]
    iu = np.triu_indices(p, 1)
    off = v[..., p:] / SQRT2
    X[..., iu[0], iu[1]] = off
    X[..., iu[1], iu[0]] = off
    return X


def inner(A, B, cov):
    """Inner product [tr(AB) - tau tr(A) tr(B)] / sigma2 of symmetric A, B."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError("dimension mismatch: %s vs %s" % (A.shape, B.shape))
    # tr(AB) = sum(A * B) because both arguments are symmetric.
    return (np.sum(A * B) - cov.tau * np.trace(A) * np.trace(B)) / cov.sigma2


def norm_sq(A, cov):
    """Squared norm inner(A, A, cov).

    The quadratic form is evaluated for any tau; it is a norm only for
    tau < 1/p.
    """
    return inner(A, A, cov)


def _canon_column_signs(V):
    # Flip each column so its largest-magnitude entry is positive; np.argmax
    # returns the smallest row index among ties, which is the tie rule.
    top = np.take_along_axis(V, np.argmax(np.abs(V), axis=-2)[..., None, :], -2)
    return V * np.where(top < 0.0, -1.0, 1.0)


def eigh_desc(X):
    """Eigendecomposition of a symmetric matrix (LAPACK, via np.linalg.eigh).

    Eigenvalues are returned in non-increasing order (stable with respect
    to the solver's ascending output for ties) and each eigenvector's sign
    is fixed so its largest-magnitude entry is positive. A stack is one
    call, with the bits of one call per matrix. Deterministic for identical
    input bits.
    """
    lam, V = np.linalg.eigh(check_symmetric(X))
    order = np.argsort(-lam, axis=-1, kind="stable")
    V = np.take_along_axis(V, order[..., None, :], -1)
    return EigenDecomp(_canon_column_signs(V), np.take_along_axis(lam, order, -1))


def _rebuild(V, lam):
    # V diag(lam) V' for frames V (..., p, p) and spectra lam (..., p)
    return (V * lam[..., None, :]) @ np.swapaxes(V, -1, -2)


def block_average(lam, mult):
    """Replace the eigenvalues in each multiplicity block (of each row) by its mean."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1:] != (mult.p,):
        raise ValueError("expected %d eigenvalues for multiplicities %r, got shape %s"
                         % (mult.p, mult.m, lam.shape))
    out = np.empty_like(lam)
    for lo, hi in mult.blocks():
        out[..., lo:hi] = lam[..., lo:hi].mean(axis=-1, keepdims=True)
    return out


def matrix_log(X):
    """Matrix logarithm: log of the eigenvalues, eigenvectors kept intact.

    Requires X, or every matrix of a stack, to be positive definite.
    """
    dec = eigh_desc(X)
    if np.any(dec.lam[..., -1] <= 0.0):
        raise ValueError("matrix_log requires positive eigenvalues, smallest is %g"
                         % dec.lam[..., -1].min())
    return _rebuild(dec.V, np.log(dec.lam))


def matrix_exp(X):
    """Matrix exponential: exp of the eigenvalues, eigenvectors kept intact."""
    dec = eigh_desc(X)
    return _rebuild(dec.V, np.exp(dec.lam))
