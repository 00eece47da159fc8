"""Maximum-likelihood estimation for one or two samples of symmetric matrices.

Under the orthogonally invariant model, the MLE of the group means over
any of the supported parameter sets is the Frobenius projection of the
sample means onto the set (minimizing sum_g n_g ||Ybar_g - M_g||^2),
independent of (sigma2, tau). project computes it for every set: each
mean is written in a frame (U0 or its own eigenvectors), its eigenvalue
coordinates are projected onto the set's spectra and it is rebuilt in
that frame. mle is project plus the covariance fit, and contains tests
that the means are a fixed point of project; dimension gives the set's
dimension and whether it is affine. The sets:

- Unrestricted: each group mean free, for one or two groups.
- Point(M0): the single matrix M0.
- FixedEigvecs(U0): matrices diagonalized by the fixed frame U0.
- OrderedCone(U0): the FixedEigvecs set with eigenvalues constrained to
  be non-increasing along U0's columns (projection by PAVA).
- FixedEigvals(D0, mult): matrices with known spectrum D0, eigenvectors
  free.
- Mult(mult): matrices whose spectrum has the given multiplicity pattern,
  values free.
- EqualMeans(mult=None), two groups: M1 = M2, the common mean with the
  pattern mult if given.
- CommonEigvals(mult), two groups: one shared spectrum with pattern
  mult, eigenvectors free per group.

The groups share (sigma2, tau). In vecd coordinates the covariance has
two eigenvalues, v1 = sigma2/(1 - p tau) on the trace line vecd(I)/sqrt(p)
and v2 = sigma2 off it, whose MLEs are two mean squares of the residuals
about the fitted means: the within-group sums of SuffStats plus n_g
times the squared lack of fit r = Ybar_g - M_g of each group, of which
they read only tr r and ||r - (tr r/p) I||^2; _fit_cov gives both MLEs,
or sigma2's at a given tau, for every fit. _fit, project's body, is the
one source of a fit's lack-of-fit sums, once for one mean or a chunk's
whole stack: an Unrestricted fit is the sample mean, so its sums are
exact zeros with no pass over the data; a Point or EqualMeans fit forms
r (_matrix_sums); and an eigenframe fit (FixedEigvals, Mult,
CommonEigvals), which keeps each mean's eigenvectors, reads them from
its eigenvalue shift. Only FixedEigvecs and OrderedCone fits form r per
sample (_residuals): moving them to the stack as well takes the
benchmark's peak_rss_mb past its 10% bound for as long as the benchmark
keeps every replicate's report (ROADMAP item 1). mle
returns one FitResult for one or two groups. eigvec_uncertainty gives
the asymptotic normal law of the eigenvector estimation error for
distinct-spectrum fits, expressed as a rotation logarithm, for one fit
or a stack; the logarithm is a closed form on one eigh_desc of the
stack's symmetric parts, so no fit has a loop of its own.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .symcore import (
    CovParams,
    Multiplicities,
    _rebuild,
    block_average,
    check_integer,
    check_symmetric,
    eigh_desc,
    float_array,
    sym_dim,
)


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


_PAVA_CHUNK = 4096  # rows per batched PAVA pass; bounds its working memory


class ParamSet:
    """Base tag for the parameter sets; groups are the group counts it fits."""

    groups = (1,)


@dataclass(frozen=True, eq=False)
class Unrestricted(ParamSet):
    groups = (1, 2)


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


@dataclass(frozen=True, eq=False)
class EqualMeans(ParamSet):
    groups = (2,)
    mult: Multiplicities = None


@dataclass(frozen=True, eq=False)
class CommonEigvals(ParamSet):
    groups = (2,)
    mult: Multiplicities


def _group_mean(index, groups):
    # one group's fitted mean; AttributeError on a fit with another group
    # count, so hasattr tells a one-group fit from a two-group one
    def get(self):
        if len(self.means) != groups:
            raise AttributeError("not a %d-group fit" % groups)
        return self.means[index]
    return property(get)


@dataclass(eq=False)
class FitResult:
    """Fitted group means and covariance parameters, for one or two groups.

    means holds one fitted mean per group (M_hat; M1_hat and M2_hat). Cone
    fits fill face_dim, the number of distinct values the fit landed on.
    """

    means: tuple
    sigma2_hat: float
    tau_hat: float
    set: ParamSet
    face_dim: int = None

    M_hat = _group_mean(0, 1)
    M1_hat = _group_mean(0, 2)
    M2_hat = _group_mean(1, 2)


def _pava_rows(Y):
    # Per row, a stack of (mean, count) blocks with non-increasing means;
    # top[i] blocks are in use.
    r, p = Y.shape
    rows = np.arange(r)
    means = np.zeros((r, p))
    counts = np.zeros((r, p), dtype=np.intp)
    top = np.zeros(r, dtype=np.intp)
    for j in range(p):
        means[rows, top] = Y[:, j]
        counts[rows, top] = 1
        top += 1
        act = rows[top > 1]
        while act.size:
            t = top[act]
            viol = means[act, t - 2] < means[act, t - 1]
            act, t = act[viol], t[viol]
            m1, c1 = means[act, t - 2], counts[act, t - 2]
            m2, c2 = means[act, t - 1], counts[act, t - 1]
            means[act, t - 2] = (m1 * c1 + m2 * c2) / (c1 + c2)
            counts[act, t - 2] = c1 + c2
            counts[act, t - 1] = 0
            top[act] -= 1
            act = act[top[act] > 1]
    used = counts > 0
    return np.repeat(means[used], counts[used]).reshape(r, p)


def pava(y):
    """Least-squares projection of y onto {d_1 >= d_2 >= ... >= d_p}.

    y is one vector (p,) or a batch of rows (r, p), each projected alone.
    Pool-adjacent-violators with equal initial weights, run one column
    at a time over a chunk of rows at once: blocks are pooled on strict
    order violation, so every entry of a pooled block carries the same
    float. Returns (fitted values, number of distinct values), the latter
    an int for a vector and an (r,) array for a batch.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("pava needs finite values, got %r"
                         % float(y[~np.isfinite(y)].flat[0]))
    Y = np.atleast_2d(y)
    out = np.empty_like(Y)
    for lo in range(0, Y.shape[0], _PAVA_CHUNK):
        out[lo:lo + _PAVA_CHUNK] = _pava_rows(Y[lo:lo + _PAVA_CHUNK])
    face_dim = 1 + np.count_nonzero(out[:, 1:] != out[:, :-1], axis=1)
    if y.ndim == 1:
        return out[0], int(face_dim[0])
    return out, face_dim


def project(pset, *means, n=None):
    """Frobenius projection of the group means onto a parameter set.

    Takes one mean per group, as many as the set fits, and the group
    counts n (equal weights if omitted); minimizes sum_g n_g ||Y_g - M_g||^2
    over the set. EqualMeans pools the means, then projects the pooled
    mean onto Mult(mult) if a pattern is given. Every other restricted set
    is spectral: each mean is written in a frame, U0 for the affine sets
    and the cone, its own descending eigenvectors otherwise; the
    count-weighted mean of the eigenvalue coordinates is projected onto the
    set's spectra (kept, ordered by PAVA, replaced by D0, or block
    averaged); and each mean is rebuilt in its frame. Within a tied block
    of eigenvalues any rotation gives the same objective, and the solver's
    eigenvectors are kept. A mean may be a stack (r, p, p): one pass, with
    the bits of r single calls. Returns (projected means, face_dim),
    face_dim the number of distinct values of an OrderedCone fit (an (r,)
    array for a stack) and None otherwise.
    """
    return _fit(pset, *means, n=n)[:2]


def _matrix_sums(y, m):
    # [tr r, ||r||^2, ||r - (tr r/p) I||^2] of r = y - m as Python floats, r
    # such rows for a stack (r, p, p) with the bits of r single calls; the
    # off-trace sum is not ||r||^2 - tr^2/p, so it stays accurate at any scale
    r = y - m
    p = r.shape[-1]
    r = r.reshape(r.shape[:-2] + (p * p,))  # a view, as is its diagonal
    diag = r[..., ::p + 1]
    tr = diag.sum(-1)
    ss = (r * r).sum(-1)
    diag = diag.T  # stack axes last, so tr/p broadcasts with no new axis
    diag -= tr / p
    return np.array([tr, ss, (r * r).sum(-1)]).T.tolist()


def _spectral_sums(d):
    # _matrix_sums of V diag(d) V' from the eigenvalue shift d alone; off
    # sums d - tr/p, accurate at any scale
    tr = d.sum(axis=-1)
    off = d - tr[..., None] / d.shape[-1]
    return np.stack([tr, (d * d).sum(axis=-1), (off * off).sum(axis=-1)],
                    -1).tolist()


def _fit(pset, *means, n=None):
    # project, plus each group's lack-of-fit sums as _matrix_sums gives them:
    # zeros for an Unrestricted fit, Ybar_g - M_g formed on the stack for a
    # Point or EqualMeans fit, and an eigenframe fit's from its eigenvalue
    # shift. FixedEigvecs and OrderedCone fits give None, formed per sample
    # (_residuals): on the stack they took calibrate-affine's peak_rss_mb
    # 10.3% up, past its bound, while the benchmark keeps every replicate's
    # report (ROADMAP item 1); once that is mended, they are one branch here
    _check_groups(pset, len(means))
    n = (1,) * len(means) if n is None else n
    if isinstance(pset, Unrestricted):
        zeros = np.zeros(np.shape(means[0])[:-2] + (3,)).tolist()
        return means, None, [zeros] * len(means)
    if isinstance(pset, Point):
        m_hat = np.broadcast_to(pset.M0, np.shape(means[0]))
        return (m_hat,), None, [_matrix_sums(means[0], m_hat)]
    if isinstance(pset, EqualMeans):
        (n1, n2), (y1, y2) = n, means
        m_hat = (n1 * y1 + n2 * y2) / (n1 + n2)
        if pset.mult is not None:
            (m_hat,), _ = project(Mult(pset.mult), m_hat)
        return (m_hat, m_hat), None, [_matrix_sums(y, m_hat) for y in means]
    if isinstance(pset, (FixedEigvecs, OrderedCone)):
        frames = [(pset.U0, np.diagonal(pset.U0.T @ Y @ pset.U0, 0, -2, -1))
                  for Y in means]
    else:
        frames = [(dec.V, dec.lam) for dec in map(eigh_desc, means)]
    lam = (frames[0][1] if len(frames) == 1 else
           np.sum([k * d for k, (_, d) in zip(n, frames)], axis=0) / sum(n))
    face_dim = sums = None
    if isinstance(pset, OrderedCone):
        lam, face_dim = pava(lam)
    elif isinstance(pset, (FixedEigvals, Mult, CommonEigvals)):
        lam = (pset.D0 if isinstance(pset, FixedEigvals) else
               block_average(lam, pset.mult))
        sums = [_spectral_sums(d - lam) for _, d in frames]
    return tuple(_rebuild(V, lam) for V, _ in frames), face_dim, sums


def dimension(pset, p, groups=1):
    """(dimension, affine) of a parameter set of p x p means, in `groups` groups.

    Spectral sets: each free frame moves on the orbit of its pattern, of
    dimension (p^2 - sum m^2)/2, plus k block values unless D0 fixes them;
    affine exactly when that orbit is a point (a fully tied spectrum).
    """
    if isinstance(pset, Unrestricted):
        return groups * sym_dim(p), True
    if isinstance(pset, Point):
        return 0, True
    if isinstance(pset, (FixedEigvecs, OrderedCone)):
        return p, isinstance(pset, FixedEigvecs)
    mult = pset.mult
    if mult is None:  # EqualMeans with no pattern: one free mean
        return sym_dim(p), True
    orbit = (p * p - sum(m * m for m in mult.m)) // 2
    frames = groups if isinstance(pset, CommonEigvals) else 1
    values = 0 if isinstance(pset, FixedEigvals) else mult.k
    return frames * orbit + values, mult.k == 1


def _residuals(stats, means):
    # per group _matrix_sums of r = Ybar_g - M_g, all the covariance fit and
    # the statistic read of a fit: the route of a fit _fit gives no sums
    if len(means) != len(stats.n):
        raise ValueError("need one fitted mean per group: %d groups, %d means"
                         % (len(stats.n), len(means)))
    return [_matrix_sums(y, m) for y, m in zip(stats.ybar, means)]


def estimate_sigma2(stats, means, tau):
    """MLE of sigma2 given one fitted mean per group and tau.

    Equals (s2 + (1 - p tau) s1)/(q n), s1 and s2 the summed squared
    residuals about the fitted means on the trace line and off it. A zero
    value (possible only in degenerate samples, e.g. n = 1 with a perfect
    fit) is returned as-is with a warning.
    """
    return _fit_cov(stats, _residuals(stats, means), tau)[0]


def estimate_tau(stats, means):
    """MLE of tau given one fitted mean per group: (1 - v2/v1)/p.

    v1 and v2 are the mean squares of the residuals about the fitted means
    on the trace line and off it. Undefined for p = 1, for n = 1 (all
    residual terms vanish) and when every residual is trace-free (v1 = 0)
    or a multiple of I (v2 = 0, so tau = 1/p).
    """
    return _fit_cov(stats, _residuals(stats, means))[1]


def _fit_cov(stats, res, tau=None):
    """(sigma2, tau) from the fits' _residuals: both MLEs, or sigma2's at tau.

    s1 and s2 are the summed squared residuals about the fitted means
    (spread plus lack of fit) on the trace line vecd(I)/sqrt(p) and off
    it, v1 = s1/n and v2 = s2/((q - 1) n) their mean squares. The MLEs
    are sigma2 = v2 and tau = (1 - v2/v1)/p; at a given tau, sigma2 =
    (s2 + (1 - p tau) s1)/(q n).
    """
    p, n = stats.p, sum(stats.n)
    if tau is None and p < 2:
        raise ValueError("tau estimation requires p >= 2")
    if tau is not None and not tau < 1.0 / p:
        raise ValueError("tau must be < 1/p")
    s1, s2 = 0.0, 0.0
    for k, a, b, (tr, _, off) in zip(stats.n, stats.a, stats.b, res):
        s1 += a + k * tr ** 2 / p
        s2 += b + k * off
    if tau is not None:
        sigma2 = (s2 + (1.0 - p * tau) * s1) / (sym_dim(p) * n)
        if sigma2 <= 0.0:
            warnings.warn("degenerate variance estimate (sigma2_hat = %g)"
                          % sigma2)
        return sigma2, tau
    if s1 == 0.0:
        raise ValueError("tau estimate undefined: all residual traces vanish "
                         "(n = 1 or degenerate sample)")
    v1, v2 = s1 / n, s2 / ((sym_dim(p) - 1) * n)
    tau = (1.0 - v2 / v1) / p
    if not tau < 1.0 / p:
        raise ValueError("tau must be < 1/p")
    return v2, tau


def _check_groups(pset, count):
    if not isinstance(pset, ParamSet):
        raise TypeError("unknown parameter set %r" % (pset,))
    if count not in pset.groups:
        raise ValueError("%s needs a %s sample, got %d group(s)" % (
            type(pset).__name__, " or ".join(
                ("one-group", "two-group")[g - 1] for g in pset.groups), count))


def mle(pset, stats, cov=None):
    """MLE of the group means and (sigma2, tau) over the given parameter set.

    stats holds the sufficient statistics of a sample with as many groups
    as the set fits. When cov is provided, the mean fits are unchanged
    (they never depend on the covariance) and the known (sigma2, tau) are
    checked for p and recorded instead of being estimated; this also
    permits n = 1. Returns a FitResult with one fitted mean per group.
    """
    means, face_dim, sums = _fit(pset, *stats.ybar, n=stats.n)
    fit = ((cov.validate(stats.p).sigma2, cov.tau) if cov is not None else
           _fit_cov(stats, sums or _residuals(stats, means)))
    return FitResult(means, *fit, pset, face_dim)


def contains(pset, *means, tol=1e-9):
    """Membership predicate: is each group mean a fixed point of project?

    Takes one mean per group, as many as the set fits. The means lie in
    the set when projecting them moves no entry by more than tol times
    the magnitude of the means (at least 1), one rule for every set.
    """
    means = [check_symmetric(M, "M", tol=max(tol, 1e-12)) for M in means]
    bound = tol * max([1.0] + [np.abs(M).max() for M in means])
    fitted, _ = project(pset, *means)
    return all(np.abs(F - M).max() <= bound for F, M in zip(fitted, means))


def _rotation_log(R):
    # Principal logarithm of a stack of rotations R (r, p, p), in closed form
    # from one eigh: C = (R + R')/2 and S = (R - R')/2 commute, and C has
    # eigenvalues cos(theta_k), so log R = f(C) S with f(c) = arccos(c) /
    # sqrt(1 - c^2) and f(1) = 1. f(C) is a function of C, so tied angles
    # need no care. Its rounding error grows as eps/(1 + cos(theta)), so an
    # angle within about 1.4e-4 of pi, where the log is not unique or has
    # lost half its digits, is refused.
    C = 0.5 * (R + np.swapaxes(R, -1, -2))
    dec = eigh_desc(C)
    c = dec.lam
    if np.any(c <= -1.0 + 1e-8):
        raise ValueError("rotation angle pi: principal log is not unique")
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(c < 1.0, np.arccos(c) / np.sqrt((1.0 - c) * (1.0 + c)), 1.0)
    A = _rebuild(dec.V, f) @ (R - C)
    return 0.5 * (A - np.swapaxes(A, -1, -2))


def _frame_log(U_true, V):
    # log(U_true' Uhat) for a stack of frames V (r, p, p). Uhat is V with
    # its columns' signs making diag(U_true' Uhat) positive, which maximizes
    # tr(U_true' Uhat) over sign changes and so minimizes ||U_true - Uhat||.
    R = U_true.T @ V
    R *= np.where(np.diagonal(R, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[:, None, :]
    # Sign alignment can land on a reflection; flip the most ambiguous
    # column (smallest aligned diagonal) to reach the rotation group.
    flip = np.flatnonzero(np.linalg.det(R) < 0.0)
    j = np.argmin(np.abs(np.diagonal(R[flip], axis1=-2, axis2=-1)), axis=-1)
    R[flip, :, j] *= -1.0
    return _rotation_log(R)


def _check_distinct(D0, p):
    # D0 as p finite, strictly decreasing eigenvalues: the spectra whose
    # eigenvectors are identifiable
    D0 = float_array(D0, "D0")
    if D0.shape != (p,) or not np.all(np.isfinite(D0)):
        raise ValueError("D0 must be %d finite eigenvalues, got %r"
                         % (p, D0.tolist()))
    if np.any(D0[:-1] <= D0[1:]):
        raise ValueError("spectrum must be strictly decreasing: equal eigenvalues "
                         "leave the eigenvectors unidentifiable")
    return D0


def eigvec_uncertainty(U_true, D0, fit_M, n, sigma2):
    """Eigenvector estimation error and its predicted asymptotic variance.

    For a fit with known distinct spectrum D0, the estimated frame Uhat
    (recovered from fit_M, sign-aligned to U_true) differs from U_true by
    a rotation; A_hat = log(U_true' Uhat) is its antisymmetric tangent
    coordinate. Entry (i, j) of the returned variance table is the
    asymptotic prediction var(a_ij) = sigma2 / (2 n (d_i - d_j)^2); the
    diagonal is zero. fit_M may be a stack of fits (r, p, p), decomposed
    in one call; A_hat is then a stack too, and one fit gives the bits of
    its entry in a stack.
    """
    U_true = _check_orthogonal(U_true, "U_true")
    p = U_true.shape[0]
    D0 = _check_distinct(D0, p)
    fit_M = check_symmetric(fit_M, "fit_M")
    if fit_M.ndim not in (2, 3) or fit_M.shape[-1] != p:
        raise ValueError("fit_M must be a (%d, %d) fit or a stack of them, got "
                         "shape %s" % (p, p, fit_M.shape))
    n = check_integer(n, "n")
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    CovParams(sigma2).validate(p)
    a_hat = _frame_log(U_true, eigh_desc(fit_M.reshape(-1, p, p)).V)
    gaps = D0[:, None] - D0[None, :]
    with np.errstate(divide="ignore"):
        predicted = sigma2 / (2.0 * n * gaps ** 2)
    np.fill_diagonal(predicted, 0.0)
    return a_hat.reshape(fit_M.shape), predicted
