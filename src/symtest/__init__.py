"""Estimation and likelihood-ratio tests for eigenvalues and eigenvectors
of Gaussian random symmetric matrices under the orthogonally invariant
covariance model."""

__version__ = "0.1.0"

from .symcore import (
    CovParams,
    Multiplicities,
    EigenDecomp,
    vecd,
    vecd_inv,
    inner,
    norm_sq,
    eigh_desc,
    block_average,
    matrix_log,
    matrix_exp,
    sym_dim,
)
from .matnormal import SuffStats, build_sigma, log_density, sample
from .onesample import (
    Unrestricted,
    Point,
    FixedEigvecs,
    OrderedCone,
    FixedEigvals,
    Mult,
    EqualMeans,
    CommonEigvals,
    FitResult,
    mle,
    project,
    estimate_sigma2,
    estimate_tau,
    eigvec_uncertainty,
    pava,
)
from .lrt import (
    ChiSq,
    ChiSqApprox,
    ChiSqMix,
    ConeWeights,
    FDist,
    TestResult,
    StatisticError,
    pvalue,
    quantile,
    run,
    run_config,
    TESTS,
)
from .calibrate import (
    CalibrationReport,
    estimate_cone_weights,
    calibrate_null,
    consistency_study,
    cone_boundary_law,
)
