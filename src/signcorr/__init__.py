"""Robust correlation estimation from spatial signs of multivariate data.

The toolkit covers the empirical spatial sign covariance matrix and its
canonical spatial-median centering, the map between shape-matrix
eigenvalues and sign-covariance eigenvalues (closed form for two
dimensions, quadrature plus Newton inversion in general), four
correlation estimators built on it, elliptical samplers and a reproducible
Monte Carlo harness.
"""

# ``cli`` (argparse, json, csv) loads on first use, as ``from signcorr import cli``.
from . import correlation, eigenmap, elliptical, linalg, robust, simulation
from .correlation import (
    ConfidenceInterval,
    CorrelationEstimate,
    CorrelationMatrixEstimate,
    asv_sscor,
    asv_two_stage,
    confidence_interval,
    moment_matrix,
    multivariate_matrix,
    pairwise_matrix,
    sscor,
    sscor_two_stage,
)
from .exceptions import (
    ConvergenceError,
    DegenerateDataError,
    DegenerateScaleError,
    InvalidInputError,
    QuadratureError,
    RankDeficiencyError,
    SignCorrError,
)
from .robust import mad, spatial_median, spatial_sign
from .sscm import SscmEstimate, sscm, sscm_auto

__version__ = "0.1.0"

__all__ = [
    "ConfidenceInterval",
    "ConvergenceError",
    "CorrelationEstimate",
    "CorrelationMatrixEstimate",
    "DegenerateDataError",
    "DegenerateScaleError",
    "InvalidInputError",
    "QuadratureError",
    "RankDeficiencyError",
    "SignCorrError",
    "SscmEstimate",
    "asv_sscor",
    "asv_two_stage",
    "cli",
    "confidence_interval",
    "correlation",
    "eigenmap",
    "elliptical",
    "linalg",
    "mad",
    "moment_matrix",
    "multivariate_matrix",
    "pairwise_matrix",
    "robust",
    "simulation",
    "spatial_median",
    "spatial_sign",
    "sscm",
    "sscm_auto",
    "sscor",
    "sscor_two_stage",
]
