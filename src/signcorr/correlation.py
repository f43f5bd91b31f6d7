"""Correlation estimators built on the spatial sign covariance matrix.

* ``sscor`` -- bivariate spatial sign correlation;
* ``sscor_two_stage`` -- the same after dividing each coordinate by its
  MAD, which frees the asymptotic variance from the marginal scale ratio;
* ``pairwise_matrix`` -- two-stage estimates for every pair of variables
  (not positive semi-definite in general);
* ``multivariate_matrix`` -- one SSCM of MAD-standardized data, rescaled
  to a correlation matrix (positive semi-definite by construction).

All four run one shape fit: the SSCM eigenvalues are mapped back to shape
eigenvalues by ``eigenmap.inverse`` (closed form at p=2, fixed point
above) and set on the SSCM eigenvectors. At p=2 the multivariate estimate
is therefore the two-stage estimate, up to rounding in the rescaling.

``moment_matrix`` (plain Pearson) is the comparison baseline, and the
asymptotic variance formulas give Wald confidence intervals for the
two-stage estimator.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import eigenmap
from .exceptions import (
    DegenerateDataError,
    DegenerateScaleError,
    InvalidInputError,
)
from .linalg import sym_eigen, to_correlation
from .robust import as_data_matrix, mad
from .sscm import sscm_auto


@dataclass(frozen=True)
class CorrelationEstimate:
    rho: float
    method: str  # sscor | two_stage | moment
    n: int


@dataclass(frozen=True)
class CorrelationMatrixEstimate:
    matrix: np.ndarray
    method: str  # pairwise | multivariate | moment
    n: int
    shape_estimate: np.ndarray | None = None


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float


def asv_sscor(rho: float, a: float) -> float:
    """Asymptotic variance of the spatial sign correlation.

    ``a`` is the ratio of the marginal scales; the variance is minimal at
    ``a == 1`` and grows without bound as ``a`` tends to 0 or infinity.
    """
    if not np.isfinite(rho) or abs(rho) > 1.0:
        raise InvalidInputError(f"rho must lie in [-1, 1], got {rho!r}")
    if not np.isfinite(a) or a <= 0.0:
        raise InvalidInputError(f"scale ratio must be positive, got {a!r}")
    t = 1.0 - rho * rho
    return t * t + 0.5 * (a + 1.0 / a) * t**1.5


def asv_two_stage(rho: float) -> float:
    """Asymptotic variance of the two-stage estimator; depends on rho only."""
    return asv_sscor(rho, 1.0)


def _validated(data, *, bivariate=False) -> np.ndarray:
    x = as_data_matrix(data)
    n, p = x.shape
    if bivariate and p != 2:
        raise InvalidInputError(f"bivariate estimator requires p == 2, got p={p}")
    if p < 2:
        raise InvalidInputError(f"need at least 2 variables, got p={p}")
    if n < 3:
        raise InvalidInputError(f"need at least 3 observations, got {n}")
    return x


def _standardized(x: np.ndarray) -> np.ndarray:
    """Each column divided by its MAD; a zero MAD names its column."""
    scales = np.empty(x.shape[1])
    for j in range(x.shape[1]):
        try:
            scales[j] = mad(x[:, j])
        except DegenerateScaleError as exc:
            raise DegenerateScaleError(f"column {j}: {exc}") from exc
    return x / scales


def _shape_fit(z: np.ndarray) -> np.ndarray:
    """Shape matrix of ``z`` rebuilt from its SSCM at the spatial median.

    The SSCM eigenvalues are renormalized to sum one: when observations
    coincide with the center the trace is n_effective / n.
    """
    w, u = sym_eigen(sscm_auto(z).matrix)
    w = np.maximum(w, 0.0)
    total = w.sum()
    if total <= 0.0:
        raise DegenerateDataError("all observations coincide with the center")
    lam = eigenmap.inverse(eigenmap.as_spectrum(w / total, kind="sign"))
    return (u * lam) @ u.T


def _pair_rho(v: np.ndarray) -> float:
    if v[0, 0] <= 0.0 or v[1, 1] <= 0.0:
        raise DegenerateDataError(
            "sign covariance collapsed onto a coordinate axis; "
            "correlation is undefined"
        )
    rho = v[0, 1] / np.sqrt(v[0, 0] * v[1, 1])
    return float(np.clip(rho, -1.0, 1.0))


def sscor(data) -> CorrelationEstimate:
    """Bivariate spatial sign correlation coefficient.

    Centers at the spatial median, eigendecomposes the SSCM, maps the
    eigenvalues back to shape eigenvalues with the closed-form inversion
    and reads the correlation off the rebuilt shape matrix.
    """
    x = _validated(data, bivariate=True)
    return CorrelationEstimate(rho=_pair_rho(_shape_fit(x)), method="sscor", n=x.shape[0])


def sscor_two_stage(data) -> CorrelationEstimate:
    """Spatial sign correlation after MAD-standardizing each column."""
    x = _validated(data, bivariate=True)
    rho = _pair_rho(_shape_fit(_standardized(x)))
    return CorrelationEstimate(rho=rho, method="two_stage", n=x.shape[0])


def confidence_interval(est: CorrelationEstimate, level: float) -> ConfidenceInterval:
    """Wald interval for the two-stage estimator, clipped to [-1, 1]."""
    if est.method != "two_stage":
        raise InvalidInputError(
            f"confidence intervals require the two-stage estimator, got {est.method!r}"
        )
    if not (0.0 < level < 1.0):
        raise InvalidInputError(f"level must lie in (0, 1), got {level!r}")
    if est.n < 3:
        raise InvalidInputError("need at least 3 observations")
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    half = z * np.sqrt(asv_two_stage(est.rho) / est.n)
    return ConfidenceInterval(
        lower=float(max(est.rho - half, -1.0)),
        upper=float(min(est.rho + half, 1.0)),
        level=level,
    )


def pairwise_matrix(data) -> CorrelationMatrixEstimate:
    """Two-stage spatial sign correlations for all variable pairs.

    The columns are MAD-standardized once; each pair is then centered and
    fitted on its own. The assembled matrix has unit diagonal and
    symmetric entries but is not guaranteed positive semi-definite. A
    degenerate pair fails the whole estimate.
    """
    x = _validated(data)
    z = _standardized(x)
    p = x.shape[1]
    r = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            try:
                r[i, j] = r[j, i] = _pair_rho(_shape_fit(z[:, [i, j]]))
            except DegenerateDataError as exc:
                raise DegenerateDataError(f"pair ({i}, {j}): {exc}") from exc
    return CorrelationMatrixEstimate(matrix=r, method="pairwise", n=x.shape[0])


def multivariate_matrix(data) -> CorrelationMatrixEstimate:
    """Correlation matrix from one SSCM of MAD-standardized data.

    The shape matrix is rebuilt as in the two-stage estimator and rescaled
    to unit diagonal, so at p=2 this is the two-stage estimate up to
    rounding. The result is positive semi-definite by construction; the
    rebuilt shape matrix is kept in ``shape_estimate``.
    """
    x = _validated(data)
    v = _shape_fit(_standardized(x))
    try:
        r = to_correlation(v)
    except DegenerateScaleError as exc:
        raise DegenerateDataError(f"degenerate shape estimate: {exc}") from exc
    return CorrelationMatrixEstimate(
        matrix=r, method="multivariate", n=x.shape[0], shape_estimate=v
    )


def moment_matrix(data) -> CorrelationMatrixEstimate:
    """Plain Pearson correlation matrix (the classical baseline)."""
    x = as_data_matrix(data)
    n, p = x.shape
    if n < 2:
        raise InvalidInputError(f"need at least 2 observations, got {n}")
    # An exact power-of-two scale per column leaves the correlation bitwise
    # unchanged and keeps ``var`` and ``corrcoef`` from over- or underflowing.
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x), axis=0))[1])
    var = np.var(x, axis=0)
    bad = np.flatnonzero(var == 0.0)
    if bad.size:
        raise DegenerateScaleError(f"column {bad[0]} has zero variance")
    r = np.atleast_2d(np.corrcoef(x, rowvar=False))
    r = np.clip((r + r.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return CorrelationMatrixEstimate(matrix=r, method="moment", n=n)


# Estimators by the name the CLI and the simulation harness use.
ESTIMATORS = {
    "moment": moment_matrix,
    "pairwise": pairwise_matrix,
    "multivariate": multivariate_matrix,
    "two-stage": sscor_two_stage,
}
