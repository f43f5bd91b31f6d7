"""Correlation estimators built on the spatial sign covariance matrix.

* ``sscor`` -- bivariate spatial sign correlation;
* ``sscor_two_stage`` -- the same after dividing each coordinate by its
  MAD, which frees the asymptotic variance from the marginal scale ratio;
* ``pairwise_matrix`` -- two-stage estimates for every pair of variables
  (not positive semi-definite in general);
* ``multivariate_matrix`` -- one SSCM of MAD-standardized data, rescaled
  to a correlation matrix (positive semi-definite by construction).

All four run one shape fit, the batched kernel ``_shape_fits``: for a
stack of samples it finds every spatial median in one stacked,
safeguarded Newton iteration (``robust``), forms the SSCMs in one
``einsum``, eigendecomposes them in one stacked ``eigh``, maps the SSCM
eigenvalues back to shape eigenvalues (``eigenmap.inverse``: closed form
at p=2, for all rows at once; safeguarded Newton steps above, row by row)
and sets them on the SSCM eigenvectors. ``pairwise_matrix`` stacks all
column pairs; the other estimators stack one sample. Each row is
computed on its own, so a pairwise entry is bitwise the two-stage
estimate on its pair, and at p=2 the multivariate estimate is the
two-stage estimate up to rounding in the rescaling.

``moment_matrix`` (plain Pearson) is the comparison baseline, and the
asymptotic variance formulas give Wald confidence intervals for the
two-stage estimator.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import eigenmap, robust
from .exceptions import (
    DegenerateDataError,
    DegenerateScaleError,
    InvalidInputError,
    SignCorrError,
)
from .linalg import _sym_eigens, to_correlation
from .robust import as_data_matrix
from .sscm import _sign_covariances


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
        raise InvalidInputError(f"rho must lie in [-1, 1], got {float(rho)}")
    if not np.isfinite(a) or a <= 0.0:
        raise InvalidInputError(f"scale ratio must be positive, got {float(a)}")
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
    """Each column divided by its MAD; a zero MAD names its column.

    Where a MAD is so small next to its column that a quotient would
    overflow, every column is divided by its MAD and by one common power
    of two 2**k: the shape fit scales each sample by a power of two anyway.
    """
    scales = robust._mads(x)
    bad = np.flatnonzero(scales == 0.0)
    if bad.size:
        raise DegenerateScaleError(f"column {bad[0]}: {robust._ZERO_MAD}")
    # scales = frac * 2**e with frac in [0.5, 1), and max |x| < 2**e_x per
    # column, so |x / scales| < 2**(e_x - e + 1), which must stay below 2**1023.
    frac, e = np.frexp(scales)
    k = int(np.max(np.frexp(np.max(np.abs(x), axis=0))[1] - e)) + 2 - 1024
    if k <= 0:
        return x / scales
    # 2 * frac lies in [1, 2), so x / (2 * frac) cannot overflow.
    return np.ldexp(x / (2.0 * frac), 1 - e - k)


# Entries (pairs times 2n) of one stack of column pairs in ``pairwise_matrix``:
# this bounds its working memory to a few such arrays, 2 MiB each, and keeps
# them in cache. No result depends on it: every row is computed on its own.
_STACK_ENTRIES = 2**18


def _shape_fits(z):
    """Shape matrices (B, p, p) of the samples stacked in ``z`` (B, p, n).

    The batched shape kernel: each row is centered at its spatial median,
    its SSCM eigenvalues are renormalized to sum one (when observations
    coincide with the center the trace is n_effective / n), mapped back to
    shape eigenvalues and set on the SSCM eigenvectors. Every stage runs
    once for the whole stack. Returns the matrices and {row: error} for
    the rows that failed; their matrices are meaningless.
    """
    zs, k = robust._pow2_scaled(z)
    centers, errors = robust._spatial_medians(zs, k)
    w, u = _sym_eigens(_sign_covariances(robust._signs(zs, centers)))
    w = np.maximum(w, 0.0)
    total = w.sum(axis=1, keepdims=True)
    empty = total[:, 0] <= 0.0
    for b in np.flatnonzero(empty):
        errors.setdefault(int(b), DegenerateDataError("all observations coincide with the center"))
    delta = w / np.where(empty[:, None], 1.0, total)
    delta[empty] = 1.0 / w.shape[1]  # a valid spectrum in place of the failed rows
    if z.shape[1] == 2:
        # eigenmap.inverse(as_spectrum(delta)) in closed form for all rows.
        lam = eigenmap._squared_share(eigenmap._canonical(eigenmap._canonical(delta)))
    else:
        lam = np.zeros_like(delta)
        for b in range(len(delta)):
            if b not in errors:
                try:
                    lam[b] = eigenmap.inverse(eigenmap._canonical(delta[b]))
                except SignCorrError as exc:
                    errors[b] = exc
    return (u * lam[:, None, :]) @ u.swapaxes(1, 2), errors


def _shape_fit(x: np.ndarray) -> np.ndarray:
    """Shape matrix of the sample ``x`` (n, p): the kernel on a stack of one."""
    v, errors = _shape_fits(robust._stack_of_one(x))
    if errors:
        raise errors[0]
    return v[0]


def _pair_rhos(v: np.ndarray, errors: dict) -> np.ndarray:
    """Correlations read off the 2x2 shape matrices ``v`` (B, 2, 2).

    Rows whose shape matrix collapsed onto a coordinate axis join
    ``errors``, unless they already failed.
    """
    collapsed = (v[:, 0, 0] <= 0.0) | (v[:, 1, 1] <= 0.0)
    for b in np.flatnonzero(collapsed):
        errors.setdefault(int(b), DegenerateDataError(
            "sign covariance collapsed onto a coordinate axis; correlation is undefined"
        ))
    rho = v[:, 0, 1] / np.sqrt(np.where(collapsed, 1.0, v[:, 0, 0] * v[:, 1, 1]))
    return np.clip(rho, -1.0, 1.0)


def _pair_rho(x: np.ndarray) -> float:
    """Correlation of the bivariate sample ``x`` (n, 2) from its shape fit."""
    v, errors = _shape_fits(robust._stack_of_one(x))
    rho = _pair_rhos(v, errors)
    if errors:
        raise errors[0]
    return float(rho[0])


def sscor(data) -> CorrelationEstimate:
    """Bivariate spatial sign correlation coefficient.

    Centers at the spatial median, eigendecomposes the SSCM, maps the
    eigenvalues back to shape eigenvalues with the closed-form inversion
    and reads the correlation off the rebuilt shape matrix.
    """
    x = _validated(data, bivariate=True)
    return CorrelationEstimate(rho=_pair_rho(x), method="sscor", n=x.shape[0])


def sscor_two_stage(data) -> CorrelationEstimate:
    """Spatial sign correlation after MAD-standardizing each column."""
    x = _validated(data, bivariate=True)
    rho = _pair_rho(_standardized(x))
    return CorrelationEstimate(rho=rho, method="two_stage", n=x.shape[0])


def confidence_interval(est: CorrelationEstimate, level: float) -> ConfidenceInterval:
    """Wald interval for the two-stage estimator, clipped to [-1, 1]."""
    if est.method != "two_stage":
        raise InvalidInputError(
            f"confidence intervals require the two-stage estimator, got {est.method!r}"
        )
    if not (0.0 < level < 1.0):
        raise InvalidInputError(f"level must lie in (0, 1), got {float(level)}")
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

    The columns are MAD-standardized once; then all pairs, in row-major
    order, go through the shape kernel in stacks of at most
    ``_STACK_ENTRIES`` entries. The assembled matrix has unit diagonal and
    symmetric entries but is not guaranteed positive semi-definite. A
    failing pair fails the whole estimate: the first one in row-major
    order raises its error, with the pair named when it is a
    DegenerateDataError.
    """
    x = _validated(data)
    z = np.ascontiguousarray(_standardized(x).T)
    p = x.shape[1]
    first, second = np.triu_indices(p, k=1)
    rho = np.empty(first.size)
    block = max(1, _STACK_ENTRIES // (2 * x.shape[0]))
    for lo in range(0, first.size, block):
        i, j = first[lo:lo + block], second[lo:lo + block]
        v, errors = _shape_fits(np.stack((z[i], z[j]), axis=1))
        rho[lo:lo + block] = _pair_rhos(v, errors)
        if errors:
            b = min(errors)
            exc = errors[b]
            if isinstance(exc, DegenerateDataError):
                raise DegenerateDataError(f"pair ({i[b]}, {j[b]}): {exc}") from exc
            raise exc
    r = np.eye(p)
    r[first, second] = r[second, first] = rho
    return CorrelationMatrixEstimate(matrix=r, method="pairwise", n=x.shape[0])


def multivariate_matrix(data) -> CorrelationMatrixEstimate:
    """Correlation matrix from one SSCM of MAD-standardized data.

    The shape matrix is rebuilt as in the two-stage estimator and rescaled
    to unit diagonal, so at p=2 this is the two-stage estimate up to
    rounding. The result is positive semi-definite by construction; the
    rebuilt shape matrix, made exactly symmetric as (V + V^T) / 2, is kept
    in ``shape_estimate``.
    """
    x = _validated(data)
    v = _shape_fit(_standardized(x))
    v = (v + v.T) / 2.0
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
