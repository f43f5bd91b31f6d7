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
two-stage estimator. Every estimator is one stacked fit over samples
(R, n, p), each sample failing on its own; the Monte Carlo harness looks
them up in ``FITS``. Each public function is its stack of one, and
``sscor_two_stage`` is the p=2 ``pairwise_matrix``: on one pair the two give
one answer or one error.
"""

from dataclasses import dataclass

import numpy as np

from . import eigenmap, robust
from .exceptions import (
    DegenerateDataError,
    DegenerateScaleError,
    InvalidInputError,
    SignCorrError,
)
from .linalg import _correlations, _sym_eigens
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


def _standardized(x: np.ndarray):
    """Each column of each sample of the stack ``x`` (R, n, p) divided by its MAD.

    Returns the quotients x / (2 frac) as a stack (R, p, n) for the kernel,
    the column exponents 1 - e (R, p), where MAD = frac * 2**e with frac in
    [0.5, 1), and {row: error} for the samples that are not finite or have
    a zero MAD, which names its column; their quotients are meaningless.
    2 frac lies in [1, 2), so no quotient overflows; ``robust._pow2_scaled``
    applies the exponents with each row's power of two.
    """
    x, errors = _finite(x)
    scales = robust._mads(x)
    zero = scales == 0.0
    for b, j in zip(*np.nonzero(zero)):
        errors.setdefault(int(b), DegenerateScaleError(f"column {j}: {robust._ZERO_MAD}"))
    frac, e = np.frexp(np.where(zero, 1.0, scales))
    q = x / (2.0 * frac[:, None, :])
    return np.ascontiguousarray(q.transpose(0, 2, 1)), 1 - e, errors


# Entries of one stack in the shape kernel: samples times p times n, or column
# pairs times 2n. This bounds the working memory to a few such arrays, 2 MiB
# each, and keeps them in cache. No result depends on it: every row is
# computed on its own.
_STACK_ENTRIES = 2**18


def _shape_fits(z, e):
    """Shape matrices (B, p, p) of the samples ``z`` (B, p, n) times 2**e per column.

    The batched shape kernel: each row is centered at its spatial median,
    its SSCM eigenvalues are renormalized to sum one (when observations
    coincide with the center the trace is n_effective / n), mapped back to
    shape eigenvalues and set on the SSCM eigenvectors. Every stage runs
    once for the whole stack. Returns the matrices and {row: error} for
    the rows that failed; their matrices are meaningless.
    """
    zs, k = robust._pow2_scaled(z, e)
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


def _pairwise_fits(x):
    """``pairwise_matrix`` of each sample of the stack ``x`` (R, n, p).

    All pairs of all samples, sample by sample and each in row-major order,
    go through the shape kernel in stacks of at most ``_STACK_ENTRIES``
    entries. Returns the matrices (R, p, p), NaN for the failed samples,
    and {sample: error}: the error of its first failing pair, with the pair
    named when it is a DegenerateDataError.
    """
    z, e, errors = _standardized(x)
    p, n = z.shape[1:]
    first, second = np.triu_indices(p, k=1)
    rows = _kept(len(z), errors)
    rep, pair = np.divmod(np.arange(rows.size * first.size), first.size)
    rep, i, j = rows[rep], first[pair], second[pair]
    rho = np.empty(rep.size)
    block = max(1, _STACK_ENTRIES // (2 * n))
    for lo in range(0, rep.size, block):
        b, bi, bj = rep[lo:lo + block], i[lo:lo + block], j[lo:lo + block]
        v, failed = _shape_fits(np.stack((z[b, bi], z[b, bj]), 1),
                                np.stack((e[b, bi], e[b, bj]), 1))
        rho[lo:lo + block] = _pair_rhos(v, failed)
        for k in sorted(failed):
            exc = failed[k]
            if isinstance(exc, DegenerateDataError):
                exc = _caused(DegenerateDataError(f"pair ({bi[k]}, {bj[k]}): {exc}"), exc)
            errors.setdefault(int(b[k]), exc)
    r = np.tile(np.eye(p), (len(z), 1, 1))
    r[rep, i, j] = r[rep, j, i] = rho
    r[list(errors)] = np.nan
    return r, errors


def _multivariate_fits(x):
    """``multivariate_matrix`` of each sample of the stack ``x`` (R, n, p).

    Returns the correlation matrices (R, p, p) and the exactly symmetric
    shape estimates, both NaN for the failed samples, and {sample: error}.
    """
    z, e, errors = _standardized(x)
    rows = _kept(len(z), errors)
    v, failed = _shape_fits(z[rows], e[rows])
    fitted = _kept(rows.size, failed)
    v = v[fitted]
    v = (v + v.swapaxes(1, 2)) / 2.0
    r, degenerate = _correlations(v)
    for k, exc in degenerate.items():
        named = DegenerateDataError(f"degenerate shape estimate: {exc}")
        failed[int(fitted[k])] = _caused(named, exc)
    errors.update((int(rows[k]), exc) for k, exc in failed.items())
    out = np.full((2, len(z)) + v.shape[1:], np.nan)
    out[:, rows[fitted]] = r, v
    out[:, list(errors)] = np.nan
    return out[0], out[1], errors


def _moment_fits(x):
    """``moment_matrix`` of each sample of the stack ``x`` (R, n, p): the
    Pearson matrices (R, p, p), NaN for the failed samples, and {sample: error}."""
    x, errors = _finite(x)
    z = np.ascontiguousarray(x.transpose(0, 2, 1))
    hi, lo = z.max(axis=2), z.min(axis=2)
    flat = hi == lo  # exactly: the variance of equal entries may round to above zero
    for b, j in zip(*np.nonzero(flat)):
        errors.setdefault(int(b), DegenerateScaleError(f"column {j} has zero variance"))
    # An exact power-of-two scale per column keeps the products in range.
    z = np.ldexp(z, -np.frexp(np.maximum(hi, -lo))[1][:, :, None])
    # Each reduction runs along one row's contiguous axis, so a sample is
    # bitwise its stack of one; the divisions are ``np.corrcoef``'s.
    z -= z.mean(axis=2, keepdims=True)
    c = (z @ z.swapaxes(1, 2)) * (1.0 / (z.shape[2] - 1))
    s = np.sqrt(np.where(flat, 1.0, np.diagonal(c, axis1=1, axis2=2)))
    r = c / s[:, :, None] / s[:, None, :]
    r = np.clip((r + r.swapaxes(1, 2)) / 2.0, -1.0, 1.0)
    r[:, np.eye(r.shape[1], dtype=bool)] = 1.0
    r[list(errors)] = np.nan
    return r, errors


def _fit_one(fit, x):
    """The results of the stacked ``fit`` on the one sample ``x``, or its error raised."""
    *results, errors = fit(x[None])
    if errors:
        raise errors[0]
    return [a[0] for a in results]


def _finite(x):
    """The stack ``x`` (R, n, p) with its samples that have a non-finite entry
    set to zero, and {sample: error} for those samples."""
    finite = np.isfinite(x).all(axis=(1, 2))
    errors = {int(b): InvalidInputError("data entries must be finite")
              for b in np.flatnonzero(~finite)}
    return (np.where(finite[:, None, None], x, 0.0) if errors else x), errors


def _kept(size, errors):
    """The indices below ``size`` that are not keys of ``errors``, ascending."""
    return np.setdiff1d(np.arange(size), list(errors))


def _caused(exc, cause):
    """``exc`` raised from ``cause``, as ``raise exc from cause`` sets it."""
    exc.__cause__ = cause
    return exc


def sscor(data) -> CorrelationEstimate:
    """Bivariate spatial sign correlation coefficient.

    Centers at the spatial median, eigendecomposes the SSCM, maps the
    eigenvalues back to shape eigenvalues with the closed-form inversion
    and reads the correlation off the rebuilt shape matrix.
    """
    x = _validated(data, bivariate=True)
    v, errors = _shape_fits(robust._stack_of_one(x), 0)
    rho = _pair_rhos(v, errors)
    if errors:
        raise errors[0]
    return CorrelationEstimate(rho=float(rho[0]), method="sscor", n=x.shape[0])


def sscor_two_stage(data) -> CorrelationEstimate:
    """Spatial sign correlation of MAD-standardized columns: the p=2 ``pairwise_matrix``."""
    x = _validated(data, bivariate=True)
    [r] = _fit_one(_pairwise_fits, x)
    return CorrelationEstimate(rho=float(r[0, 1]), method="two_stage", n=x.shape[0])


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
    from statistics import NormalDist  # loaded here, not on ``import signcorr``

    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    half = z * np.sqrt(asv_two_stage(est.rho) / est.n)
    return ConfidenceInterval(
        lower=float(max(est.rho - half, -1.0)),
        upper=float(min(est.rho + half, 1.0)),
        level=level,
    )


def pairwise_matrix(data) -> CorrelationMatrixEstimate:
    """Two-stage spatial sign correlations for all variable pairs.

    The matrix has unit diagonal and symmetric entries but is not
    guaranteed positive semi-definite. A failing pair fails the whole
    estimate: the first one in row-major order raises its error, with the
    pair named when it is a DegenerateDataError.
    """
    x = _validated(data)
    [r] = _fit_one(_pairwise_fits, x)
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
    r, v = _fit_one(_multivariate_fits, x)
    return CorrelationMatrixEstimate(
        matrix=r, method="multivariate", n=x.shape[0], shape_estimate=v
    )


def moment_matrix(data) -> CorrelationMatrixEstimate:
    """Plain Pearson correlation matrix (the classical baseline)."""
    x = as_data_matrix(data)
    if len(x) < 2:
        raise InvalidInputError(f"need at least 2 observations, got {len(x)}")
    [r] = _fit_one(_moment_fits, x)
    return CorrelationMatrixEstimate(matrix=r, method="moment", n=len(x))


# Estimators by the name the CLI uses.
ESTIMATORS = {
    "moment": moment_matrix,
    "pairwise": pairwise_matrix,
    "multivariate": multivariate_matrix,
    "two-stage": sscor_two_stage,
}

# Stacked fits by the name the simulation harness uses. Each takes samples
# (R, n, p) and returns the matrices (R, p, p) first, NaN for the failed
# samples, and {sample: error} last.
FITS = {"moment": _moment_fits, "pairwise": _pairwise_fits, "multivariate": _multivariate_fits}
