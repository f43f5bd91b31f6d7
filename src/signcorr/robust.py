"""Robust location and scale: spatial signs, the spatial median, and the MAD.

Spatial signs and spatial medians are computed for a stack of samples at
once, shape (B, p, n) with the observations along the last axis, so that
the correlation estimators can fit every column pair in one pass. Each
row's arithmetic, reductions included, runs along its own contiguous
axis, so a row's result does not depend on the rows stacked with it; the
public functions are the stack of one.

Before the location step each row is divided by one exact power of two
that brings its largest entry below one. This changes no bit of the
median, the signs or the SSCM wherever nothing over- or underflowed, and
keeps squared distances finite for data of any finite range.

The spatial medians are found by vectorized Weiszfeld steps on all rows,
dropping the converged rows from the active set. A row falls back to the
scalar iteration, restarted from scratch, when an iterate comes within
``proximity`` of a data point (or lands on one) or when it has not
converged in ``_BATCH_ROUNDS`` steps. The scalar iteration adds the
Vardi-Zhang correction (Vardi & Zhang 2000, PNAS 97), which keeps the
iteration moving when an iterate lands exactly on a data point (plain
Weiszfeld stalls there), and safeguarded Newton steps when the minimizer
lies just off a data point (plain Weiszfeld crawls there).
"""

import numpy as np

from .exceptions import ConvergenceError, DegenerateScaleError, InvalidInputError

# Residuals smaller than this times the vector magnitude are treated as zero
# when forming spatial signs, to avoid amplifying cancellation noise.
_ZERO_RESIDUAL_RTOL = 1e-12

# Steps that also try a Newton step. Weiszfeld needs a few hundred steps
# unless the minimizer lies just off a data point, where its rate tends to
# one (1 in 10^4 bivariate samples of size 100 needs over 3000); Newton then
# converges in a few steps, and a run it cannot rescue is not slowed further.
_NEWTON_STEPS = range(3000, 3200)

# Vectorized Weiszfeld steps before a row that has not converged falls back
# to the scalar iteration. Rows need a few dozen steps unless their
# minimizer lies near a data point, which the scalar iteration handles.
_BATCH_ROUNDS = 200


def as_data_matrix(data) -> np.ndarray:
    """Validate observations-by-variables data and return a float ndarray."""
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2:
        raise InvalidInputError(f"data must be a 2-d array, got ndim={x.ndim}")
    n, p = x.shape
    if n < 1 or p < 1:
        raise InvalidInputError(f"data must be nonempty, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("data entries must be finite")
    return x


def as_location(center, p: int) -> np.ndarray:
    """Validate a location vector of dimension ``p``."""
    c = np.asarray(center, dtype=float).ravel()
    if c.size != p:
        raise InvalidInputError(f"location has length {c.size}, expected {p}")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("location entries must be finite")
    return c


def _stack_of_one(x):
    """Observations-by-variables ``x`` as a contiguous (1, p, n) stack."""
    return np.ascontiguousarray(x.T)[None]


def _norms(d):
    """Euclidean norms over axis 1 (the coordinates) of a stack.

    The squares are summed in coordinate order, so a norm does not depend
    on the shape of the stack it is part of.
    """
    sq = d[:, 0] * d[:, 0]
    for j in range(1, d.shape[1]):
        sq += d[:, j] * d[:, j]
    return np.sqrt(sq)


def _pow2_scaled(z):
    """Each row of ``z`` (B, p, n) divided by a power of two, and the exponents.

    The exponent k of a row is that of its largest magnitude, so the scaled
    row lies in (-1, 1) and ``np.ldexp(scaled, k)`` is the row again.
    """
    k = np.frexp(np.max(np.abs(z), axis=(1, 2)))[1]
    return np.ldexp(z, -k[:, None, None]), k


def spatial_sign(x, center=None) -> np.ndarray:
    """Unit direction of ``x - center``; the zero vector when they coincide.

    Exact (bitwise) coincidence maps to zero, and so do residuals whose norm
    is below 1e-12 times the magnitude of the inputs, where the direction
    would be pure rounding noise.
    """
    x = np.asarray(x, dtype=float).ravel()
    if center is None:
        center = np.zeros_like(x)
    return spatial_signs(x.reshape(1, -1), center)[0]


def spatial_signs(data, center) -> np.ndarray:
    """Row-wise spatial signs of ``data - center`` (vectorized)."""
    x = as_data_matrix(data)
    c = as_location(center, x.shape[1])
    return _signs_of_one(x, c)[0].T


def _signs_of_one(x, c):
    """``_signs`` of the sample ``x`` (n, p) around ``c`` (p,), as a stack of one.

    ``x`` and ``c`` are first divided by one power of two, which keeps the
    squared residuals finite and changes no bit where nothing overflowed.
    """
    k = np.frexp(max(np.max(np.abs(x)), np.max(np.abs(c))))[1]
    return _signs(_stack_of_one(np.ldexp(x, -k)), np.ldexp(c, -k)[None])


def _signs(z, c):
    """Spatial signs of the stack ``z`` (B, p, n) around the centers ``c`` (B, p)."""
    d = z - c[:, :, None]
    nd = _norms(d)
    scale = np.maximum(_norms(z), _norms(c)[:, None])
    zero = ((nd == 0.0) | (nd < _ZERO_RESIDUAL_RTOL * scale))[:, None, :]
    return np.where(zero, 0.0, d / np.where(zero, 1.0, nd[:, None, :]))


def spatial_median(data, *, tol=1e-9, max_iter=10_000) -> np.ndarray:
    """Minimizer of the sum of Euclidean distances to the observations.

    Starts from the coordinatewise median and iterates Weiszfeld steps.
    When an iterate comes near a data point the scalar iteration takes
    over from the start: it tests the Vardi-Zhang rule, which either
    certifies the data point as optimal or steps off it, and on steps
    3000 to 3199 off the data points also tries a Newton step and keeps
    it when it lowers the objective more than the Weiszfeld step.

    The returned point satisfies the first-order condition: either the
    mean spatial sign of the residuals has norm <= ``tol``, or the point
    coincides with a data point whose remaining sign-sum norm does not
    exceed its multiplicity.

    Raises
    ------
    ConvergenceError
        If neither condition is met within ``max_iter`` iterations; the
        error carries the last iterate and residual.
    """
    x = as_data_matrix(data)
    if x.shape[0] == 1:
        return x[0].copy()
    z, k = _pow2_scaled(_stack_of_one(x))
    mu, errors = _spatial_medians(z, k, tol=tol, max_iter=max_iter)
    if errors:
        raise errors[0]
    return np.ldexp(mu[0], k[0])


def _spatial_medians(z, k, *, tol=1e-9, max_iter=10_000):
    """Spatial medians (B, p) of the rows of the scaled stack ``z`` (B, p, n).

    ``k`` holds the exponents returned by ``_pow2_scaled``; the medians are
    returned in the scaled units, with {row: ConvergenceError} for the rows
    whose scalar iteration did not converge.
    """
    n = z.shape[2]
    mu = np.median(z, axis=2)
    # 1e-6 * max(1, largest observation norm) in the units of the data.
    proximity = 1e-6 * np.maximum(np.ldexp(1.0, -k), np.max(_norms(z), axis=1))
    rows = np.arange(z.shape[0])
    x, m, prox = z, mu, proximity
    fallback = []
    for _ in range(min(_BATCH_ROUNDS, max_iter)):
        d = x - m[:, :, None]
        # One pass, unlike _norms; with n >= 2 observations along the inner
        # axis every row still sums in the same order, whatever the stack.
        dist = np.sqrt(np.einsum("bpn,bpn->bn", d, d))
        near = dist.min(axis=1) < prox
        if near.any():
            fallback.extend(rows[near])
            keep = ~near
            x, m, d, dist, rows, prox = x[keep], m[keep], d[keep], dist[keep], rows[keep], prox[keep]
            if not rows.size:
                break
        w = 1.0 / dist
        r = np.einsum("bpn,bn->bp", d, w)  # the sign sum
        step = r / w.sum(axis=1)[:, None]  # to the Weiszfeld point
        done = np.sqrt(np.einsum("bp,bp->b", r, r)) / n <= tol
        if done.any():
            mu[rows[done]] = m[done]
            keep = ~done
            x, m, step, rows, prox = x[keep], m[keep], step[keep], rows[keep], prox[keep]
            if not rows.size:
                break
        m = m + step
    fallback.extend(rows)  # rows still active after the batched rounds
    errors = {}
    for b in sorted(fallback):
        try:
            mu[b] = _weiszfeld(np.ascontiguousarray(z[b].T), proximity[b], k[b],
                               tol=tol, max_iter=max_iter)
        except ConvergenceError as exc:
            errors[int(b)] = exc
    return mu, errors


def _weiszfeld(x, proximity, k, *, tol, max_iter):
    """The scalar Vardi-Zhang and Newton safeguarded iteration on ``x`` (n, p).

    ``x`` is in the scaled units of ``_pow2_scaled`` with exponent ``k``; a
    ConvergenceError carries its last iterate in the units of the data.
    """
    n = x.shape[0]
    mu = np.median(x, axis=0)
    resid = np.inf

    for it in range(max_iter):
        dist = np.linalg.norm(x - mu, axis=1)
        nearest = int(np.argmin(dist))
        if 0.0 < dist[nearest] < proximity:
            # Weiszfeld approaches a data-point minimizer only sublinearly,
            # so test the exact subgradient certificate at the nearby point.
            certified = _certified_data_point(x, x[nearest])
            if certified is not None:
                return certified

        at_point = dist == 0.0
        eta = int(at_point.sum())
        off = ~at_point
        w = 1.0 / dist[off]
        r_vec = (x[off] - mu).T @ w
        r = float(np.linalg.norm(r_vec))
        resid = r / n

        if eta > 0:
            if r <= eta:
                return mu  # optimal at a data point
            t = (x[off].T @ w) / w.sum()
            step = min(1.0, eta / r)
            mu = (1.0 - step) * t + step * mu
        else:
            if resid <= tol:
                return mu
            weiszfeld = (x[off].T @ w) / w.sum()
            mu = _newton_or(x, mu, dist, weiszfeld) if it in _NEWTON_STEPS else weiszfeld

    raise ConvergenceError(
        f"spatial median did not converge in {max_iter} iterations "
        f"(mean sign residual {resid:.3e})",
        iterations=max_iter,
        residual=resid,
        last_iterate=np.ldexp(mu, k),
    )


def _newton_or(x, mu, dist, fallback):
    """Newton step from ``mu`` if it lowers the objective below ``fallback``.

    ``mu`` lies on no data point. The Hessian sum_i (I - s_i s_i^T) / d_i
    resolves the stiff direction across a nearby data point that makes
    Weiszfeld crawl.
    """
    signs = (x - mu) / dist[:, None]
    w = 1.0 / dist
    hess = w.sum() * np.eye(x.shape[1]) - (signs * w[:, None]).T @ signs
    try:
        newton = mu + np.linalg.solve(hess, signs.sum(axis=0))
    except np.linalg.LinAlgError:
        return fallback
    objective = np.linalg.norm(x - np.stack([newton, fallback])[:, None], axis=2).sum(axis=1)
    return newton if objective[0] < objective[1] else fallback


def _certified_data_point(x, y):
    """``y`` (a data row) if the sum-of-distances objective is minimal there.

    At a data point of multiplicity eta the optimality condition is that the
    residual sign sum over the other observations has norm at most eta; this
    is exact, so a passing point can be returned no matter how far the
    current iterate still is.
    """
    dist = np.linalg.norm(x - y, axis=1)
    at = dist == 0.0
    eta = int(at.sum())
    off = ~at
    r_vec = ((x[off] - y) / dist[off, None]).sum(axis=0)
    if float(np.linalg.norm(r_vec)) <= eta:
        return y.copy()
    return None


_ZERO_MAD = "zero mad: more than half of the values tie"


def _mads(x) -> np.ndarray:
    """Median absolute deviation of each column of ``x`` (n, p); may be zero."""
    return np.median(np.abs(x - np.median(x, axis=0)), axis=0)


def mad(x) -> float:
    """Median absolute deviation from the median, without a consistency factor.

    Any constant factor would cancel in every correlation quantity computed
    downstream, so none is applied.

    Raises
    ------
    DegenerateScaleError
        If the MAD is zero (more than half of the values tie).
    """
    v = np.asarray(x, dtype=float).ravel()
    if v.size < 1:
        raise InvalidInputError("mad requires at least one value")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("values must be finite")
    m = float(_mads(v[:, None])[0])
    if m == 0.0:
        raise DegenerateScaleError(_ZERO_MAD)
    return m
