"""Robust location and scale: spatial signs, the spatial median, and the MAD.

The spatial median is computed with a Weiszfeld iteration plus the
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
    d = x - c
    nd = np.linalg.norm(d, axis=1)
    scale = np.maximum(np.linalg.norm(x, axis=1), np.linalg.norm(c))
    zero = (nd == 0.0) | (nd < _ZERO_RESIDUAL_RTOL * scale)
    nd = np.where(zero, 1.0, nd)
    s = d / nd[:, None]
    s[zero] = 0.0
    return s


def spatial_median(data, *, tol=1e-9, max_iter=10_000) -> np.ndarray:
    """Minimizer of the sum of Euclidean distances to the observations.

    Starts from the coordinatewise median and iterates Weiszfeld steps.
    When an iterate falls onto a data point the Vardi-Zhang rule either
    certifies the point as optimal or steps off it. Steps 3000 to 3199 off
    the data points also try a Newton step and keep it when it lowers the
    objective more than the Weiszfeld step.

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
    n, p = x.shape
    if n == 1:
        return x[0].copy()

    mu = np.median(x, axis=0)
    proximity = 1e-6 * max(1.0, float(np.max(np.linalg.norm(x, axis=1))))
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
        last_iterate=mu,
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
    m = float(np.median(np.abs(v - np.median(v))))
    if m == 0.0:
        raise DegenerateScaleError("zero mad: more than half of the values tie")
    return m
