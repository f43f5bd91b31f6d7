"""Robust location and scale: spatial signs, the spatial median, and the MAD.

Spatial signs and spatial medians are computed for a stack of samples at
once, shape (B, p, n) with the observations along the last axis, so that
the correlation estimators can fit every column pair in one pass. Each
row's arithmetic, reductions included, runs along its own contiguous
axis, so a row's result does not depend on the rows stacked with it; the
public functions are the stack of one.

Before the location step ``_pow2_scaled`` multiplies each column by its own
power of two (the MAD exponents of the two-stage estimators) and each row by
the one that brings its largest entry below one, in one ``np.ldexp``. Squared
distances stay finite for data of any finite range, and no bit of the median,
the signs or the SSCM changes wherever nothing over- or underflowed.

All rows of a stack find their spatial medians in one iteration, and a
row leaves the stack when it converges. Each step first tests whether the
row's nearest data point is the minimizer, by the Vardi-Zhang condition
(Vardi & Zhang 2000, PNAS 97): plain Weiszfeld reaches such a minimizer
only sublinearly. Off the data points it then tries a Newton
step on the sum of distances and keeps it only when it lowers that sum
(Overton 1983, Math. Programming 27), and failing that the Newton step
halved up to ten times; this resolves in a few steps the minimizers just
off a data point and those between nearly collinear points, where
Weiszfeld crawls. Otherwise the row takes the Weiszfeld step, or
the Vardi-Zhang step when it sits on a data point, which keeps it moving
where Weiszfeld would stall.

The coordinatewise medians, those of the MAD and the spatial median's
starting point, come from ``_medians``: one partition at the upper middle
rank, bitwise ``np.median`` on finite data and cheaper, since
``np.median`` also partitions at the lower middle rank and at its NaN check.
"""

import numpy as np

from .exceptions import ConvergenceError, DegenerateScaleError, InvalidInputError

# Residuals smaller than this times the vector magnitude are treated as zero
# when forming spatial signs, to avoid amplifying cancellation noise.
_ZERO_RESIDUAL_RTOL = 1e-12

# Stopping tolerance and step budget of the spatial median; the budget is
# over ten times the most steps any of 99000 fuzzed samples took (13).
_MEDIAN_TOL = 1e-9
_MEDIAN_MAX_STEPS = 200
# Halvings of a rejected Newton step before the Weiszfeld step.
_NEWTON_HALVINGS = 10


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


def _pow2_scaled(z, e=0):
    """``z`` (B, p, n) times 2**e per column and 2**-k per row, and k (B,).

    The column exponents ``e`` broadcast to (B, p). k is the frexp exponent
    of the row's largest |z * 2**e| (an all-zero column counts as 5e-324, not
    as frexp's 0), so the result lies in (-1, 1). One ``np.ldexp`` applies
    both powers: it never overflows, and is exact unless an entry is subnormal.
    """
    k = (np.frexp(np.abs(z).max(axis=2, initial=5e-324))[1] + e).max(axis=1)
    return np.ldexp(z, (e - k[:, None])[:, :, None]), k


def _medians(x, axis):
    """``np.median(x, axis)`` of the finite ``x``, bit for bit, from one partition.

    np.median partitions at both middle ranks and at -1 (its NaN check), and
    takes the mean of the middle values; that mean sums from +0.0, so a
    median is never -0.0 unless it underflows there. Here one partition at
    n // 2 gives the upper middle value, and the maximum of the lower half
    the lower one.
    """
    n = x.shape[axis]
    k = n // 2
    part = np.moveaxis(np.partition(x, k, axis=axis), axis, -1)
    if n % 2:
        return part[..., k] + 0.0
    return (part[..., :k].max(axis=-1) + part[..., k] + 0.0) / 2.0


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

    ``_pow2_scaled`` scales ``c`` with ``x``, as one more observation.
    """
    z = _pow2_scaled(_stack_of_one(np.vstack((x, c))))[0]
    return _signs(z[:, :, :-1], z[:, :, -1])


def _signs(z, c):
    """Spatial signs of the stack ``z`` (B, p, n) around the centers ``c`` (B, p)."""
    d = z - c[:, :, None]
    nd = _norms(d)
    scale = np.maximum(_norms(z), _norms(c)[:, None])
    zero = ((nd == 0.0) | (nd < _ZERO_RESIDUAL_RTOL * scale))[:, None, :]
    return np.where(zero, 0.0, d / np.where(zero, 1.0, nd[:, None, :]))


def spatial_median(data) -> np.ndarray:
    """Minimizer of the sum of Euclidean distances to the observations.

    Starts from the coordinatewise median. Each step tests whether the
    nearest data point is optimal (the Vardi-Zhang certificate), then tries
    a Newton step and then that step halved, up to ten times, and keeps the
    first that lowers the objective; otherwise it takes the Weiszfeld step,
    or the Vardi-Zhang step from a data point the iterate sits on.

    The returned point satisfies the first-order condition: either the
    mean spatial sign of the residuals has norm <= ``_MEDIAN_TOL`` (1e-9),
    or the point coincides with a data point whose remaining sign-sum norm
    does not exceed its multiplicity, up to one rounding error (machine
    epsilon) per observation.

    Raises
    ------
    ConvergenceError
        After ``_MEDIAN_MAX_STEPS`` (200) steps, where converging samples of
        a fuzz took at most 13; carries the last iterate and residual.
    """
    x = as_data_matrix(data)
    if x.shape[0] == 1:
        return x[0].copy()
    z, k = _pow2_scaled(_stack_of_one(x))
    mu, errors = _spatial_medians(z, k)
    if errors:
        raise errors[0]
    return np.ldexp(mu[0], k[0])


def _offsets(x, m):
    """Residuals ``x - m`` of the stack (B, p, n) and their norms (B, n)."""
    d = x - m[:, :, None]
    # One pass, unlike _norms; with n >= 2 observations along the inner axis
    # every row still sums in the same order, whatever the stack.
    return d, np.sqrt(np.einsum("bpn,bpn->bn", d, d))


def _sign_sums(d, dist):
    """Signs (B, p, n), weights 1/dist (B, n), sign sums (B, p), their norms
    and the number of observations at distance zero, whose sign and weight
    are zero."""
    at = dist == 0.0
    w = 1.0 / np.where(at, np.inf, dist)
    s = d * w[:, None, :]
    r = s.sum(axis=2)
    return s, w, r, np.sqrt(np.einsum("bp,bp->b", r, r)), at.sum(axis=1)


def _newton_steps(s, w, r):
    """Newton steps H^-1 r (B, p) on the sum of distances, and the rows where
    the Hessian H = sum w (I - s s^T) is nonsingular (elsewhere the step is
    meaningless)."""
    p = s.shape[1]
    if p == 2:
        # H = sum w t t^T with t = (-s1, s0), from three weighted sums; the
        # terms pair so that swapping the coordinates swaps the step bit for bit.
        s0, s1 = s[:, 0], s[:, 1]
        a, b, c = (np.einsum("bn,bn->b", w, t) for t in (s1 * s1, s0 * s1, s0 * s0))
        det = a * c - b * b
        ok = det > 0.0
        det[~ok] = 1.0
        step = np.stack([c * r[:, 0] + b * r[:, 1], b * r[:, 0] + a * r[:, 1]], axis=1)
        return step / det[:, None], ok
    eye = np.eye(p)
    # sum w s s^T as a @ a^T, with a = sqrt(w) s: the product of an array
    # with its own transpose runs as one symmetric rank-n update.
    a = s * np.sqrt(w)[:, None, :]
    hess = w.sum(axis=1)[:, None, None] * eye - a @ a.swapaxes(1, 2)
    ok = np.linalg.slogdet(hess)[0] > 0.0
    hess[~ok] = eye  # np.linalg.solve would raise for the whole stack
    return np.linalg.solve(hess, r[:, :, None])[:, :, 0], ok


def _descent(d, dist, v, dist_t):
    """Change of the objective sum(dist) (B,) for the moves ``v`` (B, p).

    Summed term by term as (|v|^2 - 2 d.v) / (dist' + dist), without the
    cancellation of sum(dist') - sum(dist), so that near convergence, where
    the gain is below the rounding of either sum, it still has the right
    sign. A move that overflows gives NaN, which no comparison accepts.
    """
    change = (v * v).sum(axis=1)[:, None] - 2.0 * np.einsum("bpn,bp->bn", d, v)
    change /= dist_t + dist
    return change.sum(axis=1)


def _spatial_medians(z, k):
    """Spatial medians (B, p) of the rows of the scaled stack ``z`` (B, p, n).

    ``k`` holds the exponents returned by ``_pow2_scaled``; the medians are
    returned in the scaled units, with {row: ConvergenceError} for the rows
    that did not converge. The rows step together and leave the stack as
    they converge.
    """
    n = z.shape[2]
    mu = _medians(z, 2)
    rows = np.arange(z.shape[0])
    x, m = z, mu.copy()
    d, dist = _offsets(x, m)
    tested = np.full(rows.size, -1)  # the nearest data point last tested
    resid = np.full(rows.size, np.inf)
    # The optimality condition at a data point, |r| <= eta, holds with
    # equality for symmetric data (ties in integer data), where rounding
    # puts the computed |r| an ulp or so above eta: allow one rounding
    # error, eps, per unit sign in the sum.
    slack = n * np.finfo(float).eps
    for _ in range(_MEDIAN_MAX_STEPS):
        s, w, r, norm, eta = _sign_sums(d, dist)
        resid = norm / n
        done = resid <= _MEDIAN_TOL
        # Weiszfeld reaches a minimizer at a data point only sublinearly, so
        # test the optimality condition at the nearest data point, or the one
        # the row sits on; it depends on that point alone, so once per point.
        nearest = np.argmin(dist, axis=1)
        fresh = np.flatnonzero(~done & (nearest != tested))
        if fresh.size:
            tested[fresh] = nearest[fresh]
            x_f = x[fresh]
            y = np.take_along_axis(x_f, nearest[fresh, None, None], axis=2)[:, :, 0]
            # A row on a data point tests its own iterate, whose bits it keeps.
            y = np.where(eta[fresh, None] > 0, m[fresh], y)
            *_, norm_y, eta_y = _sign_sums(*_offsets(x_f, y))
            optimal = norm_y <= eta_y + slack
            m[fresh[optimal]] = y[optimal]
            done[fresh[optimal]] = True
        if done.any():
            mu[rows[done]] = m[done]
            keep = ~done
            x, m, d, dist, s, w, r, norm, eta, tested, resid, rows = (
                a[keep] for a in (x, m, d, dist, s, w, r, norm, eta, tested, resid, rows))
            if not rows.size:
                break
        # The Weiszfeld point m + r / sum(w); on a data point of multiplicity
        # eta the Vardi-Zhang step shortens it by the factor 1 - eta / |r|.
        weiszfeld = m + r * ((1.0 - eta / norm) / w.sum(axis=1))[:, None]
        # Off the data points try Newton first, and keep it only if it lowers
        # the objective sum(dist) (``_descent``). A rejected step has mostly
        # overshot along a valley towards a minimizer near a data point, or
        # across an ill-conditioned one between nearly collinear points, so
        # it is halved up to _NEWTON_HALVINGS times before the Weiszfeld step.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            delta, newton = _newton_steps(s, w, r)
            newton &= eta == 0
            trial = np.where(newton[:, None], m + delta, weiszfeld)
            d_t, dist_t = _offsets(x, trial)
            back = np.flatnonzero(newton & ~(_descent(d, dist, trial - m, dist_t) < 0.0))
            for h in range(1, _NEWTON_HALVINGS + 1):
                if not back.size:
                    break
                t = m[back] + 0.5**h * delta[back]
                d_h, dist_h = _offsets(x[back], t)
                kept = _descent(d[back], dist[back], t - m[back], dist_h) < 0.0
                b = back[kept]
                trial[b], d_t[b], dist_t[b] = t[kept], d_h[kept], dist_h[kept]
                back = back[~kept]
        if back.size:
            trial[back] = weiszfeld[back]
            d_t[back], dist_t[back] = _offsets(x[back], weiszfeld[back])
        m, d, dist = trial, d_t, dist_t
    errors = {}
    for i, b in enumerate(rows):
        mu[b] = m[i]
        errors[int(b)] = ConvergenceError(
            f"spatial median did not converge in {_MEDIAN_MAX_STEPS} iterations "
            f"(mean sign residual {resid[i]:.3e})",
            iterations=_MEDIAN_MAX_STEPS,
            residual=float(resid[i]),
            last_iterate=np.ldexp(m[i], k[b]),
        )
    return mu, errors


_ZERO_MAD = "zero mad: more than half of the values tie"


def _mads(x) -> np.ndarray:
    """Median absolute deviation of each column of the finite ``x`` (..., n, p),
    over the observation axis -2; may be zero. Each column's MAD is the same,
    bit for bit, in a stack of samples as alone.

    Columns where a middle value or a deviation overflows are halved and their
    MAD doubled; only those, since halving loses the last bit of a subnormal."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = _medians(np.abs(x - _medians(x, -2)[..., None, :]), -2)
    if np.isfinite(m).all():
        return m
    return np.where(np.isfinite(m), m, 2.0 * _mads(0.5 * x))


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
