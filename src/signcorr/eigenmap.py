"""Map between shape-matrix eigenvalues and sign-covariance eigenvalues.

For dimension 2 the map has a closed form: with shape eigenvalues
(l1, l2) summing to one, the sign covariance has eigenvalues
``sqrt(l_i) / (sqrt(l1) + sqrt(l2))``. In general each sign eigenvalue is a
one-dimensional integral over [0, inf),

    d_i = (l_i / 2) * Int 1 / ((1 + l_i x) * prod_j (1 + l_j x)^(1/2)) dx,

(Duerre, Tyler & Vogel 2016), which this module evaluates by one fixed
Gauss-Legendre rule after the substitution x = 1/u**2 - 1 (as Carlson 1995
does for R_D), on shared nodes for all components. The reverse
direction has the closed form lam_i proportional to d_i**2 for dimension
2, which ``inverse_full`` uses there; for larger dimensions it is solved
by a normalized fixed-point iteration on the same integrals.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConvergenceError,
    InvalidInputError,
    QuadratureError,
    RankDeficiencyError,
)

# Tolerances fixed for the whole artifact: spectra are renormalized on
# construction when their sum is within _SUM_TOL of one, and the
# fixed-point inversion stops at _FP_TOL. The stopping tolerance is one
# order below the guaranteed accuracy: the iteration converges linearly, so
# the distance of the accepted iterate to the fixed point is a small
# multiple of the last step size.
_SUM_TOL = 1e-9
_NEG_TOL = 1e-12
_FP_TOL = 1e-11
_FP_MAX_ITER = 500

# 32-point Gauss-Legendre rule on [-1, 1], applied on every panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def as_spectrum(values, *, kind="shape") -> np.ndarray:
    """Validate and canonicalize a trace-normalized eigenvalue sequence.

    Values are sorted descending. Sums within 1e-9 of one are renormalized
    (downstream estimates carry rounding noise); larger deviations are
    rejected. Entries whose magnitude is at most 1e-12 are flushed to exact
    zero: on a trace-one spectrum they are indistinguishable from
    eigensolver roundoff on a rank-deficient matrix, so they count as rank
    loss and the map treats them exactly (zero in, zero out) instead of
    integrating an eigenvalue that is only noise.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 1:
        raise InvalidInputError("spectrum must be nonempty")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("spectrum entries must be finite")
    if np.any(v < -_NEG_TOL):
        raise InvalidInputError(f"{kind} spectrum entries must be nonnegative")
    s = np.where(v <= _NEG_TOL, 0.0, v).sum()
    if abs(s - 1.0) > _SUM_TOL:
        raise InvalidInputError(f"{kind} spectrum must sum to 1, got {s!r}")
    return _canonical(v)


def _canonical(v):
    """The rows of ``v`` as ``as_spectrum`` returns them, without the checks."""
    v = np.where(v <= _NEG_TOL, 0.0, v)
    return np.sort(v, axis=-1)[..., ::-1] / v.sum(axis=-1, keepdims=True)


def _integrate_all(lam):
    """Every component integral at once, by one fixed Gauss-Legendre rule.

    x = 1/u**2 - 1 turns component i into Int_0^1 2 u^(p-1) / (q_i *
    prod_j sqrt(q_j)) du with q_j = u**2 + lam_j (1 - u**2), smooth on
    [0, 1] for every p with features at the scale u ~ sqrt(lam_min). The
    geometric panels [0, 2^-k], ..., [1/4, 1/2], [1/2, 1], with
    k = ceil(-log2(lam_min) / 2) + 1, resolve it to roundoff. The shared
    product is formed through logs so that large p does not underflow.
    """
    if np.any(lam <= 0.0):
        raise RankDeficiencyError("integrals require strictly positive eigenvalues")
    k = int(np.ceil(-np.log2(lam.min()) / 2.0)) + 1
    breaks = np.concatenate(([0.0], 0.5 ** np.arange(k, -1, -1)))
    half = np.diff(breaks)[:, None] / 2.0
    u = ((breaks[:-1, None] + half) + half * _GL_NODES).ravel()
    w = (half * _GL_WEIGHTS).ravel()
    u2 = u * u
    q = u2 + lam[:, None] * (1.0 - u2)
    common = 2.0 * np.exp((lam.size - 1) * np.log(u) - 0.5 * np.sum(np.log(q), axis=0))
    return (common / q) @ w


def forward_p2(lam) -> np.ndarray:
    """Closed-form sign-covariance spectrum for dimension 2."""
    lam = as_spectrum(lam)
    if lam.size != 2:
        raise InvalidInputError("forward_p2 requires exactly 2 eigenvalues")
    r = np.sqrt(lam)
    return r / r.sum()


def inverse_p2(delta) -> np.ndarray:
    """Closed-form inversion for dimension 2: lam_i proportional to delta_i**2."""
    delta = as_spectrum(delta, kind="sign")
    if delta.size != 2:
        raise InvalidInputError("inverse_p2 requires exactly 2 eigenvalues")
    return _squared_share(delta)


def _squared_share(delta):
    """lam_i = delta_i**2 / sum_j delta_j**2 along the last axis."""
    sq = delta * delta
    return sq / sq.sum(axis=-1, keepdims=True)


def forward(lam) -> np.ndarray:
    """Sign-covariance spectrum for any dimension >= 2, via quadrature.

    Zero shape eigenvalues map to zero sign eigenvalues; the output is
    renormalized to sum exactly one (with the pre-normalization drift
    required to stay below 1e-9).
    """
    lam = as_spectrum(lam)
    if lam.size < 2:
        raise InvalidInputError("forward requires dimension >= 2")
    nz = lam > 0.0
    k = int(nz.sum())
    if k == 0:
        raise RankDeficiencyError("spectrum has no nonzero eigenvalues")
    if k == 1:
        # Rank-one limit: all mass stays on the leading direction.
        out = np.zeros_like(lam)
        out[0] = 1.0
        return out
    integrals = _integrate_all(lam[nz])
    delta = np.zeros_like(lam)
    delta[nz] = 0.5 * lam[nz] * integrals
    drift = abs(delta.sum() - 1.0)
    if drift > 1e-9:
        raise QuadratureError(f"spectrum drift {drift:.3e} exceeds 1e-9")
    return as_spectrum(delta / delta.sum(), kind="sign")


@dataclass(frozen=True)
class FixedPointResult:
    """Inverted spectrum plus convergence diagnostics."""

    spectrum: np.ndarray
    iterations: int
    residual: float


def inverse_full(delta, *, tol=_FP_TOL, max_iter=_FP_MAX_ITER) -> FixedPointResult:
    """Invert the eigenvalue map, with diagnostics.

    Two eigenvalues are inverted in closed form by ``inverse_p2`` (zero
    iterations, zero residual; a rank-one spectrum maps to itself). Larger
    spectra are inverted by fixed-point iteration: starting from the sign
    spectrum itself, each step divides twice the target sign eigenvalue by
    the current component integral and then renormalizes to sum one. It
    stops when the sup-norm change drops to ``tol``.

    Raises
    ------
    RankDeficiencyError
        If p > 2 and fewer than two eigenvalues are nonzero.
    ConvergenceError
        After ``max_iter`` steps without convergence (carries the step
        count and final residual).
    """
    if np.size(delta) == 2:
        return FixedPointResult(inverse_p2(delta), 0, 0.0)
    delta = as_spectrum(delta, kind="sign")
    if delta.size < 2:
        raise InvalidInputError("inverse requires dimension >= 2")
    nz = delta > 0.0
    if int(nz.sum()) < 2:
        raise RankDeficiencyError(
            "inversion requires at least two nonzero eigenvalues"
        )
    d = delta[nz]
    lam = d.copy()
    residual = np.inf
    for it in range(1, max_iter + 1):
        lam_t = 2.0 * d / _integrate_all(lam)
        lam_new = lam_t / lam_t.sum()
        residual = float(np.max(np.abs(lam_new - lam)))
        lam = lam_new
        if residual <= tol:
            out = np.zeros_like(delta)
            out[nz] = lam
            return FixedPointResult(out, it, residual)
    out = np.zeros_like(delta)
    out[nz] = lam
    raise ConvergenceError(
        f"fixed-point inversion did not converge in {max_iter} iterations "
        f"(residual {residual:.3e})",
        iterations=max_iter,
        residual=residual,
        last_iterate=out,
    )


def inverse(delta, *, tol=_FP_TOL, max_iter=_FP_MAX_ITER) -> np.ndarray:
    """Shape spectrum whose forward image is ``delta`` (see ``inverse_full``)."""
    return inverse_full(delta, tol=tol, max_iter=max_iter).spectrum
