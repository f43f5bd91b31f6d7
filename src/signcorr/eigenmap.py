"""Map between shape-matrix eigenvalues and sign-covariance eigenvalues.

For dimension 2 the map has a closed form: with shape eigenvalues
(l1, l2) summing to one, the sign covariance has eigenvalues
``sqrt(l_i) / (sqrt(l1) + sqrt(l2))``. In general each sign eigenvalue is a
one-dimensional integral over [0, inf),

    d_i = (l_i / 2) * Int 1 / ((1 + l_i x) * prod_j (1 + l_j x)^(1/2)) dx,

which this module evaluates by adaptive Gauss-Kronrod quadrature after the
substitution x = t / (1 - t). All component integrals share the product
term, so they are integrated together on shared nodes. The reverse
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
# construction when their sum is within _SUM_TOL of one, each integral is
# resolved to _QUAD_TOL, and the fixed-point inversion stops at _FP_TOL.
# The stopping tolerance is one order below the guaranteed accuracy: the
# iteration converges linearly, so the distance of the accepted iterate to
# the fixed point is a small multiple of the last step size.
_SUM_TOL = 1e-9
_NEG_TOL = 1e-12
_QUAD_TOL = 1e-12
_FP_TOL = 1e-11
_FP_MAX_ITER = 500

# Gauss-7 / Kronrod-15 nodes and weights on [-1, 1] (QUADPACK dqk15).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG7 = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_W_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_w7 = np.zeros(8)
_w7[[1, 3, 5, 7]] = _WG7
_W_GAUSS = np.concatenate([_w7[:-1], _w7[::-1]])
del _w7

_MAX_PANELS = 4096


def as_spectrum(values, *, kind="shape") -> np.ndarray:
    """Validate and canonicalize a trace-normalized eigenvalue sequence.

    Values are sorted descending. Sums within 1e-9 of one are renormalized
    (downstream estimates carry rounding noise); larger deviations are
    rejected. Entries whose magnitude is at most 1e-12 are flushed to exact
    zero: on a trace-one spectrum they are indistinguishable from
    eigensolver roundoff on a rank-deficient matrix, and treating them as
    rank keeps the quadrature away from integrals it cannot resolve.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 1:
        raise InvalidInputError("spectrum must be nonempty")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("spectrum entries must be finite")
    if np.any(v < -_NEG_TOL):
        raise InvalidInputError(f"{kind} spectrum entries must be nonnegative")
    v = np.where(v <= _NEG_TOL, 0.0, v)
    s = v.sum()
    if abs(s - 1.0) > _SUM_TOL:
        raise InvalidInputError(f"{kind} spectrum must sum to 1, got {s!r}")
    return np.sort(v)[::-1] / s


def _integrand(lam, t):
    """All component integrands at once, transformed to t in [0, 1).

    Returns an array of shape (len(lam), len(t)). The shared factor
    prod_j (1 + lam_j x)^(-1/2) is computed once via logs; the Jacobian of
    x = t / (1 - t) is folded in.
    """
    one_minus = 1.0 - t
    x = t / one_minus
    lx = lam[:, None] * x[None, :]
    common = np.exp(-0.5 * np.sum(np.log1p(lx), axis=0)) / (one_minus * one_minus)
    return common[None, :] / (1.0 + lx)


def _panel_sums(lam, a, b):
    """Kronrod estimates and Gauss-Kronrod error gaps for a batch of panels.

    ``a`` and ``b`` are arrays of panel endpoints. Returns (K, err), each of
    shape (len(lam), len(a)).
    """
    half = (b - a) / 2.0
    mid = (a + b) / 2.0
    pts = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    f = _integrand(lam, pts).reshape(lam.size, a.size, _NODES.size)
    k = (f @ _W_KRONROD) * half
    g = (f @ _W_GAUSS) * half
    return k, np.abs(k - g)


def _integrate_all(lam, *, atol=_QUAD_TOL, rtol=_QUAD_TOL):
    """Evaluate every component integral to tolerance on shared panels.

    Seeds the adaptive subdivision with dyadic panels clustered toward
    t = 1 (where the substituted integrand concentrates for small
    eigenvalues) and repeatedly splits the panel with the worst error gap.
    """
    if np.any(lam <= 0.0):
        raise RankDeficiencyError("integrals require strictly positive eigenvalues")
    breaks = np.concatenate(([0.0], 1.0 - 0.5 ** np.arange(1, 13), [1.0]))
    k, err = _panel_sums(lam, breaks[:-1], breaks[1:])
    panels = list(zip(breaks[:-1], breaks[1:], k.T, err.T))

    while len(panels) < _MAX_PANELS:
        total = np.sum([e for (_, _, _, e) in panels], axis=0)
        value = np.sum([v for (_, _, v, _) in panels], axis=0)
        if np.all(total <= atol + rtol * np.abs(value)):
            return value
        worst = max(range(len(panels)), key=lambda i: panels[i][3].max())
        a, b, _, _ = panels.pop(worst)
        m = (a + b) / 2.0
        if not (a < m < b):
            raise QuadratureError(
                "panel width underflow before reaching tolerance"
            )
        ks, errs = _panel_sums(lam, np.array([a, m]), np.array([m, b]))
        panels.append((a, m, ks[:, 0], errs[:, 0]))
        panels.append((m, b, ks[:, 1], errs[:, 1]))

    raise QuadratureError(f"no convergence within {_MAX_PANELS} panels")


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
    sq = delta * delta
    return sq / sq.sum()


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
