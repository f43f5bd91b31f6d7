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
2, which ``inverse_full`` uses there and wherever exactly two eigenvalues
are nonzero; for larger dimensions it is solved by a safeguarded Newton
iteration in log(lam), whose Jacobian is integrated on the same nodes as
the map, with the fixed-point step of the map as its fallback.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConvergenceError,
    InvalidInputError,
    QuadratureError,
    RankDeficiencyError,
)

# Tolerances fixed for the whole artifact: spectra are renormalized on
# construction when their sum is within _SUM_TOL of one, and the inversion
# stops when a step changes no eigenvalue by more than _FP_TOL relative to
# itself. Newton converges quadratically, so after a Newton step that small
# the iterate is accurate to roundoff; a run of fixed-point fallback steps
# converges linearly, and stops a small multiple of _FP_TOL from the
# solution. _FP_MAX_ITER is over ten times the most steps a fuzz needed (10,
# at p up to 30, ratios down to 1e-14, ties).
_SUM_TOL = 1e-9
_NEG_TOL = 1e-12
_FP_TOL = 1e-11
_FP_MAX_ITER = 120


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
    with np.errstate(over="ignore"):  # an infinite sum fails the test below
        s = np.where(v <= _NEG_TOL, 0.0, v).sum()
    if abs(s - 1.0) > _SUM_TOL:
        raise InvalidInputError(f"{kind} spectrum must sum to 1, got {float(s)}")
    return _canonical(v)


def _canonical(v):
    """The rows of ``v`` as ``as_spectrum`` returns them, without the checks."""
    v = np.where(v <= _NEG_TOL, 0.0, v)
    return np.sort(v, axis=-1)[..., ::-1] / v.sum(axis=-1, keepdims=True)


@functools.lru_cache(maxsize=None)
def _panel_rule(k):
    """u**2, 1 - u**2 and log(u) at the nodes u, and the weights, of the rule
    on the k + 1 panels [0, 2^-k], ..., [1/4, 1/2], [1/2, 1].

    k is at most 538 for a positive double, so the cache stays small; its
    arrays are read-only because every caller shares them. The 32-point
    Gauss-Legendre rule on [-1, 1] is built here, on first use, so that
    importing the module does not load ``numpy.polynomial``.
    """
    nodes, weights = np.polynomial.legendre.leggauss(32)
    breaks = np.concatenate(([0.0], 0.5 ** np.arange(k, -1, -1)))
    half = np.diff(breaks)[:, None] / 2.0
    u = ((breaks[:-1, None] + half) + half * nodes).ravel()
    w = (half * weights).ravel()
    u2 = u * u
    rule = (u2, 1.0 - u2, np.log(u), w)
    for a in rule:
        a.flags.writeable = False
    return rule


def _integrands(lam):
    """The component integrands on the nodes of the rule for ``lam``.

    x = 1/u**2 - 1 turns component i into Int_0^1 f_i du with f_i =
    2 u^(p-1) / (q_i * prod_j sqrt(q_j)) and q_j = u**2 + lam_j (1 - u**2),
    smooth on [0, 1] for every p with features at the scale u ~
    sqrt(lam_min). The geometric panels of ``_panel_rule``, with
    k = ceil(-log2(lam_min) / 2) + 1, resolve it to roundoff. The shared
    product is formed through logs so that large p does not underflow.
    Returns f (p, nodes), the weights, 1 - u**2 and q.
    """
    lo = lam.min()
    if lo <= 0.0:
        raise RankDeficiencyError("integrals require strictly positive eigenvalues")
    u2, v2, log_u, w = _panel_rule(int(np.ceil(-np.log2(lo) / 2.0)) + 1)
    q = u2 + lam[:, None] * v2
    common = 2.0 * np.exp((lam.size - 1) * log_u - 0.5 * np.sum(np.log(q), axis=0))
    return common / q, w, v2, q


def _integrals_and_jacobian(lam):
    """The component integrals I and their Jacobian dI/dlam, on the same nodes.

    With g_k = (1 - u**2) / q_k and M_ik = Int f_i g_k,
    dI_i/dlam_k = -Int f_i (delta_ik g_i + g_k / 2) = -(delta_ik M_ii + M_ik / 2).
    """
    f, w, v2, q = _integrands(lam)
    jac = (f * w) @ (v2 / q).T
    jac *= -0.5
    jac.flat[:: lam.size + 1] *= 3.0
    return f @ w, jac


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
    if nz.sum() == 1:
        # Rank-one limit: all mass stays on the leading direction.
        out = np.zeros_like(lam)
        out[0] = 1.0
        return out
    f, w, _, _ = _integrands(lam[nz])
    delta = np.zeros_like(lam)
    delta[nz] = 0.5 * lam[nz] * (f @ w)
    drift = abs(delta.sum() - 1.0)
    if not drift <= 1e-9:  # NaN fails too
        raise QuadratureError(f"spectrum drift {drift:.3e} exceeds 1e-9")
    return _canonical(delta / delta.sum())


@dataclass(frozen=True)
class FixedPointResult:
    """Inverted spectrum plus convergence diagnostics."""

    spectrum: np.ndarray
    iterations: int
    residual: float


def _linearization(d, lam):
    """Integrals, their Jacobian and the relative misfit 1 - d_i(lam) / d_i
    of the normalized image of ``lam``."""
    integrals, jac = _integrals_and_jacobian(lam)
    image = 0.5 * lam * integrals
    return integrals, jac, 1.0 - image / image.sum() / d


def _newton_trial(d, lam, integrals, jac, misfit):
    """The Newton trial spectrum from ``lam``, stepping in theta = log(lam).

    Solves (diag(1/d) J diag(lam) + 1 lam^T) dtheta = misfit, with J the
    Jacobian of the image d(lam). The map is blind to the scale of lam, so
    J diag(lam) has the null vector 1; the rank-one term 1 lam^T removes
    it. Row i is divided by d_i, as the misfit is: in absolute terms the
    equation of a small eigenvalue would drown in the rounding of the
    large ones, and the step would converge only linearly there.
    """
    dmap = 0.5 * (np.diag(integrals) + lam[:, None] * jac)  # d image / d lam
    system = dmap * (lam / d[:, None]) + lam
    try:
        trial = lam * np.exp(np.linalg.solve(system, misfit))
    except np.linalg.LinAlgError:  # a singular system: no Newton step
        return np.full_like(lam, np.nan)
    return trial / trial.sum()


def inverse_full(delta) -> FixedPointResult:
    """Invert the eigenvalue map, with diagnostics.

    At most two nonzero entries are inverted in closed form, lam_i
    proportional to delta_i**2 as in ``inverse_p2`` (zero iterations and
    residual): zeros stay zero, and at p = 2 a rank-one spectrum maps to
    itself. Otherwise, starting from lam proportional to delta^(1 + 2/p),
    each step is a Newton step on log(lam), kept when it lowers the largest
    relative misfit max_i |delta_i - d_i(lam)| / delta_i; when it does not,
    the step is the fixed-point step that divides twice the target sign
    eigenvalue by the current component integral and renormalizes to sum
    one. The iteration stops when a step changes no eigenvalue by more than
    ``_FP_TOL`` (1e-11) relative to itself.

    ``iterations`` counts the steps taken (Newton or fixed-point; a
    rejected Newton trial is not a step), and ``residual`` is the relative
    change max_i |lam_i' - lam_i| / lam_i of the last step (0.0 when no
    step was taken).

    Raises
    ------
    RankDeficiencyError
        If p > 2 and fewer than two eigenvalues are nonzero.
    ConvergenceError
        After ``_FP_MAX_ITER`` (120) steps, where the spectra of a fuzz took
        at most 10 (carries the step count, the last step's relative change
        and the last iterate).
    """
    delta = as_spectrum(delta, kind="sign")
    if delta.size < 2:
        raise InvalidInputError("inverse requires dimension >= 2")
    nz = delta > 0.0
    k = int(nz.sum())
    if k < 2 < delta.size:
        raise RankDeficiencyError("inversion requires at least two nonzero eigenvalues")
    if k <= 2:
        return FixedPointResult(_squared_share(delta), 0, 0.0)
    out = np.zeros_like(delta)
    d = delta[nz]
    # Start from lam proportional to d^(1 + 2/p): the exact inverse at p = 2,
    # and exact to first order near the uniform spectrum, where
    # delta - 1/p = p/(p + 2) (lam - 1/p).
    lam = d ** (1.0 + 2.0 / d.size)
    lam /= lam.sum()
    change, steps = 0.0, 0
    # Far from the solution a Newton trial can put an eigenvalue so low that
    # its integrals or their Jacobian overflow; the trial is then rejected by
    # the comparisons below, which a NaN or inf misfit never passes.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state = _linearization(d, lam)
        while steps < _FP_MAX_ITER:
            integrals, jac, misfit = state
            trial = _newton_trial(d, lam, integrals, jac, misfit)
            # An overflow makes the sum of the trial inf, and so its entries
            # NaN or zero: the trial is usable when it is positive.
            if (trial > 0.0).all():
                step = float((np.abs(trial - lam) / lam).max())
                if step <= _FP_TOL:
                    lam, change, steps = trial, step, steps + 1
                    break
                trial_state = _linearization(d, trial)
                if np.abs(trial_state[2]).max() < np.abs(misfit).max():
                    lam, state, change, steps = trial, trial_state, step, steps + 1
                    continue
            trial = 2.0 * d / integrals
            trial /= trial.sum()
            change = float((np.abs(trial - lam) / lam).max())
            lam, steps = trial, steps + 1
            if change <= _FP_TOL:
                break
            state = _linearization(d, lam)
        else:
            out[nz] = lam
            raise ConvergenceError(
                f"eigenvalue-map inversion did not converge in {_FP_MAX_ITER} iterations "
                f"(relative change {change:.3e})",
                iterations=_FP_MAX_ITER,
                residual=change,
                last_iterate=out,
            )
    out[nz] = lam
    return FixedPointResult(out, steps, change)


def inverse(delta) -> np.ndarray:
    """Shape spectrum whose forward image is ``delta`` (see ``inverse_full``:
    at most 10 steps in its fuzz, a ``ConvergenceError`` after 120)."""
    return inverse_full(delta).spectrum
