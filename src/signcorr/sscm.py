"""Empirical spatial sign covariance matrix (SSCM)."""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .robust import _signs_of_one, as_data_matrix, as_location, spatial_median


@dataclass(frozen=True)
class SscmEstimate:
    """Average of outer products of spatial signs of centered observations.

    ``n_effective`` counts observations with a nonzero sign; the trace of
    ``matrix`` equals ``n_effective / n`` (observations coinciding with the
    center contribute a zero term and are deliberately not renormalized
    away).
    """

    matrix: np.ndarray
    center_used: np.ndarray
    n_effective: int
    n: int


def sscm(data, center) -> SscmEstimate:
    """SSCM of ``data`` around an explicitly supplied center."""
    x = as_data_matrix(data)
    n, p = x.shape
    c = as_location(center, p)
    s = _signs_of_one(x, c)
    n_eff = int(np.count_nonzero(np.any(s[0] != 0.0, axis=0)))
    return SscmEstimate(matrix=_sign_covariances(s)[0], center_used=c, n_effective=n_eff, n=n)


def _sign_covariances(s):
    """SSCMs (B, p, p) of the spatial signs ``s`` (B, p, n).

    Entry (i, j) is one sum over the observations, the same for (j, i), so
    the matrices are exactly symmetric.
    """
    return np.einsum("bin,bjn->bij", s, s) / s.shape[2]


def sscm_auto(data) -> SscmEstimate:
    """SSCM centered at the spatial median, the canonical location choice."""
    x = as_data_matrix(data)
    if x.shape[0] < 2:
        raise InvalidInputError("sscm_auto requires at least 2 observations")
    return sscm(x, spatial_median(x))
