"""Dense symmetric linear algebra with deterministic conventions.

Everything here is a thin, contract-enforcing layer over LAPACK: inputs are
symmetrized on entry, eigenvalues come back sorted descending, and eigenvector
signs follow a fixed rule so that repeated runs produce identical output.
"""

from typing import NamedTuple

import numpy as np

from .exceptions import DegenerateScaleError, InvalidInputError


class EigenDecomposition(NamedTuple):
    """Eigenvalues sorted descending; column k of ``eigenvectors`` pairs with
    ``eigenvalues[k]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetrize(a) -> np.ndarray:
    """Validate a square real matrix and return its symmetric part (A + A.T)/2."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InvalidInputError("matrix must have dimension >= 1")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix entries must be finite")
    return (a + a.T) / 2.0


def sym_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix with deterministic ordering.

    The sign of each eigenvector is fixed by requiring its largest-magnitude
    component to be positive. Within an eigenspace of a repeated eigenvalue
    any orthonormal basis may be returned; only basis-invariant quantities
    (spectrum, reconstructions, projectors) are stable under ties.
    """
    w, u = _sym_eigens(symmetrize(a)[None])
    return EigenDecomposition(w[0], u[0])


def _sym_eigens(a):
    """``sym_eigen`` of each matrix of the symmetric stack ``a`` (B, p, p)."""
    w, u = np.linalg.eigh(a)
    w = w[:, ::-1].copy()
    u = u[:, :, ::-1]
    lead = np.argmax(np.abs(u), axis=1)
    flip = np.take_along_axis(u, lead[:, None, :], axis=1) < 0
    return w, np.where(flip, -u, u)


def to_correlation(v) -> np.ndarray:
    """Rescale a covariance/shape-type matrix to unit diagonal.

    Computes ``r[i, j] = v[i, j] / sqrt(v[i, i] * v[j, j])``, a congruence
    transform by a positive diagonal matrix; positive semi-definiteness of
    the input is therefore preserved.

    Raises
    ------
    DegenerateScaleError
        If some diagonal entry is not strictly positive (the message names
        the first offending index).
    """
    v = symmetrize(v)
    d = np.diag(v)
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        raise DegenerateScaleError(
            f"nonpositive diagonal entry {d[bad[0]]!r} at index {bad[0]}"
        )
    s = 1.0 / np.sqrt(d)
    r = v * np.outer(s, s)
    np.fill_diagonal(r, 1.0)
    return r
