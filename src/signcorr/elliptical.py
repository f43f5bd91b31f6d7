"""Seedable samplers for elliptical distributions: normal, t, Laplace.

Sampling uses the radial decomposition X = mu + R * A * U, where A is the
Cholesky factor of the shape matrix, U is uniform on the unit sphere and R
is the family's radial law:

* normal:  R = sqrt(chi2_p)
* t(nu):   drawn as a Gaussian vector divided by sqrt(chi2_nu / nu)
* laplace: R ~ Gamma(shape=p, scale=2), the radial law implied by the
  exponential-of-square-root generator; its normalizing constant never
  needs to be evaluated.

All randomness flows through numpy's PCG64 generator. Replication streams
are derived from a master seed with ``SeedSequence((seed, index))`` so that
each replication's draws depend on its index alone, not on the order in
which replications run.
"""

# Annotations stay strings, so that importing this module does not load
# ``numpy.random`` for ``np.random.Generator``.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .linalg import symmetrize
from .robust import as_location

FAMILIES = ("normal", "t", "laplace")

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class EllipticalModel:
    """Family tag, location vector, positive-definite shape matrix.

    ``df`` is the degrees of freedom and must be a positive number exactly
    when ``family == "t"``.
    """

    family: str
    location: np.ndarray
    shape: np.ndarray
    df: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInputError(
                f"unknown family {self.family!r}, expected one of {FAMILIES}"
            )
        shape = symmetrize(self.shape)
        loc = as_location(self.location, shape.shape[0])
        try:
            np.linalg.cholesky(shape)
        except np.linalg.LinAlgError:
            raise InvalidInputError("shape matrix must be positive definite") from None
        if self.family == "t":
            if self.df is None or not (float(self.df) > 0):
                raise InvalidInputError("t family requires df > 0")
        elif self.df is not None:
            raise InvalidInputError("df is only meaningful for the t family")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "location", loc)

    @property
    def dim(self) -> int:
        return self.shape.shape[0]


def spherical_model(family: str, p: int, df: float | None = None) -> EllipticalModel:
    """Zero-location, identity-shape model of dimension ``p``."""
    return EllipticalModel(family, np.zeros(p), np.eye(p), df)


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed (negative seeds wrap to unsigned)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed & _SEED_MASK)))


def replication_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for replication ``index`` under a master seed."""
    ss = np.random.SeedSequence((seed & _SEED_MASK, index))
    return np.random.Generator(np.random.PCG64(ss))


def _sphere(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, p))
    norms = np.linalg.norm(z, axis=1)
    while np.any(norms == 0.0):  # essentially unreachable, kept for exactness
        bad = norms == 0.0
        z[bad] = rng.standard_normal((int(bad.sum()), p))
        norms = np.linalg.norm(z, axis=1)
    return z / norms[:, None]


def sample_sphere(p: int, rng: np.random.Generator) -> np.ndarray:
    """One draw from the uniform distribution on the unit sphere in R^p."""
    if p < 1:
        raise InvalidInputError("dimension must be >= 1")
    return _sphere(1, p, rng)[0]


def sample(model: EllipticalModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` observations from ``model`` as an (n, p) array."""
    if n < 1:
        raise InvalidInputError("sample size must be >= 1")
    p = model.dim
    a = np.linalg.cholesky(model.shape)
    if model.family == "t":
        z = rng.standard_normal((n, p))
        w = rng.chisquare(float(model.df), n)
        core = z / np.sqrt(w / float(model.df))[:, None]
    else:
        if model.family == "normal":
            r = np.sqrt(rng.chisquare(p, n))
        else:  # laplace
            r = rng.gamma(shape=p, scale=2.0, size=n)
        core = r[:, None] * _sphere(n, p, rng)
    return model.location + core @ a.T
