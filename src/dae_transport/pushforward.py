"""Closed-form pushforward measures and abstract standard-deviation coordinates.

A Gaussian transported by the continuous flow keeps its mean and loses
``2 t I`` of covariance; transported by the one-shot denoising map it keeps
its mean and its covariance contracts to ``S (I + t S^{-1})^{-2}``.  Both are
exposed here together with empirical moments and the diagonal-Gaussian
coordinate chart ``(sigma_1, ..., sigma_m)`` in which the quadratic
Wasserstein distance is Euclidean.  The covariance maps themselves are
eigenvalue maps of the single-Gaussian core, ``measures._SpectralGaussian``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .measures import ParticleEnsemble, _checked_time, _decomposed, _moments, _SpectralGaussian

SOURCE_CONTINUOUS = "continuous"
SOURCE_ONE_SHOT = "one_shot"

_EIG_FLOOR = -1e-12  # permitted eigenvalue round-off at the singular boundary
_DIAG_TOL = 1e-9  # off-diagonal tolerance for the abstract chart


@dataclass(frozen=True, eq=False)
class GaussianPushforward:
    """A transported Gaussian: mean, covariance, source map, and time.

    Mean and covariance must be finite.  The covariance may touch rank
    deficiency (zero eigenvalue) exactly at the singular time of the continuous
    flow; eigenvalues below ``-1e-12`` are rejected.
    """

    mean: np.ndarray
    covariance: np.ndarray
    source: str
    t: float

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        self._freeze(mean, cov, _decomposed(mean, cov, "pushforward")[1])

    @classmethod
    def _pushed(cls, g: _SpectralGaussian, cov: np.ndarray, source: str, t: float) -> "GaussianPushforward":
        """Wrap the pushed Gaussian ``g``, stored with covariance ``cov``, without decomposing it again."""
        pf = object.__new__(cls)
        object.__setattr__(pf, "source", source)
        object.__setattr__(pf, "t", t)
        pf._freeze(g.mean, cov, g.evals)
        return pf

    def _freeze(self, mean: np.ndarray, cov: np.ndarray, evals: np.ndarray) -> None:
        """Check the source, time and eigenvalue floor, then store read-only copies."""
        if self.source not in (SOURCE_CONTINUOUS, SOURCE_ONE_SHOT):
            raise ContractError(f"unknown pushforward source {self.source!r}")
        if float(evals[0]) < _EIG_FLOOR * max(1.0, float(np.max(np.abs(cov)))):
            raise ContractError(
                f"pushforward covariance has eigenvalue {float(evals[0]):.3e} below the singular floor"
            )
        mean, cov, evals = mean.copy(), cov.copy(), evals.copy()
        for name, arr in (("mean", mean), ("covariance", cov), ("_evals", evals)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "t", _checked_time(self.t, "pushforward time"))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Covariance eigenvalues, ascending, with boundary round-off clipped to 0."""
        return np.clip(self._evals, 0.0, None)

    def __repr__(self) -> str:
        return f"GaussianPushforward(source={self.source!r}, t={self.t}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class AbstractPoint:
    """Per-axis standard deviations of a diagonal Gaussian."""

    sigma: np.ndarray

    def __post_init__(self):
        sig = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if sig.ndim != 1:
            raise ContractError("sigma must be a vector")
        if np.any(sig < 0.0) or not np.all(np.isfinite(sig)):
            raise ContractError("sigma entries must be finite and nonnegative")
        sig = sig.copy()
        sig.flags.writeable = False
        object.__setattr__(self, "sigma", sig)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


def _push(mean, cov, t: float, source: str) -> GaussianPushforward:
    """Decompose N(mean, cov) once and map its eigenvalues to time ``t``; t = 0 keeps ``cov``."""
    t = _checked_time(t)
    g = _SpectralGaussian.from_cov(cov, mean)
    if source == SOURCE_CONTINUOUS:
        g.check_horizon(t, "continuous pushforward", closed=True)
        h = g.continuous(t)
    else:
        h = g.one_shot(t)
    new_cov = h.cov if t > 0.0 else np.atleast_2d(np.asarray(cov, dtype=float))
    return GaussianPushforward._pushed(h, new_cov, source, t)


def push_continuous(mean, cov, t: float) -> GaussianPushforward:
    """Pushforward of N(mean, cov) under the continuous flow: covariance ``cov - 2 t I``.

    Valid for ``2 t <= min eigenvalue``; the boundary is reported with a zero
    eigenvalue, while any later time raises :class:`SingularityError` carrying
    the critical time.
    """
    return _push(mean, cov, t, SOURCE_CONTINUOUS)


def one_shot_covariance(cov, t: float) -> np.ndarray:
    """Covariance of N(mean, cov) pushed through the one-shot map: ``cov (I + t cov^{-1})^{-2}``."""
    return _push(None, cov, t, SOURCE_ONE_SHOT).covariance


def push_one_shot(mean, cov, t: float) -> GaussianPushforward:
    """Pushforward of N(mean, cov) under the one-shot denoising map.

    The covariance contracts but stays positive definite for every finite t.
    """
    return _push(mean, cov, t, SOURCE_ONE_SHOT)


def empirical_moments(ens: ParticleEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased sample covariance of an ensemble (n >= 2)."""
    if ens.n < 2:
        raise ContractError(f"empirical moments need at least two points, got {ens.n}")
    return _moments(ens.points)


def _chart_sigma(cov: np.ndarray) -> np.ndarray:
    """Standard deviations ``sqrt(cov_ii)`` of a covariance within 1e-9 of diagonal."""
    off = np.max(np.abs(cov - np.diag(np.diag(cov))))
    if off > _DIAG_TOL:
        raise DomainError(f"abstract coordinates need a diagonal covariance (max off-diagonal {off:.3e})")
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def abstract_coordinates(pf: GaussianPushforward) -> AbstractPoint:
    """Diagonal-Gaussian chart coordinates ``sigma_i = sqrt(cov_ii)``.

    Defined only for (numerically) diagonal covariances; anything else raises
    a :class:`DomainError` because the chart does not cover it.
    """
    return AbstractPoint(_chart_sigma(pf.covariance))


def w2_distance(a: AbstractPoint, b: AbstractPoint) -> float:
    """Quadratic Wasserstein distance between diagonal Gaussians: Euclidean in sigma."""
    if a.dim != b.dim:
        raise ContractError(f"dimension mismatch: {a.dim} vs {b.dim}")
    d = a.sigma - b.sigma
    return float(np.sqrt(d.dot(d)))
