"""Gaussian-mixture measures with exact densities, derivatives, and sampling.

A :class:`GaussianMixture` is an immutable weighted sum of full-covariance
Gaussians.  Every analytic quantity the rest of the package needs is exposed
here as a pure function of the mixture: density, log density, score
(gradient of the log density), density gradient and Laplacian, Gaussian
smoothing (convolution), differential entropy, Renyi entropy, seeded
sampling, and the zero-mean Gaussian noise identity residual.

Log densities are evaluated with a max-shifted log-sum-exp (shift and
exponential in :func:`_shifted_exp`) so heavily smoothed mixtures do not
underflow.  Each component covariance is stored with a cached spectral
factorization that the mixture's own solves, log determinants, and square
roots reuse; the density and its derivatives evaluate all components at
once.  :func:`_decomposed` is the one covariance validator (finite, symmetric,
lambda_min > 1e-12 lambda_max), :func:`_pointwise` the one point-or-batch
rule, and ``verify.ResidualReport`` the one owner of a check's verdict.

:class:`Gaussian`, a mean and one eigenbasis, is the one route to the
single-Gaussian closed forms.  The DAE map, the one-shot and continuous
pushforwards (themselves ``Gaussian`` values), the continuous map, the
entropies and the Bures-Wasserstein distance are all eigenvalue maps of one
decomposed covariance.  :func:`_checked_time` is the one check every time,
noise variance, and layer variance passes where it enters the package, and
:func:`_checked_parameter` the one check of a verification parameter.

On the sample side, :func:`_kernel_pass` is the one Gaussian kernel sum over
data (kernel regression map and KDE alike), in O(points * data * m) time and
one block plus one cache-sized chunk of memory, and :meth:`Estimate.mean_of`
the one Monte Carlo mean with its standard error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, DomainError, SingularityError
from .rand import substream
from .svg import write_csv

_LOG_2PI = math.log(2.0 * math.pi)

# Validation tolerances for mixture construction.
_WEIGHT_SUM_TOL = 1e-12
_SYMMETRY_TOL = 1e-12

#: Default sample count for Monte Carlo estimates; always paired with a
#: reported standard error.
MC_DEFAULT_N = 100_000

#: Most (point, datum) pairs one block of a kernel pass holds at once.
_KERNEL_BLOCK_PAIRS = 8_000_000
#: Most pairs of a block one cache-sized chunk of the kernel pass's elementwise work touches.
_KERNEL_CHUNK_PAIRS = 65_536


class Estimate(NamedTuple):
    """A numeric estimate with its standard error (0.0 when exact)."""

    value: float
    stderr: float

    @classmethod
    def mean_of(cls, samples: np.ndarray) -> "Estimate":
        """Monte Carlo mean of per-sample terms with its standard error."""
        return cls(float(np.mean(samples)), float(np.std(samples, ddof=1) / math.sqrt(samples.shape[0])))


def _shifted_exp(a: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``exp(a - shift)`` of an (n, k) array, into ``out`` if given, and its row maxima ``shift`` (0 if not finite)."""
    shift = np.max(a, axis=1)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    return np.exp(np.subtract(a, shift[:, None], out=out), out=out), shift


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only in place, so a frozen value cannot be changed through it."""
    arr.flags.writeable = False
    return arr


def _decomposed(mean: np.ndarray, cov: np.ndarray, what: str):
    """``(cov, evals, evecs)`` of valid covariances, one ``(m, m)`` or a ``(k, m, m)`` stack.

    Valid means finite, symmetric to ``1e-12 * max(1, max |cov|)`` (the
    returned ``cov`` is symmetrized) and positive definite with every
    smallest eigenvalue above ``1e-12`` times the largest, so a covariance one
    caller accepts no other caller rejects.
    """
    m = mean.shape[-1]
    if cov.shape != mean.shape + (m,):
        raise ContractError(f"{what} covariance shape {cov.shape} does not match mean shape {mean.shape}")
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise ContractError(f"{what} mean and covariance must be finite")
    flipped = np.swapaxes(cov, -1, -2)
    if np.max(np.abs(cov - flipped)) > _SYMMETRY_TOL * max(1.0, float(np.max(np.abs(cov)))):
        raise ContractError(f"{what} covariance must be symmetric within 1e-12")
    cov = 0.5 * (cov + flipped)
    evals, evecs = np.linalg.eigh(cov)
    lam = evals.reshape(-1, m)
    bad = np.flatnonzero(lam[:, 0] <= 1e-12 * lam[:, -1])
    if bad.size:
        label = what if cov.ndim == 2 else f"{what} {bad[0]}"
        raise ContractError(f"{label} covariance is not positive definite (eigenvalues {lam[bad[0]]})")
    return cov, evals, evecs


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Weighted mixture of full-covariance Gaussians on R^m.

    Parameters
    ----------
    weights : (k,) array of strictly positive weights summing to 1.
    means : (k, m) array of component means.
    covs : (k, m, m) array of symmetric positive-definite covariances.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        cov = np.asarray(self.covs, dtype=float)
        if cov.ndim == 2:
            cov = cov[np.newaxis]
        if w.ndim != 1 or mu.ndim != 2 or cov.ndim != 3 or w.shape != mu.shape[:1]:
            raise ContractError(
                f"weights, means, covs must have shapes (k,), (k,m), (k,m,m); got {w.shape}, {mu.shape}, {cov.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ContractError("mixture weights must be finite")
        if np.any(w <= 0.0):
            raise ContractError("mixture weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ContractError(f"mixture weights sum to {w.sum()!r}, expected 1 within {_WEIGHT_SUM_TOL}")

        cov, evals, evecs = _decomposed(mu, cov, "mixture component")

        # own all arrays before freezing them, so callers' arrays stay writable
        object.__setattr__(self, "weights", _frozen(w.copy()))
        object.__setattr__(self, "means", _frozen(mu.copy()))
        object.__setattr__(self, "covs", _frozen(cov))
        object.__setattr__(self, "_evals", _frozen(evals))
        object.__setattr__(self, "_evecs", _frozen(evecs))
        # log of the Gaussian normalization constant per component
        log_norm = -0.5 * (mu.shape[1] * _LOG_2PI + np.log(evals).sum(axis=1))
        object.__setattr__(self, "_log_norm", _frozen(log_norm))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_components(cls, components: Iterable[tuple[float, Sequence[float], Sequence[Sequence[float]]]]):
        comps = list(components)
        if not comps:
            raise ContractError("mixture needs at least one component")
        try:
            w = np.array([c[0] for c in comps], dtype=float)
            mu = np.array([np.atleast_1d(c[1]) for c in comps], dtype=float)
            cov = np.array([np.atleast_2d(c[2]) for c in comps], dtype=float)
        except ValueError as exc:  # ragged shapes across components
            raise ContractError(f"components do not share a common dimension: {exc}") from exc
        return cls(w, mu, cov)

    @classmethod
    def single(cls, mean: Sequence[float], cov: Sequence[Sequence[float]]):
        """One-component mixture, i.e. a plain Gaussian."""
        return cls.from_components([(1.0, mean, cov)])

    @classmethod
    def standard(cls, dim: int):
        """Standard normal in ``dim`` dimensions."""
        return cls.single(np.zeros(dim), np.eye(dim))

    # -- basic accessors ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def components(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        return [(float(self.weights[i]), self.means[i], self.covs[i]) for i in range(self.k)]

    def __repr__(self) -> str:  # keep array dumps out of tracebacks
        return f"GaussianMixture(k={self.k}, dim={self.dim})"

    # -- JSON interchange ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "components": [
                {"weight": float(w), "mean": m.tolist(), "cov": c.tolist()}
                for w, m, c in self.components
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GaussianMixture":
        """Inverse of :meth:`to_json_dict`; ``dim`` must be a finite integral number, not a bool."""
        try:
            dim = doc["dim"]
            comps = doc["components"]
            mix = cls.from_components([(c["weight"], c["mean"], c["cov"]) for c in comps])
        except (KeyError, TypeError) as exc:
            raise ContractError(f"malformed mixture document: {exc}") from exc
        if isinstance(dim, bool) or not (isinstance(dim, int) or (isinstance(dim, float) and dim.is_integer())):
            raise ContractError(f"dim must be a finite integer, got {dim!r}")
        if mix.dim != dim:
            raise ContractError(f"declared dim {dim} does not match component dim {mix.dim}")
        return mix


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """n points in R^m together with the seed that produced them."""

    points: np.ndarray
    seed: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, np.newaxis]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ContractError("ensemble points must form a nonempty (n, m) array")
        if not np.isfinite(pts).all():
            raise ContractError("ensemble points must be finite")
        object.__setattr__(self, "points", _frozen(pts.copy()))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __repr__(self) -> str:
        return f"ParticleEnsemble(n={self.n}, dim={self.dim}, seed={self.seed})"

    def to_csv(self, path: str | Path) -> None:
        """Write points as CSV with header x1..xm and a seed comment line."""
        write_csv(path, [f"x{j + 1}" for j in range(self.dim)], self.points.tolist(), self.seed)

    @classmethod
    def from_csv(cls, path: str | Path) -> "ParticleEnsemble":
        """Read :meth:`to_csv` output: ``#`` lines (the last ``seed=N`` is the seed), column names, rows."""
        lines = [ln.strip() for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
        seeds = [int(ln.split("seed=", 1)[1]) for ln in lines if ln.startswith("#") and "seed=" in ln]
        data = [ln for ln in lines if not ln.startswith("#")][1:]  # after the column names
        rows = [[float(v) for v in ln.split(",")] for ln in data]
        return cls(np.array(rows, dtype=float), seeds[-1] if seeds else 0)


def _moments(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased sample covariance of (n, m) points; zero covariance if n = 1."""
    n, m = points.shape
    cov = np.atleast_2d(np.cov(points.T, ddof=1)) if n >= 2 else np.zeros((m, m))
    return points.mean(axis=0), cov


# -- point handling -----------------------------------------------------------


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce finite x (a scalar or vector is one point) into an (n, dim) array; report whether it was one point."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ContractError("points must be finite")
    if arr.ndim > 2:
        raise ContractError("points must be a scalar, a vector or an (n, m) array")
    pts = arr if arr.ndim == 2 else arr.reshape(1, -1)
    if pts.shape[1] != dim:
        raise ContractError(f"points have dimension {pts.shape[1]}, expected {dim}")
    return pts, arr.ndim < 2


def _pointwise(body):
    """Evaluate ``body(owner, points, *args)`` at one point or an (n, m) batch, the second argument.

    ``x`` is coerced by :func:`_as_points` to ``owner.dim`` columns; ``body``
    sees only the (n, m) array.  One point gives row 0 of the batch result, a
    Python float where that row is a scalar.
    """

    @functools.wraps(body)
    def at_points(owner, x, *args):
        pts, single = _as_points(x, owner.dim)
        out = body(owner, pts, *args)
        row = out[0] if single else out
        return float(row) if np.ndim(row) == 0 else row

    return at_points


# -- single-Gaussian spectral core ----------------------------------------------


def _checked_time(t, what: str = "time", positive: bool = False) -> float:
    """``t`` as a float that is finite and nonnegative (positive if asked)."""
    t = float(t)
    if not math.isfinite(t) or t < 0.0 or (positive and t == 0.0):
        kind = "positive" if positive else "nonnegative"
        raise ContractError(f"{what} must be finite and {kind}, got {t}")
    return t


def _checked_parameter(value, what: str, upper: float = math.inf) -> float:
    """A check's numeric parameter as a finite float in ``(0, upper]``, else :class:`DomainError`."""
    value = float(value)
    if not (0.0 < value <= upper and math.isfinite(value)):
        bound = "positive" if upper == math.inf else f"in (0, {upper:g}]"
        raise DomainError(f"{what} must be finite and {bound}, got {value}")
    return value


def _checked_alpha(alpha) -> float:
    """A Renyi order: finite, positive and != 1 (the limit alpha -> 1 is :func:`entropy`)."""
    if _checked_parameter(alpha, "alpha") == 1.0:
        raise DomainError("alpha must be != 1; use entropy() for the alpha -> 1 limit")
    return float(alpha)


@dataclass(frozen=True, eq=False)
class Gaussian:
    """N(mean, V diag(evals) V^T) with ascending ``evals`` and orthonormal ``evecs`` V.

    Every single-Gaussian object of the transport keeps V and maps the
    eigenvalues: the one-shot pushforward sends lambda to
    lambda (lambda / (lambda + t))^2 (no overflow at any finite lambda or t),
    the continuous pushforward to lambda - 2 t.  Maps return new values and
    never re-decompose, so a composed flow factorizes once.  :meth:`from_cov`
    is the validating constructor.  :meth:`one_shot` and :meth:`continuous`
    take any t, which lets finite-difference stencils step slightly below 0;
    the point maps :meth:`denoise` and :meth:`continuous_map` check their time
    and points.  Entropies are read straight from the eigenvalues, so
    contractions far below what mixture validation accepts stay representable.
    """

    mean: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray

    @classmethod
    def from_cov(cls, cov, mean=None) -> "Gaussian":
        """Decompose a covariance that :func:`_decomposed` accepts (mean defaults to 0)."""
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        mean = np.zeros(cov.shape[0]) if mean is None else np.atleast_1d(np.asarray(mean, dtype=float))
        _, evals, evecs = _decomposed(mean, cov, "Gaussian")
        return cls(_frozen(mean.copy()), _frozen(evals), _frozen(evecs))

    @classmethod
    def of(cls, mix: GaussianMixture) -> "Gaussian":
        """The first (for a single Gaussian, the only) component, from the cached factorization."""
        return cls(mix.means[0], mix._evals[0], mix._evecs[0])

    @property
    def dim(self) -> int:
        return self.evals.shape[0]

    @property
    def cov(self) -> np.ndarray:
        return (self.evecs * self.evals) @ self.evecs.T

    @property
    def critical_time(self) -> float:
        """Singular time of the continuous flow: half the smallest eigenvalue."""
        return float(self.evals[0]) / 2.0

    def as_mixture(self) -> GaussianMixture:
        return GaussianMixture.single(self.mean, self.cov)

    def one_shot(self, t: float) -> "Gaussian":
        """Pushforward under the one-shot map: ``S (I + t S^{-1})^{-2}``; t = 0 is exact."""
        if t == 0.0:
            return self
        lam = self.evals
        return Gaussian(self.mean, _frozen(lam * (lam / (lam + t)) ** 2), self.evecs)

    def composed(self, taus: Iterable[float]) -> Iterator[tuple[float, "Gaussian"]]:
        """``(cumulative time, pushforward)`` after each layer of a composed one-shot flow."""
        g, t = self, 0.0
        for tau in taus:
            g, t = g.one_shot(tau), t + tau
            yield t, g

    def continuous(self, t: float) -> "Gaussian":
        """Pushforward under the continuous flow: ``S - 2 t I`` (unchecked against the horizon)."""
        return Gaussian(self.mean, _frozen(self.evals - 2.0 * t), self.evecs)

    def check_horizon(self, t: float, what: str, closed: bool = False) -> None:
        """Raise :class:`SingularityError` once ``t`` reaches the critical time.

        ``closed`` admits the boundary itself (up to 5e-13), where the
        pushforward covariance first loses rank.
        """
        tc = self.critical_time
        if (t > tc + 5e-13) if closed else (t >= tc):
            raise SingularityError(f"{what} is singular at t = {tc!r} (requested t = {t!r})", critical_time=tc)

    @_pointwise
    def denoise(self, x, t: float) -> np.ndarray:
        """DAE map ``x + t score(N(mean, S + t I), x) = (I + t S^{-1})^{-1} x + (I + S / t)^{-1} mean`` at t >= 0."""
        t = _checked_time(t, "noise variance")
        if t == 0.0:
            return x.copy()
        lam = self.evals
        v = self.evecs
        return (x @ v * (lam / (lam + t)) + self.mean @ v * (t / (lam + t))) @ v.T

    @_pointwise
    def continuous_map(self, x, t: float) -> np.ndarray:
        """Continuous-flow map on one point or (n, m) points: ``sqrt(I - 2 t S^{-1}) (x - mean) + mean``.

        ``t`` must be finite and nonnegative and the points finite.  The flow
        is singular from half the smallest eigenvalue on, where
        :class:`SingularityError` carries that critical time.
        """
        t = _checked_time(t)
        if t == 0.0:
            return x.copy()
        self.check_horizon(t, "continuous map")
        factors = np.sqrt(1.0 - 2.0 * t / self.evals)
        return ((x - self.mean) @ self.evecs * factors) @ self.evecs.T + self.mean

    def w2(self, other: "Gaussian") -> float:
        """Quadratic Wasserstein (Bures-Wasserstein) distance to ``other``.

        ``W2^2 = |m1 - m2|^2 + tr S1 + tr S2 - 2 tr (S1^1/2 S2 S1^1/2)^1/2``,
        evaluated as ``|m1 - m2|^2 + |R1 - R2 U|_F^2`` with the square roots
        ``R = S^1/2`` and ``U`` the orthogonal polar factor of ``R1 R2``.  That
        form subtracts no large traces, so close Gaussians keep their digits
        (equal diagonal ones are at exactly 0).  Eigenvalues down to -1e-12
        (relative to the largest, if above 1), the singular boundary's
        round-off, count as 0; lower ones raise :class:`ContractError`.
        """
        if other.dim != self.dim:
            raise ContractError(f"dimension mismatch: {self.dim} vs {other.dim}")
        for g in (self, other):
            if float(g.evals[0]) < -1e-12 * max(1.0, float(np.max(np.abs(g.evals)))):
                raise ContractError(f"w2 needs a positive semidefinite covariance, eigenvalue {g.evals[0]:.3e}")
        r1, r2 = ((g.evecs * np.sqrt(np.clip(g.evals, 0.0, None))) @ g.evecs.T for g in (self, other))
        x, _, yt = np.linalg.svd(r1 @ r2)
        diff, dm = r1 - r2 @ (yt.T @ x.T), self.mean - other.mean
        return float(np.sqrt(dm @ dm + np.sum(diff * diff)))

    @functools.cached_property
    def log_det(self) -> float:
        """``log det S``, computed once per value; -inf once the smallest eigenvalue reaches 0."""
        if self.evals[0] <= 0.0:
            return -math.inf
        return float(np.log(self.evals).sum())

    def entropy(self) -> float:
        """Differential entropy ``(m/2) log(2 pi e) + (1/2) log det S``."""
        return 0.5 * (self.dim * (_LOG_2PI + 1.0) + self.log_det)

    def renyi(self, alpha: float) -> float:
        """Renyi functional ``(int N^alpha - 1) / (alpha - 1)``, infinite past exp overflow."""
        m = self.dim
        log_int = 0.5 * (1.0 - alpha) * (m * _LOG_2PI + self.log_det) - 0.5 * m * math.log(alpha)
        return ((math.exp(log_int) if log_int < 700.0 else math.inf) - 1.0) / (alpha - 1.0)


def _component_terms(mix: GaussianMixture, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-component log densities (with log weights) and offsets, all components at once.

    Returns ``(logs, y)``: ``logs[n, i]`` is ``log w_i + log N(x_n; mu_i, S_i)``
    and ``y[i, n]`` is ``x_n - mu_i`` in the cached eigenbasis of ``S_i``.
    """
    y = (pts[np.newaxis] - mix.means[:, np.newaxis]) @ mix._evecs
    quad = np.sum(y * y / mix._evals[:, np.newaxis], axis=2)
    logs = (np.log(mix.weights) + mix._log_norm)[:, np.newaxis] - 0.5 * quad
    return np.ascontiguousarray(logs.T), y


def _weighted_pulls(mix: GaussianMixture, weights: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_i weights[:, i] * (-S_i^{-1}(x - mu_i))``, adding the components in order."""
    pulls = -(y / mix._evals[:, np.newaxis]) @ np.swapaxes(mix._evecs, 1, 2)
    return np.sum(weights.T[:, :, np.newaxis] * pulls, axis=0)


# -- densities and derivatives --------------------------------------------------


@_pointwise
def log_density(mix: GaussianMixture, x) -> float | np.ndarray:
    """Log of the mixture density, stable for strongly smoothed mixtures."""
    terms, shift = _shifted_exp(_component_terms(mix, x)[0])
    return np.log(terms.sum(axis=1)) + shift


@_pointwise
def density(mix: GaussianMixture, x) -> float | np.ndarray:
    """Mixture density sum_i w_i N(x; mu_i, S_i)."""
    return np.exp(log_density(mix, x))


@_pointwise
def score(mix: GaussianMixture, x) -> np.ndarray:
    """Gradient of the log density.

    Computed analytically as the responsibility-weighted sum of the
    per-component terms ``-S_i^{-1}(x - mu_i)``.
    """
    logs, y = _component_terms(mix, x)
    resp = _shifted_exp(logs)[0]
    resp /= resp.sum(axis=1, keepdims=True)
    return _weighted_pulls(mix, resp, y)


@_pointwise
def density_gradient(mix: GaussianMixture, x) -> np.ndarray:
    """Gradient of the density itself: sum_i w_i N_i(x) (-S_i^{-1}(x - mu_i))."""
    logs, y = _component_terms(mix, x)
    return _weighted_pulls(mix, np.exp(logs), y)


@_pointwise
def laplacian_density(mix: GaussianMixture, x) -> float | np.ndarray:
    """Laplacian of the density.

    Uses the closed form per component:
    ``lap N = N * (|S^{-1}(x - mu)|^2 - tr S^{-1})``.
    """
    logs, y = _component_terms(mix, x)
    solve_sq = np.sum((y / mix._evals[:, np.newaxis]) ** 2, axis=2)
    traces = np.sum(1.0 / mix._evals, axis=1)[:, np.newaxis]
    return np.sum(np.exp(logs).T * (solve_sq - traces), axis=0)


# -- smoothing -----------------------------------------------------------------


def smooth(mix: GaussianMixture, t: float) -> GaussianMixture:
    """Convolve the mixture with centered isotropic Gaussian noise of variance t.

    Each component covariance gains ``t * I``; weights and means are
    untouched.  ``t = 0`` returns the mixture unchanged.
    """
    t = _checked_time(t, "noise variance")
    return mix if t == 0.0 else convolve(mix, t * np.eye(mix.dim))


def convolve(mix: GaussianMixture, cov) -> GaussianMixture:
    """Convolve with a centered Gaussian of full covariance ``cov``."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.shape != (mix.dim, mix.dim):
        raise ContractError(f"kernel covariance must be {mix.dim}x{mix.dim}")
    return GaussianMixture(mix.weights, mix.means, mix.covs + cov[np.newaxis])


# -- entropies -----------------------------------------------------------------


def entropy(mix: GaussianMixture, n: int = MC_DEFAULT_N, seed: int = 0) -> Estimate:
    """Differential entropy ``-E[log mu]``.

    A single-component mixture gets the closed form
    ``(m/2) log(2 pi e) + (1/2) log det S`` with zero standard error; a
    k >= 2 mixture gets a seeded Monte Carlo estimate with its standard error.
    """
    if mix.k == 1:
        return Estimate(Gaussian.of(mix).entropy(), 0.0)
    return Estimate.mean_of(-log_density(mix, sample(mix, n, seed).points))


def renyi_entropy(mix: GaussianMixture, alpha: float, n: int = MC_DEFAULT_N, seed: int = 0) -> Estimate:
    """Renyi entropy functional ``int (mu^alpha - mu) / (alpha - 1)``.

    Closed form for a single Gaussian via ``int N^alpha``; seeded Monte Carlo
    otherwise.  ``alpha`` must be positive and different from 1 (use
    :func:`entropy` for the alpha -> 1 limit).
    """
    alpha = _checked_alpha(alpha)
    if mix.k == 1:
        return Estimate(Gaussian.of(mix).renyi(alpha), 0.0)
    return Estimate.mean_of(_renyi_terms(log_density(mix, sample(mix, n, seed).points), alpha))


def _renyi_terms(log_p: np.ndarray, alpha: float) -> np.ndarray:
    """Per-sample Renyi terms ``(p^(alpha-1) - 1) / (alpha - 1)``, whose mean under p is the functional."""
    return (np.exp((alpha - 1.0) * log_p) - 1.0) / (alpha - 1.0)


# -- sampling ------------------------------------------------------------------


def sample(mix: GaussianMixture, n: int, seed: int) -> ParticleEnsemble:
    """Draw n independent points: component by weight, then a Gaussian draw.

    Bit-reproducible given ``seed``: component selection and normal draws come
    from fixed substreams, and the draw layout does not depend on which
    components get selected.
    """
    n = int(n)
    if n < 1:
        raise ContractError(f"sample size must be >= 1, got {n}")
    u = substream(seed, 0).random(n)
    z = substream(seed, 1).standard_normal((n, mix.dim))
    cum = np.cumsum(mix.weights)
    idx = np.minimum(np.searchsorted(cum, u, side="right"), mix.k - 1)
    pts = np.empty((n, mix.dim))
    for i in range(mix.k):
        mask = idx == i
        if not np.any(mask):
            continue
        root = (mix._evecs[i] * np.sqrt(mix._evals[i])) @ mix._evecs[i].T
        pts[mask] = mix.means[i] + z[mask] @ root.T
    return ParticleEnsemble(pts, seed)


# -- Gaussian noise identity -----------------------------------------------------


def stein_residual(t: float, eps) -> np.ndarray:
    """Residual of the Gaussian identity ``-t grad nu_t(e) = e nu_t(e)``.

    ``nu_t = N(0, t I)``.  The gradient side is evaluated through the generic
    mixture gradient machinery and the right side through the density, so a
    nonzero residual would expose a defect in either; for Gaussian noise the
    residual is zero up to rounding.
    """
    t = _checked_parameter(t, "noise variance")
    arr = np.asarray(eps, dtype=float)
    pts, single = _as_points(arr, 1 if arr.ndim == 0 else arr.shape[-1])
    noise = GaussianMixture.single(np.zeros(pts.shape[1]), t * np.eye(pts.shape[1]))
    res = -t * density_gradient(noise, pts) - pts * density(noise, pts)[:, np.newaxis]
    return res[0] if single else res


# -- kernel density helpers -------------------------------------------------------


def silverman_covariance(points: np.ndarray, factor: float = 1.0) -> np.ndarray:
    """Silverman-style kernel covariance scaled by the sample covariance.

    Returns ``factor^2 * (4 / (m + 2))^(2 / (m + 4)) * n^(-2 / (m + 4)) * cov``.
    """
    pts = np.asarray(points, dtype=float)
    n, m = pts.shape
    if n < 2:
        raise ContractError("bandwidth selection needs at least two points")
    cov = _moments(pts)[1]
    beta = (4.0 / (m + 2.0)) ** (2.0 / (m + 4.0)) * n ** (-2.0 / (m + 4.0))
    return (factor * factor) * beta * cov


def _kernel_pass(pts: np.ndarray, data: np.ndarray, var: float, log_norm: float, weighted_mean: bool = False):
    """Log mean of the kernels ``exp(log_norm - |x - d_i|^2 / (2 var))`` over the data, per point.

    With ``weighted_mean`` also returns the kernel-weighted mean of the data
    per point.  Time is O(points * data * m).  Points go in row blocks of at
    most :data:`_KERNEL_BLOCK_PAIRS` (point, datum) pairs; each block's
    ``block @ data.T`` fills one reused buffer, worked in place in cache-sized
    chunks of :data:`_KERNEL_CHUNK_PAIRS` pairs, so memory is one block plus one
    chunk.  That moves no bit: the products (and ``w @ data``) see whole blocks
    and each elementwise step is row-local.  Rows do not interact, but BLAS may
    round the products of a small block differently in the last bits.
    """
    n = data.shape[0]
    rows, step = max(1, _KERNEL_BLOCK_PAIRS // n), max(1, _KERNEL_CHUNK_PAIRS // n)
    d_sq = np.sum(data * data, axis=1)
    buf = np.empty((min(rows, pts.shape[0]), n))
    shifts, sums = np.empty(pts.shape[0]), np.empty(pts.shape[0])
    mean = np.empty_like(pts) if weighted_mean else None
    for lo in range(0, pts.shape[0], rows):
        block, shift, wsum = pts[lo : lo + rows], shifts[lo : lo + rows], sums[lo : lo + rows]
        w = np.matmul(block, data.T, out=buf[: block.shape[0]])
        x_sq = np.sum(block * block, axis=1)
        for c in range(0, block.shape[0], step):
            # -0.5 * (|x|^2 + |d|^2 - 2 x.d) / var, one operation at a time, in place
            logk = w[c : c + step]
            np.subtract(x_sq[c : c + step, None] + d_sq[None, :], np.multiply(logk, 2.0, out=logk), out=logk)
            np.divide(np.multiply(logk, -0.5, out=logk), var, out=logk)
            shift[c : c + step] = _shifted_exp(logk, out=logk)[1]
            wsum[c : c + step] = logk.sum(axis=1)
        if weighted_mean:
            mean[lo : lo + rows] = (w @ data) / wsum[:, None]
    return np.log(sums) + shifts + log_norm - math.log(n), mean


def kde_log_density(data: np.ndarray, cov, x) -> np.ndarray:
    """Log density of the equal-weight Gaussian KDE with shared covariance.

    One :func:`_kernel_pass` in coordinates whitened by the kernel covariance,
    unlike building an n-component :class:`GaussianMixture`.  Data and
    evaluation points must be finite.
    """
    kernel = Gaussian.from_cov(cov)
    data, _ = _as_points(data, kernel.dim)
    pts, single = _as_points(x, kernel.dim)
    whiten = kernel.evecs / np.sqrt(kernel.evals)
    log_norm = -0.5 * (kernel.dim * _LOG_2PI + kernel.log_det)
    out, _ = _kernel_pass(pts @ whiten, data @ whiten, 1.0, log_norm)
    return float(out[0]) if single else out
