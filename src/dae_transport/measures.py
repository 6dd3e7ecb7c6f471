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
once.  :func:`_decomposed` is the one covariance validator (finite,
symmetric, decomposed) for mixtures, single Gaussians and pushforwards.

:class:`_SpectralGaussian` is the one home of the single-Gaussian formulas:
the denoising map, the one-shot and continuous pushforwards, the continuous
map, and the closed-form entropies are all eigenvalue maps of one
decomposed covariance.  :func:`_checked_time` is the one check every time,
noise variance, and layer variance passes where it enters the package, and
:func:`_checked_parameter` the one check of a verification parameter.

On the sample side, :func:`_kernel_pass` is the one Gaussian kernel sum over
data (kernel regression map and KDE alike), and :meth:`Estimate.mean_of` the
one Monte Carlo mean with its standard error.
"""

from __future__ import annotations

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
_SPD_EIG_RATIO = 1e-12  # min eigenvalue must exceed this fraction of the max

#: Default sample count for Monte Carlo estimates; always paired with a
#: reported standard error.
MC_DEFAULT_N = 100_000

#: Most (point, datum) pairs one block of a kernel pass holds at once.
_KERNEL_BLOCK_PAIRS = 8_000_000


class Estimate(NamedTuple):
    """A numeric estimate with its standard error (0.0 when exact)."""

    value: float
    stderr: float

    @classmethod
    def mean_of(cls, samples: np.ndarray) -> "Estimate":
        """Monte Carlo mean of per-sample terms with its standard error."""
        return cls(float(np.mean(samples)), float(np.std(samples, ddof=1) / math.sqrt(samples.shape[0])))


def _shifted_exp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(a - shift)`` of an (n, k) array and its row maxima ``shift`` (0 where not finite)."""
    shift = np.max(a, axis=1)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    return np.exp(a - shift[:, None]), shift


def _decomposed(mean: np.ndarray, cov: np.ndarray, what: str):
    """``(cov, evals, evecs)`` of finite, symmetric covariances, one ``(m, m)`` or ``(k, m, m)``.

    Symmetry is checked to ``1e-12 * max(1, max |cov|)`` and the returned ``cov``
    is symmetrized; each caller applies its own positivity rule to ``evals``.
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
    return (cov, *np.linalg.eigh(cov))


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
        bad = np.flatnonzero(evals[:, 0] <= _SPD_EIG_RATIO * evals[:, -1])
        if bad.size:
            i = bad[0]
            raise ContractError(f"component {i} covariance is not positive definite (eigenvalues {evals[i]})")

        # own all arrays before freezing them, so callers' arrays stay writable
        w = w.copy()
        mu = mu.copy()
        for arr in (w, mu, cov, evals, evecs):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covs", cov)
        object.__setattr__(self, "_evals", evals)
        object.__setattr__(self, "_evecs", evecs)
        # log of the Gaussian normalization constant per component
        log_norm = -0.5 * (mu.shape[1] * _LOG_2PI + np.log(evals).sum(axis=1))
        log_norm.flags.writeable = False
        object.__setattr__(self, "_log_norm", log_norm)

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
        try:
            dim = int(doc["dim"])
            comps = doc["components"]
            mix = cls.from_components([(c["weight"], c["mean"], c["cov"]) for c in comps])
        except (KeyError, TypeError) as exc:
            raise ContractError(f"malformed mixture document: {exc}") from exc
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
        if not np.all(np.isfinite(pts)):
            raise ContractError("ensemble points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
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
class _SpectralGaussian:
    """N(mean, V diag(evals) V^T) with ascending ``evals`` and orthonormal ``evecs`` V.

    Every single-Gaussian object of the transport keeps V and maps the
    eigenvalues: the one-shot pushforward sends lambda to
    lambda^3 / (lambda + t)^2, the continuous pushforward to lambda - 2 t, and
    both maps act per axis of V.  Maps return new values and never
    re-decompose, so a composed flow factorizes once.  They take any t, which
    lets finite-difference stencils step slightly below 0; public entry points
    check their times with :func:`_checked_time`.  Entropies are read straight
    from the eigenvalues, so contractions far below what mixture validation
    accepts (down to underflow) stay representable.
    """

    mean: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray

    @classmethod
    def from_cov(cls, cov, mean=None) -> "_SpectralGaussian":
        """Decompose a finite, symmetric, positive-definite covariance (mean defaults to 0)."""
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        mean = np.zeros(cov.shape[0]) if mean is None else np.atleast_1d(np.asarray(mean, dtype=float))
        _, evals, evecs = _decomposed(mean, cov, "Gaussian")
        if float(evals[0]) <= 0.0:
            raise ContractError("covariance must be positive definite")
        mean = mean.copy()
        mean.flags.writeable = False
        return cls(mean, evals, evecs)

    @classmethod
    def of(cls, mix: GaussianMixture) -> "_SpectralGaussian":
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

    def one_shot(self, t: float) -> "_SpectralGaussian":
        """Pushforward under the one-shot map: ``S (I + t S^{-1})^{-2}``; t = 0 is exact."""
        if t == 0.0:
            return self
        lam = self.evals
        return _SpectralGaussian(self.mean, lam**3 / (lam + t) ** 2, self.evecs)

    def composed(self, taus: Iterable[float]) -> Iterator[tuple[float, "_SpectralGaussian"]]:
        """``(cumulative time, pushforward)`` after each layer of a composed one-shot flow."""
        g, t = self, 0.0
        for tau in taus:
            g, t = g.one_shot(tau), t + tau
            yield t, g

    def continuous(self, t: float) -> "_SpectralGaussian":
        """Pushforward under the continuous flow: ``S - 2 t I`` (unchecked against the horizon)."""
        return _SpectralGaussian(self.mean, self.evals - 2.0 * t, self.evecs)

    def check_horizon(self, t: float, what: str, closed: bool = False) -> None:
        """Raise :class:`SingularityError` once ``t`` reaches the critical time.

        ``closed`` admits the boundary itself (up to 5e-13), where the
        pushforward covariance first loses rank.
        """
        tc = self.critical_time
        if (t > tc + 5e-13) if closed else (t >= tc):
            raise SingularityError(f"{what} is singular at t = {tc!r} (requested t = {t!r})", critical_time=tc)

    def denoise(self, x: np.ndarray, t: float) -> np.ndarray:
        """Denoising map on (n, m) points: ``(I + t S^{-1})^{-1} x + (I + S / t)^{-1} mean``."""
        lam = self.evals
        v = self.evecs
        return (x @ v * (lam / (lam + t)) + self.mean @ v * (t / (lam + t))) @ v.T

    def continuous_map(self, x: np.ndarray, t: float) -> np.ndarray:
        """Continuous-flow map on (n, m) points: ``sqrt(I - 2 t S^{-1}) (x - mean) + mean``."""
        factors = np.sqrt(1.0 - 2.0 * t / self.evals)
        return ((x - self.mean) @ self.evecs * factors) @ self.evecs.T + self.mean

    @property
    def log_det(self) -> float:
        """``log det S``; -inf once the smallest eigenvalue reaches 0."""
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


# -- point handling -----------------------------------------------------------


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce finite x into an (n, dim) array; report whether input was a single point."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ContractError("points must be finite")
    if arr.ndim == 0:
        if dim != 1:
            raise ContractError(f"scalar point given for a {dim}-dimensional mixture")
        return arr.reshape(1, 1), True
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ContractError(f"point has dimension {arr.shape[0]}, mixture has dimension {dim}")
        return arr.reshape(1, dim), True
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise ContractError(f"points have dimension {arr.shape[1]}, mixture has dimension {dim}")
        return arr, False
    raise ContractError("points must be a vector or an (n, m) array")


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


def log_density(mix: GaussianMixture, x) -> float | np.ndarray:
    """Log of the mixture density, stable for strongly smoothed mixtures."""
    pts, single = _as_points(x, mix.dim)
    terms, shift = _shifted_exp(_component_terms(mix, pts)[0])
    out = np.log(terms.sum(axis=1)) + shift
    return float(out[0]) if single else out


def density(mix: GaussianMixture, x) -> float | np.ndarray:
    """Mixture density sum_i w_i N(x; mu_i, S_i)."""
    out = np.exp(log_density(mix, x))
    return float(out) if np.ndim(out) == 0 else out


def score(mix: GaussianMixture, x) -> np.ndarray:
    """Gradient of the log density.

    Computed analytically as the responsibility-weighted sum of the
    per-component terms ``-S_i^{-1}(x - mu_i)``.
    """
    pts, single = _as_points(x, mix.dim)
    logs, y = _component_terms(mix, pts)
    resp = _shifted_exp(logs)[0]
    resp /= resp.sum(axis=1, keepdims=True)
    out = _weighted_pulls(mix, resp, y)
    return out[0] if single else out


def density_gradient(mix: GaussianMixture, x) -> np.ndarray:
    """Gradient of the density itself: sum_i w_i N_i(x) (-S_i^{-1}(x - mu_i))."""
    pts, single = _as_points(x, mix.dim)
    logs, y = _component_terms(mix, pts)
    out = _weighted_pulls(mix, np.exp(logs), y)
    return out[0] if single else out


def laplacian_density(mix: GaussianMixture, x) -> float | np.ndarray:
    """Laplacian of the density.

    Uses the closed form per component:
    ``lap N = N * (|S^{-1}(x - mu)|^2 - tr S^{-1})``.
    """
    pts, single = _as_points(x, mix.dim)
    logs, y = _component_terms(mix, pts)
    solve_sq = np.sum((y / mix._evals[:, np.newaxis]) ** 2, axis=2)
    traces = np.sum(1.0 / mix._evals, axis=1)[:, np.newaxis]
    out = np.sum(np.exp(logs).T * (solve_sq - traces), axis=0)
    return float(out[0]) if single else out


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
        return Estimate(_SpectralGaussian.of(mix).entropy(), 0.0)
    return Estimate.mean_of(-log_density(mix, sample(mix, n, seed).points))


def renyi_entropy(mix: GaussianMixture, alpha: float, n: int = MC_DEFAULT_N, seed: int = 0) -> Estimate:
    """Renyi entropy functional ``int (mu^alpha - mu) / (alpha - 1)``.

    Closed form for a single Gaussian via ``int N^alpha``; seeded Monte Carlo
    otherwise.  ``alpha`` must be positive and different from 1 (use
    :func:`entropy` for the alpha -> 1 limit).
    """
    alpha = _checked_alpha(alpha)
    if mix.k == 1:
        return Estimate(_SpectralGaussian.of(mix).renyi(alpha), 0.0)
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
    dim = 1 if arr.ndim == 0 else arr.shape[-1]
    noise = GaussianMixture.single(np.zeros(dim), t * np.eye(dim))
    pts, single = _as_points(eps, dim)
    grad = density_gradient(noise, pts)
    dens = density(noise, pts)
    res = -t * grad - pts * np.asarray(dens).reshape(-1, 1)
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
    per point.  Points go in row blocks of at most :data:`_KERNEL_BLOCK_PAIRS`
    (point, datum) pairs, so memory stays bounded.  Rows do not interact, but
    BLAS may round the products of a small block differently in the last bits.
    """
    n = data.shape[0]
    rows = max(1, _KERNEL_BLOCK_PAIRS // n)
    d_sq = np.sum(data * data, axis=1)
    log_mean = np.empty(pts.shape[0])
    mean = np.empty_like(pts) if weighted_mean else None
    for lo in range(0, pts.shape[0], rows):
        block = pts[lo : lo + rows]
        logk = -0.5 * (np.sum(block * block, axis=1)[:, None] + d_sq[None, :] - 2.0 * (block @ data.T)) / var
        w, shift = _shifted_exp(logk)
        wsum = w.sum(axis=1)
        log_mean[lo : lo + rows] = np.log(wsum) + shift + log_norm - math.log(n)
        if weighted_mean:
            mean[lo : lo + rows] = (w @ data) / wsum[:, None]
    return log_mean, mean


def kde_log_density(data: np.ndarray, cov, x) -> np.ndarray:
    """Log density of the equal-weight Gaussian KDE with shared covariance.

    One :func:`_kernel_pass` in coordinates whitened by the kernel covariance,
    unlike building an n-component :class:`GaussianMixture`.  Data and
    evaluation points must be finite.
    """
    kernel = _SpectralGaussian.from_cov(cov)
    data, _ = _as_points(data, kernel.dim)
    pts, single = _as_points(x, kernel.dim)
    whiten = kernel.evecs / np.sqrt(kernel.evals)
    log_norm = -0.5 * (kernel.dim * _LOG_2PI + kernel.log_det)
    out, _ = _kernel_pass(pts @ whiten, data @ whiten, 1.0, log_norm)
    return float(out[0]) if single else out
