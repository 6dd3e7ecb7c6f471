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
once; :func:`_posterior` is the one responsibility and pull pass, which :func:`score` and the DAE map with its
log Jacobian determinant, :func:`_dae_map_log_det`, share.  :func:`_log_normaliser` is the one log normalising
constant, :func:`_spectral` the one ``V diag(values) V^T`` (covariance, square roots and stacks alike),
:func:`_decomposed` the one covariance validator (finite, symmetric, not flat), :func:`_pointwise` the one
point-or-batch rule, and ``verify.ResidualReport`` the one owner of a check's verdict.

:class:`Gaussian`, a mean and one eigenbasis, is the one route to the
single-Gaussian closed forms.  The DAE map, the one-shot and continuous pushforwards (``Gaussian`` values, each
made by :meth:`Gaussian._law`), the continuous map, the entropies and the Bures-Wasserstein distance are all
eigenvalue maps of one decomposed covariance.  :func:`_dae_factor` is the one per-axis DAE factor they share (the
one-shot law's ``lambda F^2`` too; inlined in the float loop :func:`_one_shot_path`, the one composed law), and
:meth:`Gaussian._scaled` the one affine map every single-Gaussian point map runs, one GEMM per state into one
(L, n, m) stack that one :class:`ParticleEnsemble` call checks and, frozen, adopts.  The
analytic flows of ``transport`` are :meth:`Gaussian._flow` and :meth:`Gaussian._orbit`, their rows :func:`_path_rows`.
The one number rule is :func:`_number`, under which a bool or text is no number (:func:`_holds_no_number`), as for
every entry of a sequence (:func:`_flat_floats`) and array (:func:`_floats`, judged by its dtype); on it stand
:func:`_checked_time` (every time, noise variance and layer variance), :func:`_checked_times` (a sequence of them),
:func:`_checked_count` and :func:`_checked_parameter` (a check's); a seed is ``rand._checked_seed``'s, the CLI's too.

On the sample side, :func:`_kernel_pass` is the one Gaussian kernel sum over
data (kernel regression map and KDE alike), in O(points * data * m) time, half
that at the data themselves: one small GEMM per cache-sized chunk of pairs, on
centred coordinates, memory one chunk plus O((points + data) m); at the data two more GEMMs sum each chunk.
:meth:`Estimate.mean_of` is the one Monte Carlo mean with its standard error.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import InitVar, dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, DomainError, SingularityError
from .rand import _checked_seed, substream

_LOG_2PI = math.log(2.0 * math.pi)

# Validation tolerances for mixture construction.
_WEIGHT_SUM_TOL = 1e-12
_SYMMETRY_TOL = 1e-12

#: Default sample count for Monte Carlo estimates; always paired with a
#: reported standard error.
MC_DEFAULT_N = 100_000

#: Most (point, datum) pairs one cache-sized chunk of a kernel pass holds at once.
_KERNEL_CHUNK_PAIRS = 65_536


class Estimate(NamedTuple):
    """A numeric estimate with its standard error (0.0 when exact)."""

    value: float
    stderr: float

    @classmethod
    def mean_of(cls, samples: np.ndarray) -> "Estimate":
        """Monte Carlo mean of per-sample terms with its standard error; fewer than two samples have none.

        Past float range an infinite mean has stderr 0, as the closed forms' rows do, and a spread whose square
        overflows has an infinite one.
        """
        if samples.shape[0] < 2:
            raise ContractError(f"a Monte Carlo estimate needs at least two samples, got {samples.shape[0]}")
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = float(np.mean(samples)), float(np.std(samples, ddof=1))
        return cls(mean, 0.0 if math.isinf(mean) else std / math.sqrt(samples.shape[0]))


def _shifted_exp(a: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``exp(a - shift)`` of an (n, k) array, into ``out`` if given, and its row maxima ``shift`` (0 if not finite)."""
    shift = np.max(a, axis=1)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    return np.exp(np.subtract(a, shift[:, None], out=out), out=out), shift


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only in place, so a frozen value cannot be changed through it."""
    arr.flags.writeable = False
    return arr


def _holds_no_number(x) -> bool:
    """Whether ``x`` is or holds a bool or text, which NumPy reads as numbers: a NumPy value by its dtype, with no
    per-entry work, a list or tuple entry by entry."""
    if isinstance(x, (list, tuple)):  # all plain floats and ints: none, at C speed
        return not {float, int}.issuperset(map(type, x)) and any(map(_holds_no_number, x))
    return isinstance(x, (bool, str, bytes)) or getattr(getattr(x, "dtype", None), "kind", "f") in "bSU"


def _floats(x, what: str) -> np.ndarray:
    """``x`` as a float array; a bool, text, a ragged nesting or an int past float range raises ContractError naming
    ``what``."""
    if _holds_no_number(x):
        raise ContractError(f"{what} must be an array of numbers, got a bool or text")
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"{what} must be an array of numbers ({exc})") from None


def _decomposed(mean: np.ndarray, cov: np.ndarray, what: str):
    """``(cov, evals, evecs)`` of finite (m, m) or (k, m, m) covariances symmetric to 1e-12 * max(1, max |cov|).

    ``cov`` comes back symmetrized; the positivity rule rejects each smallest eigenvalue <= 1e-12 x largest.
    """
    m = mean.shape[-1]
    if cov.shape != mean.shape + (m,):
        raise ContractError(f"{what} covariance shape {cov.shape} does not match mean shape {mean.shape}")
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise ContractError(f"{what} mean and covariance must be finite")
    flipped = np.swapaxes(cov, -1, -2)
    if np.max(np.abs(cov - flipped)) > _SYMMETRY_TOL * max(1.0, float(np.max(np.abs(cov)))):
        raise ContractError(f"{what} covariance must be symmetric within 1e-12")
    cov = 0.5 * cov + 0.5 * flipped  # halves first: no overflow near the largest float
    evals, evecs = np.linalg.eigh(cov)
    bad = np.flatnonzero(evals[..., 0] <= 1e-12 * evals[..., -1])
    if bad.size:
        label = what if cov.ndim == 2 else f"{what} {bad[0]}"
        raise ContractError(f"{label} covariance is not positive definite (eigenvalues {np.atleast_2d(evals)[bad[0]]})")
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
        w = np.atleast_1d(_floats(self.weights, "mixture weights"))
        mu = np.atleast_2d(_floats(self.means, "mixture means"))
        cov = _floats(self.covs, "mixture covariances")
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
        object.__setattr__(self, "_log_norm", _frozen(_log_normaliser(evals)))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_components(cls, components: Iterable[tuple[float, Sequence[float], Sequence[Sequence[float]]]]):
        comps = list(components)
        if not comps:
            raise ContractError("mixture needs at least one component")
        return cls([c[0] for c in comps], [np.atleast_1d(_floats(c[1], "mixture means")) for c in comps],
                   [np.atleast_2d(_floats(c[2], "mixture covariances")) for c in comps])

    @classmethod
    def single(cls, mean: Sequence[float], cov: Sequence[Sequence[float]]):
        """One-component mixture, i.e. a plain Gaussian."""
        return cls.from_components([(1.0, mean, cov)])

    @classmethod
    def standard(cls, dim: int):
        """Standard normal in ``dim`` dimensions."""
        return cls.single(np.zeros(dim := _checked_count(dim, "dim")), np.eye(dim))

    # -- basic accessors ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def k(self) -> int:
        return self.means.shape[0]

    def __repr__(self) -> str:  # keep array dumps out of tracebacks
        return f"GaussianMixture(k={self.k}, dim={self.dim})"

    # -- JSON interchange ------------------------------------------------------

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GaussianMixture":
        """The mixture of ``{"dim", "components": [{"weight", "mean", "cov"}, ...]}``; ``dim`` is a count."""
        try:
            dim, comps = doc["dim"], doc["components"]
            mix = cls.from_components([(c["weight"], c["mean"], c["cov"]) for c in comps])
        except (KeyError, TypeError) as exc:
            raise ContractError(f"malformed mixture document: {exc}") from exc
        if mix.dim != _checked_count(dim, "dim"):
            raise ContractError(f"declared dim {dim} does not match component dim {mix.dim}")
        return mix


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """n points in R^m and their seed, read-only: the points are checked finite and a copy of them is frozen."""

    points: np.ndarray
    seed: int
    _adopt: InitVar[bool] = False  # the package's own fresh array: checked, kept, not copied

    def __post_init__(self, _adopt: bool):
        pts = _floats(self.points, "ensemble points")
        pts = pts[:, np.newaxis] if pts.ndim == 1 else pts
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ContractError("ensemble points must form a nonempty (n, m) array")
        with np.errstate(over="ignore", invalid="ignore"):  # one pass; min and max only if the sum is not finite
            if not (math.isfinite(pts.sum()) or (math.isfinite(pts.min()) and math.isfinite(pts.max()))):
                raise ContractError("ensemble points must be finite")
        object.__setattr__(self, "points", _frozen(pts if _adopt else pts.copy()))
        object.__setattr__(self, "seed", _checked_seed(self.seed))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __repr__(self) -> str:
        return f"ParticleEnsemble(n={self.n}, dim={self.dim}, seed={self.seed})"


def _moments(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased sample covariance of (n, m) points; zero covariance if n = 1.

    Taken of the points over 2^e, e the exponent of their largest |x|, and scaled back: exact, so
    bit for bit ``np.cov`` where that neither overflows nor underflows, and finite where the moments are.
    """
    n, m = points.shape
    e = int(np.frexp(np.max(np.abs(points)))[1])
    unit = np.ldexp(points, -e)
    cov = np.atleast_2d(np.cov(unit.T, ddof=1)) if n >= 2 else np.zeros((m, m))
    return np.ldexp(unit.mean(axis=0), e), np.ldexp(cov, 2 * e)


# -- point handling -----------------------------------------------------------


def _as_points(x, dim: int, what: str = "points") -> tuple[np.ndarray, bool]:
    """Coerce finite x (a scalar or vector is one point) into an (n, dim) array; report whether it was one point."""
    arr = _floats(x, what)
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{what} must be finite")
    if arr.ndim > 2:
        raise ContractError(f"{what} must be a scalar, a vector or an (n, m) array")
    pts = arr if arr.ndim == 2 else arr.reshape(1, -1)
    if pts.shape[1] != dim:
        raise ContractError(f"{what} have dimension {pts.shape[1]}, expected {dim}")
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


def _number(value, what: str, error: type = ContractError) -> float:
    """``value`` as one float, by the one number rule: a bool, a sequence, ``None``, text or an array of one or more
    dimensions raises ``error``."""
    try:  # float alone would read the text "0.5" and True, and an older NumPy's one-element array with a warning
        if not _holds_no_number(value) and getattr(value, "ndim", 0) == 0:
            return float(value)
    except OverflowError:  # an int past the largest float
        raise error(f"{what} must be finite, got a number beyond float range") from None
    except (TypeError, ValueError):
        pass
    raise error(f"{what} must be one number, got {value!r}")


def _checked_time(t, what: str = "time", positive: bool = False, signed: bool = False) -> float:
    """``t`` as a float that is finite and nonnegative (positive if asked, of any sign if ``signed``)."""
    t = _number(t, what)
    if not math.isfinite(t) or (t < 0.0 and not signed) or (positive and t == 0.0):
        kind = "" if signed else " and positive" if positive else " and nonnegative"
        raise ContractError(f"{what} must be finite{kind}, got {t}")
    return t


def _flat_floats(values, what: str) -> np.ndarray:
    """A flat float array of ``values``, a bare number as one; the first entry not one number raises :func:`_number`."""
    try:  # an array is typed by its dtype with no per-entry work; a list or tuple is also scanned for bools
        ts = np.asarray(values)
    except ValueError:  # a ragged nesting
        ts = np.array(values, dtype=object)
    if ts.dtype.kind not in "iuf" or _holds_no_number(values):  # a bool, text, None, a nesting, an int past float range
        ts = np.frompyfunc(lambda v: _number(v, what), 1, 1)(np.array(values, dtype=object))
    if (ts := np.atleast_1d(np.asarray(ts, dtype=float))).ndim != 1:
        raise ContractError(f"{what}s must form a flat sequence, got shape {ts.shape}")
    return ts


def _checked_times(values, what: str, positive: bool = False) -> np.ndarray:
    """:func:`_flat_floats` of ``values``; the first entry out of range raises :func:`_checked_time`'s error."""
    ts = _flat_floats(values, what)
    bad = np.flatnonzero(~((ts > 0.0 if positive else ts >= 0.0) & (ts < math.inf)))  # NaN fails both
    if bad.size:
        _checked_time(ts[bad[0]], what, positive)
    return ts


def _checked_count(value, what: str) -> int:
    """A count as an int in [1, sys.maxsize], NumPy's index range: whole floats such as 3.0 pass; fractions, NaN, inf
    and counts past that range raise :class:`ContractError`."""
    if not (1.0 <= (count := _number(value, what)) <= sys.maxsize and count.is_integer()):
        raise ContractError(f"{what} must be >= 1 and whole, at most {sys.maxsize}, got {value}")
    return int(count)


def _checked_parameter(value, what: str, upper: float = math.inf) -> float:
    """A check's numeric parameter as a finite float in ``(0, upper]``, else :class:`DomainError`."""
    value = _number(value, what, DomainError)
    if not (0.0 < value <= upper and math.isfinite(value)):
        bound = "positive" if upper == math.inf else f"in (0, {upper:g}]"
        raise DomainError(f"{what} must be finite and {bound}, got {value}")
    return value


def _checked_alpha(alpha) -> float:
    """A Renyi order: finite, positive and != 1 (the limit alpha -> 1 is :func:`entropy`)."""
    if (alpha := _checked_parameter(alpha, "alpha")) == 1.0:
        raise DomainError("alpha must be != 1; use entropy() for the alpha -> 1 limit")
    return alpha


@dataclass(frozen=True, eq=False)
class Gaussian:
    """N(mean, V diag(evals) V^T) with ascending ``evals`` and orthonormal ``evecs`` V.

    Every single-Gaussian object of the transport keeps V and maps the
    eigenvalues: the one-shot pushforward sends lambda to
    lambda (lambda / (lambda + t))^2 (no overflow at any finite lambda and t >= 0),
    the continuous pushforward to lambda - 2 t.  Maps return new values and
    never re-decompose, so a composed flow factorizes once.  :meth:`from_cov`
    is the validating constructor.  :meth:`one_shot` (above minus the smallest eigenvalue) and
    :meth:`continuous` take any finite t, which lets finite-difference stencils step slightly below 0;
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
        cov = np.atleast_2d(_floats(cov, "Gaussian covariance"))
        mean = np.zeros(cov.shape[0]) if mean is None else np.atleast_1d(_floats(mean, "Gaussian mean"))
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
        return _spectral(self.evals, self.evecs)

    @property
    def critical_time(self) -> float:
        """Singular time of the continuous flow: half the smallest eigenvalue."""
        return float(self.evals[0]) / 2.0

    def as_mixture(self) -> GaussianMixture:
        return GaussianMixture.single(self.mean, self.cov)

    def _law(self, evals: np.ndarray) -> "Gaussian":
        """This mean and eigenbasis with the eigenvalues ``evals``, frozen: the one maker of a pushforward law."""
        return Gaussian(self.mean, _frozen(evals), self.evecs)

    def one_shot(self, t: float) -> "Gaussian":
        """One-shot pushforward: eigenvalues ``lambda F^2``, F the :func:`_dae_factor`; this law if half of t is 0, and
        :class:`DomainError` at or below minus the smallest eigenvalue, F's pole."""
        if (t := _checked_time(t, signed=True)) <= -self.evals[0] and 0.5 * t != 0.0:
            raise DomainError(f"one-shot time must be above minus the smallest eigenvalue {self.evals[0]}, got {t}")
        return self if 0.5 * t == 0.0 else self._law(self.evals * np.square(_dae_factor(self.evals, t)))

    def composed(self, taus: Sequence[float]) -> np.ndarray:
        """Eigenvalue path of a composed one-shot flow: row l holds the eigenvalues after l layers, row 0 these.

        One plain O(L) float loop per axis, :func:`_one_shot_path`, over finite, nonnegative taus, so row l
        equals l repeated :meth:`one_shot`; no value is built and no function called per layer.
        """
        halves = (0.5 * _checked_times(taus, "layer variance")).tolist()
        return np.array([_one_shot_path(lam, halves) for lam in self.evals.tolist()], dtype=float).T.copy()

    def _flow(self, x: np.ndarray, taus: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """``(states, path)`` of the composed flow on (n, m) points ``x``: ``path`` is :meth:`composed`, state l
        :meth:`_scaled` at the product of the first l layers' :func:`_dae_factor`; no layers give (0, n, m) states."""
        path = self.composed(taus := np.asarray(taus, dtype=float))
        return self._scaled(x, np.cumprod(_dae_factor(path[:-1], taus[:, None]), axis=0)), path

    def _orbit(self, x: np.ndarray, ts: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """``(states, path)`` of the one-shot orbit: state i is :meth:`denoise` at ``ts[i]``, path row i + 1 its law,
        ``evals F_i^2``: bit for bit :meth:`one_shot`, and 0 where half of lambda and t are both 0 (a zero layer)."""
        factors = _dae_factor(self.evals, np.array(ts)[:, None])
        return self._scaled(x, factors), np.vstack([self.evals, self.evals * (factors * factors)])

    def continuous(self, t: float) -> "Gaussian":
        """Pushforward under the continuous flow: ``S - 2 t I`` (unchecked against the horizon)."""
        return self._law(self.evals - 2.0 * _checked_time(t, signed=True))

    def check_horizon(self, t: float, what: str, closed: bool = False) -> None:
        """Raise :class:`SingularityError` once ``t`` reaches the critical time.

        ``closed`` admits the boundary itself (up to 5e-13), where the
        pushforward covariance first loses rank.
        """
        t, tc = _checked_time(t, signed=True), self.critical_time
        if (t > tc + 5e-13) if closed else (t >= tc):
            raise SingularityError(f"{what} is singular at t = {tc!r} (requested t = {t!r})", critical_time=tc)

    @_pointwise
    def denoise(self, x, t: float) -> np.ndarray:
        """DAE map ``x + t score(N(mean, S + t I), x) = (I + t S^{-1})^{-1} (x - mean) + mean`` at t >= 0."""
        t = _checked_time(t, "noise variance")
        if t == 0.0:
            return x.copy()
        return self._scaled(x, _dae_factor(self.evals, t)[None])[0]

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
        return self._scaled(x, np.sqrt(1.0 - 2.0 * t / self.evals)[None])[0]

    def _scaled(self, x: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """The (L, n, m) stack whose row l is ``(x - mean) V diag(F_l) V^T + mean``, F_l row l of (L, m) factors.

        One GEMM per state, of the rows ``[x - mean, 1]`` against ``[V diag(F_l) V^T ; mean]`` (:func:`_spectral`),
        into the stack.  A state depends on n, not on L: within ``(2 m + 2) eps (|V| |Z0 F_l| + |result|)`` of the
        row form ``(Z0 F_l) V^T + mean``, ``Z0 = (x - mean) V``, and that bit for bit if V is a signed permutation
        and the mean 0.
        """
        n, m = x.shape  # the stack first: made after the rows, it read 1 MB more peak RSS at n = 100 000
        stack, right, rows = np.empty((len(factors), n, m)), np.empty((len(factors), m + 1, m)), np.ones((n, m + 1))
        right[:, :m], right[:, m] = _spectral(factors, self.evecs), self.mean
        np.subtract(x, self.mean, out=rows[:, :m])  # an x - mean past float range warns here, as it overflows
        return np.matmul(rows, right, out=stack)

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
        r1, r2 = (_spectral(np.sqrt(np.clip(g.evals, 0.0, None)), g.evecs) for g in (self, other))
        x, _, yt = np.linalg.svd(r1 @ r2)
        diff, dm = r1 - r2 @ (yt.T @ x.T), self.mean - other.mean
        return float(np.sqrt(dm @ dm + np.sum(diff * diff)))

    def entropy(self) -> float:
        """Differential entropy ``(m/2) log(2 pi e) + (1/2) log det S``."""
        return _gaussian_entropy(self.dim, float(_log_dets(self.evals)))

    def renyi(self, alpha: float) -> float:
        """Renyi functional ``(int N^alpha - 1) / (alpha - 1)``, infinite past exp overflow."""
        return float(_gaussian_renyi(self.dim, _log_dets(self.evals), _checked_alpha(alpha)))


def _dae_factor(lam, t):
    """The DAE map's factor ``lambda / (lambda + t)`` on an eigen-axis, on floats or arrays alike.

    Taken of halves, as :func:`_decomposed` symmetrizes, so no finite lambda or t overflows; bit for
    bit ``lam / (lam + t)`` wherever that sum is finite and no operand is subnormal.  An axis whose half
    eigenvalue is 0 has the factor 0 (to the mean) at every t > 0, half of t underflowing or not: no 0/0.
    """
    return (half := 0.5 * lam) / (half + 0.5 * t + (half == 0.0))  # + 1 only where the factor is 0 anyway


def _one_shot_path(lam, halves) -> list:
    """``lam``, then its image under the one one-shot eigenvalue map ``lambda (lambda / (lambda + t))^2`` after each
    layer of half variance ``0.5 t`` in ``halves``, on floats or arrays alike, with :func:`_dae_factor` inlined."""
    path = [lam]
    for h in halves:
        try:
            q = (0.5 * lam) / (0.5 * lam + h)
        except ZeroDivisionError:  # 0.5 lam and h both 0 on floats: a zero layer is the identity, as in one_shot
            q = 1.0
        path.append(lam := lam * (q * q))
    return path


def _log_dets(evals: np.ndarray) -> np.ndarray:
    """``log det`` of each row of an ``(..., m)`` eigenvalue stack; -inf where the row's smallest reaches 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.min(evals, axis=-1) <= 0.0, -np.inf, np.log(evals).sum(axis=-1))


def _log_normaliser(evals: np.ndarray) -> np.ndarray:
    """Log normalising constant ``-(m log 2 pi + log det S) / 2`` of each row of an ``(..., m)`` eigenvalue stack."""
    return -0.5 * (evals.shape[-1] * _LOG_2PI + _log_dets(evals))


def _spectral(values: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """The symmetric matrix ``V diag(values) V^T`` of per-axis ``values`` in the eigenbasis ``V``, or a stack."""
    return (evecs * values[..., np.newaxis, :]) @ np.swapaxes(evecs, -1, -2)


def _gaussian_entropy(m: int, log_det):
    """Differential entropy of an m-dimensional Gaussian from its log determinant, on floats or arrays alike."""
    return 0.5 * (m * (_LOG_2PI + 1.0) + log_det)


def _gaussian_renyi(m: int, log_det, alpha: float):
    """Renyi functional of an m-dimensional Gaussian from its log determinant(s), infinite past exp overflow."""
    log_int = 0.5 * (1.0 - alpha) * (m * _LOG_2PI + np.asarray(log_det)) - 0.5 * m * math.log(alpha)
    ints = np.fromiter(map(math.exp, np.minimum(log_int, 700.0).ravel().tolist()), float)  # NumPy's exp moves last bits
    return (np.where(log_int < 700.0, ints.reshape(log_int.shape), math.inf) - 1.0) / (alpha - 1.0)


def _path_rows(path: np.ndarray) -> np.ndarray:
    """Closed-form ``(T, 4)`` rows (entropy, 0, Renyi-2, 0) of the Gaussians with the eigenvalue rows ``path``."""
    m, log_dets, zeros = path.shape[1], _log_dets(path), np.zeros(len(path))
    return np.stack([_gaussian_entropy(m, log_dets), zeros, _gaussian_renyi(m, log_dets, 2.0), zeros], axis=1)


def _component_terms(mix: GaussianMixture, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-component log densities (with log weights) and offsets, all components at once.

    Returns ``(logs, y)``: ``logs[n, i]`` is ``log w_i + log N(x_n; mu_i, S_i)``
    and ``y[i, n]`` is ``x_n - mu_i`` in the cached eigenbasis of ``S_i``.
    """
    y = (pts[np.newaxis] - mix.means[:, np.newaxis]) @ mix._evecs
    quad = np.sum(y * y / mix._evals[:, np.newaxis], axis=2)
    logs = (np.log(mix.weights) + mix._log_norm)[:, np.newaxis] - 0.5 * quad
    return np.ascontiguousarray(logs.T), y


def _pulls(mix: GaussianMixture, y: np.ndarray) -> np.ndarray:
    """The (k, n, m) per-component pulls ``-S_i^{-1}(x_n - mu_i)`` of :func:`_component_terms`' offsets ``y``."""
    return -(y / mix._evals[:, np.newaxis]) @ np.swapaxes(mix._evecs, 1, 2)


def _weighted(weights: np.ndarray, pulls: np.ndarray) -> np.ndarray:
    """``sum_i weights[:, i] * pulls[i]``, adding the components in order."""
    return np.sum(weights.T[:, :, np.newaxis] * pulls, axis=0)


def _posterior(mix: GaussianMixture, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(resp, pulls, score)`` at (n, m) points: the (n, k) responsibilities, the :func:`_pulls` and their mean."""
    logs, y = _component_terms(mix, pts)
    resp = _shifted_exp(logs)[0]
    resp /= resp.sum(axis=1, keepdims=True)
    pulls = _pulls(mix, y)
    return resp, pulls, _weighted(resp, pulls)


def _dae_map_log_det(mix: GaussianMixture, t: float, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(D(x), log det J(x))`` of the DAE map ``D(x) = x + t score(smooth(mix, t), x)`` at (n, m) points.

    ``D(x) = E[X | X + sqrt(t) Z = x]`` (Tweedie), so ``J = Cov(X | x) / t``, symmetric positive definite:
    ``J = sum_i r_i [S_i (S_i + tI)^{-1} + t (g_i - s)(g_i - s)^T]``, with r the responsibilities, g the
    pulls and s the score of one :func:`_posterior` pass over the smoothed mixture.  Both terms are PSD, so
    nothing cancels far from the means.  ``D(x)`` is bit for bit ``transport.MixtureExact(mix, t).apply(x)``;
    the Jacobian costs O(n k m^2) beyond that map.
    """
    resp, pulls, s = _posterior(smooth(mix, t), pts)
    dev = pulls - s
    shrink = _spectral(_dae_factor(mix._evals, t), mix._evecs).reshape(mix.k, -1)
    spread = np.matmul(np.moveaxis(dev * resp.T[:, :, np.newaxis], 0, 2), np.moveaxis(dev, 0, 1))
    jac = (resp @ shrink).reshape(spread.shape) + t * spread
    return pts + t * s, np.linalg.slogdet(jac)[1]


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
    return _posterior(mix, x)[2]


@_pointwise
def density_gradient(mix: GaussianMixture, x) -> np.ndarray:
    """Gradient of the density itself: sum_i w_i N_i(x) (-S_i^{-1}(x - mu_i))."""
    logs, y = _component_terms(mix, x)
    return _weighted(np.exp(logs), _pulls(mix, y))


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
    """Convolve with a centered Gaussian of full covariance ``cov``; a sum past the largest float is a ContractError."""
    cov = np.atleast_2d(_floats(cov, "kernel covariance"))
    if cov.shape != (mix.dim, mix.dim):
        raise ContractError(f"kernel covariance must be {mix.dim}x{mix.dim}")
    with np.errstate(over="ignore"):  # a sum past the largest float is rejected below
        covs = mix.covs + cov[np.newaxis]
    if not np.isfinite(covs).all():
        raise ContractError(f"the added covariance (largest |entry| {float(np.max(np.abs(cov)))!r}) is not finite "
                            "or overflows a component covariance")
    return GaussianMixture(mix.weights, mix.means, covs)


# -- entropies -----------------------------------------------------------------


def entropy(mix: GaussianMixture, n: int = MC_DEFAULT_N, seed: int = 0) -> Estimate:
    """Differential entropy ``-E[log mu]``.

    A single-component mixture gets the closed form
    ``(m/2) log(2 pi e) + (1/2) log det S`` with zero standard error; a
    k >= 2 mixture gets a seeded Monte Carlo estimate with its standard error.
    """
    n, seed = _checked_count(n, "sample size"), _checked_seed(seed)  # typed where input enters, used or not
    if mix.k == 1:
        return Estimate(Gaussian.of(mix).entropy(), 0.0)
    return Estimate.mean_of(-log_density(mix, sample(mix, n, seed).points))


def renyi_entropy(mix: GaussianMixture, alpha: float, n: int = MC_DEFAULT_N, seed: int = 0) -> Estimate:
    """Renyi entropy functional ``int (mu^alpha - mu) / (alpha - 1)``.

    Closed form for a single Gaussian via ``int N^alpha``; seeded Monte Carlo
    otherwise.  ``alpha`` must be positive and different from 1 (use
    :func:`entropy` for the alpha -> 1 limit).
    """
    alpha, n, seed = _checked_alpha(alpha), _checked_count(n, "sample size"), _checked_seed(seed)
    if mix.k == 1:
        return Estimate(Gaussian.of(mix).renyi(alpha), 0.0)
    return Estimate.mean_of(_renyi_terms(log_density(mix, sample(mix, n, seed).points), alpha))


def _renyi_terms(log_p: np.ndarray, alpha: float) -> np.ndarray:
    """Per-sample Renyi terms ``(p^(alpha-1) - 1) / (alpha - 1)``, whose mean under p is the functional; infinite
    past exp overflow."""
    with np.errstate(over="ignore"):
        return (np.exp((alpha - 1.0) * log_p) - 1.0) / (alpha - 1.0)


# -- sampling ------------------------------------------------------------------


def sample(mix: GaussianMixture, n: int, seed: int) -> ParticleEnsemble:
    """Draw n independent points: component by weight, then a Gaussian draw.

    Bit-reproducible given ``seed``: component selection and normal draws come
    from fixed substreams, and the draw layout does not depend on which
    components get selected.
    """
    n = _checked_count(n, "sample size")
    u = substream(seed, 0).random(n)
    z = substream(seed, 1).standard_normal((n, mix.dim))
    cum = np.cumsum(mix.weights)
    idx = np.minimum(np.searchsorted(cum, u, side="right"), mix.k - 1)
    pts = np.empty((n, mix.dim))
    for i in range(mix.k):
        mask = idx == i
        pts[mask] = mix.means[i] + z[mask] @ _spectral(np.sqrt(mix._evals[i]), mix._evecs[i]).T
    return ParticleEnsemble(pts, seed, _adopt=True)


# -- Gaussian noise identity -----------------------------------------------------


def stein_residual(t: float, eps) -> np.ndarray:
    """Residual of the Gaussian identity ``-t grad nu_t(e) = e nu_t(e)``.

    ``nu_t = N(0, t I)``.  The gradient side is evaluated through the generic
    mixture gradient machinery and the right side through the density, so a
    nonzero residual would expose a defect in either; for Gaussian noise the
    residual is zero up to rounding.
    """
    t = _checked_parameter(t, "noise variance")
    arr = _floats(eps, "noise values eps")
    if arr.size == 0:
        raise ContractError("stein_residual needs at least one noise value eps")
    pts, single = _as_points(arr, 1 if arr.ndim == 0 else arr.shape[-1], "noise values eps")
    noise = GaussianMixture.single(np.zeros(pts.shape[1]), t * np.eye(pts.shape[1]))
    res = -t * density_gradient(noise, pts) - pts * density(noise, pts)[:, np.newaxis]
    return res[0] if single else res


# -- kernel density helpers -------------------------------------------------------


def silverman_covariance(points: np.ndarray, factor: float = 1.0) -> np.ndarray:
    """Silverman-style kernel covariance scaled by the sample covariance.

    Returns ``factor^2 * (4 / (m + 2))^(2 / (m + 4)) * n^(-2 / (m + 4)) * cov``.
    """
    pts = _floats(points, "points")
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ContractError(f"bandwidth selection needs at least two points in an (n, m) array, got shape {pts.shape}")
    n, m = pts.shape
    beta = (4.0 / (m + 2.0)) ** (2.0 / (m + 4.0)) * n ** (-2.0 / (m + 4.0))
    factor = _number(factor, "bandwidth factor")
    with np.errstate(over="ignore"):  # an overflow is the ContractError below, not a RuntimeWarning
        cov = (factor * factor) * beta * _moments(pts)[1]
    if not np.all(np.isfinite(cov)):
        raise ContractError("Silverman kernel covariance must be finite")
    return cov


def _kernel_pass(pts: np.ndarray, data: np.ndarray, var: float, log_norm: float, weighted_mean: bool = False):
    """Log mean of the kernels ``exp(log_norm - |x - d_i|^2 / (2 var))`` over the data, per point.

    With ``weighted_mean`` also returns the kernel-weighted mean of the data
    per point.  Both sets are centred on the data mean (``|x - d|`` does not
    change) and scaled by ``1 / sqrt(var)``, which turns ``|x - d|^2 / var``
    into ``|x - d|^2``, so ``log k_ij = a_ij - |x_i|^2 / 2`` with
    ``a_ij = x_i.d_j - |d_j|^2 / 2``.
    Points go in chunks of at most :data:`_KERNEL_CHUNK_PAIRS` pairs; each
    chunk's ``a`` is one GEMM of the rows ``[x, 1]`` against the ``(m+1, n)``
    matrix ``[d ; -|d|^2 / 2]`` into one reused buffer, then exp in place and
    the row sums (and ``w @ data``).  ``-|x_i|^2 / 2`` is constant along a
    row, so it cancels in the row-max shift and is added back after the log.
    Time is O(points * data * m), memory one chunk plus O((points + data) m).
    Points equal in value to the data take the symmetric route, each pair once, in
    O(n^2 m / 2) and blocks of ``max(1, 2 * _KERNEL_CHUNK_PAIRS // n)`` rows (at most
    1 MiB; at n = 2000, 64 rows ran 5-10% faster than 32): ``[d, 1, -|d|^2 / 2]``
    against ``[d ; -|d|^2 / 2 ; 1]`` from the block's first row on is the log kernel.
    Self terms are exactly 1, so no sum is below 1 and there is no shift.  Two GEMMs
    read the block ``w`` (rows lo:hi) against ``R = [data, 1]`` (ones for a KDE):
    ``w @ R[lo:]`` into its rows, ``w[:, r:].T @ R[lo:hi]`` into later rows.  The
    sums are the last column, the weighted mean the rest over them: last bits off.
    """
    n, m = data.shape
    symmetric = pts.shape == data.shape and np.array_equal(pts, data)
    step = max(1, (2 if symmetric else 1) * _KERNEL_CHUNK_PAIRS // n)
    centre, scale = np.mean(data, axis=0), 1.0 / math.sqrt(var)
    rhs = np.ones((m + 2, n))
    np.multiply(np.subtract(data.T, centre[:, None], out=rhs[:m]), scale, out=rhs[:m])
    np.multiply(np.einsum("ij,ij->j", rhs[:m], rhs[:m]), -0.5, out=rhs[m])
    if symmetric:
        rows, x_sq, shifts = rhs[[*range(m), m + 1, m]].T, 0.0, 0.0
        right = np.column_stack([data, np.ones(n)]) if weighted_mean else np.ones((n, 1))
        acc = np.zeros_like(right)
    else:
        rhs, rows = rhs[: m + 1], np.ones((pts.shape[0], m + 1))
        np.multiply(np.subtract(pts, centre, out=rows[:, :m]), scale, out=rows[:, :m])
        x_sq = np.einsum("ij,ij->i", rows[:, :m], rows[:, :m])
        shifts, sums = np.zeros(pts.shape[0]), np.zeros(pts.shape[0])
        mean = np.zeros_like(pts) if weighted_mean else None
    buf = np.empty(min(step, pts.shape[0]) * n)
    for lo in range(0, pts.shape[0], step):
        chunk = rows[lo : lo + step]
        r, first = chunk.shape[0], lo if symmetric else 0
        w = np.matmul(chunk, rhs[:, first:], out=buf[: r * (n - first)].reshape(r, n - first))
        if symmetric:
            np.fill_diagonal(np.exp(w, out=w), 1.0)
            acc[lo : lo + r] += w @ right[lo:]
            acc[lo + r :] += w[:, r:].T @ right[lo : lo + r]
            continue
        shifts[lo : lo + r] = _shifted_exp(w, out=w)[1]
        sums[lo : lo + r] += w.sum(axis=1)
        if weighted_mean:
            mean[lo : lo + r] += w @ data
    if symmetric:
        sums, mean = acc[:, -1], acc[:, :m] if weighted_mean else None
    return np.log(sums) + shifts - 0.5 * x_sq + log_norm - math.log(n), None if mean is None else mean / sums[:, None]


def kde_log_density(data: np.ndarray, cov, x) -> np.ndarray:
    """Log density of the equal-weight Gaussian KDE with shared covariance.

    One :func:`_kernel_pass` in coordinates whitened by the kernel covariance,
    unlike building an n-component :class:`GaussianMixture`.  Data, at least
    one point, and evaluation points must be finite.
    """
    kernel = Gaussian.from_cov(cov)
    data, _ = _as_points(data, kernel.dim, "data")
    if data.shape[0] == 0:
        raise ContractError("a kernel density estimate needs at least one data point, got none")
    pts, single = _as_points(x, kernel.dim)
    whiten = kernel.evecs / np.sqrt(kernel.evals)
    out, _ = _kernel_pass(pts @ whiten, data @ whiten, 1.0, _log_normaliser(kernel.evals))
    return float(out[0]) if single else out
